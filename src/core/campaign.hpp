// Fault-injection campaign: many supervised trials plus bookkeeping.
//
// The paper injects >=10,000 faults per benchmark, split across the four
// fault models, and reports (Fig. 4-6) outcome fractions overall, per fault
// model (PVF), and per execution-time window, plus per-code-portion
// criticality (Sec. 6). Campaign runs the trials and accumulates exactly
// those tallies, plus the per-trial log whose SDC summaries feed the
// spatial and tolerance analyses (Fig. 2-3).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign_journal.hpp"
#include "core/supervisor.hpp"
#include "telemetry/estimator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"

namespace phifi::fi {

/// What one attempt index of a campaign is: a trial to fork, or a verdict
/// decided without a child (`decided`, committed as is).
struct AttemptPlan {
  TrialConfig trial;
  std::optional<TrialResult> decided;
};

/// A campaign's per-attempt plan, a pure function of (campaign seed,
/// attempt index): every jobs value, resume, lease and fold must get the
/// same answer. Without one a campaign follows the injection rule; the
/// beam's strike draw (radiation::BeamPlan) is the other implementation.
class CampaignPlan {
 public:
  virtual ~CampaignPlan() = default;
  [[nodiscard]] virtual AttemptPlan attempt(std::uint64_t seed,
                                            std::uint64_t index) const = 0;
  /// The plan's own parameters, mixed into the journal fingerprint.
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;
};

struct CampaignConfig {
  /// Number of *injected* trials to run (NotInjected trials are retried and
  /// not counted; a retry cap guards against pathological workloads). A
  /// beam campaign's execution budget.
  std::size_t trials = 1000;
  std::uint64_t seed = 0xcab01ef1ULL;
  SelectionPolicy policy = SelectionPolicy::kCarolFi;
  /// Fault models to cycle through, in equal proportion.
  std::vector<FaultModel> models{FaultModel::kSingle, FaultModel::kDouble,
                                 FaultModel::kRandom, FaultModel::kZero};
  double earliest_fraction = 0.01;
  double latest_fraction = 0.99;
  std::size_t max_retry_factor = 3;  ///< retries allowed = factor * trials

  /// Worker slots: up to this many forked trials in flight at once
  /// (1 = classic sequential campaign). Trial seeds are indexed by attempt
  /// counter and completions commit in attempt order, so any jobs value —
  /// and any resume — produces bit-identical tallies. Not part of the
  /// journal fingerprint: a campaign may be resumed with a different jobs.
  unsigned jobs = 1;

  /// Sequential stopping: when > 0, the campaign ends early at the first
  /// attempt-order commit boundary where the Wilson CI half-width (95%) of
  /// the overall SDC proportion is <= this value. Evaluated only at the
  /// deterministic commit point — never on raw completion order — so
  /// --jobs 1 and --jobs N stop at the identical attempt with bit-identical
  /// tallies; in-flight attempts past the stop are killed uncommitted, like
  /// finish-line overshoot. Part of the journal fingerprint (a resume must
  /// stop where the original would have) and re-evaluated during replay.
  /// This is an engineering stop rule, not a hypothesis test: see
  /// docs/OBSERVATORY.md on repeated peeking.
  double stop_ci_width = 0.0;

  /// Error-count finish line (the beam experiment's rule): when either is
  /// > 0, the campaign ends at the first commit whose tallies hold min_sdc
  /// SDCs and min_due DUEs. Both 0, as in every injection campaign, turns
  /// it off.
  std::uint64_t min_sdc = 0;
  std::uint64_t min_due = 0;
  /// nullptr = the injection rule. Shared, so every copy of the config
  /// (a fabric worker's, a merge's) plans and fingerprints alike.
  std::shared_ptr<const CampaignPlan> plan;

  // ---- durability / supervision ----

  /// Write-ahead journal path ("" = no journal). Every trial attempt is
  /// appended as it completes, so a killed campaign can be resumed.
  std::string journal_path;
  /// Resume from an existing journal at journal_path: replay its records
  /// into the tallies (in attempt-index order, duplicates dropped) and
  /// continue from the next unseen attempt index. Trial seeds derive from
  /// (campaign seed, attempt index), so a resumed campaign is bit-identical
  /// to an uninterrupted one. Rejected (throws) if the journal's config
  /// fingerprint does not match.
  bool resume = false;
  JournalFsync journal_fsync = JournalFsync::kEveryRecord;
  /// Group-commit knobs, used only with JournalFsync::kBatch.
  JournalBatchPolicy journal_batch;
  /// Cooperative stop: checked between trials. When it becomes true the
  /// in-flight trials finish, the journal is flushed, and run() returns
  /// with result.interrupted set; run_range() cancels its range instead.
  /// Wire SIGINT/SIGTERM handlers to this.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Circuit breaker: abort (journal intact, result.aborted set) after this
  /// many consecutive infrastructure failures (fork/waitpid errors — not
  /// trial DUEs, which are results).
  std::size_t max_consecutive_failures = 5;
  /// Exponential backoff before retrying a failed trial attempt:
  /// initial * 2^n milliseconds, capped at 10 doublings.
  unsigned retry_backoff_initial_ms = 100;

  // ---- telemetry (all optional, not owned, must outlive run()) ----

  /// NDJSON trace: run() writes a "campaign" header and an "end" summary.
  /// The per-trial record is the journal's. nullptr disables tracing.
  telemetry::TraceWriter* trace = nullptr;
  /// Metrics sink: campaign.* counters/gauges plus the trial-latency
  /// histogram. nullptr disables metric feeding.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Streaming proportion estimator, fed at the deterministic commit point
  /// (replayed trials included, so its state survives resume). nullptr
  /// disables feeding; the --stop-ci-width rule works either way (it reads
  /// the tallies directly).
  telemetry::CampaignEstimator* estimator = nullptr;
  /// Trial latency anatomy profiler, fed at the deterministic commit point
  /// with the per-phase breakdown (fork/setup/inject/run/classify plus the
  /// scheduler's reorder-buffer wait, journal append, and batched fsync
  /// flush). nullptr keeps the commit path clock-free.
  telemetry::TrialProfiler* profiler = nullptr;
};

/// Masked/SDC/DUE counts with convenience rates.
struct OutcomeTally {
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;

  [[nodiscard]] std::uint64_t total() const { return masked + sdc + due; }
  [[nodiscard]] double sdc_rate() const { return rate(sdc); }
  [[nodiscard]] double due_rate() const { return rate(due); }
  [[nodiscard]] double masked_rate() const { return rate(masked); }
  void add(Outcome outcome);
  OutcomeTally& operator+=(const OutcomeTally& other);

 private:
  [[nodiscard]] double rate(std::uint64_t n) const {
    const std::uint64_t t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(n) / static_cast<double>(t);
  }
};

struct CampaignResult {
  std::string workload;
  OutcomeTally overall;
  /// Indexed by FaultModel enum value (Fig. 5). Program outcomes only.
  std::array<OutcomeTally, 4> by_model;
  /// Indexed by time window (Fig. 6). Program outcomes only.
  std::vector<OutcomeTally> by_window;
  /// Verdicts decided without running the program (a beam campaign's
  /// machine checks): they have no fault model and no window. by_model and
  /// by_window each sum to `overall` together with this.
  OutcomeTally decided;
  /// Keyed by site category (Sec. 6 criticality).
  std::map<std::string, OutcomeTally> by_category;
  /// Keyed by frame kind name ("global"/"worker").
  std::map<std::string, OutcomeTally> by_frame;
  std::uint64_t not_injected = 0;
  /// DUE breakdown keyed by kind name ("crash", "hang", ...); kinds never
  /// seen are absent. Sums to overall.due.
  std::map<std::string, std::uint64_t> due_kinds;
  double total_seconds = 0.0;
  unsigned time_windows = 1;

  /// Full per-trial log (CAROL-FI stores per-injection logs; analyses that
  /// need joint distributions read this).
  std::vector<TrialResult> trials;

  /// Attempt indices committed (completed + NotInjected attempts); resume
  /// continues issuing indices from here.
  std::uint64_t attempts = 0;
  /// Trials replayed from a journal rather than executed this run.
  std::uint64_t resumed_trials = 0;
  bool interrupted = false;  ///< stop_flag fired before completion
  bool aborted = false;      ///< circuit breaker tripped
  /// stop_ci_width precision target reached before the trial count.
  bool stopped_early = false;
};

/// Folds one completed (injected or NotInjected) trial into the tallies.
/// Used by the live campaign loop, journal replay, and phifi_parse so the
/// three can never disagree on aggregation.
void accumulate_trial(CampaignResult& result, const TrialResult& trial);

/// The one outcome→counter mapping: an injected outcome bumps
/// campaign.completed and campaign.masked/sdc/due (a DUE also
/// campaign.due.<due_kind>); a NotInjected one bumps campaign.not_injected.
/// The commit point and the fabric coordinator's fleet fold both count
/// through here, so a coordinator's counters read like a local run's.
void count_outcome(telemetry::MetricsRegistry& metrics, Outcome outcome,
                   std::string_view due_kind);

/// The one outcome→estimator mapping, shared the same way: records an
/// injected outcome in its model×window×category cell and skips
/// NotInjected attempts.
void estimate_outcome(telemetry::CampaignEstimator& estimator,
                      Outcome outcome, const std::string& model,
                      unsigned window, const std::string& category,
                      bool injected);

/// The seed for attempt `attempt_index` of a campaign: a SplitMix64 whiten
/// of campaign_seed ⊕ f(attempt_index). Counter-indexed (not a sequential
/// draw stream) so N in-flight workers, resumes, and infrastructure retries
/// all agree on every attempt's randomness with no shared draw cursor.
std::uint64_t trial_seed_for(std::uint64_t campaign_seed,
                             std::uint64_t attempt_index);

/// Fingerprint of everything a resume must agree on: workload, seed,
/// policy, fault models, injection window, trial count, time windows, and
/// the sequential-stopping epsilon (stop_ci_width); for a campaign with a
/// plan or an error-count finish line also min_sdc, min_due and the plan's
/// own fingerprint.
std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                   std::string_view workload,
                                   unsigned time_windows);

/// Where a campaign's attempt-order commit stream stands against its end.
struct FinishLine {
  bool reached = false;
  /// Reached on the stop_ci_width precision target, short of the trial
  /// count.
  bool stopped_early = false;
};

/// The campaign's one finish-line rule, evaluated only at attempt-order
/// commit boundaries: reached once `overall` holds config.trials injected
/// trials; with min_sdc or min_due > 0, once it holds at least min_sdc
/// SDCs and min_due DUEs; or, with stop_ci_width > 0 (--stop-ci-width),
/// once the Wilson 95% CI half-width of its SDC proportion is at or under
/// stop_ci_width.
/// Shared by the live commit point, journal replay, the fabric shard merge
/// and the coordinator's fleet fold, so they can never disagree on where a
/// campaign ends.
FinishLine campaign_finish_line(const CampaignConfig& config,
                                const OutcomeTally& overall);

/// Observer invoked after every committed injected attempt. The span is
/// always empty: no output bytes reach the campaign process (an SDC's
/// evidence is TrialResult::sdc). It stays in the signature only for the
/// callers that still pass two-argument observers.
using TrialObserver =
    std::function<void(const TrialResult&, std::span<const std::byte>)>;

/// Where run_range() delivers committed attempts, and how its caller (the
/// fabric worker's lease executor) steers it.
struct RangeHooks {
  /// Durable sink: every committed attempt is appended here first, strictly
  /// in index order, with the append and its fsync timed apart for the
  /// profiler. The fabric worker passes its shard journal; run_range itself
  /// never touches config.journal_path. nullptr = no durable record.
  CampaignJournalWriter* journal = nullptr;
  /// Invoked for every committed attempt, strictly in index order, once
  /// the record is in the journal.
  std::function<void(const JournalRecord&)> on_commit;
  /// Invoked once per scheduler iteration (poll pace, sub-millisecond to
  /// tens of ms). Return false to cancel the range: in-flight children are
  /// killed uncommitted, already-committed records stand. The fabric
  /// worker pumps its coordinator socket and sends heartbeats from here,
  /// keeping all network I/O off the per-trial hot path.
  std::function<bool()> on_tick;
};

struct RangeResult {
  std::uint64_t committed = 0;  ///< records committed by this call
  bool cancelled = false;  ///< on_tick returned false or stop_flag fired
  bool aborted = false;    ///< circuit breaker tripped
};

class Campaign {
 public:
  Campaign(TrialSupervisor& supervisor, CampaignConfig config)
      : supervisor_(&supervisor), config_(std::move(config)) {}

  /// Runs the campaign. The supervisor must already have a golden copy.
  CampaignResult run(const TrialObserver& observer = nullptr);

  /// Executes exactly attempt indices [begin, end) through the executor
  /// run() uses, with the caller's sink (hooks.journal, hooks.on_commit)
  /// and no finish line short of `end`: a fabric lease runs to completion
  /// and the campaign-level boundary is decided at merge time. stop_flag
  /// and on_tick cancel rather than drain. Seeds are counter-indexed, so
  /// the records this produces are bit-identical to the same indices of a
  /// --jobs 1 run, whatever process executes them.
  RangeResult run_range(std::uint64_t begin, std::uint64_t end,
                        const RangeHooks& hooks);

 private:
  struct StopPolicy;

  /// The one scheduler loop: launch, retry/backoff, circuit breaker, reap,
  /// and the reorder-buffer commit into `hooks`, over attempt indices
  /// [begin, end) until the stop policy ends it.
  RangeResult execute(std::uint64_t begin, std::uint64_t end,
                      const RangeHooks& hooks, const StopPolicy& stop,
                      const TrialObserver& observer);

  /// Attempt `index`: config.plan's answer, or the injection rule.
  [[nodiscard]] AttemptPlan plan(std::uint64_t index) const;

  TrialSupervisor* supervisor_;
  CampaignConfig config_;
};

}  // namespace phifi::fi
