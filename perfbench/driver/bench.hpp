// Campaign benchmark driver: shared types.
//
// One run executes one named workload (a set of paper workloads, each run
// as one injection campaign per round) for a fixed number of seconds and
// reports medians over rounds. See perfbench/README.md for the metric map.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One paper workload inside a benchmark workload. `label` names its size
/// and keys the reference tallies.
struct Member {
  std::string label;
  phifi::fi::WorkloadFactory factory;
};

/// A benchmark workload: what one round runs.
struct WorkloadSet {
  std::string name;
  std::vector<Member> members;
  std::size_t trials = 0;   ///< injected trials per campaign per round
  /// Wilson 95% SDC half-width every member must reach within `trials`
  /// (at p = 0.5, the worst case, n trials give about 0.98 / sqrt(n)).
  double epsilon = 0.0;
  bool fabric = false;      ///< rounds go through coordinator + workers
  /// Traced runs of local sets measure the fabric layer on this member.
  std::size_t fabric_probe_member = 0;
};

[[nodiscard]] const WorkloadSet* find_set(std::string_view name);
[[nodiscard]] std::vector<std::string> set_names();

struct Tally {
  std::uint64_t trials = 0;
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;
};

struct Settings {
  const WorkloadSet* set = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  unsigned jobs = 1;          ///< trial slots of the local campaigns (nproc)
  unsigned worker_jobs = 1;   ///< slots per fabric worker
  unsigned fabric_workers = 2;
  std::size_t trials = 0;     ///< per campaign (the set's, or smoke's)
  double epsilon = 0.0;       ///< the set's, or smoke's
  /// Test hook: "truncate" or "corrupt" damages the first journal of each
  /// round before the output check reads it.
  std::string damage;
  std::string run_dir;        ///< scratch files, relative to the checkout
  std::map<std::string, Tally> reference;
  bool write_reference = false;
};

/// Campaign and input seeds of a member in a round, derived from the
/// workload seed. Inputs change from round to round, so the medians over a
/// run's rounds average over inputs (CLAMR's work depends on its input).
[[nodiscard]] std::uint64_t campaign_seed(const Settings& settings,
                                          std::size_t round,
                                          std::size_t member);
[[nodiscard]] std::uint64_t input_seed(const Settings& settings,
                                       std::size_t round, std::size_t member);

/// The repository's default supervisor/campaign configuration (what
/// phifi_run uses when a config file sets nothing), with only the seeds,
/// trial count, jobs and journal path the benchmark owns filled in.
[[nodiscard]] phifi::fi::SupervisorConfig supervisor_config(
    std::uint64_t input_seed);
[[nodiscard]] phifi::fi::CampaignConfig campaign_config(
    std::uint64_t seed, std::size_t trials, unsigned jobs,
    const std::string& journal_path);

/// Total CPU seconds of this process plus every reaped descendant.
[[nodiscard]] double cpu_seconds();

/// This process's peak resident set since the last reset_peak_rss(), in
/// MiB. Each round resets it, so a round's peak does not carry into the
/// next (a golden run's size depends on the round's inputs).
[[nodiscard]] double peak_rss_mb();
void reset_peak_rss();

// ---- tracing ----

/// Spans recorded by the traced run at each layer boundary, kept in memory
/// and written once at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double now_ms() const {
    return 1000.0 * seconds_between(origin_, Clock::now());
  }
  [[nodiscard]] double ms_at(Clock::time_point t) const {
    return 1000.0 * seconds_between(origin_, t);
  }
  /// Opens a span starting now; returns its id.
  int open(std::string name, int parent);
  void close(int id);
  /// Records a finished span; `trial` groups the spans of one trial.
  int add(std::string name, int parent, double start_ms, double end_ms,
          std::string trial = {});

  /// One NDJSON line per span.
  void write(const std::string& path) const;
  /// Per-name count, total and self time (duration minus the union of its
  /// children's intervals), as text.
  [[nodiscard]] std::string summary() const;

 private:
  struct Span {
    std::string name;
    std::string trial;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// (untraced run) makes both no-ops.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log ? log->open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---- rounds ----

/// Per-layer observations of one campaign, filled only where the run
/// measures that layer.
struct CampaignLayers {
  phifi::telemetry::ProfileSnapshot profile;
  double golden_s = 0.0;
  double drain_s = 0.0;
  double replay_s = 0.0;
  double slot_busy_s = 0.0;       ///< sum of TrialResult::seconds
  double slot_capacity_s = 0.0;   ///< campaign wall x slots
  double hang_slot_s = 0.0;
  std::uint64_t hang_trials = 0;
  std::uint64_t escalated_kills = 0;
  std::uint64_t setup_skipped = 0;
  std::uint64_t not_injected = 0;
  std::uint64_t attempts = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t persist_bytes = 0;
  std::uint64_t template_respawns = 0;
  // fabric
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_reclaimed = 0;
  double worker_golden_s = 0.0;
  double merge_s = 0.0;
};

struct CampaignRun {
  std::string label;
  Tally tally;
  double setup_s = 0.0;      ///< supervisor construction + golden run
  double campaign_s = 0.0;   ///< wall seconds of the campaign calls
  double ci_s = -1.0;        ///< offset into campaign_s where eps was met
  double cpu_s = 0.0;        ///< CPU of this process + reaped descendants
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  CampaignLayers layers;
};

struct RoundResult {
  std::vector<CampaignRun> campaigns;
  double campaign_s = 0.0;
  double setup_s = 0.0;
  double time_to_ci_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  [[nodiscard]] double trials_per_s() const {
    return campaign_s > 0.0 ? static_cast<double>(committed) / campaign_s
                            : 0.0;
  }
};

/// Everything a traced round attaches; null in untraced rounds.
struct Tracing {
  SpanLog* spans = nullptr;
  int parent = -1;
};

/// Runs every member of `members` once, sequentially: local campaigns
/// through TrialSupervisor + Campaign::run, or fabric campaigns through
/// run_coordinator + forked run_worker processes + merge_shards.
RoundResult run_round(const Settings& settings,
                      const std::vector<Member>& members, bool fabric,
                      std::size_t trials, std::size_t round,
                      const Tracing* tracing);

// ---- probes (traced run only) ----

struct ProbeResult {
  double kernel_setup_ms = 0.0;
  double kernel_run_ms = 0.0;
  double kernel_flops = 0.0;
  double kernel_bytes = 0.0;
  double trial_p50_ms = 0.0;
  double trial_p99_ms = 0.0;
  double overhead_x = 0.0;
  double scaling_eff = 0.0;
};

ProbeResult run_probes(const Settings& settings, SpanLog* spans);

// ---- report ----

/// CPU time of all CPUs so far, in jiffies: the total and the part the
/// hypervisor stole (both 0 when /proc/stat is unreadable).
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] HostTicks host_ticks();
/// nproc, kernel, CPU governor, build type, git describe, seed and jobs,
/// plus the share of CPU time stolen since `start`, as a one-line JSON
/// object.
[[nodiscard]] std::string host_stamp(const Settings& settings,
                                     const HostTicks& start);

std::map<std::string, Tally> load_reference(const std::string& path);
void store_reference(const std::string& path,
                     const std::map<std::string, Tally>& tallies,
                     std::uint64_t seed);

/// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated percentile (0..100) of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double pct);

}  // namespace perfbench
