#include "core/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace phifi::fi {

namespace {

/// Feeds one completed attempt into the metrics registry. Replayed
/// (journal-resumed) trials bump the campaign.* counters — the live
/// progress view must reflect total campaign state — but stay out of the
/// latency histogram, which records only this process's observations.
void feed_metrics(telemetry::MetricsRegistry& metrics,
                  const TrialResult& trial, bool replayed) {
  count_outcome(metrics, trial.outcome, to_string(trial.due_kind));
  if (trial.outcome == Outcome::kNotInjected) return;
  if (trial.escalated_kill) {
    metrics.counter("campaign.escalated_kills").inc();
  }
  if (!replayed) {
    metrics
        .histogram("campaign.trial_latency_ms",
                   telemetry::default_latency_edges_ms())
        .observe(trial.seconds * 1e3);
  }
}

/// Feeds one committed trial into the streaming estimator, in the commit
/// point's deterministic attempt order (replayed trials included, so
/// estimator state is identical across resumes and jobs values).
void feed_estimator(telemetry::CampaignEstimator& estimator,
                    const TrialResult& trial) {
  estimate_outcome(estimator, trial.outcome,
                   std::string(to_string(trial.record.model)), trial.window,
                   trial.record.category, trial.record.injected);
}

/// A reaped (or decided) trial waiting for its turn at the commit point.
/// Completions arrive in whatever order the workers finish; they are
/// buffered here and committed (journal, tallies, observer) strictly in
/// attempt-index order so any jobs value yields bit-identical campaign
/// state.
struct PendingTrial {
  TrialResult trial;
  /// Reap timestamp, set only when a profiler is attached: the reorder-
  /// buffer wait is commit time minus this.
  std::chrono::steady_clock::time_point reaped_at{};
};

/// Assembles the per-phase latency breakdown of one committed attempt for
/// the profiler. Child wall-clock is the reap interval; the child's own
/// reported setup/inject/classify slices are carved out of it and the rest
/// is the run. Negative residues (clock skew between the child's and the
/// parent's measurements) clamp to zero inside profile_us_from_seconds.
telemetry::TrialProfile make_trial_profile(const TrialResult& trial,
                                           std::uint64_t attempt,
                                           double rob_wait_seconds,
                                           double journal_seconds,
                                           double flush_seconds) {
  using telemetry::ProfilePhase;
  using telemetry::profile_us_from_seconds;
  telemetry::TrialProfile p;
  p.attempt = attempt;
  p.us(ProfilePhase::kFork) =
      profile_us_from_seconds(trial.fork_done_seconds);
  p.us(ProfilePhase::kSetup) = profile_us_from_seconds(trial.setup_seconds);
  p.us(ProfilePhase::kInject) = profile_us_from_seconds(trial.inject_seconds);
  p.us(ProfilePhase::kRun) = profile_us_from_seconds(
      (trial.reaped_seconds - trial.fork_done_seconds) - trial.setup_seconds -
      trial.inject_seconds - trial.classify_child_seconds);
  p.us(ProfilePhase::kClassify) = profile_us_from_seconds(
      (trial.classified_seconds - trial.reaped_seconds) +
      trial.classify_child_seconds);
  p.us(ProfilePhase::kRobWait) = profile_us_from_seconds(rob_wait_seconds);
  p.us(ProfilePhase::kJournal) = profile_us_from_seconds(journal_seconds);
  p.us(ProfilePhase::kFlush) = profile_us_from_seconds(flush_seconds);
  return p;
}

}  // namespace

FinishLine campaign_finish_line(const CampaignConfig& config,
                                const OutcomeTally& overall) {
  const std::uint64_t n = overall.total();
  if (n >= config.trials) return {.reached = true};
  if ((config.min_sdc > 0 || config.min_due > 0) &&
      overall.sdc >= config.min_sdc && overall.due >= config.min_due) {
    return {.reached = true};
  }
  if (config.stop_ci_width <= 0.0 || n == 0) return {};
  const bool precise = util::wilson_interval(overall.sdc, n).half_width() <=
                       config.stop_ci_width;
  return {.reached = precise, .stopped_early = precise};
}

void OutcomeTally::add(Outcome outcome) {
  switch (outcome) {
    case Outcome::kMasked: ++masked; break;
    case Outcome::kSdc: ++sdc; break;
    case Outcome::kDue: ++due; break;
    case Outcome::kNotInjected: break;
  }
}

OutcomeTally& OutcomeTally::operator+=(const OutcomeTally& other) {
  masked += other.masked;
  sdc += other.sdc;
  due += other.due;
  return *this;
}

void count_outcome(telemetry::MetricsRegistry& metrics, Outcome outcome,
                   std::string_view due_kind) {
  switch (outcome) {
    case Outcome::kMasked: metrics.counter("campaign.masked").inc(); break;
    case Outcome::kSdc: metrics.counter("campaign.sdc").inc(); break;
    case Outcome::kDue:
      metrics.counter("campaign.due").inc();
      metrics.counter("campaign.due." + std::string(due_kind)).inc();
      break;
    case Outcome::kNotInjected:
      metrics.counter("campaign.not_injected").inc();
      return;
  }
  metrics.counter("campaign.completed").inc();
}

void estimate_outcome(telemetry::CampaignEstimator& estimator,
                      Outcome outcome, const std::string& model,
                      unsigned window, const std::string& category,
                      bool injected) {
  auto mapped = telemetry::EstimatorOutcome::kMasked;
  switch (outcome) {
    case Outcome::kMasked: mapped = telemetry::EstimatorOutcome::kMasked; break;
    case Outcome::kSdc: mapped = telemetry::EstimatorOutcome::kSdc; break;
    case Outcome::kDue: mapped = telemetry::EstimatorOutcome::kDue; break;
    case Outcome::kNotInjected: return;
  }
  estimator.record(mapped, model, window, category, injected);
}

void accumulate_trial(CampaignResult& result, const TrialResult& trial) {
  result.total_seconds += trial.seconds;
  if (trial.outcome == Outcome::kNotInjected) {
    ++result.not_injected;
    return;
  }
  result.overall.add(trial.outcome);
  if (trial.outcome == Outcome::kDue) {
    ++result.due_kinds[std::string(to_string(trial.due_kind))];
  }
  if (trial.due_kind == DueKind::kMachineCheck) {
    // Decided without a child (the one verdict a plan decides): its record
    // holds defaults, not a fault model or a window.
    result.decided.add(trial.outcome);
  } else {
    result.by_model[static_cast<std::size_t>(trial.record.model)].add(
        trial.outcome);
    if (trial.window < result.by_window.size()) {
      result.by_window[trial.window].add(trial.outcome);
    }
  }
  if (trial.record.injected) {
    result.by_category[trial.record.category].add(trial.outcome);
    result
        .by_frame[trial.record.frame == FrameKind::kWorker ? "worker"
                                                           : "global"]
        .add(trial.outcome);
  }
  result.trials.push_back(trial);
}

std::uint64_t trial_seed_for(std::uint64_t campaign_seed,
                             std::uint64_t attempt_index) {
  // SplitMix64 whitening of the (seed, index) pair: adjacent indices give
  // statistically independent trial seeds, and any worker can compute any
  // attempt's seed without a shared draw cursor.
  util::SplitMix64 mix(campaign_seed ^
                       (0x9e3779b97f4a7c15ULL * (attempt_index + 1)));
  return mix.next();
}

std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                   std::string_view workload,
                                   unsigned time_windows) {
  // FNV-1a over every field a resume must agree on.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (char c : workload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  mix(config.seed);
  mix(static_cast<std::uint64_t>(config.policy));
  mix(config.models.size());
  for (FaultModel model : config.models) {
    mix(static_cast<std::uint64_t>(model));
  }
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &config.earliest_fraction, sizeof(bits));
  mix(bits);
  std::memcpy(&bits, &config.latest_fraction, sizeof(bits));
  mix(bits);
  mix(config.trials);
  mix(time_windows);
  // Sequential stopping is campaign shape: a resume must halt at the same
  // attempt the uninterrupted run would have, so the epsilon (0.0 =
  // disabled) is part of the identity.
  std::memcpy(&bits, &config.stop_ci_width, sizeof(bits));
  mix(bits);
  // A beam campaign's finish line and plan. Injection campaigns mix
  // nothing here, so journals they wrote before still resume.
  if (config.plan != nullptr || config.min_sdc > 0 || config.min_due > 0) {
    mix(config.min_sdc);
    mix(config.min_due);
    mix(config.plan != nullptr ? config.plan->fingerprint() : 0);
  }
  // Scheme version: v2 = counter-indexed seeds + attempt-index model
  // cycling; v3 = v2 + stop_ci_width in the fingerprint. Journals from
  // older schemes must not resume into this one.
  // config_.jobs is deliberately NOT mixed: any jobs value may resume any
  // journal.
  mix(3);
  return hash;
}

struct Campaign::StopPolicy {
  /// The finish line, asked after every commit; true ends the call at that
  /// commit. Empty = no finish line short of `end`: a fabric lease runs to
  /// completion and the campaign boundary is re-derived at merge time,
  /// where it lands on the identical attempt a --jobs 1 run would.
  std::function<bool()> finished;
  /// What stop_flag does: drain (launch nothing new, commit what is in
  /// flight, return — run()) or cancel (kill in-flight attempts
  /// uncommitted — a lease, whose overlap with a re-execution dedups at
  /// merge). on_tick returning false always cancels.
  bool drain_on_stop = false;
};

CampaignResult Campaign::run(const TrialObserver& observer) {
  CampaignResult result;
  result.workload = supervisor_->workload_name();
  result.time_windows = supervisor_->time_windows();
  result.by_window.resize(result.time_windows);
  result.trials.reserve(config_.trials);

  const std::uint64_t fingerprint = campaign_fingerprint(
      config_, result.workload, result.time_windows);

  if (config_.metrics != nullptr) {
    config_.metrics->gauge("campaign.trials_target")
        .set(static_cast<double>(config_.trials));
    config_.metrics->gauge("campaign.workers_active").set(0.0);
  }
  if (config_.trace != nullptr) {
    telemetry::TraceCampaign header;
    header.workload = result.workload;
    header.trials = config_.trials;
    header.seed = config_.seed;
    header.policy = std::string(to_string(config_.policy));
    for (FaultModel model : config_.models) {
      header.models.emplace_back(to_string(model));
    }
    header.time_windows = result.time_windows;
    header.resumed = config_.resume;
    header.jobs = std::max(1u, config_.jobs);
    config_.trace->campaign(header);
  }

  // The finish line, re-evaluated after every replayed and every committed
  // attempt; `finish` keeps the latest verdict for the trailer.
  FinishLine finish;
  const auto finished = [this, &result, &finish] {
    finish = campaign_finish_line(config_, result.overall);
    return finish.reached;
  };

  // Durability: replay an existing journal (resume) and/or open a writer.
  std::unique_ptr<CampaignJournalWriter> journal;
  if (!config_.journal_path.empty()) {
    if (config_.resume) {
      const JournalContents contents = read_journal(config_.journal_path);
      if (contents.header.fingerprint != fingerprint) {
        throw std::runtime_error(
            "campaign resume rejected: journal '" + config_.journal_path +
            "' was written by a different campaign configuration");
      }
      require_same_golden(
          contents.header, supervisor_->golden_digest(),
          "campaign resume rejected: journal '" + config_.journal_path + "'");
      if (contents.dropped_bytes > 0) {
        util::log_warn() << result.workload << ": journal dropped "
                         << contents.dropped_bytes
                         << " bytes of torn tail on resume";
      }
      // Replay in attempt-index order, dropping duplicates: the commit
      // point writes indices contiguously, so after sorting the records
      // must read 0,1,2,... — a repeated index is a duplicate to skip, a
      // gap means everything after it must be re-run.
      std::vector<JournalRecord> records = contents.records;
      std::stable_sort(records.begin(), records.end(),
                       [](const JournalRecord& a, const JournalRecord& b) {
                         return a.attempt_index < b.attempt_index;
                       });
      std::uint64_t expected = 0;
      for (const JournalRecord& record : records) {
        // Replay walks the same commit boundaries the original run did, so
        // the finish line falls on the identical attempt (stop_ci_width is
        // fingerprinted: the journal cannot carry a different epsilon).
        if (finished()) break;
        if (record.attempt_index < expected) {
          util::log_warn() << result.workload
                           << ": journal duplicate of attempt "
                           << record.attempt_index << " skipped on resume";
          continue;
        }
        if (record.attempt_index > expected) {
          util::log_warn() << result.workload << ": journal gap at attempt "
                           << expected << "; re-running from there";
          break;
        }
        accumulate_trial(result, record.trial);
        // Only the process-local metrics and estimator need the replay.
        if (config_.metrics != nullptr) {
          feed_metrics(*config_.metrics, record.trial, /*replayed=*/true);
        }
        if (config_.estimator != nullptr) {
          feed_estimator(*config_.estimator, record.trial);
        }
        ++expected;
      }
      result.attempts = expected;
      result.resumed_trials = result.overall.total();
      util::log_info() << result.workload << ": resumed "
                       << result.resumed_trials << "/" << config_.trials
                       << " trials from '" << config_.journal_path << "'";
      journal = std::make_unique<CampaignJournalWriter>(
          config_.journal_path, contents.valid_bytes, config_.journal_fsync,
          config_.journal_batch);
    } else {
      JournalHeader header;
      header.fingerprint = fingerprint;
      header.time_windows = result.time_windows;
      header.workload = result.workload;
      header.golden_digest = supervisor_->golden_digest();
      journal = std::make_unique<CampaignJournalWriter>(
          config_.journal_path, header, config_.journal_fsync,
          config_.journal_batch);
    }
  }

  if (!finished()) {
    RangeHooks sink;
    sink.journal = journal.get();
    sink.on_commit = [this, &result](const JournalRecord& record) {
      accumulate_trial(result, record.trial);
      if (record.trial.outcome != Outcome::kNotInjected &&
          result.overall.total() % 500 == 0) {
        util::log_info() << result.workload << ": " << result.overall.total()
                         << "/" << config_.trials << " trials";
      }
    };
    // The retry budget bounds the attempt space; NotInjected attempts are
    // re-issued under fresh indices until the finish line or the budget.
    const RangeResult executed = execute(
        result.attempts, config_.trials * (1 + config_.max_retry_factor),
        sink, {finished, /*drain_on_stop=*/true}, observer);
    result.attempts += executed.committed;
    result.interrupted = executed.cancelled;
    result.aborted = executed.aborted;
  }
  result.stopped_early = finish.stopped_early;
  const std::uint64_t completed = result.overall.total();

  if (journal != nullptr) journal->sync();
  if (config_.profiler != nullptr) config_.profiler->sync();
  if (config_.trace != nullptr) {
    telemetry::TraceEnd end;
    end.completed = completed;
    end.masked = result.overall.masked;
    end.sdc = result.overall.sdc;
    end.due = result.overall.due;
    end.not_injected = result.not_injected;
    end.interrupted = result.interrupted;
    end.aborted = result.aborted;
    end.stopped_early = result.stopped_early;
    end.elapsed_ms = config_.trace->now_ms();
    end.due_kinds = result.due_kinds;
    config_.trace->end(end);
    config_.trace->sync();
  }
  if (result.stopped_early) {
    util::log_info() << result.workload << ": precision target reached ("
                     << "SDC CI half-width <= " << config_.stop_ci_width
                     << ") after " << completed << "/" << config_.trials
                     << " trials; stopping early";
  } else if (result.interrupted) {
    util::log_warn() << result.workload << ": campaign interrupted after "
                     << completed << "/" << config_.trials
                     << " trials; journal flushed";
  } else if (result.aborted) {
    util::log_warn() << result.workload << ": campaign aborted after "
                     << config_.max_consecutive_failures
                     << " consecutive infrastructure failures";
  } else if (!finish.reached) {
    util::log_warn() << result.workload << ": campaign stopped after "
                     << result.attempts << " attempts with only " << completed
                     << " injected trials";
  }
  return result;
}

RangeResult Campaign::run_range(std::uint64_t begin, std::uint64_t end,
                                const RangeHooks& hooks) {
  return execute(begin, end, hooks, {}, nullptr);
}

AttemptPlan Campaign::plan(std::uint64_t index) const {
  if (config_.plan != nullptr) {
    return config_.plan->attempt(config_.seed, index);
  }
  // The injection rule.
  AttemptPlan attempt;
  attempt.trial.trial_seed = trial_seed_for(config_.seed, index);
  attempt.trial.model = config_.models[index % config_.models.size()];
  attempt.trial.policy = config_.policy;
  attempt.trial.earliest_fraction = config_.earliest_fraction;
  attempt.trial.latest_fraction = config_.latest_fraction;
  return attempt;
}

RangeResult Campaign::execute(std::uint64_t begin, std::uint64_t end,
                              const RangeHooks& hooks, const StopPolicy& stop,
                              const TrialObserver& observer) {
  assert(config_.plan != nullptr || !config_.models.empty());
  using Clock = std::chrono::steady_clock;
  const unsigned jobs = std::max(1u, config_.jobs);
  RangeResult result;
  const auto publish_active = [this] {
    if (config_.metrics != nullptr) {
      config_.metrics->gauge("campaign.workers_active")
          .set(static_cast<double>(supervisor_->active_slots()));
    }
  };

  // Attempt indices are the campaign's single source of truth: index i's
  // plan (its seed, fault model and policy, or a verdict decided without a
  // child) is a pure function of (seed, i), independent of execution
  // order. Up to `jobs` attempts run in flight; completions land in
  // `pending` and commit strictly in index order, so --jobs 8, --jobs 1,
  // any resume, and any lease split agree bit-for-bit. Attempts launched
  // past the finish line (the scheduler cannot know in advance which
  // attempt completes the campaign) are killed uncommitted.
  supervisor_->ensure_slots(jobs);
  std::uint64_t next_index = begin;    // next fresh attempt
  std::uint64_t commit_index = begin;  // next index to commit
  std::set<std::uint64_t> retry_queue;  // infra-failed indices, smallest first
  std::map<std::uint64_t, PendingTrial> pending;
  std::vector<std::uint64_t> slot_attempt(jobs);  // attempt running per slot
  std::size_t consecutive_failures = 0;
  bool draining = false;  // stop requested: no new launches, commit the rest
  bool finished = false;
  auto backoff_until = Clock::now();

  while (true) {
    // (1) Commit every buffered completion that is next in index order.
    while (!finished && commit_index < end) {
      const auto it = pending.find(commit_index);
      if (it == pending.end()) break;
      PendingTrial ready = std::move(it->second);
      pending.erase(it);
      JournalRecord record;
      record.attempt_index = commit_index;
      record.trial = std::move(ready.trial);
      const TrialResult& trial = record.trial;
      // Durable sink first (write-ahead of everything else), with the
      // append and its fsync timed apart for the profiler.
      double journal_seconds = 0.0;
      double flush_seconds = 0.0;
      if (hooks.journal != nullptr) {
        if (config_.profiler != nullptr) {
          const auto journal_start = Clock::now();
          hooks.journal->append(record);
          flush_seconds = hooks.journal->last_fsync_seconds();
          journal_seconds =
              std::chrono::duration<double>(Clock::now() - journal_start)
                  .count() -
              flush_seconds;
        } else {
          hooks.journal->append(record);
        }
      }
      if (config_.metrics != nullptr) {
        feed_metrics(*config_.metrics, trial, /*replayed=*/false);
      }
      if (config_.estimator != nullptr) {
        feed_estimator(*config_.estimator, trial);
      }
      if (config_.profiler != nullptr) {
        const double rob_wait =
            std::chrono::duration<double>(Clock::now() - ready.reaped_at)
                .count();
        config_.profiler->trial(make_trial_profile(
            trial, commit_index, rob_wait, journal_seconds, flush_seconds));
      }
      if (hooks.on_commit) hooks.on_commit(record);
      if (observer && trial.outcome != Outcome::kNotInjected) {
        observer(trial, {});
      }
      ++commit_index;
      ++result.committed;
      // The finish line is asked only here — the deterministic commit
      // boundary — never on raw completion order. Buffered completions
      // past it stay uncommitted (killed below), so every jobs value
      // stops identically.
      finished = stop.finished && stop.finished();
    }
    if (finished || commit_index >= end) break;

    // (2) Stop requests: drain or cancel (StopPolicy::drain_on_stop).
    const bool stop_requested =
        config_.stop_flag != nullptr &&
        config_.stop_flag->load(std::memory_order_relaxed);
    if (stop_requested && stop.drain_on_stop) {
      result.cancelled = true;
      draining = true;
    } else if (stop_requested || (hooks.on_tick && !hooks.on_tick())) {
      result.cancelled = true;
      break;
    }

    // (3) Launch into free slots: infra-failed retries first (they reuse
    // their original index and therefore their original seed), then fresh
    // indices up to `end`.
    if (!draining && !result.aborted && Clock::now() >= backoff_until) {
      while (supervisor_->active_slots() < jobs) {
        const bool from_retry = !retry_queue.empty();
        std::uint64_t index = 0;
        if (from_retry) {
          index = *retry_queue.begin();
        } else if (next_index < end) {
          index = next_index;
        } else {
          break;  // attempt space exhausted
        }
        AttemptPlan attempt = plan(index);
        if (attempt.decided) {
          // Straight into the reorder buffer, holding no slot (a decided
          // attempt never fails to launch, so it is never a retry). When
          // it is next in line, commit it and ask the finish line before
          // planning further.
          PendingTrial entry;
          entry.trial = std::move(*attempt.decided);
          if (config_.profiler != nullptr) entry.reaped_at = Clock::now();
          pending.emplace(index, std::move(entry));
          ++next_index;
          if (index == commit_index) break;
          continue;
        }
        unsigned slot = 0;
        while (slot < jobs && supervisor_->slot_active(slot)) ++slot;
        assert(slot < jobs);

        try {
          supervisor_->start_trial(slot, attempt.trial);
        } catch (const std::exception& error) {
          // Infrastructure failure (fork, not a trial outcome): back off
          // exponentially and retry the same index; K consecutive ones
          // trip the circuit breaker. One completion anywhere resets the
          // count, so a transient stretch does not accumulate forever —
          // while a genuinely wedged host still trips it even with other
          // slots busy.
          ++consecutive_failures;
          if (config_.metrics != nullptr) {
            config_.metrics->counter("campaign.infra_failures").inc();
          }
          util::log_warn() << supervisor_->workload_name()
                           << ": trial infrastructure failure ("
                           << consecutive_failures << "/"
                           << config_.max_consecutive_failures
                           << "): " << error.what();
          retry_queue.insert(index);
          if (!from_retry) ++next_index;
          if (consecutive_failures >= config_.max_consecutive_failures) {
            result.aborted = true;
          } else {
            const unsigned doublings = static_cast<unsigned>(
                std::min<std::size_t>(consecutive_failures - 1, 10));
            backoff_until =
                Clock::now() +
                std::chrono::milliseconds(
                    static_cast<std::uint64_t>(
                        config_.retry_backoff_initial_ms)
                    << doublings);
          }
          break;
        }
        if (from_retry) {
          retry_queue.erase(retry_queue.begin());
        } else {
          ++next_index;
        }
        slot_attempt[slot] = index;
      }
      publish_active();
    }

    // (4) Nothing in flight: a decided attempt waits to commit, or winding
    // down (drain, abort, attempt space exhausted), or every launch is
    // gated on backoff.
    if (supervisor_->active_slots() == 0) {
      if (pending.contains(commit_index)) continue;
      if (draining || result.aborted) break;
      if (retry_queue.empty() && next_index >= end) break;
      const auto now = Clock::now();
      if (now < backoff_until) {
        // Sleep in small steps so a stop request stays responsive.
        std::this_thread::sleep_for(
            std::min(std::chrono::duration_cast<std::chrono::milliseconds>(
                         backoff_until - now),
                     std::chrono::milliseconds(10)));
      }
      continue;
    }

    // (5) Reap: buffer completions for the commit point; any completion
    // proves the fork machinery works again.
    std::vector<SlotCompletion> done = supervisor_->poll_slots();
    if (done.empty()) {
      supervisor_->wait_for_completion();
      continue;
    }
    consecutive_failures = 0;
    for (SlotCompletion& completion : done) {
      PendingTrial entry;
      entry.trial = std::move(completion.result);
      if (config_.profiler != nullptr) entry.reaped_at = Clock::now();
      pending.emplace(slot_attempt[completion.slot], std::move(entry));
    }
    publish_active();
  }

  // Cancel speculative attempts past the finish line (and anything still
  // in flight on a cancel or abort): killed, never committed, so the
  // commit boundary is identical for every jobs value.
  supervisor_->kill_active_slots();
  publish_active();
  return result;
}

}  // namespace phifi::fi
