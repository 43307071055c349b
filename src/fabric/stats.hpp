// Fleet observability payloads: the per-attempt outcome detail attached to
// LeaseDone frames and ledger DONE records, and the worker snapshot that
// rides every heartbeat.
//
// Both payloads ride the protocol's `text` field as compact JSON. They are
// produced off the trial hot path (the snapshot on the heartbeat timer, the
// detail once per completed lease), which is the FINJ/ZOFI division of
// labor: centralized collection of monitoring data without taxing the trial
// loop.
//
// The per-attempt detail is the coordinator's only record of outcomes:
// accepted LeaseDone ranges tile the attempt-index space disjointly, so
// folding their details in attempt order reproduces, bit for bit, the
// tallies and estimator state a --jobs 1 run reaches at the same boundary
// (see docs/FLEET_OBSERVABILITY.md). The snapshot carries no outcomes: it
// describes the worker process, not the campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/outcome.hpp"
#include "core/supervisor.hpp"
#include "telemetry/profiler.hpp"

namespace phifi::fabric {

/// One committed attempt's classification — everything the fleet fold and
/// the merge boundary rule need, nothing timing-dependent.
struct AttemptOutcome {
  fi::Outcome outcome = fi::Outcome::kNotInjected;
  std::string due_kind;  ///< "none" / "crash" / "hang" / ...
  std::string model;     ///< fault model name
  std::string category;  ///< code-portion category
  unsigned window = 0;   ///< execution-time window
  bool injected = false;
};

/// Encodes the attempts of one lease range, in attempt order, as a JSON
/// array (the attempt index is positional: entry i is `begin + i`).
std::string encode_attempts(const std::vector<AttemptOutcome>& attempts);

/// Decodes an attempt-detail payload. Throws std::runtime_error on
/// malformed input, including an outcome name that is not one of
/// fi::Outcome's (a torn or hostile frame); an empty string decodes to an
/// empty vector.
std::vector<AttemptOutcome> decode_attempts(const std::string& text);

/// Classifies one committed trial into the wire form — the single mapping
/// the worker applies at commit and on shard resume, so the fleet fold
/// cannot drift from the shards.
AttemptOutcome attempt_from_trial(const fi::TrialResult& trial);

/// A worker's periodic snapshot, sent on every heartbeat. Cumulative over
/// this process, so a lost heartbeat costs only freshness.
struct WorkerStats {
  std::uint64_t executed = 0;      ///< attempts committed by this process
  std::uint64_t leases_done = 0;   ///< leases completed and reported
  double uptime_seconds = 0.0;     ///< since the worker process started
  /// Cumulative latency-anatomy histograms (only encoded when non-empty;
  /// a worker running without --profile sends none). The coordinator
  /// re-folds the latest snapshot of every worker, so percentiles are
  /// exact over the fleet, not an average of averages.
  telemetry::ProfileSnapshot profile;

  [[nodiscard]] double trials_per_sec() const {
    return uptime_seconds > 0.0
               ? static_cast<double>(executed) / uptime_seconds
               : 0.0;
  }
};

std::string encode_stats(const WorkerStats& stats);

/// Throws std::runtime_error on malformed input.
WorkerStats decode_stats(const std::string& text);

}  // namespace phifi::fabric
