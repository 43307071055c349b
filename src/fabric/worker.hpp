// Campaign fabric worker: leases attempt-index ranges from a coordinator,
// executes them with the ordinary slot scheduler, and journals every
// committed record to its own checksummed shard. See docs/FABRIC.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/campaign.hpp"
#include "core/supervisor.hpp"
#include "fabric/options.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace phifi::fabric {

struct WorkerResult {
  bool complete = false;     ///< coordinator said the campaign is over
  bool interrupted = false;  ///< stop_flag fired
  bool rejected = false;     ///< handshake refused (fingerprint mismatch)
  bool aborted = false;      ///< circuit breaker tripped mid-lease
  /// No live coordinator link for 4 x lease_timeout_seconds: by then the
  /// coordinator has reclaimed every lease this worker held.
  bool unreachable = false;
  /// How long the coordinator had been unreachable when the worker gave up.
  double unreachable_seconds = 0.0;
  std::string reject_reason;
  std::uint64_t worker_id = 0;
  /// Campaign run id adopted from the coordinator's WELCOME (0 = never
  /// welcomed); stamped into the shard header and the trace header.
  std::uint64_t run_id = 0;
  std::uint64_t leases_done = 0;
  /// Attempts executed by this process this run (excludes shard-resume
  /// records replayed from disk).
  std::uint64_t executed = 0;
};

/// Runs the worker loop: connect (with exponential backoff), lease,
/// execute via Campaign::run_range, journal to the shard, heartbeat,
/// repeat — until the coordinator sends kShutdown or stop_flag fires, or
/// the worker has had no live link for 4 x lease_timeout_seconds (a
/// coordinator that is gone, or was never there).
///
/// The shard journal (options.shard_path) is the worker's durable output
/// and its resume state: a restarted worker replays it, skips attempts it
/// already committed, and reclaims its in-flight lease via the HELLO
/// handshake. `campaign.journal_path` is ignored here — the shard is the
/// journal.
WorkerResult run_worker(fi::TrialSupervisor& supervisor,
                        const fi::CampaignConfig& campaign,
                        std::uint64_t fingerprint,
                        const FabricOptions& options,
                        telemetry::MetricsRegistry* metrics,
                        telemetry::TraceWriter* trace, std::ostream& out);

}  // namespace phifi::fabric
