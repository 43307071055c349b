// Campaign fabric coordinator: leases attempt-index ranges to workers,
// reclaims them on stall/crash/partition, and survives its own crashes
// via the lease ledger. See docs/FABRIC.md for the protocol and the
// failure matrix, and docs/FLEET_OBSERVABILITY.md for the live
// aggregation plane (the fleet fold, heartbeat snapshots, the scrape
// endpoint, correlation ids).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "core/campaign.hpp"
#include "fabric/options.hpp"
#include "telemetry/estimator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/trace.hpp"

namespace phifi::fabric {

/// What a coordinator run ends with. Every tally is the fleet fold: the
/// per-attempt LeaseDone details folded in attempt order up to the
/// campaign finish line, bit-identical to what phifi_parse reports over the
/// merged shards.
struct CoordinatorResult {
  /// The fold reached the finish line: the trial count, or the
  /// --stop-ci-width target (then stopped_early). Equals fleet_boundary.
  bool complete = false;
  bool interrupted = false;   ///< stop_flag fired
  bool stopped_early = false; ///< the finish line was the CI stop
  std::uint64_t workers_seen = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_reclaimed = 0;
  /// Campaign run id this coordinator served under (resolved from
  /// options.run_id, the resumed ledger, or freshly generated).
  std::uint64_t run_id = 0;
  std::uint64_t fleet_completed = 0;  ///< injected attempts inside boundary
  std::uint64_t fleet_masked = 0;
  std::uint64_t fleet_sdc = 0;
  std::uint64_t fleet_due = 0;
  std::uint64_t fleet_not_injected = 0;
  std::map<std::string, std::uint64_t> fleet_due_kinds;
  /// The fold reached the finish line, so fleet_* above are final rather
  /// than a partial prefix.
  bool fleet_boundary = false;
};

/// Runs the coordinator event loop until the fleet fold reaches the finish
/// line or has walked the whole retry budget, or `campaign.stop_flag`
/// fires. Single-threaded: one poll() loop owns the listener, every worker
/// connection, lease deadlines, the ledger, the scrape endpoint, and the
/// progress/metrics/estimator feeds.
///
/// `fingerprint` is the campaign fingerprint workers must match — derive
/// it with campaign_fingerprint() from a prepared supervisor so the
/// coordinator validates against exactly what a worker computes.
///
/// `metrics` (optional) gets the campaign.* counters and `estimator`
/// (optional) the outcomes of that same fold, through the commit point's
/// own mappings, so both match a --jobs 1 run bit for bit.
CoordinatorResult run_coordinator(const fi::CampaignConfig& campaign,
                                  std::uint64_t fingerprint,
                                  const FabricOptions& options,
                                  telemetry::MetricsRegistry* metrics,
                                  telemetry::TraceWriter* trace,
                                  telemetry::CampaignEstimator* estimator,
                                  telemetry::ProgressEmitter* progress,
                                  std::ostream& out);

}  // namespace phifi::fabric
