// Shared knobs for the campaign fabric's coordinator and worker roles.
#pragma once

#include <cstdint>
#include <string>

namespace phifi::fabric {

struct FabricOptions {
  /// Coordinator: listen address. Worker: coordinator address to connect
  /// to. "unix:/path/to.sock" or "tcp:host:port".
  std::string address;
  /// Coordinator: crash-durable lease ledger path ("" = in-memory only —
  /// a coordinator restart then re-leases everything not yet merged).
  std::string ledger_path;
  /// Worker: shard journal path (required; this is the worker's output).
  std::string shard_path;
  /// Attempt indices per lease. Smaller = finer re-balancing after a
  /// worker loss, more coordinator round trips.
  std::uint64_t lease_size = 32;
  /// Worker heartbeat period once welcomed. A heartbeat refreshes the held
  /// lease's deadline (lease 0 between leases) and carries the worker's
  /// observability snapshot (fabric/stats.hpp).
  double heartbeat_seconds = 1.0;
  /// Coordinator reclaims a lease this long after its last heartbeat.
  /// Must comfortably exceed heartbeat_seconds plus one trial's runtime.
  double lease_timeout_seconds = 5.0;
  /// Worker reconnect backoff: initial delay, doubled per failure up to
  /// 10 doublings.
  double reconnect_initial_ms = 200.0;
  /// Coordinator: scrape endpoint address ("tcp:host:port" or
  /// "unix:/path"; "" = no endpoint). Serves /metrics, /campaign.json,
  /// /healthz from the coordinator poll loop (fabric/http.hpp).
  std::string serve_metrics;
  /// Coordinator: campaign run id stamped into traces, shard journals and
  /// history records. 0 = generate one (or adopt the ledger's on resume).
  std::uint64_t run_id = 0;
};

}  // namespace phifi::fabric
