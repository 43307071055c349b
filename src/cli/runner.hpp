// Campaign runner behind the phifi_run tool: executes the campaign a
// config file describes and prints/logs the results. Lives in the library
// so the tests can drive it without spawning processes.
#pragma once

#include <iosfwd>

#include "cli/config.hpp"

namespace phifi::cli {

struct RunSummary {
  std::string workload;
  RunMode mode = RunMode::kInject;
  fi::OutcomeTally outcomes;      ///< inject mode
  double sdc_fit = 0.0;           ///< beam mode
  double due_fit = 0.0;           ///< beam mode
  std::uint64_t resumed_trials = 0;  ///< replayed from the journal
  bool interrupted = false;  ///< stopped by SIGINT/SIGTERM; journal flushed
  bool aborted = false;      ///< circuit breaker tripped
  bool stopped_early = false;  ///< --stop-ci-width precision target reached

  // Telemetry (see docs/TELEMETRY.md).
  std::uint64_t trace_records = 0;   ///< NDJSON records written
  std::uint64_t progress_emits = 0;  ///< live progress lines rendered
  std::uint64_t profile_records = 0;  ///< NDJSON `profile` records written

  // Fabric roles (docs/FABRIC.md). `fabric` marks a coordinator/worker
  // run; outcome tallies then live in the shard journals, not here.
  bool fabric = false;
  std::uint64_t fabric_workers = 0;   ///< coordinator: distinct workers seen
  std::uint64_t fabric_leases = 0;    ///< granted (coord) / done (worker)
  std::uint64_t fabric_reclaimed = 0; ///< coordinator: leases reclaimed
};

/// Runs the configured campaign. Reports to `out`; the per-trial record is
/// config.journal_file, if set. Returns the summary (also printed).
/// Throws std::runtime_error for unknown workloads.
RunSummary run_from_config(const RunnerConfig& config, std::ostream& out);

}  // namespace phifi::cli
