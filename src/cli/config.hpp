// Configuration-file-driven campaigns, mirroring the paper's artifact
// workflow (Appendix A.4): "a configuration file is produced with all the
// information needed by the fault injector; the fault injector is executed
// with the configuration file as an argument and how many times the
// experiment should be repeated."
//
// The format is a flat `key = value` file with `#` comments. Unknown keys
// are an error (typos in reliability campaigns are expensive).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "radiation/beam.hpp"

namespace phifi::cli {

enum class RunMode { kInject, kBeam };

/// How --metrics-out is rendered: the JSON registry snapshot, or the
/// Prometheus/OpenMetrics text exposition (textfile-collector scrapeable).
enum class MetricsFormat { kJson, kOpenMetrics };

struct RunnerConfig {
  RunMode mode = RunMode::kInject;
  std::string workload = "DGEMM";
  std::uint64_t seed = 1;
  std::string report_file;  ///< markdown reliability report ("" = none)

  // Durability: write-ahead journal + resume (see core/campaign_journal).
  std::string journal_file;  ///< per-trial journal ("" = no journal)
  bool resume = false;       ///< replay journal_file and continue
  fi::JournalFsync journal_fsync = fi::JournalFsync::kEveryRecord;
  fi::JournalBatchPolicy journal_batch;  ///< group-commit knobs (kBatch)

  // Telemetry (see src/telemetry/, docs/TELEMETRY.md, docs/OBSERVATORY.md).
  std::string trace_file;    ///< NDJSON trial trace ("" = no trace)
  std::string metrics_file;  ///< final metrics snapshot ("" = none)
  /// Trial latency anatomy profile: one NDJSON `profile` record per
  /// committed attempt ("" = profiler off; see docs/PROFILING.md).
  std::string profile_file;
  MetricsFormat metrics_format = MetricsFormat::kJson;
  double progress_seconds = 0.0;  ///< live progress interval (0 = off)
  /// Longitudinal ledger: append one campaign-summary NDJSON record per
  /// completed campaign ("" = off). phifi_parse --drift compares two.
  std::string history_file;

  // Injection-mode settings.
  std::size_t trials = 1000;
  unsigned jobs = 1;  ///< forked trials in flight (--jobs / `jobs = N`)
  /// Sequential stopping epsilon: end the campaign once the SDC-proportion
  /// Wilson CI half-width is <= this (proportion scale; 0.005 = ±0.5
  /// percentage points; 0 = run the full trial count).
  double stop_ci_width = 0.0;
  fi::SelectionPolicy policy = fi::SelectionPolicy::kCarolFi;
  std::vector<fi::FaultModel> models{
      fi::FaultModel::kSingle, fi::FaultModel::kDouble,
      fi::FaultModel::kRandom, fi::FaultModel::kZero};
  double earliest_fraction = 0.01;
  double latest_fraction = 0.99;

  // Beam-mode settings: the plan's flux, the error-count finish line, and
  // the execution budget (the campaign's `trials` in beam mode).
  double flux = radiation::kDefaultFlux;
  std::uint64_t min_sdc = 100;
  std::uint64_t min_due = 40;
  std::uint64_t max_executions = radiation::kDefaultMaxExecutions;

  /// Supervisor settings, one key per field that has one; the supervisor's
  /// own defaults.
  fi::SupervisorConfig supervisor;

  // Campaign failure handling.
  std::size_t max_consecutive_failures = 5;

  // Fabric: shard one campaign across worker processes (docs/FABRIC.md).
  // Role comes from which address is set: fabric_listen makes this process
  // the coordinator, fabric_connect a worker. Both set is an error.
  std::string fabric_listen;   ///< coordinator listen address
  std::string fabric_connect;  ///< worker: coordinator address
  std::string fabric_shard;    ///< worker: shard journal path (required)
  std::string fabric_ledger;   ///< coordinator: lease ledger ("" = memory)
  std::uint64_t fabric_lease_size = 32;
  double fabric_heartbeat_seconds = 1.0;
  double fabric_lease_timeout_seconds = 5.0;
  double fabric_reconnect_ms = 200.0;
  /// Coordinator: live scrape endpoint ("tcp:host:port" or "unix:/path";
  /// "" = off). Serves /metrics, /campaign.json, /healthz while the
  /// campaign runs (docs/FLEET_OBSERVABILITY.md).
  std::string fabric_serve_metrics;

  /// Cooperative shutdown flag (not a config-file key): wired by phifi_run
  /// to its SIGINT/SIGTERM handlers.
  const std::atomic<bool>* stop_flag = nullptr;

  [[nodiscard]] fi::SupervisorConfig supervisor_config() const {
    return supervisor;
  }
  /// In beam mode `trials` is max_executions, min_sdc/min_due set the finish
  /// line, and the caller attaches radiation::BeamPlan at `flux`.
  [[nodiscard]] fi::CampaignConfig campaign_config() const;
};

/// Why this configuration cannot run, or "" when it can: a beam campaign
/// refuses resume and the fabric roles (see the message).
std::string refusal(const RunnerConfig& config);

/// Parses a config stream. Throws std::runtime_error with a line-numbered
/// message on syntax errors, unknown keys, or invalid values.
RunnerConfig parse_config(std::istream& is);

/// Serializes a config back to the file format (for golden tests and for
/// generating template files).
std::string format_config(const RunnerConfig& config);

}  // namespace phifi::cli
