#include "cli/runner.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "analysis/pvf.hpp"
#include "core/campaign_journal.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/lease.hpp"
#include "fabric/options.hpp"
#include "fabric/worker.hpp"
#include "radiation/beam.hpp"
#include "report/report.hpp"
#include "telemetry/estimator.hpp"
#include "telemetry/history.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/trace.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace phifi::cli {

namespace {

/// Exports the golden run's device counters as gauges so the metrics
/// snapshot carries the arithmetic-intensity context (Sec. 3.2/4.2) next
/// to the campaign counters it explains.
void export_golden_counters(telemetry::MetricsRegistry& metrics,
                            const phi::CounterSnapshot& counters,
                            double golden_seconds) {
  metrics.gauge("phi.golden.flops").set(static_cast<double>(counters.flops));
  metrics.gauge("phi.golden.bytes_read")
      .set(static_cast<double>(counters.bytes_read));
  metrics.gauge("phi.golden.bytes_written")
      .set(static_cast<double>(counters.bytes_written));
  metrics.gauge("phi.golden.bytes_total")
      .set(static_cast<double>(counters.bytes_total()));
  metrics.gauge("phi.golden.arithmetic_intensity")
      .set(counters.arithmetic_intensity());
  metrics.gauge("phi.golden.kernel_launches")
      .set(static_cast<double>(counters.kernel_launches));
  metrics.gauge("phi.golden.seconds").set(golden_seconds);
}

/// Renders the final metrics snapshot, shared by the plain and fabric
/// paths.
void write_metrics_file(const RunnerConfig& config,
                        telemetry::MetricsRegistry& metrics) {
  if (config.metrics_file.empty()) return;
  std::ofstream metrics_stream(config.metrics_file);
  if (!metrics_stream) {
    throw std::runtime_error("cannot open metrics file '" +
                             config.metrics_file + "'");
  }
  if (config.metrics_format == MetricsFormat::kOpenMetrics) {
    metrics_stream << metrics.render_openmetrics();
  } else {
    metrics_stream << metrics.snapshot().dump() << "\n";
  }
}

/// One --history ledger record, shared by the plain and coordinator paths:
/// identity, tallies, throughput, and the estimator's overall and per-cell
/// intervals (left zero without an estimator). Callers add the run id and
/// the status flags.
telemetry::HistoryRecord history_record(
    const RunnerConfig& config, std::string_view workload,
    std::uint64_t fingerprint, const fi::OutcomeTally& tally,
    std::uint64_t not_injected, double elapsed_seconds,
    const telemetry::CampaignEstimator* estimator) {
  telemetry::HistoryRecord record;
  record.workload = std::string(workload);
  record.fingerprint = fingerprint;
  record.git_revision = telemetry::git_describe();
  record.seed = config.seed;
  record.jobs = config.jobs;
  record.trials_target = config.campaign_config().trials;
  record.completed = tally.total();
  record.masked = tally.masked;
  record.sdc = tally.sdc;
  record.due = tally.due;
  record.not_injected = not_injected;
  record.elapsed_seconds = elapsed_seconds;
  record.trials_per_sec =
      elapsed_seconds > 0.0
          ? static_cast<double>(tally.total()) / elapsed_seconds
          : 0.0;
  if (estimator == nullptr) return record;
  const util::Interval sdc_ci = estimator->sdc_interval();
  const util::Interval due_ci = estimator->due_interval();
  record.sdc_rate = sdc_ci.point;
  record.sdc_ci_lo = sdc_ci.lo;
  record.sdc_ci_hi = sdc_ci.hi;
  record.due_rate = due_ci.point;
  record.due_ci_lo = due_ci.lo;
  record.due_ci_hi = due_ci.hi;
  for (const telemetry::CellEstimate& cell : estimator->cells()) {
    telemetry::HistoryCell entry;
    entry.model = cell.key.model;
    entry.window = cell.key.window;
    entry.category = cell.key.category;
    entry.masked = cell.counts.masked;
    entry.sdc = cell.counts.sdc;
    entry.due = cell.counts.due;
    entry.sdc_rate = cell.sdc.point;
    entry.sdc_ci_lo = cell.sdc.lo;
    entry.sdc_ci_hi = cell.sdc.hi;
    record.cells.push_back(std::move(entry));
  }
  return record;
}

/// Fabric dispatch: this process is one role of a sharded campaign — a
/// coordinator leasing ranges, or a worker executing them into its shard
/// journal. Tallies are assembled later by phifi_merge, not here.
RunSummary run_fabric(const RunnerConfig& config,
                      fi::TrialSupervisor& supervisor,
                      telemetry::MetricsRegistry& metrics, bool telemetry_on,
                      telemetry::TraceWriter* trace,
                      telemetry::TrialProfiler* profiler, std::ostream& out) {
  RunSummary summary;
  summary.workload = config.workload;
  summary.mode = config.mode;
  summary.fabric = true;

  // The scrape endpoint and the history ledger both need live registry /
  // estimator state even when no --metrics-out file was asked for.
  const bool fabric_telemetry = telemetry_on ||
                                !config.fabric_serve_metrics.empty() ||
                                !config.history_file.empty();

  fi::CampaignConfig campaign_config = config.campaign_config();
  if (fabric_telemetry) campaign_config.metrics = &metrics;
  // Worker-side only in practice: the coordinator runs no trials, so its
  // commit path never fires. The worker's run_range feeds this profiler and
  // ships its snapshot on every heartbeat.
  campaign_config.profiler = profiler;
  const std::uint64_t fingerprint = fi::campaign_fingerprint(
      campaign_config, supervisor.workload_name(),
      supervisor.time_windows());

  fabric::FabricOptions options;
  options.address = config.fabric_listen.empty() ? config.fabric_connect
                                                 : config.fabric_listen;
  options.ledger_path = config.fabric_ledger;
  options.shard_path = config.fabric_shard;
  options.lease_size = config.fabric_lease_size;
  options.heartbeat_seconds = config.fabric_heartbeat_seconds;
  options.lease_timeout_seconds = config.fabric_lease_timeout_seconds;
  options.reconnect_initial_ms = config.fabric_reconnect_ms;
  options.serve_metrics = config.fabric_serve_metrics;

  util::Table table("Fabric - " + config.workload);
  table.set_header({"metric", "value"});
  if (!config.fabric_listen.empty()) {
    // Resolve the campaign run id before the trace header is written so
    // every trace record (header included) carries it. A resumed ledger
    // keeps its original id — the continued campaign is the same run.
    if (options.run_id == 0 && !options.ledger_path.empty()) {
      try {
        options.run_id = fabric::read_ledger(options.ledger_path).run_id;
      } catch (const std::runtime_error&) {
        // Missing or unreadable ledger: the coordinator proper will
        // open/report it; for id purposes this is a fresh campaign.
      }
    }
    if (options.run_id == 0) options.run_id = telemetry::generate_run_id();
    if (trace != nullptr) {
      trace->set_run_id(telemetry::run_id_to_hex(options.run_id));
      telemetry::TraceCampaign header;
      header.workload = config.workload;
      header.trials = campaign_config.trials;
      header.seed = config.seed;
      header.policy = std::string(to_string(config.policy));
      for (fi::FaultModel model : config.models) {
        header.models.emplace_back(to_string(model));
      }
      header.time_windows = supervisor.time_windows();
      header.jobs = config.jobs;
      trace->campaign(header);
    }

    // The coordinator's counters and estimator are fed the fleet fold (per-
    // attempt LeaseDone details in attempt order), so they are
    // bit-identical to a --jobs 1 run of the same campaign.
    std::unique_ptr<telemetry::CampaignEstimator> estimator;
    if (fabric_telemetry) {
      estimator = std::make_unique<telemetry::CampaignEstimator>();
    }
    std::unique_ptr<telemetry::ProgressEmitter> progress;
    if (config.progress_seconds > 0.0) {
      progress = std::make_unique<telemetry::ProgressEmitter>(
          metrics, out, config.progress_seconds);
      progress->set_estimator(estimator.get(), config.stop_ci_width);
    }
    const auto fabric_start = std::chrono::steady_clock::now();
    const fabric::CoordinatorResult result = fabric::run_coordinator(
        campaign_config, fingerprint, options,
        fabric_telemetry ? &metrics : nullptr, trace, estimator.get(),
        progress.get(), out);
    const double elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      fabric_start)
            .count();
    if (progress != nullptr) summary.progress_emits = progress->emitted();
    summary.interrupted = result.interrupted;
    summary.stopped_early = result.stopped_early;
    summary.fabric_workers = result.workers_seen;
    summary.fabric_leases = result.leases_granted;
    summary.fabric_reclaimed = result.leases_reclaimed;
    if (estimator != nullptr && !config.metrics_file.empty()) {
      estimator->publish(metrics);
    }

    if (!config.history_file.empty()) {
      telemetry::HistoryRecord record = history_record(
          config, supervisor.workload_name(), fingerprint,
          {.masked = result.fleet_masked,
           .sdc = result.fleet_sdc,
           .due = result.fleet_due},
          result.fleet_not_injected, elapsed_seconds, estimator.get());
      record.run_id = telemetry::run_id_to_hex(result.run_id);
      record.stopped_early = result.stopped_early;
      record.interrupted = result.interrupted;
      telemetry::append_history(config.history_file, record);
    }

    table.add_row({"role", "coordinator"});
    table.add_row({"status", result.complete
                                 ? (result.stopped_early
                                        ? "stopped early (CI target)"
                                        : "complete")
                                 : (result.interrupted ? "interrupted"
                                                       : "incomplete")});
    table.add_row({"run id", telemetry::run_id_to_hex(result.run_id)});
    table.add_row({"fleet tally (exact)",
                   std::to_string(result.fleet_completed) + " = " +
                       std::to_string(result.fleet_masked) + " masked / " +
                       std::to_string(result.fleet_sdc) + " sdc / " +
                       std::to_string(result.fleet_due) + " due"});
    table.add_row({"workers seen", std::to_string(result.workers_seen)});
    table.add_row({"leases granted", std::to_string(result.leases_granted)});
    table.add_row({"leases reclaimed",
                   std::to_string(result.leases_reclaimed)});
  } else {
    const fabric::WorkerResult result = fabric::run_worker(
        supervisor, campaign_config, fingerprint, options,
        fabric_telemetry ? &metrics : nullptr, trace, out);
    if (result.rejected) {
      throw std::runtime_error("fabric: coordinator rejected this worker: " +
                               result.reject_reason);
    }
    summary.interrupted = result.interrupted;
    summary.aborted = result.aborted;
    summary.fabric_leases = result.leases_done;
    table.add_row({"role", "worker " + std::to_string(result.worker_id)});
    if (result.run_id != 0) {
      table.add_row({"run id", telemetry::run_id_to_hex(result.run_id)});
    }
    table.add_row({"status", result.complete
                                 ? "campaign complete"
                                 : (result.interrupted ? "interrupted"
                                                       : "stopped")});
    table.add_row({"leases done", std::to_string(result.leases_done)});
    table.add_row({"attempts executed", std::to_string(result.executed)});
    table.add_row({"shard", options.shard_path});
  }
  table.print_text(out);

  if (trace != nullptr) summary.trace_records = trace->records_written();
  write_metrics_file(config, metrics);
  return summary;
}

}  // namespace

RunSummary run_from_config(const RunnerConfig& config, std::ostream& out) {
  const fi::WorkloadFactory factory = work::find_workload(config.workload);
  if (factory == nullptr) {
    throw std::runtime_error("unknown workload '" + config.workload + "'");
  }

  RunSummary summary;
  summary.workload = config.workload;
  summary.mode = config.mode;

  // Telemetry is opt-in: with none of trace_file / metrics_file /
  // progress_seconds set, no registry pointer reaches the supervisor or
  // campaign and the hot paths keep their nullptr fast-path (the sec5
  // bench holds this to ±2% of the untraced trial time).
  telemetry::MetricsRegistry metrics;
  const bool telemetry_on = !config.trace_file.empty() ||
                            !config.metrics_file.empty() ||
                            config.progress_seconds > 0.0;
  std::unique_ptr<telemetry::TraceWriter> trace;
  if (!config.trace_file.empty()) {
    // A resumed campaign appends: the existing records stay the durable
    // history of the trials the journal replays.
    trace = std::make_unique<telemetry::TraceWriter>(
        config.trace_file, /*truncate=*/!config.resume);
  }
  std::unique_ptr<telemetry::TrialProfiler> profiler;
  if (!config.profile_file.empty()) {
    // Same append-on-resume rule as the trace: replayed trials were
    // profiled by the run that executed them.
    profiler = std::make_unique<telemetry::TrialProfiler>(
        config.profile_file, /*truncate=*/!config.resume);
    profiler->set_workload(config.workload);
  }

  fi::SupervisorConfig supervisor_config = config.supervisor_config();
  if (telemetry_on) supervisor_config.metrics = &metrics;
  fi::TrialSupervisor supervisor(factory, supervisor_config);
  supervisor.prepare_golden();
  if (telemetry_on) {
    export_golden_counters(metrics, supervisor.golden_counters(),
                           supervisor.golden_seconds());
  }

  if (!config.fabric_listen.empty() || !config.fabric_connect.empty()) {
    RunSummary fabric_summary = run_fabric(config, supervisor, metrics,
                                           telemetry_on, trace.get(),
                                           profiler.get(), out);
    if (profiler != nullptr) {
      profiler->sync();
      fabric_summary.profile_records = profiler->records_written();
    }
    return fabric_summary;
  }

  fi::CampaignConfig campaign_config = config.campaign_config();
  if (telemetry_on) campaign_config.metrics = &metrics;
  campaign_config.trace = trace.get();
  campaign_config.profiler = profiler.get();
  const bool beam_mode = config.mode == RunMode::kBeam;

  // The streaming estimator feeds the progress line, the exported
  // est.* gauges, and the history ledger's per-cell intervals; the
  // --stop-ci-width rule itself lives in the campaign (tally-based) and
  // works with or without it.
  std::unique_ptr<telemetry::CampaignEstimator> estimator;
  if (telemetry_on || !config.history_file.empty() ||
      config.stop_ci_width > 0.0) {
    estimator = std::make_unique<telemetry::CampaignEstimator>();
    campaign_config.estimator = estimator.get();
  }

  std::unique_ptr<telemetry::ProgressEmitter> progress;
  if (config.progress_seconds > 0.0) {
    progress = std::make_unique<telemetry::ProgressEmitter>(
        metrics, out, config.progress_seconds);
    progress->set_estimator(estimator.get(), config.stop_ci_width);
  }
  fi::TrialObserver observer;
  if (progress != nullptr) {
    observer = [&progress](const fi::TrialResult&,
                           std::span<const std::byte>) { progress->tick(); };
  }

  fi::Campaign campaign(supervisor, campaign_config);
  const auto campaign_start = std::chrono::steady_clock::now();
  const fi::CampaignResult result = campaign.run(observer);
  const double elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    campaign_start)
          .count();
  std::optional<radiation::BeamResult> beam;
  if (beam_mode) {
    // The SDC summaries ride the records, replayed ones included, so a
    // resumed (or merged and replayed) campaign folds like a live one.
    const radiation::BeamResult& folded = beam.emplace(radiation::fold_beam(
        result, radiation::BeamPlan(config.flux), config.seed));
    summary.sdc_fit = folded.sdc_fit.fit;
    summary.due_fit = folded.due_fit.fit;
  }
  if (progress != nullptr) {
    progress->emit_now();  // the final, complete status line
    summary.progress_emits = progress->emitted();
  }
  if (trace != nullptr) summary.trace_records = trace->records_written();
  if (profiler != nullptr) {
    summary.profile_records = profiler->records_written();
  }
  summary.outcomes = result.overall;
  summary.resumed_trials = result.resumed_trials;
  summary.interrupted = result.interrupted;
  summary.aborted = result.aborted;
  summary.stopped_early = result.stopped_early;

  if (!config.metrics_file.empty()) {
    if (estimator != nullptr) estimator->publish(metrics);
    write_metrics_file(config, metrics);
  }

  if (!config.history_file.empty()) {
    telemetry::HistoryRecord record = history_record(
        config, result.workload,
        fi::campaign_fingerprint(campaign_config, result.workload,
                                 result.time_windows),
        result.overall, result.not_injected, elapsed_seconds,
        estimator.get());
    // A resumed campaign (including a replay of merged fabric shards)
    // inherits the journal's run id, so its history record correlates
    // with the coordinator's trace and ledger.
    if (config.resume && !campaign_config.journal_path.empty()) {
      try {
        const std::uint64_t journal_run =
            fi::read_journal(campaign_config.journal_path).header.run_id;
        if (journal_run != 0) {
          record.run_id = telemetry::run_id_to_hex(journal_run);
        }
      } catch (const std::runtime_error&) {
        // Header unreadable: the record simply stays uncorrelated.
      }
    }
    record.stopped_early = result.stopped_early;
    record.interrupted = result.interrupted;
    record.aborted = result.aborted;
    telemetry::append_history(config.history_file, record);
  }

  if (!config.report_file.empty()) {
    std::ofstream report_stream(config.report_file);
    if (!report_stream) {
      throw std::runtime_error("cannot open report file '" +
                               config.report_file + "'");
    }
    report::ReportInputs inputs;
    inputs.campaign = &result;
    inputs.beam = beam ? &*beam : nullptr;
    inputs.counters = &supervisor.golden_counters();
    inputs.golden_seconds = supervisor.golden_seconds();
    inputs.algebraic =
        config.workload == "DGEMM" || config.workload == "LUD";
    report_stream << report::render_report(inputs);
  }

  // The beam table carries no jobs row: it must read the same at every
  // jobs value.
  util::Table table((beam_mode ? "Beam campaign - " : "Injection campaign - ") +
                    config.workload);
  table.set_header({"metric", "value"});
  if (beam) {
    table.add_row({"runs", std::to_string(beam->runs)});
    table.add_row({"fluence [n/cm^2]", util::fmt(beam->fluence, 0)});
    table.add_row({"SDC FIT",
                   util::fmt_interval(beam->sdc_fit.fit, beam->sdc_fit.fit_lo,
                                      beam->sdc_fit.fit_hi, 1)});
    table.add_row({"DUE FIT",
                   util::fmt_interval(beam->due_fit.fit, beam->due_fit.fit_lo,
                                      beam->due_fit.fit_hi, 1)});
  } else {
    table.add_row({"trials", std::to_string(result.overall.total())});
    if (config.jobs > 1) {
      table.add_row({"jobs", std::to_string(config.jobs)});
    }
    table.add_row({"masked",
                   util::fmt_percent(result.overall.masked_rate())});
    table.add_row({"sdc", util::fmt_percent(result.overall.sdc_rate())});
    table.add_row({"due", util::fmt_percent(result.overall.due_rate())});
    table.add_row({"retries (not injected)",
                   std::to_string(result.not_injected)});
    if (result.resumed_trials > 0) {
      table.add_row({"resumed from journal",
                     std::to_string(result.resumed_trials)});
    }
    if (estimator != nullptr && estimator->total() > 0) {
      const util::Interval sdc_ci = estimator->sdc_interval();
      table.add_row({"sdc 95% CI (Wilson)",
                     util::fmt_interval(100.0 * sdc_ci.point,
                                        100.0 * sdc_ci.lo,
                                        100.0 * sdc_ci.hi, 2) + " %"});
    }
  }
  if (result.stopped_early) {
    table.add_row({"status", "stopped early (precision target reached)"});
  }
  if (result.interrupted) table.add_row({"status", "interrupted"});
  if (result.aborted) table.add_row({"status", "aborted (circuit breaker)"});
  table.print_text(out);
  return summary;
}

}  // namespace phifi::cli
