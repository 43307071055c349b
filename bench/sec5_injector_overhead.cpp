// Sec. 5.1 (text) — CAROL-FI's runtime overhead: about 4x the native
// execution time on average, at most 8x. The overhead sources differ
// (GDB + disabled optimizations there; fork isolation, volatile control
// accesses, and progress instrumentation here) but the claim under test is
// the same: the injector keeps trials cheap enough for 10k-trial campaigns.
// Trials fork from a per-slot template that paid setup once, so a trial's
// cost is its run plus fork, inject and classify.
//
// The second table measures the telemetry subsystem's cost: campaign trial
// time with tracing + metrics disabled (the nullptr fast path, which must
// stay within noise of the pre-telemetry injector) vs. enabled (NDJSON
// trace + metrics registry + watchdog histograms), so every observability
// claim ships with its measured price.
//
// The third table measures the observatory's cost the same way: trials
// with the streaming estimator + an always-evaluated (never-firing)
// sequential stop rule vs. the nullptr fast path, emitted to
// BENCH_observatory.json.
//
// The fourth table prices the latency anatomy profiler (docs/PROFILING.md)
// the same way: campaign trial time with the accumulate-only profiler on
// vs. the nullptr fast path, emitted to BENCH_profiler.json — the
// profiler's "integer adds only" claim, measured.
//
// The fifth table measures multi-worker scheduler scaling: campaign
// throughput (trials/s) at --jobs 1/2/4/8 with a group-commit (kBatch)
// journal, telemetry off and on. Trial children are genuinely concurrent
// forks, so speedup tracks the host's core count — on a 4-core host jobs=4
// should reach >= 3x the jobs=1 throughput; on a 1-core container it stays
// near 1x by construction. The table also lands in BENCH_parallel.json so
// the perf trajectory is recorded run over run.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/campaign_journal.hpp"
#include "core/progress.hpp"
#include "telemetry/estimator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"

namespace {

/// Wall-clock milliseconds per trial of a small campaign, with telemetry
/// fully off (`telemetry=false`) or fully on: metrics registry attached to
/// both supervisor and campaign, NDJSON trace to a temp file.
double campaign_ms_per_trial(const phifi::work::WorkloadInfo& info,
                             bool telemetry, std::size_t trials,
                             std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::MetricsRegistry metrics;
  std::unique_ptr<telemetry::TraceWriter> trace;
  char trace_path[] = "/tmp/phifi_sec5_trace_XXXXXX";
  if (telemetry) {
    const int fd = ::mkstemp(trace_path);
    if (fd >= 0) ::close(fd);
    trace = std::make_unique<telemetry::TraceWriter>(trace_path);
  }

  fi::SupervisorConfig sup_config = bench::bench_supervisor_config();
  if (telemetry) sup_config.metrics = &metrics;
  fi::TrialSupervisor supervisor(info.factory, sup_config);
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  if (telemetry) {
    config.metrics = &metrics;
    config.trace = trace.get();
  }
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count() /
      static_cast<double>(trials);
  if (telemetry) ::unlink(trace_path);
  return ms;
}

/// Wall-clock milliseconds per trial with the observatory attached: the
/// streaming CampaignEstimator fed from the commit path plus a sequential
/// stop rule armed with an epsilon so small it never fires — so every
/// committed trial pays the per-commit Wilson evaluation, the worst case.
double estimator_ms_per_trial(const phifi::work::WorkloadInfo& info,
                              bool estimator_on, std::size_t trials,
                              std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::CampaignEstimator estimator;
  fi::SupervisorConfig sup_config = bench::bench_supervisor_config();
  fi::TrialSupervisor supervisor(info.factory, sup_config);
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  if (estimator_on) {
    config.estimator = &estimator;
    config.stop_ci_width = 1e-9;  // evaluated every commit, never reached
  }
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
             .count() /
         static_cast<double>(trials);
}

/// Wall-clock milliseconds per trial with the latency anatomy profiler
/// attached (accumulate-only, the file-less mode the fabric workers use)
/// vs. the nullptr fast path. The profiler claims pure integer adds per
/// commit; this table is where that claim gets a measured price.
double profiler_ms_per_trial(const phifi::work::WorkloadInfo& info,
                             bool profiler_on, std::size_t trials,
                             std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::TrialProfiler profiler;
  fi::TrialSupervisor supervisor(info.factory,
                                 bench::bench_supervisor_config());
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  if (profiler_on) config.profiler = &profiler;
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
             .count() /
         static_cast<double>(trials);
}

/// Campaign throughput (trials per wall-clock second) with `jobs` workers
/// in flight and a group-commit journal, telemetry off or on.
double parallel_trials_per_sec(const phifi::work::WorkloadInfo& info,
                               unsigned jobs, bool telemetry,
                               std::size_t trials, std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::MetricsRegistry metrics;
  std::unique_ptr<telemetry::TraceWriter> trace;
  char trace_path[] = "/tmp/phifi_sec5_ptrace_XXXXXX";
  if (telemetry) {
    const int fd = ::mkstemp(trace_path);
    if (fd >= 0) ::close(fd);
    trace = std::make_unique<telemetry::TraceWriter>(trace_path);
  }
  char journal_path[] = "/tmp/phifi_sec5_pjournal_XXXXXX";
  {
    const int fd = ::mkstemp(journal_path);
    if (fd >= 0) ::close(fd);
  }

  fi::SupervisorConfig sup_config = bench::bench_supervisor_config();
  if (telemetry) sup_config.metrics = &metrics;
  fi::TrialSupervisor supervisor(info.factory, sup_config);
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  config.jobs = jobs;
  config.journal_path = journal_path;
  config.journal_fsync = fi::JournalFsync::kBatch;
  if (telemetry) {
    config.metrics = &metrics;
    config.trace = trace.get();
  }
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  ::unlink(journal_path);
  if (telemetry) ::unlink(trace_path);
  return seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0;
}

}  // namespace

int main() {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;
  util::init_log_from_env();

  util::Table table("Sec. 5.1 - Injector overhead per trial");
  table.set_header({"benchmark", "native [ms]", "supervised trial [ms]",
                    "overhead", "trials/s"});

  for (const auto& info : work::all_workloads()) {
    // Native: setup + run in-process, no supervisor, no fork.
    const auto native_start = Clock::now();
    constexpr int kNativeReps = 5;
    for (int rep = 0; rep < kNativeReps; ++rep) {
      auto workload = info.factory();
      workload->setup(1234);
      phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
      fi::ProgressTracker progress;
      progress.reset(workload->total_steps());
      workload->run(device, progress);
      progress.finish();
    }
    const double native_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  native_start)
            .count() /
        kNativeReps;

    // Supervised: full fork + flip + classify cycle.
    fi::TrialSupervisor supervisor(info.factory,
                                   bench::bench_supervisor_config());
    supervisor.prepare_golden();
    const auto trial_start = Clock::now();
    constexpr int kTrialReps = 20;
    for (int rep = 0; rep < kTrialReps; ++rep) {
      fi::TrialConfig trial;
      trial.trial_seed = 5000 + rep;
      trial.model = fi::FaultModel::kSingle;
      (void)supervisor.run_trial(trial);
    }
    const double trial_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - trial_start)
            .count() /
        kTrialReps;

    table.add_row({std::string(info.name), util::fmt(native_ms, 2),
                   util::fmt(trial_ms, 2),
                   util::fmt(native_ms > 0 ? trial_ms / native_ms : 0.0, 2) +
                       "x",
                   util::fmt(trial_ms > 0 ? 1000.0 / trial_ms : 0.0, 0)});
  }
  bench::print_table(table);

  util::Table telem("Telemetry overhead per trial (trace + metrics)");
  telem.set_header({"benchmark", "telemetry off [ms]", "telemetry on [ms]",
                    "overhead"});
  constexpr std::size_t kTelemetryTrials = 40;
  for (const auto& info : work::all_workloads()) {
    const double off_ms =
        campaign_ms_per_trial(info, /*telemetry=*/false, kTelemetryTrials,
                              /*seed=*/777);
    const double on_ms =
        campaign_ms_per_trial(info, /*telemetry=*/true, kTelemetryTrials,
                              /*seed=*/777);
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    telem.add_row({std::string(info.name), util::fmt(off_ms, 2),
                   util::fmt(on_ms, 2), util::fmt_percent(overhead)});
  }
  bench::print_table(telem);

  // Observatory overhead: the streaming estimator plus a per-commit stop
  // check that never fires. Like the telemetry table, the "off" column is
  // the nullptr fast path. Lands in BENCH_observatory.json.
  util::Table observatory(
      "Observatory overhead per trial (estimator + stop rule)");
  observatory.set_header({"benchmark", "estimator off [ms]",
                          "estimator on [ms]", "overhead"});
  util::json::Value observatory_points = util::json::Value::array();
  for (const auto& info : work::all_workloads()) {
    const double off_ms = estimator_ms_per_trial(
        info, /*estimator_on=*/false, kTelemetryTrials, /*seed=*/777);
    const double on_ms = estimator_ms_per_trial(
        info, /*estimator_on=*/true, kTelemetryTrials, /*seed=*/777);
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    observatory.add_row({std::string(info.name), util::fmt(off_ms, 2),
                         util::fmt(on_ms, 2), util::fmt_percent(overhead)});

    util::json::Value point = util::json::Value::object();
    point["workload"] = info.name;
    point["ms_per_trial_estimator_off"] = off_ms;
    point["ms_per_trial_estimator_on"] = on_ms;
    point["overhead_fraction"] = overhead;
    observatory_points.push_back(std::move(point));
  }
  bench::print_table(observatory);
  {
    util::json::Value doc = bench::bench_doc("sec5_observatory_overhead");
    doc["trials"] = static_cast<std::uint64_t>(kTelemetryTrials);
    doc["points"] = std::move(observatory_points);
    bench::write_bench_doc(doc, "BENCH_observatory.json");
  }

  // Profiler overhead: the latency anatomy accumulator on vs. off. The
  // "on" column pays the commit-path clock reads and histogram adds —
  // BENCH_profiler.json records that this stays within bench noise.
  util::Table prof("Profiler overhead per trial (latency anatomy)");
  prof.set_header({"benchmark", "profiler off [ms]", "profiler on [ms]",
                   "overhead"});
  util::json::Value prof_points = util::json::Value::array();
  for (const auto& info : work::all_workloads()) {
    const double off_ms = profiler_ms_per_trial(
        info, /*profiler_on=*/false, kTelemetryTrials, /*seed=*/777);
    const double on_ms = profiler_ms_per_trial(
        info, /*profiler_on=*/true, kTelemetryTrials, /*seed=*/777);
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    prof.add_row({std::string(info.name), util::fmt(off_ms, 2),
                  util::fmt(on_ms, 2), util::fmt_percent(overhead)});

    util::json::Value point = util::json::Value::object();
    point["workload"] = info.name;
    point["ms_per_trial_profiler_off"] = off_ms;
    point["ms_per_trial_profiler_on"] = on_ms;
    point["overhead_fraction"] = overhead;
    prof_points.push_back(std::move(point));
  }
  bench::print_table(prof);
  {
    util::json::Value doc = bench::bench_doc("sec5_profiler_overhead");
    doc["trials"] = static_cast<std::uint64_t>(kTelemetryTrials);
    doc["points"] = std::move(prof_points);
    bench::write_bench_doc(doc, "BENCH_profiler.json");
  }

  // Parallel scheduler scaling: one representative workload, --jobs sweep.
  // Speedup is relative to jobs=1 within the same telemetry setting.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  util::Table scaling("Parallel scheduler scaling (kBatch journal, " +
                      std::to_string(cores) + " host cores)");
  scaling.set_header({"jobs", "trials/s (telemetry off)", "speedup",
                      "trials/s (telemetry on)", "speedup"});
  const auto& scale_info = work::all_workloads().front();
  const std::size_t kScalingTrials = bench::env_size("PHIFI_TRIALS", 48);
  constexpr unsigned kJobsSweep[] = {1, 2, 4, 8};

  util::json::Value points = util::json::Value::array();
  double base_off = 0.0;
  double base_on = 0.0;
  for (const unsigned jobs : kJobsSweep) {
    const double off = parallel_trials_per_sec(
        scale_info, jobs, /*telemetry=*/false, kScalingTrials, /*seed=*/888);
    const double on = parallel_trials_per_sec(
        scale_info, jobs, /*telemetry=*/true, kScalingTrials, /*seed=*/888);
    if (jobs == 1) {
      base_off = off;
      base_on = on;
    }
    const double speedup_off = base_off > 0.0 ? off / base_off : 0.0;
    const double speedup_on = base_on > 0.0 ? on / base_on : 0.0;
    scaling.add_row({std::to_string(jobs), util::fmt(off, 1),
                     util::fmt(speedup_off, 2) + "x", util::fmt(on, 1),
                     util::fmt(speedup_on, 2) + "x"});

    util::json::Value point = util::json::Value::object();
    point["jobs"] = jobs;
    point["trials_per_sec_telemetry_off"] = off;
    point["trials_per_sec_telemetry_on"] = on;
    point["speedup_telemetry_off"] = speedup_off;
    point["speedup_telemetry_on"] = speedup_on;
    points.push_back(std::move(point));
  }
  bench::print_table(scaling);

  util::json::Value bench_point = bench::bench_doc("sec5_parallel_scaling");
  bench_point["workload"] = scale_info.name;
  bench_point["trials"] = static_cast<std::uint64_t>(kScalingTrials);
  bench_point["host_cores"] = cores;
  bench_point["journal_fsync"] = "batch";
  bench_point["points"] = std::move(points);
  bench::write_bench_doc(bench_point, "BENCH_parallel.json");
  return 0;
}
