// Sec. 5.1 (text) — CAROL-FI's runtime overhead: about 4x the native
// execution time on average, at most 8x. The overhead sources differ
// (GDB + disabled optimizations there; fork isolation, volatile control
// accesses, and progress instrumentation here) but the claim under test is
// the same: the injector keeps trials cheap enough for 10k-trial campaigns.
// Trials fork from parked checkpoints of a per-slot template that paid
// setup once, so a trial's cost is fork, inject, classify and its run from
// the latest checkpoint at or before its injection target.
//
// The table is per workload because the paper's worst case is a
// per-benchmark number. The telemetry, scheduler-scaling and mean
// supervisor overheads are gated from repeated perfbench runs by
// tools/perf_gate.py (docs/PROFILING.md).
#include <chrono>

#include "bench/bench_common.hpp"
#include "core/progress.hpp"

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
    fi::TrialSupervisor supervisor(info.factory);
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
  return 0;
}
