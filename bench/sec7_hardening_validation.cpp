// Sec. 7 (future work, implemented here) — Validate the mitigation
// techniques derived from the criticality analysis by re-running the fault
// injection campaign against hardened variants:
//
//   DGEMM+ABFT     — checksum repair of data faults, clean abort otherwise;
//   HotSpot+DWC    — TMR'd constants + per-iteration control scrubbing;
//   CLAMR+guards   — bounds-checked Tree, audited Sort, clamped sweep.
//
// The interesting deltas: hardened SDC rate should collapse (faults become
// masked via repair, or detected/DUE via clean aborts), and the runtime
// overhead should stay near the paper's "fair overhead" claim — far below
// the 2x of blanket replication.
#include <chrono>

#include "bench/bench_common.hpp"
#include "core/progress.hpp"
#include "workloads/hardened.hpp"

namespace {

using namespace phifi;

double golden_seconds(fi::WorkloadFactory factory) {
  auto workload = factory();
  workload->setup(0x900d5eedULL);
  phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
  fi::ProgressTracker progress;
  progress.reset(workload->total_steps());
  const auto start = std::chrono::steady_clock::now();
  workload->run(device, progress);
  progress.finish();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  util::init_log_from_env();

  struct Pair {
    const char* label;
    fi::WorkloadFactory baseline;
    fi::WorkloadFactory hardened;
  };
  const Pair pairs[] = {
      {"DGEMM vs DGEMM+ABFT", work::find_workload("DGEMM"),
       &work::make_abft_dgemm},
      {"HotSpot vs HotSpot+DWC", work::find_workload("HotSpot"),
       &work::make_hardened_hotspot},
      {"CLAMR vs CLAMR+guards", work::find_workload("CLAMR"),
       &work::make_hardened_clamr},
      {"LavaMD vs LavaMD+RMT", work::find_workload("LavaMD"),
       &work::make_rmt_lavamd},
  };

  util::Table table("Sec. 7 - Hardening validation under fault injection");
  table.set_header({"configuration", "masked", "sdc (bitwise)",
                    "sdc (>1e-6 rel)", "due", "significant-sdc reduction",
                    "runtime overhead"});

  for (const Pair& pair : pairs) {
    double base_significant = 0.0;
    double base_seconds = 0.0;
    for (const bool hardened : {false, true}) {
      const fi::WorkloadFactory factory =
          hardened ? pair.hardened : pair.baseline;
      fi::TrialSupervisor supervisor(factory);
      supervisor.prepare_golden();
      fi::Campaign campaign(supervisor,
                            bench::bench_campaign_config(0x5ec7));
      const fi::CampaignResult result = campaign.run();
      // ABFT repairs leave float rounding residue that the bitwise
      // classifier still flags; count SDCs whose worst element exceeds a
      // 1e-6 relative tolerance as the "significant" ones.
      std::size_t significant = 0;
      for (const fi::TrialResult& trial : result.trials) {
        significant += trial.outcome == fi::Outcome::kSdc &&
                       trial.sdc.is_sdc_at(1e-6);
      }
      const double seconds = golden_seconds(factory);
      const double significant_rate =
          result.overall.total() == 0
              ? 0.0
              : static_cast<double>(significant) / result.overall.total();

      std::string reduction = "-";
      std::string overhead = "1.00x";
      if (hardened) {
        reduction = base_significant > 0.0
                        ? util::fmt_percent(
                              1.0 - significant_rate / base_significant)
                        : "n/a";
        overhead =
            util::fmt(base_seconds > 0 ? seconds / base_seconds : 0.0, 2) +
            "x";
      } else {
        base_significant = significant_rate;
        base_seconds = seconds;
      }
      table.add_row({result.workload,
                     util::fmt_percent(result.overall.masked_rate()),
                     util::fmt_percent(result.overall.sdc_rate()),
                     util::fmt_percent(significant_rate),
                     util::fmt_percent(result.overall.due_rate()), reduction,
                     overhead});
    }
  }
  bench::print_table(table);
  return 0;
}
