// Ablation — victim-selection policy (DESIGN.md decision #1).
//
// CAROL-FI picks thread -> frame -> variable, which massively over-weights
// small replicated control state relative to a raw memory-strike model. The
// choice drives the headline criticality results (DGEMM's nine loop
// variables, Sec. 6), so this bench re-runs the DGEMM and LavaMD campaigns
// under each selection policy and reports how the outcome split and the
// control-variable share move.
#include "bench/bench_common.hpp"

int main() {
  using namespace phifi;
  util::init_log_from_env();

  const fi::SelectionPolicy policies[] = {
      fi::SelectionPolicy::kCarolFi, fi::SelectionPolicy::kBytesWeighted,
      fi::SelectionPolicy::kGlobalBytesWeighted,
      fi::SelectionPolicy::kWorkerFrameOnly};

  for (const char* workload_name : {"DGEMM", "LavaMD"}) {
    util::Table table("Ablation: selection policy - " +
                      std::string(workload_name));
    table.set_header({"policy", "masked", "sdc", "due",
                      "control+pointer share", "control+pointer due_rate"});

    fi::TrialSupervisor supervisor(work::find_workload(workload_name));
    supervisor.prepare_golden();

    for (fi::SelectionPolicy policy : policies) {
      fi::CampaignConfig config = bench::bench_campaign_config(0xab1a);
      config.policy = policy;
      const fi::CampaignResult result =
          fi::Campaign(supervisor, config).run();

      fi::OutcomeTally control;
      for (const auto& [category, tally] : result.by_category) {
        if (category == "control" || category == "pointer") {
          control += tally;
        }
      }
      const double share =
          result.overall.total() == 0
              ? 0.0
              : static_cast<double>(control.total()) /
                    result.overall.total();
      table.add_row({std::string(to_string(policy)),
                     util::fmt_percent(result.overall.masked_rate()),
                     util::fmt_percent(result.overall.sdc_rate()),
                     util::fmt_percent(result.overall.due_rate()),
                     util::fmt_percent(share),
                     util::fmt_percent(control.due_rate())});
    }
    bench::print_table(table);
  }
  return 0;
}
