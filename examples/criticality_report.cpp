// Criticality report: the Sec. 6 developer workflow end to end.
//
//   $ ./examples/criticality_report [workload] [trials]
//
// Runs a fault-injection campaign against one benchmark (default: CLAMR,
// whose mesh/Sort/Tree split is the paper's showcase), then prints:
//   * the outcome split overall and per fault model,
//   * the ranked per-code-portion criticality table,
//   * the mitigation recommendation per portion (Sec. 6.1),
//   * the PVF per execution-time window (where to concentrate heavier
//     protection, as the paper proposes for LUD's mid-execution).
#include <cstdlib>
#include <iostream>

#include "analysis/criticality.hpp"
#include "analysis/pvf.hpp"
#include "core/campaign.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace phifi;
  const std::string name = argc > 1 ? argv[1] : "CLAMR";
  const std::size_t trials = argc > 2 ? std::atoll(argv[2]) : 400;

  const fi::WorkloadFactory factory = work::find_workload(name);
  if (factory == nullptr) {
    std::cerr << "unknown workload '" << name << "'; choose one of:";
    for (const auto& info : work::all_workloads()) {
      std::cerr << " " << info.name;
    }
    std::cerr << "\n";
    return 1;
  }

  fi::TrialSupervisor supervisor(factory);
  supervisor.prepare_golden();

  fi::CampaignConfig campaign_config;
  campaign_config.trials = trials;
  campaign_config.seed = 0xc417;
  const fi::CampaignResult result =
      fi::Campaign(supervisor, campaign_config).run();

  util::Table outcomes("Outcomes - " + name);
  outcomes.set_header({"slice", "injections", "masked", "sdc", "due"});
  auto add_outcome_row = [&outcomes](const std::string& label,
                                     const fi::OutcomeTally& tally) {
    outcomes.add_row({label, std::to_string(tally.total()),
                      util::fmt_percent(tally.masked_rate()),
                      util::fmt_percent(tally.sdc_rate()),
                      util::fmt_percent(tally.due_rate())});
  };
  add_outcome_row("overall", result.overall);
  for (fi::FaultModel model : fi::kAllFaultModels) {
    add_outcome_row(std::string("model ") + std::string(to_string(model)),
                    result.by_model[static_cast<std::size_t>(model)]);
  }
  outcomes.print_text(std::cout);
  std::cout << "\n";

  util::Table criticality("Code-portion criticality (ranked)");
  criticality.set_header(
      {"portion", "injections", "sdc_rate", "due_rate", "mitigation"});
  const bool algebraic = name == "DGEMM" || name == "LUD";
  for (const auto& row : analysis::criticality_table(result, 5)) {
    criticality.add_row({row.category, std::to_string(row.injections),
                         util::fmt_percent(row.sdc_rate),
                         util::fmt_percent(row.due_rate),
                         analysis::recommend_mitigation(row, algebraic)});
  }
  criticality.print_text(std::cout);
  std::cout << "\n";

  util::Table windows("PVF per execution-time window");
  windows.set_header({"window", "injections", "sdc_pvf", "due_pvf"});
  for (std::size_t w = 0; w < result.by_window.size(); ++w) {
    const auto& tally = result.by_window[w];
    windows.add_row({std::to_string(w + 1), std::to_string(tally.total()),
                     util::fmt(analysis::sdc_pvf(tally).point, 1) + "%",
                     util::fmt(analysis::due_pvf(tally).point, 1) + "%"});
  }
  windows.print_text(std::cout);
  return 0;
}
