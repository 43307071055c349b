// Quickstart: run a small CAROL-FI-style fault-injection campaign against
// the DGEMM benchmark and print the outcome split.
//
//   $ ./examples/quickstart [trials]
//
// This is the 30-line tour of the public API: pick a workload factory from
// the registry, let TrialSupervisor compute the golden output, and hand it
// to Campaign. Everything else (forked trials, watchdog, flip timing,
// outcome classification) is handled inside.
#include <cstdlib>
#include <iostream>

#include "core/campaign.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace phifi;
  const std::size_t trials = argc > 1 ? std::atoll(argv[1]) : 200;

  fi::TrialSupervisor supervisor(work::find_workload("DGEMM"));
  supervisor.prepare_golden();

  fi::CampaignConfig campaign_config;
  campaign_config.trials = trials;
  campaign_config.seed = 2024;
  fi::Campaign campaign(supervisor, campaign_config);
  const fi::CampaignResult result = campaign.run();

  std::cout << "Injected " << result.overall.total() << " faults into "
            << result.workload << ":\n"
            << "  Masked " << util::fmt_percent(result.overall.masked_rate())
            << "   SDC " << util::fmt_percent(result.overall.sdc_rate())
            << "   DUE " << util::fmt_percent(result.overall.due_rate())
            << "\n";
  return 0;
}
