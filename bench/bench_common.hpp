// Shared plumbing for the figure/table reproduction benches.
//
// Every bench is a standalone binary that regenerates one artifact of the
// paper (a figure's series or a section's table) and prints it as an
// aligned text table plus CSV. Campaign sizes default to values that keep
// a full `for b in bench/*; do $b; done` run in minutes; set PHIFI_TRIALS
// (fault-injection campaigns) or PHIFI_BEAM_SDC (beam campaigns) to scale
// up toward the paper's 10k-injection / >100-error campaigns. Campaigns run
// at one job per hardware thread; their tallies do not depend on it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>

#include "core/campaign.hpp"
#include "core/supervisor.hpp"
#include "radiation/beam.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace phifi::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long long parsed = std::atoll(value);
  return parsed <= 0 ? fallback : static_cast<std::size_t>(parsed);
}

/// Injection trials per benchmark for the CAROL-FI campaigns (paper: 10k+).
inline std::size_t campaign_trials() {
  return env_size("PHIFI_TRIALS", 600);
}

/// SDC/DUE targets for the beam campaigns (paper: >=100 each).
inline std::size_t beam_min_sdc() { return env_size("PHIFI_BEAM_SDC", 100); }
inline std::size_t beam_min_due() { return env_size("PHIFI_BEAM_DUE", 40); }

inline fi::CampaignConfig bench_campaign_config(std::uint64_t seed) {
  fi::CampaignConfig config;
  config.trials = campaign_trials();
  config.seed = seed;
  config.jobs = std::max(1u, std::thread::hardware_concurrency());
  return config;
}

/// Runs one CAROL-FI campaign for a workload with bench defaults.
inline fi::CampaignResult run_campaign(const work::WorkloadInfo& info,
                                       std::uint64_t seed) {
  fi::TrialSupervisor supervisor(info.factory);
  supervisor.prepare_golden();
  fi::Campaign campaign(supervisor, bench_campaign_config(seed));
  return campaign.run();
}

/// Runs one beam campaign (Sec. 4) for a workload on the Knights Corner
/// 3120A sensitivity model until it holds min_sdc SDCs and min_due DUEs.
inline radiation::BeamResult run_beam(
    const fi::WorkloadFactory& factory, std::uint64_t seed,
    std::uint64_t min_sdc, std::uint64_t min_due,
    double flux = radiation::kDefaultFlux) {
  fi::TrialSupervisor supervisor(factory);
  supervisor.prepare_golden();
  const auto plan = std::make_shared<const radiation::BeamPlan>(flux);
  fi::CampaignConfig config = bench_campaign_config(seed);
  config.trials = radiation::kDefaultMaxExecutions;
  config.min_sdc = min_sdc;
  config.min_due = min_due;
  config.plan = plan;
  fi::Campaign campaign(supervisor, config);
  return radiation::fold_beam(campaign.run(), *plan, seed);
}

inline void print_table(const util::Table& table) {
  table.print_text(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  std::cout << "\n";
}

}  // namespace phifi::bench
