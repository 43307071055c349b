// End-to-end integration: the full supervisor/campaign stack against each
// real benchmark, and the burst-injection path used by the beam simulator.
#include <gtest/gtest.h>

#include <cstring>

#include "core/campaign.hpp"
#include "workloads/registry.hpp"

namespace phifi {
namespace {

fi::SupervisorConfig integration_config() {
  fi::SupervisorConfig config;
  config.min_timeout_seconds = 1.0;
  config.timeout_factor = 40.0;
  return config;
}

class WorkloadCampaignTest
    : public ::testing::TestWithParam<work::WorkloadInfo> {};

TEST_P(WorkloadCampaignTest, CleanForkedTrialIsMasked) {
  fi::TrialSupervisor supervisor(GetParam().factory, integration_config());
  supervisor.prepare_golden();
  const fi::TrialResult result = supervisor.run_clean_trial();
  EXPECT_EQ(result.outcome, fi::Outcome::kMasked)
      << "clean child run of " << GetParam().name
      << " should reproduce the golden output bit-exactly";
}

TEST_P(WorkloadCampaignTest, SmallCampaignBehavesSanely) {
  fi::TrialSupervisor supervisor(GetParam().factory, integration_config());
  supervisor.prepare_golden();
  fi::CampaignConfig config;
  config.trials = 40;
  config.seed = 0x1d7e57;
  const fi::CampaignResult result = fi::Campaign(supervisor, config).run();

  EXPECT_EQ(result.overall.total(), 40u);
  // Every benchmark masks some faults and fails on others.
  EXPECT_GT(result.overall.masked, 0u);
  EXPECT_GT(result.overall.sdc + result.overall.due, 0u);
  // Every trial is attributed to a category and a window.
  std::uint64_t category_total = 0;
  for (const auto& [category, tally] : result.by_category) {
    EXPECT_FALSE(category.empty());
    category_total += tally.total();
  }
  EXPECT_EQ(category_total, result.overall.total());
  // Exactly the SDC trials carry a summary of their corrupted output.
  for (const fi::TrialResult& trial : result.trials) {
    EXPECT_EQ(trial.sdc.mismatched > 0, trial.outcome == fi::Outcome::kSdc)
        << to_string(trial.outcome);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadCampaignTest,
    ::testing::ValuesIn(work::all_workloads()),
    [](const ::testing::TestParamInfo<work::WorkloadInfo>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(BurstInjection, CorruptsConsecutiveElements) {
  std::vector<double> data(64, 1.0);
  fi::SiteRegistry registry;
  registry.add_global_array<double>("data", "matrix",
                                    std::span<double>(data));
  fi::FlipEngine engine(registry, fi::SelectionPolicy::kBytesWeighted);
  util::Rng rng(11);
  const fi::InjectionRecord record =
      engine.inject(fi::FaultModel::kRandom, rng, 0.5, /*burst=*/8);
  ASSERT_TRUE(record.injected);
  EXPECT_GE(record.burst_elements, 1u);
  EXPECT_LE(record.burst_elements, 8u);
  // Changed elements are exactly the recorded contiguous burst.
  std::size_t changed = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != 1.0) {
      ++changed;
      EXPECT_GE(i, record.element_index);
      EXPECT_LT(i, record.element_index + record.burst_elements);
    }
  }
  EXPECT_EQ(changed, record.burst_elements);
}

TEST(BurstInjection, ClampsAtSiteEnd) {
  std::vector<double> data(4, 1.0);
  fi::SiteRegistry registry;
  registry.add_global_array<double>("data", "matrix",
                                    std::span<double>(data));
  fi::FlipEngine engine(registry, fi::SelectionPolicy::kBytesWeighted);
  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::fill(data.begin(), data.end(), 1.0);
    const fi::InjectionRecord record =
        engine.inject(fi::FaultModel::kZero, rng, 0.5, /*burst=*/16);
    EXPECT_LE(record.element_index + record.burst_elements, data.size());
  }
}

TEST(BurstInjection, SupervisorForwardsBurst) {
  // A burst of Random through the whole stack on DGEMM should corrupt
  // multiple output elements when it lands in matrix C.
  fi::TrialSupervisor supervisor(work::find_workload("DGEMM"),
                                 integration_config());
  supervisor.prepare_golden();
  for (int i = 0; i < 20; ++i) {
    fi::TrialConfig trial;
    trial.trial_seed = 400 + i;
    trial.model = fi::FaultModel::kRandom;
    trial.policy = fi::SelectionPolicy::kGlobalBytesWeighted;
    trial.burst_elements = 8;
    const fi::TrialResult result = supervisor.run_trial(trial);
    if (result.outcome != fi::Outcome::kSdc) continue;
    EXPECT_GE(result.record.burst_elements, 1u);
    EXPECT_GT(result.sdc.mismatched, 0u);
    return;  // one verified SDC is enough
  }
  FAIL() << "no SDC produced in 20 burst trials";
}

}  // namespace
}  // namespace phifi
