// Hardened workload variants (the paper's Sec. 7 future work).
#include "workloads/hardened.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/campaign.hpp"
#include "core/progress.hpp"
#include "workloads/registry.hpp"

namespace phifi::work {
namespace {

fi::SupervisorConfig test_config() {
  fi::SupervisorConfig config;
  config.min_timeout_seconds = 1.0;
  return config;
}

std::vector<std::byte> run_clean(fi::Workload& workload,
                                 std::uint64_t seed = 7) {
  workload.setup(seed);
  phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
  fi::ProgressTracker progress;
  progress.reset(workload.total_steps());
  workload.run(device, progress);
  progress.finish();
  const auto bytes = workload.output_bytes();
  return {bytes.begin(), bytes.end()};
}

TEST(Hardened, RmtLavaMdRegistersItsFirstPassAsState) {
  // The compare after the second pass reads the first pass's forces, which
  // no site holds: a state span must cover all of them from setup() on,
  // or a trial whose second pass recomputed clean forces would be cut as
  // converged while its full run fails the compare.
  RmtLavaMd rmt;
  rmt.setup(7);
  fi::SiteRegistry registry;
  rmt.register_sites(registry);
  ASSERT_EQ(rmt.first_pass().size(), rmt.forces().size());
  ASSERT_EQ(registry.state().size(), 1u);
  const fi::StateSpan& state = registry.state()[0];
  EXPECT_EQ(state.data,
            reinterpret_cast<const std::byte*>(rmt.first_pass().data()));
  EXPECT_EQ(state.bytes, rmt.first_pass().size() * sizeof(double));
  // The run writes into the span it registered, without reallocating.
  const std::vector<std::byte> clean = run_clean(rmt, 7);
  EXPECT_EQ(state.data,
            reinterpret_cast<const std::byte*>(rmt.first_pass().data()));
  EXPECT_EQ(std::memcmp(state.data, clean.data(), clean.size()), 0);
}

TEST(AbftDgemmTest, CleanRunMatchesBaselineAndIsConsistent) {
  AbftDgemm hardened(32, 16);
  Dgemm baseline(32, 16);
  const auto hardened_out = run_clean(hardened);
  const auto baseline_out = run_clean(baseline);
  ASSERT_EQ(hardened_out.size(), baseline_out.size());
  EXPECT_EQ(std::memcmp(hardened_out.data(), baseline_out.data(),
                        hardened_out.size()),
            0);
  ASSERT_TRUE(hardened.last_report().has_value());
  EXPECT_TRUE(hardened.last_report()->consistent);
  EXPECT_EQ(hardened.name(), "DGEMM+ABFT");
}

TEST(AbftDgemmTest, RepairsSingleCorruptionOfC) {
  // Corrupt one element of C after the kernel by arming the progress hook
  // right at the end of the run -> the ABFT audit must repair it.
  AbftDgemm hardened(32, 16);
  hardened.setup(3);
  Dgemm baseline(32, 16);
  const auto golden = run_clean(baseline, 3);

  phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
  fi::ProgressTracker progress;
  progress.reset(hardened.total_steps());
  progress.arm(0.95, [&](double) { hardened.c()[5 * 32 + 7] += 100.0; });
  hardened.run(device, progress);
  progress.finish();

  ASSERT_TRUE(hardened.last_report().has_value());
  EXPECT_TRUE(hardened.last_report()->detected());
  EXPECT_GE(hardened.last_report()->corrected, 1u);
  const auto repaired = hardened.output_bytes();
  const auto* got = reinterpret_cast<const double*>(repaired.data());
  const auto* want = reinterpret_cast<const double*>(golden.data());
  for (std::size_t i = 0; i < 32 * 32; ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-6) << "element " << i;
  }
}

TEST(AbftDgemmTest, RegistersChecksumSites) {
  AbftDgemm hardened(32, 16);
  hardened.setup(5);
  fi::SiteRegistry registry;
  hardened.register_sites(registry);
  bool row_sums = false;
  bool col_sums = false;
  for (const auto& site : registry.sites()) {
    row_sums |= site.name == "abft_row_sums";
    col_sums |= site.name == "abft_col_sums";
  }
  EXPECT_TRUE(row_sums);
  EXPECT_TRUE(col_sums);
}

TEST(HardenedHotSpotTest, CleanRunMatchesBaseline) {
  auto hardened = make_hardened_hotspot();
  HotSpot baseline;
  const auto hardened_out = run_clean(*hardened);
  const auto baseline_out = run_clean(baseline);
  ASSERT_EQ(hardened_out.size(), baseline_out.size());
  EXPECT_EQ(std::memcmp(hardened_out.data(), baseline_out.data(),
                        hardened_out.size()),
            0);
  EXPECT_EQ(hardened->name(), "HotSpot+DWC");
}

TEST(HardenedClamrTest, CleanRunMatchesBaseline) {
  auto hardened = make_hardened_clamr();
  Clamr baseline;
  const auto hardened_out = run_clean(*hardened);
  const auto baseline_out = run_clean(baseline);
  ASSERT_EQ(hardened_out.size(), baseline_out.size());
  EXPECT_EQ(std::memcmp(hardened_out.data(), baseline_out.data(),
                        hardened_out.size()),
            0);
  EXPECT_EQ(hardened->name(), "CLAMR+guards");
}


TEST(RmtLavaMdTest, CleanRunMatchesBaseline) {
  auto hardened = make_rmt_lavamd();
  LavaMd baseline;
  const auto hardened_out = run_clean(*hardened);
  const auto baseline_out = run_clean(baseline);
  ASSERT_EQ(hardened_out.size(), baseline_out.size());
  EXPECT_EQ(std::memcmp(hardened_out.data(), baseline_out.data(),
                        hardened_out.size()),
            0);
  EXPECT_EQ(hardened->name(), "LavaMD+RMT");
  EXPECT_EQ(hardened->total_steps(), 2 * baseline.total_steps());
}

TEST(RmtLavaMdTest, DetectsMidRunOutputCorruption) {
  // Corrupt the force array between the two redundant executions: the
  // compare must trip and surface a detected error.
  RmtLavaMd hardened(2, 8, 16);
  hardened.setup(3);
  phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
  fi::ProgressTracker progress;
  progress.reset(hardened.total_steps());
  fi::SiteRegistry registry;
  hardened.register_sites(registry);
  std::span<double> forces;
  for (const auto& site : registry.sites()) {
    if (site.name == "forces") {
      forces = {reinterpret_cast<double*>(site.data), site.bytes / 8};
    }
  }
  ASSERT_FALSE(forces.empty());
  // Fire just after the first pass completes (progress 0.5 = end of run 1).
  progress.arm(0.55, [&](double) { forces[3] += 42.0; });
  EXPECT_THROW(hardened.run(device, progress), HardeningDetected);
}

class HardeningCampaignTest
    : public ::testing::TestWithParam<fi::WorkloadFactory> {};

TEST_P(HardeningCampaignTest, CampaignRunsCleanly) {
  fi::TrialSupervisor supervisor(GetParam(), test_config());
  supervisor.prepare_golden();
  fi::CampaignConfig config;
  config.trials = 25;
  config.seed = 0x4ea7;
  fi::Campaign campaign(supervisor, config);
  const fi::CampaignResult result = campaign.run();
  EXPECT_EQ(result.overall.total(), 25u);
}

INSTANTIATE_TEST_SUITE_P(Hardened, HardeningCampaignTest,
                         ::testing::Values(&make_abft_dgemm,
                                           &make_hardened_hotspot,
                                           &make_hardened_clamr,
                                           &make_rmt_lavamd));

TEST(HardeningComparison, AbftEliminatesSignificantSdcs) {
  // Inject only into global data (where ABFT has coverage). A floating-
  // point ABFT repair leaves ~1e-13 rounding residue, which the bitwise
  // classifier still counts as SDC; the meaningful metric is SDCs whose
  // worst element error exceeds a small tolerance. Those must (almost)
  // disappear under ABFT.
  auto run_campaign = [](fi::WorkloadFactory factory,
                         std::size_t& significant_sdcs) {
    fi::TrialSupervisor supervisor(factory, test_config());
    supervisor.prepare_golden();
    fi::CampaignConfig config;
    config.trials = 60;
    config.seed = 0xabf;
    config.policy = fi::SelectionPolicy::kGlobalBytesWeighted;
    const fi::CampaignResult result =
        fi::Campaign(supervisor, config).run();
    for (const fi::TrialResult& trial : result.trials) {
      significant_sdcs += trial.outcome == fi::Outcome::kSdc &&
                          trial.sdc.is_sdc_at(1e-6);
    }
    return result;
  };
  std::size_t baseline_significant = 0;
  std::size_t hardened_significant = 0;
  const fi::CampaignResult baseline =
      run_campaign(find_workload("DGEMM"), baseline_significant);
  const fi::CampaignResult hardened =
      run_campaign(&make_abft_dgemm, hardened_significant);
  EXPECT_GT(baseline_significant, 10u);
  EXPECT_LE(hardened_significant, baseline_significant / 5)
      << "baseline significant " << baseline_significant << "/"
      << baseline.overall.sdc << ", hardened significant "
      << hardened_significant << "/" << hardened.overall.sdc;
}

}  // namespace
}  // namespace phifi::work
