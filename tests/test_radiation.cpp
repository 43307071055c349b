#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign_journal.hpp"
#include "radiation/beam.hpp"
#include "radiation/sensitivity.hpp"
#include "tests/toy_workload.hpp"

namespace phifi::radiation {
namespace {

class SensitivityTest : public ::testing::Test {
 protected:
  phi::ResourceMap map_ =
      phi::ResourceMap::for_spec(phi::DeviceSpec::knights_corner_3120a());
  DeviceSensitivity sensitivity_ = DeviceSensitivity::knc_3120a(map_);
};

TEST_F(SensitivityTest, CrossSectionIsPositiveAndExcludesDram) {
  EXPECT_GT(sensitivity_.strike_cross_section(), 0.0);
  for (const ResourceModel& r : sensitivity_.resources()) {
    EXPECT_NE(r.cls, phi::ResourceClass::kDram);
    EXPECT_GT(r.total_cross_section, 0.0);
  }
}

TEST_F(SensitivityTest, ExpectedStrikesScaleWithFluence) {
  const double one = sensitivity_.expected_strikes(1e6);
  EXPECT_GT(one, 0.0);
  EXPECT_DOUBLE_EQ(sensitivity_.expected_strikes(2e6), 2.0 * one);
}

TEST_F(SensitivityTest, StrikeOutcomeDistributionIsSane) {
  util::Rng rng(3);
  std::map<StrikeOutcome::Kind, int> kinds;
  std::map<fi::SelectionPolicy, int> targets;
  constexpr int kStrikes = 200000;
  for (int i = 0; i < kStrikes; ++i) {
    const StrikeOutcome outcome = sensitivity_.sample_strike(rng);
    ++kinds[outcome.kind];
    if (outcome.kind == StrikeOutcome::Kind::kProgramFault) {
      ++targets[outcome.target];
    }
  }
  // The vast majority of strikes hit ECC-protected arrays and are absorbed.
  EXPECT_GT(kinds[StrikeOutcome::Kind::kAbsorbed], kStrikes * 0.9);
  // But machine checks and program faults both occur.
  EXPECT_GT(kinds[StrikeOutcome::Kind::kMachineCheck], 0);
  EXPECT_GT(kinds[StrikeOutcome::Kind::kProgramFault], 0);
  // Program faults use the beam-specific target policies.
  for (const auto& [policy, count] : targets) {
    EXPECT_TRUE(policy == fi::SelectionPolicy::kBytesWeighted ||
                policy == fi::SelectionPolicy::kGlobalBytesWeighted ||
                policy == fi::SelectionPolicy::kWorkerFrameOnly);
    EXPECT_GT(count, 0);
  }
}

TEST_F(SensitivityTest, ProgramFaultModelsCoverMixture) {
  util::Rng rng(5);
  std::map<fi::FaultModel, int> models;
  for (int i = 0; i < 400000; ++i) {
    const StrikeOutcome outcome = sensitivity_.sample_strike(rng);
    if (outcome.kind == StrikeOutcome::Kind::kProgramFault) {
      ++models[outcome.model];
    }
  }
  EXPECT_GT(models[fi::FaultModel::kSingle], 0);
  EXPECT_GT(models[fi::FaultModel::kDouble], 0);
  EXPECT_GT(models[fi::FaultModel::kRandom], 0);
  EXPECT_GT(models[fi::FaultModel::kZero], 0);
}

TEST_F(SensitivityTest, EccOffIncreasesProgramFaults) {
  phi::DeviceSpec no_ecc = phi::DeviceSpec::knights_corner_3120a();
  no_ecc.ecc_enabled = false;
  const DeviceSensitivity unprotected =
      DeviceSensitivity::knc_3120a(phi::ResourceMap::for_spec(no_ecc));
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  int protected_faults = 0;
  int unprotected_faults = 0;
  for (int i = 0; i < 100000; ++i) {
    protected_faults += sensitivity_.sample_strike(rng_a).kind ==
                        StrikeOutcome::Kind::kProgramFault;
    unprotected_faults += unprotected.sample_strike(rng_b).kind ==
                          StrikeOutcome::Kind::kProgramFault;
  }
  EXPECT_GT(unprotected_faults, protected_faults);
}

/// The toy workload under the Knights Corner beam, run as a campaign with
/// the beam plan: the one harness every beam test below drives.
class ToyUnderBeam : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 99;

  struct Run {
    fi::CampaignResult campaign;
    BeamResult beam;
  };

  void SetUp() override {
    testing::ToyWorkload::reset_run_counter();
    supervisor_ = std::make_unique<fi::TrialSupervisor>(
        &testing::make_toy_normal, testing::toy_supervisor_config());
    supervisor_->prepare_golden();
  }

  fi::CampaignConfig config(unsigned jobs, const std::string& journal = "") {
    fi::CampaignConfig config;
    config.seed = kSeed;
    config.trials = 400;
    config.min_sdc = 5;
    config.min_due = 2;
    config.plan = &plan_;
    config.jobs = jobs;
    config.journal_path = journal;
    return config;
  }

  Run run(unsigned jobs, const std::string& journal = "") {
    analysis::SdcAnalyzer analyzer(*supervisor_);
    fi::Campaign campaign(*supervisor_, config(jobs, journal));
    Run result;
    result.campaign = campaign.run(analyzer.observer());
    result.beam = fold_beam(result.campaign, plan_, kSeed, analyzer);
    return result;
  }

  /// Tallies rebuilt from journal records alone, as phifi_parse folds them.
  fi::CampaignResult replay(const std::vector<fi::JournalRecord>& records) {
    fi::CampaignResult result;
    result.workload = std::string(supervisor_->workload_name());
    result.by_window.resize(supervisor_->time_windows());
    for (const fi::JournalRecord& record : records) {
      fi::accumulate_trial(result, record.trial);
    }
    result.attempts = records.size();
    return result;
  }

  phi::ResourceMap map_ =
      phi::ResourceMap::for_spec(phi::DeviceSpec::knights_corner_3120a());
  DeviceSensitivity sensitivity_ = DeviceSensitivity::knc_3120a(map_);
  BeamPlan plan_{sensitivity_};
  std::unique_ptr<fi::TrialSupervisor> supervisor_;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_radiation_" + name;
}

TEST_F(ToyUnderBeam, SmallCampaignProducesFitEstimates) {
  const BeamResult result = run(1).beam;
  EXPECT_GT(result.runs, 0u);
  EXPECT_GT(result.fluence, 0.0);
  EXPECT_GT(result.strikes, 0u);
  EXPECT_GT(result.executions, 0u);
  EXPECT_GE(result.sdc, 5u);
  EXPECT_GE(result.due_total(), 2u);
  // FIT estimates follow directly from counts and fluence.
  EXPECT_NEAR(result.sdc_fit.fit,
              static_cast<double>(result.sdc) / result.fluence * 13.0 * 1e9,
              1e-6);
  // Pattern fractions decompose the SDC FIT.
  double pattern_fit_sum = 0.0;
  for (int p = 1; p < analysis::kPatternCount; ++p) {
    pattern_fit_sum +=
        result.pattern_fit(static_cast<analysis::ErrorPattern>(p));
  }
  EXPECT_NEAR(pattern_fit_sum, result.sdc_fit.fit,
              result.sdc_fit.fit * 1e-9 + 1e-9);
}

TEST_F(ToyUnderBeam, PlanIsAPureFunctionOfSeedAndIndex) {
  for (std::uint64_t index = 0; index < 50; ++index) {
    const BeamDraw a = plan_.draw(kSeed, index);
    const BeamDraw b = plan_.draw(kSeed, index);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.strikes, b.strikes);
    EXPECT_EQ(a.absorbed, b.absorbed);
    EXPECT_EQ(a.machine_check, b.machine_check);
    EXPECT_EQ(a.trial.trial_seed, b.trial.trial_seed);
    EXPECT_GE(a.runs, 1u);
    EXPECT_LE(a.absorbed, a.strikes);
    EXPECT_EQ(plan_.attempt(kSeed, index).decided.has_value(),
              a.machine_check);
  }
}

TEST_F(ToyUnderBeam, DrawWithoutAVisibleStrikeGivesUp) {
  const BeamPlan dark(sensitivity_, /*flux=*/0.0);
  EXPECT_THROW((void)dark.draw(kSeed, 0), std::runtime_error);
}

TEST_F(ToyUnderBeam, ResultIsIdenticalAtJobsOneAndFour) {
  const Run one = run(1);
  const Run four = run(4);
  const BeamResult& a = one.beam;
  const BeamResult& b = four.beam;
  // The finish line stops on the same attempt.
  EXPECT_EQ(one.campaign.attempts, four.campaign.attempts);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.fluence, b.fluence);
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.absorbed, b.absorbed);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due_machine_check, b.due_machine_check);
  EXPECT_EQ(a.due_program, b.due_program);
  EXPECT_EQ(a.masked_faults, b.masked_faults);
  EXPECT_EQ(a.sdc_fit.fit, b.sdc_fit.fit);
  EXPECT_EQ(a.sdc_fit.fit_lo, b.sdc_fit.fit_lo);
  EXPECT_EQ(a.sdc_fit.fit_hi, b.sdc_fit.fit_hi);
  EXPECT_EQ(a.due_fit.fit, b.due_fit.fit);
  EXPECT_EQ(a.due_fit.fit_lo, b.due_fit.fit_lo);
  EXPECT_EQ(a.due_fit.fit_hi, b.due_fit.fit_hi);
  EXPECT_EQ(a.single_element_fraction, b.single_element_fraction);
  EXPECT_EQ(a.patterns.total(), b.patterns.total());
  for (int p = 0; p < analysis::kPatternCount; ++p) {
    const auto pattern = static_cast<analysis::ErrorPattern>(p);
    EXPECT_EQ(a.patterns.count(pattern), b.patterns.count(pattern));
  }
  for (double t : analysis::ToleranceAnalysis::default_tolerances()) {
    EXPECT_EQ(a.tolerance.remaining_fraction(t),
              b.tolerance.remaining_fraction(t));
  }
}

TEST_F(ToyUnderBeam, JournalHoldsMachineChecksAndFoldsToTheLiveResult) {
  const std::string journal = temp_path("beam.jnl");
  std::filesystem::remove(journal);
  const Run live = run(4, journal);
  const fi::JournalContents contents = fi::read_journal(journal);
  ASSERT_EQ(contents.records.size(), live.campaign.attempts);

  // Every attempt the plan decides as a machine check is journaled as a
  // DUE(machine-check) record, and no other attempt is.
  std::uint64_t machine_checks = 0;
  for (const fi::JournalRecord& record : contents.records) {
    const bool planned =
        plan_.draw(kSeed, record.attempt_index).machine_check;
    const bool journaled =
        record.trial.outcome == fi::Outcome::kDue &&
        record.trial.due_kind == fi::DueKind::kMachineCheck;
    EXPECT_EQ(planned, journaled) << "attempt " << record.attempt_index;
    machine_checks += journaled;
  }
  EXPECT_GT(machine_checks, 0u);
  EXPECT_EQ(live.campaign.due_kinds.at("machine-check"), machine_checks);

  // The records alone, folded with the plan, give the live counts.
  const BeamResult folded =
      fold_beam(replay(contents.records), plan_, kSeed,
                analysis::SdcAnalyzer(*supervisor_));
  EXPECT_EQ(folded.runs, live.beam.runs);
  EXPECT_EQ(folded.fluence, live.beam.fluence);
  EXPECT_EQ(folded.strikes, live.beam.strikes);
  EXPECT_EQ(folded.absorbed, live.beam.absorbed);
  EXPECT_EQ(folded.executions, live.beam.executions);
  EXPECT_EQ(folded.sdc, live.beam.sdc);
  EXPECT_EQ(folded.due_machine_check, live.beam.due_machine_check);
  EXPECT_EQ(folded.due_program, live.beam.due_program);
  EXPECT_EQ(folded.masked_faults, live.beam.masked_faults);
  EXPECT_EQ(folded.sdc_fit.fit, live.beam.sdc_fit.fit);
  EXPECT_EQ(folded.due_fit.fit, live.beam.due_fit.fit);
  std::filesystem::remove(journal);
}

TEST_F(ToyUnderBeam, FinishLineStopsAtTheFirstAttemptHoldingBothTargets) {
  for (const unsigned jobs : {1u, 4u}) {
    const std::string journal =
        temp_path("finish_" + std::to_string(jobs) + ".jnl");
    std::filesystem::remove(journal);
    const Run live = run(jobs, journal);
    std::vector<fi::JournalRecord> records =
        fi::read_journal(journal).records;
    ASSERT_FALSE(records.empty());
    const fi::CampaignConfig rule = config(jobs);
    EXPECT_TRUE(
        fi::campaign_finish_line(rule, replay(records).overall).reached);
    records.pop_back();
    EXPECT_FALSE(
        fi::campaign_finish_line(rule, replay(records).overall).reached)
        << "jobs " << jobs;
    EXPECT_LT(live.campaign.overall.total(), rule.trials);
    std::filesystem::remove(journal);
  }
}

}  // namespace
}  // namespace phifi::radiation
