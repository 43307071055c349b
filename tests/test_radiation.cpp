#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign_journal.hpp"
#include "radiation/beam.hpp"
#include "radiation/sensitivity.hpp"
#include "tests/beam_helpers.hpp"
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
    config.plan = plan_;
    config.jobs = jobs;
    config.journal_path = journal;
    return config;
  }

  Run run(unsigned jobs, const std::string& journal = "",
          bool resume = false) {
    fi::CampaignConfig campaign_config = config(jobs, journal);
    campaign_config.resume = resume;
    fi::Campaign campaign(*supervisor_, campaign_config);
    Run result;
    result.campaign = campaign.run();
    result.beam = fold_beam(result.campaign, *plan_, kSeed);
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

  std::shared_ptr<const BeamPlan> plan_ = std::make_shared<BeamPlan>();
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
  for (int p = 1; p < fi::kPatternCount; ++p) {
    pattern_fit_sum += result.pattern_fit(static_cast<fi::ErrorPattern>(p));
  }
  // Every SDC carries its summary: a class and at least one wrong element.
  EXPECT_EQ(result.patterns.total(), result.sdc);
  EXPECT_EQ(result.patterns.count(fi::ErrorPattern::kNone), 0u);
  EXPECT_NEAR(pattern_fit_sum, result.sdc_fit.fit,
              result.sdc_fit.fit * 1e-9 + 1e-9);
}

TEST_F(ToyUnderBeam, PlanIsAPureFunctionOfSeedAndIndex) {
  for (std::uint64_t index = 0; index < 50; ++index) {
    const BeamDraw a = plan_->draw(kSeed, index);
    const BeamDraw b = plan_->draw(kSeed, index);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.strikes, b.strikes);
    EXPECT_EQ(a.absorbed, b.absorbed);
    EXPECT_EQ(a.machine_check, b.machine_check);
    EXPECT_EQ(a.trial.trial_seed, b.trial.trial_seed);
    EXPECT_GE(a.runs, 1u);
    EXPECT_LE(a.absorbed, a.strikes);
    EXPECT_EQ(plan_->attempt(kSeed, index).decided.has_value(),
              a.machine_check);
  }
}

TEST_F(ToyUnderBeam, DrawWithoutAVisibleStrikeGivesUp) {
  const BeamPlan dark(/*flux=*/0.0);
  EXPECT_THROW((void)dark.draw(kSeed, 0), std::runtime_error);
}

TEST_F(ToyUnderBeam, ResultIsIdenticalAtJobsOneAndFour) {
  const Run one = run(1);
  const Run four = run(4);
  // The finish line stops on the same attempt.
  EXPECT_EQ(one.campaign.attempts, four.campaign.attempts);
  testing::expect_same_beam(one.beam, four.beam);
}

TEST_F(ToyUnderBeam, KilledAndResumedCampaignGivesTheUninterruptedResult) {
  // SIGKILL a jobs-4 campaign after a few commits, resume it at jobs 2:
  // the replayed records carry their SDC summaries, so the resumed fold
  // equals an uninterrupted jobs-1 run in every figure.
  constexpr int kCommitsBeforeKill = 4;
  const std::string journal = temp_path("killed.jnl");
  std::filesystem::remove(journal);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fi::TrialSupervisor supervisor(&testing::make_toy_normal,
                                   testing::toy_supervisor_config());
    supervisor.prepare_golden();
    int committed = 0;
    fi::Campaign(supervisor, config(4, journal))
        .run([&committed](const fi::TrialResult&, std::span<const std::byte>) {
          if (++committed == kCommitsBeforeKill) ::kill(::getpid(), SIGKILL);
        });
    ::_exit(42);  // not reached: the kill lands inside run()
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  const std::size_t journaled = fi::read_journal(journal).records.size();
  ASSERT_GE(journaled, static_cast<std::size_t>(kCommitsBeforeKill));

  const Run resumed = run(2, journal, /*resume=*/true);
  const Run uninterrupted = run(1);
  EXPECT_GE(resumed.campaign.resumed_trials, 1u);
  EXPECT_EQ(resumed.campaign.attempts, uninterrupted.campaign.attempts);
  testing::expect_same_beam(resumed.beam, uninterrupted.beam);
  std::filesystem::remove(journal);
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
        plan_->draw(kSeed, record.attempt_index).machine_check;
    const bool journaled =
        record.trial.outcome == fi::Outcome::kDue &&
        record.trial.due_kind == fi::DueKind::kMachineCheck;
    EXPECT_EQ(planned, journaled) << "attempt " << record.attempt_index;
    machine_checks += journaled;
  }
  EXPECT_GT(machine_checks, 0u);
  EXPECT_EQ(live.campaign.due_kinds.at("machine-check"), machine_checks);

  // The records alone, folded with the plan, give the live result,
  // patterns and tolerance curve included.
  testing::expect_same_beam(
      fold_beam(replay(contents.records), *plan_, kSeed), live.beam);
  std::filesystem::remove(journal);
}

TEST_F(ToyUnderBeam, MachineChecksStayOutOfTheModelAndWindowSlices) {
  // A machine check has no fault model and no window: it folds into the
  // decided tally, so the Single and window-1 slices hold program outcomes
  // only, and each slicing still sums to the overall tally.
  const std::string journal = temp_path("slices.jnl");
  std::filesystem::remove(journal);
  (void)run(1, journal);
  const std::vector<fi::JournalRecord> records =
      fi::read_journal(journal).records;
  const fi::CampaignResult folded = replay(records);

  fi::OutcomeTally programs_by_model[4];
  std::vector<fi::OutcomeTally> programs_by_window(folded.by_window.size());
  std::uint64_t machine_checks = 0;
  for (const fi::JournalRecord& record : records) {
    const fi::TrialResult& trial = record.trial;
    if (trial.outcome == fi::Outcome::kNotInjected) continue;
    if (trial.due_kind == fi::DueKind::kMachineCheck) {
      ++machine_checks;
      continue;
    }
    programs_by_model[static_cast<int>(trial.record.model)].add(trial.outcome);
    programs_by_window[trial.window].add(trial.outcome);
  }
  ASSERT_GT(machine_checks, 0u);
  EXPECT_EQ(folded.decided.due, machine_checks);
  EXPECT_EQ(folded.decided.total(), machine_checks);

  const auto same = [](const fi::OutcomeTally& a, const fi::OutcomeTally& b) {
    return a.masked == b.masked && a.sdc == b.sdc && a.due == b.due;
  };
  fi::OutcomeTally model_sum = folded.decided;
  for (int m = 0; m < 4; ++m) {
    EXPECT_TRUE(same(folded.by_model[m], programs_by_model[m])) << m;
    model_sum += folded.by_model[m];
  }
  fi::OutcomeTally window_sum = folded.decided;
  for (std::size_t w = 0; w < folded.by_window.size(); ++w) {
    EXPECT_TRUE(same(folded.by_window[w], programs_by_window[w])) << w;
    window_sum += folded.by_window[w];
  }
  EXPECT_TRUE(same(model_sum, folded.overall));
  EXPECT_TRUE(same(window_sum, folded.overall));
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
