// Crash-recovery end-to-end: a campaign SIGKILLed mid-run, resumed from its
// write-ahead journal, must produce tallies bit-identical to the same
// campaign run uninterrupted with the same seed.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/campaign.hpp"
#include "tests/toy_workload.hpp"

namespace phifi::fi {
namespace {

namespace fs = std::filesystem;

using phifi::testing::ToyWorkload;
using phifi::testing::toy_supervisor_config;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

CampaignConfig small_campaign(const std::string& journal) {
  CampaignConfig config;
  config.trials = 8;
  config.seed = 0x5eedf00dULL;
  config.journal_path = journal;
  return config;
}

/// Runs the configured campaign on a fresh toy supervisor.
CampaignResult run_campaign(const CampaignConfig& config,
                            const TrialObserver& observer = nullptr,
                            const SupervisorConfig& supervisor_config =
                                toy_supervisor_config()) {
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             supervisor_config);
  supervisor.prepare_golden();
  Campaign campaign(supervisor, config);
  return campaign.run(observer);
}

void expect_tally_eq(const OutcomeTally& a, const OutcomeTally& b) {
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due, b.due);
}

/// Asserts every aggregate slice and every per-trial record matches.
void expect_same_campaign(const CampaignResult& a, const CampaignResult& b) {
  expect_tally_eq(a.overall, b.overall);
  for (std::size_t m = 0; m < a.by_model.size(); ++m) {
    expect_tally_eq(a.by_model[m], b.by_model[m]);
  }
  ASSERT_EQ(a.by_window.size(), b.by_window.size());
  for (std::size_t w = 0; w < a.by_window.size(); ++w) {
    expect_tally_eq(a.by_window[w], b.by_window[w]);
  }
  ASSERT_EQ(a.by_category.size(), b.by_category.size());
  for (const auto& [category, tally] : a.by_category) {
    ASSERT_TRUE(b.by_category.count(category)) << category;
    expect_tally_eq(tally, b.by_category.at(category));
  }
  ASSERT_EQ(a.by_frame.size(), b.by_frame.size());
  for (const auto& [frame, tally] : a.by_frame) {
    ASSERT_TRUE(b.by_frame.count(frame)) << frame;
    expect_tally_eq(tally, b.by_frame.at(frame));
  }
  EXPECT_EQ(a.not_injected, b.not_injected);
  EXPECT_EQ(a.attempts, b.attempts);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].outcome, b.trials[i].outcome) << "trial " << i;
    EXPECT_EQ(a.trials[i].due_kind, b.trials[i].due_kind) << "trial " << i;
    EXPECT_EQ(a.trials[i].window, b.trials[i].window) << "trial " << i;
    EXPECT_EQ(a.trials[i].record.model, b.trials[i].record.model);
    EXPECT_EQ(a.trials[i].record.site_index, b.trials[i].record.site_index);
    EXPECT_EQ(a.trials[i].record.element_index,
              b.trials[i].record.element_index);
    EXPECT_EQ(a.trials[i].record.flipped_bits[0],
              b.trials[i].record.flipped_bits[0]);
    EXPECT_EQ(a.trials[i].sdc.mismatched, b.trials[i].sdc.mismatched);
    EXPECT_EQ(a.trials[i].sdc.max_relative_error,
              b.trials[i].sdc.max_relative_error);
    EXPECT_EQ(a.trials[i].sdc.pattern, b.trials[i].sdc.pattern);
  }
}

TEST(CampaignResume, SigkilledCampaignResumesBitIdentical) {
  const std::string journal = temp_path("resume_kill.jnl");
  fs::remove(journal);

  // Reference: the same campaign, same seed, uninterrupted, no journal.
  CampaignConfig reference_config = small_campaign("");
  const CampaignResult expected = run_campaign(reference_config);
  ASSERT_EQ(expected.overall.total(), reference_config.trials);

  // A child process runs the journaled campaign and SIGKILLs itself after
  // its 3rd completed trial — no destructors, no flushing, a real crash.
  const CampaignConfig config = small_campaign(journal);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                               toy_supervisor_config());
    supervisor.prepare_golden();
    Campaign campaign(supervisor, config);
    int completed = 0;
    campaign.run([&completed](const TrialResult&,
                              std::span<const std::byte>) {
      if (++completed == 3) ::kill(::getpid(), SIGKILL);
    });
    ::_exit(42);  // not reached: the kill lands inside run()
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Resume from the journal and finish the campaign.
  CampaignConfig resume_config = config;
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);

  EXPECT_EQ(resumed.resumed_trials, 3u);
  EXPECT_FALSE(resumed.interrupted);
  expect_same_campaign(expected, resumed);
}

TEST(CampaignResume, StopFlagInterruptsAndResumeCompletes) {
  const std::string journal = temp_path("resume_stop.jnl");
  fs::remove(journal);

  const CampaignConfig reference_config = small_campaign("");
  const CampaignResult expected = run_campaign(reference_config);

  // Cooperative stop: the observer raises the flag after two completed
  // trials; the campaign finishes the in-flight trial and returns.
  std::atomic<bool> stop{false};
  CampaignConfig config = small_campaign(journal);
  config.stop_flag = &stop;
  int completed = 0;
  const CampaignResult interrupted = run_campaign(
      config, [&](const TrialResult&, std::span<const std::byte>) {
        if (++completed == 2) stop.store(true);
      });
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.overall.total(), 2u);

  CampaignConfig resume_config = small_campaign(journal);
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);
  EXPECT_EQ(resumed.resumed_trials, 2u);
  expect_same_campaign(expected, resumed);
}

TEST(CampaignResume, ResumeSurvivesTornJournalTail) {
  const std::string journal = temp_path("resume_torn.jnl");
  fs::remove(journal);

  const CampaignResult expected = run_campaign(small_campaign(""));

  std::atomic<bool> stop{false};
  CampaignConfig config = small_campaign(journal);
  config.stop_flag = &stop;
  int completed = 0;
  (void)run_campaign(config,
                     [&](const TrialResult&, std::span<const std::byte>) {
                       if (++completed == 3) stop.store(true);
                     });

  // Simulate a torn final write: append garbage that is not a valid frame.
  {
    std::ofstream stream(journal,
                         std::ios::binary | std::ios::app);
    stream << "\x13\x37garbage-torn-tail";
  }

  CampaignConfig resume_config = small_campaign(journal);
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);
  EXPECT_GE(resumed.resumed_trials, 3u);
  expect_same_campaign(expected, resumed);
}

TEST(CampaignResume, MismatchedFingerprintIsRejected) {
  const std::string journal = temp_path("resume_mismatch.jnl");
  fs::remove(journal);

  std::atomic<bool> stop{false};
  CampaignConfig config = small_campaign(journal);
  config.stop_flag = &stop;
  int completed = 0;
  (void)run_campaign(config,
                     [&](const TrialResult&, std::span<const std::byte>) {
                       if (++completed == 1) stop.store(true);
                     });

  // Same journal, different campaign seed: the resume must refuse to mix
  // the two seed streams.
  CampaignConfig resume_config = small_campaign(journal);
  resume_config.resume = true;
  resume_config.seed ^= 0xff;
  EXPECT_THROW((void)run_campaign(resume_config), std::runtime_error);
}

TEST(CampaignResume, JournalFromAnotherGoldenIsRejected) {
  // input_seed is not in the fingerprint, but it changes the inputs and so
  // the golden output: continuing the journal would mix two campaigns.
  const std::string journal = temp_path("resume_golden.jnl");
  fs::remove(journal);
  std::atomic<bool> stop{false};
  CampaignConfig config = small_campaign(journal);
  config.stop_flag = &stop;
  int completed = 0;
  (void)run_campaign(config,
                     [&](const TrialResult&, std::span<const std::byte>) {
                       if (++completed == 1) stop.store(true);
                     });

  SupervisorConfig other_inputs = toy_supervisor_config();
  other_inputs.input_seed += 1;  // the toy scales its output by seed % 7
  CampaignConfig resume_config = small_campaign(journal);
  resume_config.resume = true;
  try {
    (void)run_campaign(resume_config, nullptr, other_inputs);
    FAIL() << "a journal from another golden output was resumed";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("different golden output"), std::string::npos)
        << message;
    EXPECT_NE(message.find("golden digest 0x"), std::string::npos)
        << message;
    EXPECT_NE(message.find("this campaign's 0x"), std::string::npos)
        << message;
  }
  // The same inputs still resume.
  EXPECT_NO_THROW((void)run_campaign(resume_config));
}

TEST(CampaignResume, NotInjectedAttemptsKeepSeedStreamAligned) {
  // latest_fraction close to 1.0 provokes occasional NotInjected attempts
  // (the flip target can land after the run ends). Those attempts consume
  // seed draws, so resume must replay them too; this exercises that path
  // end to end without asserting any particular NotInjected count.
  const std::string journal = temp_path("resume_notinj.jnl");
  fs::remove(journal);

  CampaignConfig base = small_campaign("");
  base.trials = 6;
  base.latest_fraction = 0.999;
  const CampaignResult expected = run_campaign(base);

  std::atomic<bool> stop{false};
  CampaignConfig config = base;
  config.journal_path = journal;
  config.stop_flag = &stop;
  int completed = 0;
  (void)run_campaign(config,
                     [&](const TrialResult&, std::span<const std::byte>) {
                       if (++completed == 2) stop.store(true);
                     });

  CampaignConfig resume_config = config;
  resume_config.stop_flag = nullptr;
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);
  expect_same_campaign(expected, resumed);
}

}  // namespace
}  // namespace phifi::fi
