// Multi-worker scheduler end-to-end: a --jobs N campaign must be
// indistinguishable, tally for tally and trial for trial, from the same
// campaign run sequentially — including across SIGKILL + resume and across
// journal anomalies (duplicate records).
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "tests/toy_workload.hpp"

namespace phifi::fi {
namespace {

namespace fs = std::filesystem;

using phifi::testing::ToyWorkload;
using phifi::testing::toy_supervisor_config;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

CampaignConfig parallel_campaign(unsigned jobs, const std::string& journal) {
  CampaignConfig config;
  config.trials = 12;
  config.seed = 0xfa57f00dULL;
  config.jobs = jobs;
  config.journal_path = journal;
  return config;
}

CampaignResult run_campaign(const CampaignConfig& config,
                            const TrialObserver& observer = nullptr) {
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
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
  }
}

TEST(CampaignParallel, JobsFourMatchesJobsOneBitIdentical) {
  const CampaignResult sequential = run_campaign(parallel_campaign(1, ""));
  ASSERT_EQ(sequential.overall.total(), 12u);
  const CampaignResult parallel = run_campaign(parallel_campaign(4, ""));
  expect_same_campaign(sequential, parallel);
}

TEST(CampaignParallel, JobsMatchWithNotInjectedAttempts) {
  // latest_fraction near 1.0 provokes occasional NotInjected attempts,
  // which consume attempt indices (and thus shift the model cycle); the
  // parallel scheduler must agree with the sequential one on those too.
  CampaignConfig base = parallel_campaign(1, "");
  base.trials = 8;
  base.latest_fraction = 0.999;
  const CampaignResult sequential = run_campaign(base);
  CampaignConfig wide = base;
  wide.jobs = 4;
  const CampaignResult parallel = run_campaign(wide);
  expect_same_campaign(sequential, parallel);
}

TEST(CampaignParallel, SigkilledParallelCampaignResumesBitIdentical) {
  const std::string journal = temp_path("parallel_kill.jnl");
  fs::remove(journal);

  // Reference: sequential, uninterrupted, no journal.
  const CampaignResult expected = run_campaign(parallel_campaign(1, ""));

  // A child process runs the journaled campaign with 4 workers in flight
  // and SIGKILLs itself after its 3rd committed trial — a real crash with
  // speculative attempts still running.
  const CampaignConfig config = parallel_campaign(4, journal);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                               toy_supervisor_config());
    supervisor.prepare_golden();
    Campaign campaign(supervisor, config);
    int committed = 0;
    campaign.run([&committed](const TrialResult&,
                              std::span<const std::byte>) {
      if (++committed == 3) ::kill(::getpid(), SIGKILL);
    });
    ::_exit(42);  // not reached: the kill lands inside run()
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Resume with a different worker count: jobs is not fingerprinted, and
  // the continuation must still land on the sequential reference.
  CampaignConfig resume_config = parallel_campaign(2, journal);
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);
  EXPECT_GE(resumed.resumed_trials, 3u);
  EXPECT_FALSE(resumed.interrupted);
  expect_same_campaign(expected, resumed);
}

TEST(CampaignParallel, DuplicateJournalRecordsDedupedOnResume) {
  const std::string journal = temp_path("parallel_dup.jnl");
  fs::remove(journal);

  const CampaignResult expected = run_campaign(parallel_campaign(1, ""));

  // Interrupt a parallel campaign partway, leaving a valid journal.
  std::atomic<bool> stop{false};
  CampaignConfig config = parallel_campaign(4, journal);
  config.stop_flag = &stop;
  int committed = 0;
  (void)run_campaign(config,
                     [&](const TrialResult&, std::span<const std::byte>) {
                       if (++committed == 3) stop.store(true);
                     });

  // Re-append a copy of the last record, as a crashed resume whose torn
  // tail healed could: replay must count that attempt exactly once.
  const JournalContents contents = read_journal(journal);
  ASSERT_FALSE(contents.records.empty());
  {
    CampaignJournalWriter writer(journal, contents.valid_bytes,
                                 JournalFsync::kEveryRecord);
    writer.append(contents.records.back());
  }

  CampaignConfig resume_config = parallel_campaign(4, journal);
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);
  expect_same_campaign(expected, resumed);
}

TEST(CampaignParallel, BatchFsyncJournalInterruptAndResume) {
  const std::string journal = temp_path("parallel_batch.jnl");
  fs::remove(journal);

  const CampaignResult expected = run_campaign(parallel_campaign(1, ""));

  // Group-commit journal: fsync every K records, flushed on interrupt. The
  // stop path must leave every committed record durable and resumable.
  std::atomic<bool> stop{false};
  CampaignConfig config = parallel_campaign(4, journal);
  config.journal_fsync = JournalFsync::kBatch;
  config.journal_batch.max_records = 4;
  config.journal_batch.max_delay_ms = 10000.0;  // records, not time
  config.stop_flag = &stop;
  int committed = 0;
  const CampaignResult interrupted = run_campaign(
      config, [&](const TrialResult&, std::span<const std::byte>) {
        if (++committed == 3) stop.store(true);
      });
  EXPECT_TRUE(interrupted.interrupted);

  CampaignConfig resume_config = config;
  resume_config.stop_flag = nullptr;
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);
  EXPECT_FALSE(resumed.interrupted);
  expect_same_campaign(expected, resumed);
}

TEST(CampaignParallel, SlotOutputsStayIsolated) {
  // Four slots in flight share nothing: every completed trial's journaled
  // attempt index must be unique and contiguous, and the supervisor must
  // end with no active slots.
  const std::string journal = temp_path("parallel_slots.jnl");
  fs::remove(journal);

  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  Campaign campaign(supervisor, parallel_campaign(4, journal));
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.overall.total(), 12u);
  EXPECT_EQ(supervisor.active_slots(), 0u);
  EXPECT_EQ(supervisor.slot_count(), 4u);

  const JournalContents contents = read_journal(journal);
  ASSERT_EQ(contents.records.size(), result.attempts);
  for (std::size_t i = 0; i < contents.records.size(); ++i) {
    EXPECT_EQ(contents.records[i].attempt_index, i);
  }
}

TEST(CampaignParallel, StopCiWidthHaltsEveryJobsCountAtTheSameAttempt) {
  // The sequential stop rule is evaluated only at attempt-order commit
  // boundaries, so jobs=1 and jobs=4 must stop at the identical attempt
  // with bit-identical tallies — workers past the stopping attempt are
  // speculative and never committed.
  CampaignConfig base = parallel_campaign(1, "");
  base.trials = 40;
  base.stop_ci_width = 0.2;  // fires around n=10..21 for any outcome mix
  const CampaignResult sequential = run_campaign(base);
  ASSERT_TRUE(sequential.stopped_early);
  ASSERT_LT(sequential.overall.total(), 40u);
  ASSERT_GT(sequential.overall.total(), 0u);

  CampaignConfig wide = base;
  wide.jobs = 4;
  const CampaignResult parallel = run_campaign(wide);
  EXPECT_TRUE(parallel.stopped_early);
  expect_same_campaign(sequential, parallel);
}

TEST(CampaignParallel, StopCiWidthSurvivesSigkillAndResume) {
  const std::string journal = temp_path("parallel_ci_kill.jnl");
  fs::remove(journal);

  // Reference: sequential, uninterrupted, stopping on precision.
  CampaignConfig reference = parallel_campaign(1, "");
  reference.trials = 40;
  reference.stop_ci_width = 0.2;
  const CampaignResult expected = run_campaign(reference);
  ASSERT_TRUE(expected.stopped_early);

  // SIGKILL a 4-worker journaled run before the stop point; the resumed
  // campaign must replay, re-arm the stop rule, and land on the reference.
  CampaignConfig config = parallel_campaign(4, journal);
  config.trials = 40;
  config.stop_ci_width = 0.2;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                               toy_supervisor_config());
    supervisor.prepare_golden();
    Campaign campaign(supervisor, config);
    int committed = 0;
    campaign.run([&committed](const TrialResult&,
                              std::span<const std::byte>) {
      if (++committed == 3) ::kill(::getpid(), SIGKILL);
    });
    ::_exit(42);  // not reached: the kill lands inside run()
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  CampaignConfig resume_config = parallel_campaign(2, journal);
  resume_config.trials = 40;
  resume_config.stop_ci_width = 0.2;
  resume_config.resume = true;
  const CampaignResult resumed = run_campaign(resume_config);
  EXPECT_TRUE(resumed.stopped_early);
  EXPECT_FALSE(resumed.interrupted);
  expect_same_campaign(expected, resumed);
}

TEST(CampaignParallel, StopCiWidthIsFingerprinted) {
  // A journal written under one epsilon must not resume under another:
  // the stop rule is part of the campaign's identity.
  CampaignConfig a = parallel_campaign(1, "");
  CampaignConfig b = a;
  b.stop_ci_width = 0.2;
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  EXPECT_NE(campaign_fingerprint(a, supervisor.workload_name(),
                                 supervisor.time_windows()),
            campaign_fingerprint(b, supervisor.workload_name(),
                                 supervisor.time_windows()));
}

TEST(CampaignParallel, IndexedSeedsAreOrderIndependent) {
  // The counter-indexed seed derivation is the determinism linchpin: it
  // must be a pure function of (campaign seed, attempt index).
  EXPECT_EQ(trial_seed_for(42, 0), trial_seed_for(42, 0));
  EXPECT_NE(trial_seed_for(42, 0), trial_seed_for(42, 1));
  EXPECT_NE(trial_seed_for(42, 0), trial_seed_for(43, 0));
  // And spot-check dispersion: adjacent indices differ in many bits.
  const std::uint64_t a = trial_seed_for(7, 100);
  const std::uint64_t b = trial_seed_for(7, 101);
  EXPECT_GT(__builtin_popcountll(a ^ b), 8);
}

}  // namespace
}  // namespace phifi::fi
