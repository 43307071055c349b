// Fork-server trial fast path: warm re-fork and template modes must be
// tally-for-tally, record-for-record indistinguishable from the legacy
// cold-start path — at any worker count, across SIGKILL + resume (in either
// direction: a fast-path journal resumed legacy and vice versa), and across
// a template process dying mid-campaign.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/golden_map.hpp"
#include "tests/toy_workload.hpp"

namespace phifi::fi {
namespace {

namespace fs = std::filesystem;

using phifi::testing::ToyWorkload;
using phifi::testing::toy_supervisor_config;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

fi::SupervisorConfig fast_supervisor_config() {
  fi::SupervisorConfig config = toy_supervisor_config();
  config.trial_fast_path = true;
  return config;
}

CampaignConfig fastpath_campaign(unsigned jobs, const std::string& journal) {
  CampaignConfig config;
  config.trials = 12;
  config.seed = 0xfa57f00dULL;
  config.jobs = jobs;
  config.journal_path = journal;
  return config;
}

CampaignResult run_campaign(WorkloadFactory factory, bool fast,
                            const CampaignConfig& config,
                            const TrialObserver& observer = nullptr) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(std::move(factory),
                             fast ? fast_supervisor_config()
                                  : toy_supervisor_config());
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

TEST(FastPath, GoldenDigestMatchesFnv1a) {
  const std::byte bytes[] = {std::byte{0x61}, std::byte{0x62},
                             std::byte{0x63}};
  // Reference FNV-1a 64 of "abc".
  EXPECT_EQ(fnv1a64({bytes, 3}), 0xe71fa2190541574bULL);
}

TEST(FastPath, GoldenMapPublishesSealedReadOnlyCopy) {
  GoldenMap map;
  std::vector<std::byte> golden(4096);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    golden[i] = static_cast<std::byte>(i * 7);
  }
  map.publish(golden);
  ASSERT_TRUE(map.mapped());
  ASSERT_EQ(map.size(), golden.size());
  EXPECT_EQ(map.digest(), fnv1a64(golden));
  EXPECT_TRUE(std::equal(golden.begin(), golden.end(),
                         map.golden().begin()));
  map.reset();
  EXPECT_FALSE(map.mapped());
}

TEST(FastPath, ResettableWorkloadResolvesWarmMode) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             fast_supervisor_config());
  supervisor.prepare_golden();
  EXPECT_EQ(supervisor.fork_mode(), ForkMode::kWarm);
  EXPECT_NE(supervisor.golden_digest(), 0u);
  EXPECT_EQ(supervisor.golden_output_bytes(), supervisor.golden().size());
  EXPECT_FALSE(supervisor.adopted());
}

TEST(FastPath, NonResettableWorkloadResolvesTemplateMode) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_no_reset,
                             fast_supervisor_config());
  supervisor.prepare_golden();
  EXPECT_EQ(supervisor.fork_mode(), ForkMode::kTemplate);
  EXPECT_NE(supervisor.golden_digest(), 0u);
}

TEST(FastPath, WarmModeMatchesLegacyBitIdenticalAtJobs1And4) {
  const CampaignResult legacy = run_campaign(
      &phifi::testing::make_toy_normal, false, fastpath_campaign(1, ""));
  ASSERT_EQ(legacy.overall.total(), 12u);

  const CampaignResult warm1 = run_campaign(
      &phifi::testing::make_toy_normal, true, fastpath_campaign(1, ""));
  EXPECT_EQ(warm1.trials.at(0).fork_mode, ForkMode::kWarm);
  EXPECT_TRUE(warm1.trials.at(0).setup_skipped);
  expect_same_campaign(legacy, warm1);

  const CampaignResult warm4 = run_campaign(
      &phifi::testing::make_toy_normal, true, fastpath_campaign(4, ""));
  expect_same_campaign(legacy, warm4);
}

TEST(FastPath, TemplateModeMatchesLegacyBitIdenticalAtJobs1And4) {
  const CampaignResult legacy = run_campaign(
      &phifi::testing::make_toy_no_reset, false, fastpath_campaign(1, ""));
  ASSERT_EQ(legacy.overall.total(), 12u);
  EXPECT_EQ(legacy.trials.at(0).fork_mode, ForkMode::kLegacy);
  EXPECT_FALSE(legacy.trials.at(0).setup_skipped);

  const CampaignResult tmpl1 = run_campaign(
      &phifi::testing::make_toy_no_reset, true, fastpath_campaign(1, ""));
  EXPECT_EQ(tmpl1.trials.at(0).fork_mode, ForkMode::kTemplate);
  // The first trial pays the template's setup; later ones ride the warm
  // image.
  EXPECT_FALSE(tmpl1.trials.at(0).setup_skipped);
  EXPECT_TRUE(tmpl1.trials.at(1).setup_skipped);
  expect_same_campaign(legacy, tmpl1);

  const CampaignResult tmpl4 = run_campaign(
      &phifi::testing::make_toy_no_reset, true, fastpath_campaign(4, ""));
  expect_same_campaign(legacy, tmpl4);
}

TEST(FastPath, OversizeOutputIsSdcOnBothPathsAndStaysInItsSlot) {
  // Every trial child ends with an output 1024x the golden size, far past
  // its slot's shm mapping. Both paths must call that wrong-shaped output
  // an SDC, hand the observer no bytes past the channel, and leave every
  // attempt's record exactly as its own child published it.
  const CampaignResult reference = run_campaign(
      &phifi::testing::make_toy_normal, false, fastpath_campaign(1, ""));
  for (const bool fast : {false, true}) {
    const CampaignResult grown = run_campaign(
        &phifi::testing::make_toy_oversize, fast, fastpath_campaign(2, ""),
        [](const TrialResult&, std::span<const std::byte> output) {
          EXPECT_TRUE(output.empty());
        });
    EXPECT_EQ(grown.overall.sdc, reference.overall.total()) << fast;
    ASSERT_EQ(grown.trials.size(), reference.trials.size());
    for (std::size_t i = 0; i < grown.trials.size(); ++i) {
      const TrialResult& a = grown.trials[i];
      const TrialResult& b = reference.trials[i];
      EXPECT_EQ(a.outcome, Outcome::kSdc) << "trial " << i;
      EXPECT_EQ(a.window, b.window) << "trial " << i;
      EXPECT_EQ(a.record.site_index, b.record.site_index) << "trial " << i;
      EXPECT_EQ(a.record.element_index, b.record.element_index);
      EXPECT_EQ(a.record.flipped_bits[0], b.record.flipped_bits[0]);
    }
  }
}

TEST(FastPath, WarmModeClassifiesCrashAsDue) {
  // Crash-mode toys misbehave from the second run() in the process tree:
  // the golden run is clean, every forked trial SIGSEGVs.
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_crash,
                             fast_supervisor_config());
  supervisor.prepare_golden();
  ASSERT_EQ(supervisor.fork_mode(), ForkMode::kWarm);
  const TrialResult result = supervisor.run_trial({.trial_seed = 7});
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kCrash);
  EXPECT_EQ(result.fork_mode, ForkMode::kWarm);
}

TEST(FastPath, TemplateModeClassifiesCrashAsDue) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(
      []() -> std::unique_ptr<Workload> {
        return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kCrash, 600,
                                             /*resettable=*/false);
      },
      fast_supervisor_config());
  supervisor.prepare_golden();
  ASSERT_EQ(supervisor.fork_mode(), ForkMode::kTemplate);
  const TrialResult result = supervisor.run_trial({.trial_seed = 7});
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kCrash);
  EXPECT_EQ(result.fork_mode, ForkMode::kTemplate);
}

TEST(FastPath, TemplateModeWatchdogKillsHungGrandchild) {
  ToyWorkload::reset_run_counter();
  fi::SupervisorConfig config = fast_supervisor_config();
  config.heartbeat_divisions = 0;  // no extensions: hit the hard deadline
  TrialSupervisor supervisor(
      []() -> std::unique_ptr<Workload> {
        return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kHang, 600,
                                             /*resettable=*/false);
      },
      config);
  supervisor.prepare_golden();
  ASSERT_EQ(supervisor.fork_mode(), ForkMode::kTemplate);
  const TrialResult result = supervisor.run_trial({.trial_seed = 7});
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kHang);
}

TEST(FastPath, FastPathJournalResumesUnderLegacyAndBack) {
  // Mode must not leak into the journal's identity: a campaign SIGKILLed
  // under the fast path resumes legacy (and the other way around), landing
  // on the sequential legacy reference bit-for-bit.
  const CampaignResult expected = run_campaign(
      &phifi::testing::make_toy_normal, false, fastpath_campaign(1, ""));

  struct Direction {
    bool kill_fast;
    bool resume_fast;
  };
  for (const Direction dir : {Direction{true, false}, Direction{false, true}}) {
    const std::string journal = temp_path(
        dir.kill_fast ? "fastpath_kill_fast.jnl" : "fastpath_kill_legacy.jnl");
    fs::remove(journal);
    const CampaignConfig config = fastpath_campaign(4, journal);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ToyWorkload::reset_run_counter();
      TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                                 dir.kill_fast ? fast_supervisor_config()
                                               : toy_supervisor_config());
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

    CampaignConfig resume_config = fastpath_campaign(2, journal);
    resume_config.resume = true;
    const CampaignResult resumed =
        run_campaign(&phifi::testing::make_toy_normal, dir.resume_fast,
                     resume_config, nullptr);
    EXPECT_GE(resumed.resumed_trials, 3u);
    EXPECT_FALSE(resumed.interrupted);
    expect_same_campaign(expected, resumed);
  }
}

TEST(FastPath, TemplateCrashMidCampaignRespawnsAndStaysBitIdentical) {
  // The drill: SIGKILL the slot's fork server partway through a campaign.
  // The supervisor must respawn it, replay the pending command if one was
  // in flight, and finish with tallies identical to the legacy reference.
  const CampaignResult expected = run_campaign(
      &phifi::testing::make_toy_no_reset, false, fastpath_campaign(1, ""));

  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_no_reset,
                             fast_supervisor_config());
  supervisor.prepare_golden();
  ASSERT_EQ(supervisor.fork_mode(), ForkMode::kTemplate);
  Campaign campaign(supervisor, fastpath_campaign(1, ""));
  int committed = 0;
  const CampaignResult result = campaign.run(
      [&](const TrialResult&, std::span<const std::byte>) {
        if (++committed == 3) {
          const pid_t tpid = supervisor.slot_template_pid(0);
          ASSERT_GT(tpid, 0);
          ASSERT_EQ(::kill(tpid, SIGKILL), 0);
        }
      });
  EXPECT_GE(supervisor.template_respawns(), 1u);
  expect_same_campaign(expected, result);
}

TEST(FastPath, TemplateDeathMidTrialReplaysDeterministically) {
  // Kill the template while its grandchild trial is in flight: the orphaned
  // grandchild is cleaned up and the command replayed against a fresh
  // template, converging on the exact same classified result.
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_no_reset,
                             fast_supervisor_config());
  supervisor.prepare_golden();
  ASSERT_EQ(supervisor.fork_mode(), ForkMode::kTemplate);
  const TrialConfig config{.trial_seed = 0xdeadULL};
  const TrialResult reference = supervisor.run_trial(config);

  supervisor.start_trial(0, config);
  const pid_t tpid = supervisor.slot_template_pid(0);
  ASSERT_GT(tpid, 0);
  ASSERT_EQ(::kill(tpid, SIGKILL), 0);
  TrialResult replayed;
  while (true) {
    std::vector<SlotCompletion> done = supervisor.poll_slots();
    if (!done.empty()) {
      replayed = std::move(done.front().result);
      break;
    }
    std::this_thread::sleep_for(supervisor.next_poll_delay());
  }
  EXPECT_GE(supervisor.template_respawns(), 1u);
  EXPECT_EQ(replayed.outcome, reference.outcome);
  EXPECT_EQ(replayed.due_kind, reference.due_kind);
  EXPECT_EQ(replayed.window, reference.window);
  EXPECT_EQ(replayed.record.site_index, reference.record.site_index);
  EXPECT_EQ(replayed.record.element_index, reference.record.element_index);
  EXPECT_EQ(replayed.record.flipped_bits[0], reference.record.flipped_bits[0]);
}

TEST(FastPath, AdoptedGoldenRunsTrialsWithoutAGoldenRun) {
  // First supervisor pays the golden run and records its digest; a second
  // one adopts digest + byte count (the fabric-worker resume path) and must
  // classify identically — without ever executing the workload in-process.
  ToyWorkload::reset_run_counter();
  TrialSupervisor first(&phifi::testing::make_toy_normal,
                        fast_supervisor_config());
  first.prepare_golden();
  const TrialResult expected = first.run_trial({.trial_seed = 99});

  // (The toy's process-wide run counter is already past the golden run —
  // advanced by `first` in this same process — so the adopting supervisor's
  // grandchildren stay on the legacy "second run" schedule.)
  TrialSupervisor second(&phifi::testing::make_toy_normal,
                         fast_supervisor_config());
  second.adopt_golden(first.golden_digest(), first.golden_output_bytes(),
                      first.golden_seconds());
  EXPECT_TRUE(second.adopted());
  EXPECT_EQ(second.fork_mode(), ForkMode::kTemplate);
  EXPECT_EQ(second.golden().size(), 0u);  // bytes are not materialized
  const TrialResult adopted = second.run_trial({.trial_seed = 99});
  EXPECT_EQ(adopted.outcome, expected.outcome);
  EXPECT_EQ(adopted.window, expected.window);
  EXPECT_EQ(adopted.record.site_index, expected.record.site_index);
  EXPECT_EQ(adopted.record.flipped_bits[0], expected.record.flipped_bits[0]);
}

}  // namespace
}  // namespace phifi::fi
