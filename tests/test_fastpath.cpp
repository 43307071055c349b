// Per-slot fork-server trials: a fixed-seed toy campaign must reproduce a
// committed oracle draw for draw — at any worker count, across SIGKILL +
// resume, and across a template process dying mid-campaign — a cancel
// must stay prompt even when nobody reaps the orphaned trial processes, and
// a SIGKILLed campaign process must take its template and trial with it.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
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

CampaignConfig fastpath_campaign(unsigned jobs, const std::string& journal) {
  CampaignConfig config;
  config.trials = 12;
  config.seed = 0xfa57f00dULL;
  config.jobs = jobs;
  config.journal_path = journal;
  return config;
}

CampaignResult run_campaign(WorkloadFactory factory,
                            const CampaignConfig& config,
                            const TrialObserver& observer = nullptr) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(factory, toy_supervisor_config());
  supervisor.prepare_golden();
  Campaign campaign(supervisor, config);
  return campaign.run(observer);
}

/// One committed trial of fastpath_campaign() on the toy workload.
struct OracleTrial {
  Outcome outcome;
  unsigned window;
  std::uint32_t site_index;
  std::uint64_t element_index;
  std::uint64_t flipped_bit;
};

/// Recorded from the cold-start trial path (every child re-running factory
/// and setup) that the fork server replaced: the draws are a function of
/// the campaign seed alone, so any change to RNG draw order, site
/// selection or classification shows up here.
constexpr std::array<OracleTrial, 12> kOracle = {{
    {Outcome::kSdc, 3, 0, 25, 3},
    {Outcome::kSdc, 2, 0, 51, 11},
    {Outcome::kMasked, 0, 0, 52, 0},
    {Outcome::kSdc, 1, 0, 17, 0},
    {Outcome::kSdc, 3, 0, 44, 53},
    {Outcome::kMasked, 0, 0, 40, 11},
    {Outcome::kSdc, 1, 1, 0, 0},
    {Outcome::kSdc, 3, 0, 32, 0},
    {Outcome::kSdc, 1, 0, 47, 54},
    {Outcome::kSdc, 2, 1, 0, 42},
    {Outcome::kSdc, 2, 0, 27, 0},
    {Outcome::kSdc, 0, 0, 59, 0},
}};

/// Asserts a trial drew the oracle's injection (window, site, element,
/// bit); the outcome is checked separately so a caller can override it.
void expect_oracle_draw(const TrialResult& trial, std::size_t i) {
  const OracleTrial& want = kOracle.at(i);
  EXPECT_EQ(trial.window, want.window) << "trial " << i;
  EXPECT_EQ(trial.record.site_index, want.site_index) << "trial " << i;
  EXPECT_EQ(trial.record.element_index, want.element_index) << "trial " << i;
  EXPECT_EQ(trial.record.flipped_bits[0], want.flipped_bit) << "trial " << i;
}

void expect_oracle(const CampaignResult& result) {
  EXPECT_EQ(result.attempts, kOracle.size());
  EXPECT_EQ(result.not_injected, 0u);
  EXPECT_EQ(result.overall.masked, 2u);
  EXPECT_EQ(result.overall.sdc, 10u);
  EXPECT_EQ(result.overall.due, 0u);
  ASSERT_EQ(result.trials.size(), kOracle.size());
  for (std::size_t i = 0; i < kOracle.size(); ++i) {
    EXPECT_EQ(result.trials[i].outcome, kOracle[i].outcome) << "trial " << i;
    expect_oracle_draw(result.trials[i], i);
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

TEST(FastPath, PrepareGoldenPublishesTheSealedCopy) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  ASSERT_EQ(supervisor.golden().size(), 64 * sizeof(double));
  EXPECT_EQ(supervisor.golden_output_bytes(), supervisor.golden().size());
  EXPECT_EQ(supervisor.golden_digest(), fnv1a64(supervisor.golden()));
  EXPECT_FALSE(supervisor.adopted());
}

TEST(FastPath, MatchesCommittedOracleAtJobs1And4) {
  const CampaignResult jobs1 =
      run_campaign(&phifi::testing::make_toy_normal, fastpath_campaign(1, ""));
  expect_oracle(jobs1);
  // The first trial pays the template's setup; later ones ride its image.
  EXPECT_FALSE(jobs1.trials.at(0).setup_skipped);
  EXPECT_TRUE(jobs1.trials.at(1).setup_skipped);

  expect_oracle(run_campaign(&phifi::testing::make_toy_normal,
                             fastpath_campaign(4, "")));
}

TEST(FastPath, OversizeOutputIsSdcAndStaysInItsSlot) {
  // Every trial child ends with an output 1024x the golden size, far past
  // its slot's shm mapping. That wrong-shaped output is an SDC, the
  // observer gets no bytes past the channel, and every attempt's record
  // is exactly what its own child published.
  const CampaignResult grown = run_campaign(
      &phifi::testing::make_toy_oversize, fastpath_campaign(2, ""),
      [](const TrialResult&, std::span<const std::byte> output) {
        EXPECT_TRUE(output.empty());
      });
  EXPECT_EQ(grown.overall.sdc, kOracle.size());
  ASSERT_EQ(grown.trials.size(), kOracle.size());
  for (std::size_t i = 0; i < kOracle.size(); ++i) {
    EXPECT_EQ(grown.trials[i].outcome, Outcome::kSdc) << "trial " << i;
    expect_oracle_draw(grown.trials[i], i);
  }
}

TEST(FastPath, SigkilledJournalResumesOntoTheOracle) {
  // SIGKILL a jobs=4 campaign after three commits, resume it at jobs=2:
  // the journal's replayed trials plus the freshly run ones land on the
  // oracle.
  const std::string journal = temp_path("fastpath_kill.jnl");
  fs::remove(journal);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ToyWorkload::reset_run_counter();
    TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                               toy_supervisor_config());
    supervisor.prepare_golden();
    Campaign campaign(supervisor, fastpath_campaign(4, journal));
    int committed = 0;
    campaign.run([&committed](const TrialResult&, std::span<const std::byte>) {
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
      run_campaign(&phifi::testing::make_toy_normal, resume_config);
  EXPECT_GE(resumed.resumed_trials, 3u);
  EXPECT_FALSE(resumed.interrupted);
  expect_oracle(resumed);
}

TEST(FastPath, TemplateCrashMidCampaignRespawnsOntoTheOracle) {
  // The drill: SIGKILL the slot's fork server partway through a campaign.
  // The supervisor must respawn it, replay the pending command if one was
  // in flight, and still land on the oracle.
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
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
  expect_oracle(result);
}

TEST(FastPath, TemplateDeathMidTrialReplaysDeterministically) {
  // Kill the template while its grandchild trial is in flight: the orphaned
  // grandchild is cleaned up and the command replayed against a fresh
  // template, converging on the exact same classified result.
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
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
    supervisor.wait_for_completion();
  }
  EXPECT_GE(supervisor.template_respawns(), 1u);
  EXPECT_EQ(replayed.outcome, reference.outcome);
  EXPECT_EQ(replayed.due_kind, reference.due_kind);
  EXPECT_EQ(replayed.window, reference.window);
  EXPECT_EQ(replayed.record.site_index, reference.record.site_index);
  EXPECT_EQ(replayed.record.element_index, reference.record.element_index);
  EXPECT_EQ(replayed.record.flipped_bits[0], reference.record.flipped_bits[0]);
}

TEST(FastPath, CancelIsPromptWhenOrphansStayUnreaped) {
  // Cancelling busy slots must neither leave orphaned trial processes
  // behind nor wait on them: an orphan reparents to a subreaper or PID 1
  // that may never reap it, and lingers there as a zombie. The helper
  // process is such a subreaper, so any orphan shows up as its child;
  // exit codes say which check failed.
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    int code = 0;
    try {
      if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) ::_exit(10);
      ToyWorkload::reset_run_counter();
      fi::SupervisorConfig config = toy_supervisor_config();
      config.heartbeat_divisions = 0;  // the follow-up trial hits the deadline
      TrialSupervisor supervisor(&phifi::testing::make_toy_hang, config);
      supervisor.prepare_golden();
      supervisor.ensure_slots(4);
      for (unsigned slot = 0; slot < 4; ++slot) {
        supervisor.start_trial(slot, {.trial_seed = 7 + slot});
      }
      // Let every template fork its grandchild and reach the hang.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      const auto start = std::chrono::steady_clock::now();
      supervisor.kill_active_slots();
      const double cancel_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (cancel_seconds >= 0.5 || supervisor.active_slots() != 0) {
        code = 1;
      } else if (::waitpid(-1, nullptr, WNOHANG) > 0) {
        code = 4;  // the templates are reaped, so this is an orphan
      } else {
        const TrialResult after = supervisor.run_trial({.trial_seed = 99});
        if (after.outcome != Outcome::kDue ||
            after.due_kind != DueKind::kHang) {
          code = 2;
        }
      }
    } catch (...) {
      code = 3;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1 = cancel took >= 0.5s, 2 = follow-up trial misclassified, "
         "3 = exception, 4 = cancel orphaned a trial process";
}

/// First child of `pid` (a single-threaded process) per /proc, or -1.
pid_t first_child(pid_t pid) {
  std::ifstream children("/proc/" + std::to_string(pid) + "/task/" +
                         std::to_string(pid) + "/children");
  pid_t child = -1;
  children >> child;
  return child;
}

TEST(FastPath, TemplateAndTrialDieWithTheCampaignProcess) {
  // A hanging trial's only watchdog is the campaign process. When that
  // process is SIGKILLed, its template and the trial must die too, or they
  // linger forever holding whatever the campaign held open (a fabric
  // worker's coordinator socket). This process is the subreaper, so both
  // reparent here and can be reaped here; a helper runs the campaign.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::setpgid(0, 0);  // survivors keep this group: the test kills them by it
    ToyWorkload::reset_run_counter();
    SupervisorConfig config = toy_supervisor_config();
    config.min_timeout_seconds = 60.0;  // only the SIGKILL ends the hang
    TrialSupervisor supervisor(&phifi::testing::make_toy_hang, config);
    supervisor.prepare_golden();
    CampaignConfig campaign;
    campaign.trials = 4;
    campaign.jobs = 1;
    (void)Campaign(supervisor, campaign).run();
    ::_exit(0);
  }
  ::setpgid(helper, helper);

  // The slot is busy once the helper's template has forked the trial.
  pid_t template_pid = -1;
  pid_t trial_pid = -1;
  for (int i = 0; i < 2000 && trial_pid <= 0; ++i) {
    if (template_pid <= 0) template_pid = first_child(helper);
    if (template_pid > 0) trial_pid = first_child(template_pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool busy = template_pid > 0 && trial_pid > 0;
  ::kill(helper, SIGKILL);
  ASSERT_EQ(::waitpid(helper, nullptr, 0), helper);

  // Both reparent here; each counts as gone once it is reaped here.
  bool template_gone = !busy;
  bool trial_gone = !busy;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while ((!template_gone || !trial_gone) &&
         std::chrono::steady_clock::now() < deadline) {
    if (!template_gone) {
      template_gone = ::waitpid(template_pid, nullptr, WNOHANG) == template_pid;
    }
    if (!trial_gone) {
      trial_gone = ::waitpid(trial_pid, nullptr, WNOHANG) == trial_pid;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Kill and reap whatever survived, so a failing run leaves nothing.
  ::kill(-helper, SIGKILL);
  for (int i = 0; i < 400 && ::waitpid(-1, nullptr, WNOHANG) >= 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 0), 0);

  ASSERT_TRUE(busy) << "the helper never had a trial in flight";
  EXPECT_TRUE(template_gone) << "template " << template_pid
                             << " outlived the campaign process";
  EXPECT_TRUE(trial_gone) << "trial " << trial_pid
                          << " outlived the campaign process";
}

TEST(FastPath, AdoptedGoldenRunsTrialsWithoutAGoldenRun) {
  // First supervisor pays the golden run and records its digest; a second
  // one adopts digest + byte count (the fabric-worker resume path) and must
  // classify identically — without ever executing the workload in-process.
  ToyWorkload::reset_run_counter();
  TrialSupervisor first(&phifi::testing::make_toy_normal,
                        toy_supervisor_config());
  first.prepare_golden();
  const TrialResult expected = first.run_trial({.trial_seed = 99});

  // (The toy's process-wide run counter is already past the golden run —
  // advanced by `first` in this same process — so the adopting supervisor's
  // grandchildren stay on the same "second run" schedule.)
  TrialSupervisor second(&phifi::testing::make_toy_normal,
                         toy_supervisor_config());
  second.adopt_golden(first.golden_digest(), first.golden_output_bytes(),
                      first.golden_seconds());
  EXPECT_TRUE(second.adopted());
  EXPECT_EQ(second.golden().size(), 0u);  // bytes are not materialized
  const TrialResult adopted = second.run_trial({.trial_seed = 99});
  EXPECT_EQ(adopted.outcome, expected.outcome);
  EXPECT_EQ(adopted.window, expected.window);
  EXPECT_EQ(adopted.record.site_index, expected.record.site_index);
  EXPECT_EQ(adopted.record.flipped_bits[0], expected.record.flipped_bits[0]);
}

}  // namespace
}  // namespace phifi::fi
