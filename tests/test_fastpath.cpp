// Per-slot fork-server trials: a fixed-seed toy campaign must reproduce a
// committed oracle draw for draw — at any worker count, across SIGKILL +
// resume, and across a template process dying mid-campaign — a trial
// forked from a parked checkpoint, or cut as converged with the golden
// run, must equal a from-start execution, a cancel must stay prompt even
// when nobody reaps the orphaned trial processes, a SIGKILLed campaign
// process must take its whole slot tree with it, and no slot process may
// hold a descriptor it inherited.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/golden_map.hpp"
#include "core/sdc_summary.hpp"
#include "phi/device.hpp"
#include "tests/toy_workload.hpp"
#include "util/rng.hpp"
#include "workloads/hardened.hpp"
#include "workloads/registry.hpp"

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
    // An SDC carries its child's summary, replayed or live; a Masked trial
    // carries zeros.
    EXPECT_EQ(result.trials[i].sdc.mismatched > 0,
              kOracle[i].outcome == Outcome::kSdc)
        << "trial " << i;
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
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  ASSERT_EQ(supervisor.golden().size(), 64 * sizeof(double));
  EXPECT_EQ(supervisor.golden_digest(), fnv1a64(supervisor.golden()));
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
  // Every trial child ends with an output 1024x the golden size. That
  // wrong-shaped output is an SDC summarized as empty (the child reads
  // nothing past the golden's length: every golden element is missing),
  // the observer gets no bytes, and every attempt's record is exactly
  // what its own child published.
  const CampaignResult grown = run_campaign(
      &phifi::testing::make_toy_oversize, fastpath_campaign(2, ""),
      [](const TrialResult&, std::span<const std::byte> output) {
        EXPECT_TRUE(output.empty());
      });
  EXPECT_EQ(grown.overall.sdc, kOracle.size());
  ASSERT_EQ(grown.trials.size(), kOracle.size());
  for (std::size_t i = 0; i < kOracle.size(); ++i) {
    const TrialResult& trial = grown.trials[i];
    EXPECT_EQ(trial.outcome, Outcome::kSdc) << "trial " << i;
    expect_oracle_draw(trial, i);
    EXPECT_EQ(trial.sdc.mismatched, 64u) << "trial " << i;
    EXPECT_TRUE(std::isinf(trial.sdc.max_relative_error)) << "trial " << i;
    EXPECT_EQ(trial.sdc.pattern, ErrorPattern::kSquare) << "trial " << i;
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

/// Children of `pid` (a single-threaded process) per /proc.
std::vector<pid_t> children_of(pid_t pid) {
  std::ifstream children("/proc/" + std::to_string(pid) + "/task/" +
                         std::to_string(pid) + "/children");
  std::vector<pid_t> out;
  for (pid_t child = 0; children >> child;) out.push_back(child);
  return out;
}

/// Every descendant of `pid`, parents before their children.
std::vector<pid_t> descendants_of(pid_t pid) {
  std::vector<pid_t> out = children_of(pid);
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (const pid_t child : children_of(out[i])) out.push_back(child);
  }
  return out;
}

/// Scheduler state of `pid` per /proc/<pid>/stat ('R' running), or '?'.
char state_of(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t paren = line.rfind(')');
  return paren != std::string::npos && paren + 2 < line.size()
             ? line[paren + 2]
             : '?';
}

/// The running trial of a one-slot campaign run by `helper`: a leaf of the
/// slot tree below the template (a checkpoint's child, or the template's
/// when it serves alone) that runs on two looks in a row. Parked
/// checkpoints and the template sleep on their sockets. -1 if none yet.
pid_t running_trial(pid_t helper) {
  for (const pid_t tmpl : children_of(helper)) {
    for (const pid_t pid : descendants_of(tmpl)) {
      if (children_of(pid).empty() && state_of(pid) == 'R') {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (children_of(pid).empty() && state_of(pid) == 'R') return pid;
      }
    }
  }
  return -1;
}

TEST(FastPath, TemplateAndTrialDieWithTheCampaignProcess) {
  // A hanging trial's only watchdog is the campaign process. When that
  // process is SIGKILLed, its template, every parked checkpoint and the
  // trial must die too, or they linger forever holding whatever the
  // campaign held open (a fabric worker's coordinator socket). This
  // process is the subreaper, so they all reparent here and can be reaped
  // here; a helper runs the campaign.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::setpgid(0, 0);  // survivors keep this group: the test kills them by it
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

  // The slot is busy once the trial runs; then the tree is complete.
  pid_t trial = -1;
  for (int i = 0; i < 400 && trial <= 0; ++i) {
    trial = running_trial(helper);
    if (trial <= 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::vector<pid_t> tree = descendants_of(helper);
  ::kill(helper, SIGKILL);
  ASSERT_EQ(::waitpid(helper, nullptr, 0), helper);

  // Everything reparents here; each counts as gone once it is reaped here.
  std::vector<pid_t> alive = trial > 0 ? tree : std::vector<pid_t>{};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!alive.empty() && std::chrono::steady_clock::now() < deadline) {
    std::erase_if(alive, [](pid_t pid) {
      return ::waitpid(pid, nullptr, WNOHANG) == pid;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Kill and reap whatever survived, so a failing run leaves nothing.
  ::kill(-helper, SIGKILL);
  for (int i = 0; i < 400 && ::waitpid(-1, nullptr, WNOHANG) >= 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 0), 0);

  ASSERT_GT(trial, 0) << "the helper never had a trial running";
  EXPECT_NE(std::find(tree.begin(), tree.end(), trial), tree.end());
  for (const pid_t pid : alive) {
    ADD_FAILURE() << "slot process " << pid << (pid == trial ? " (the trial)"
                                                             : "")
                  << " outlived the campaign process";
  }
}

/// A toy run long enough (2400 steps, several ms) for the golden run time
/// to park checkpoints on any host.
std::unique_ptr<Workload> make_long_toy() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kNormal, 2400);
}

/// What one trial reports, from the supervisor or from a from-start run.
struct TrialReport {
  InjectionRecord record;
  bool matches = false;
  SdcSummary sdc;
  std::uint64_t heartbeats = 0;
};

/// Executes `config` from the start of a fresh `factory` workload in a
/// forked child, without the supervisor: the reference a checkpointed or
/// cut trial must equal. The child exits 2 if the run throws.
TrialReport from_start(WorkloadFactory factory, const TrialConfig& config,
                       const SupervisorConfig& sup,
                       const TrialSupervisor& golden) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const std::unique_ptr<Workload> owned = factory();
    Workload& workload = *owned;
    workload.setup(sup.input_seed);
    SiteRegistry registry;
    workload.register_sites(registry);
    phi::Device device(sup.device_spec, 1);
    ProgressTracker progress;
    progress.reset(workload.total_steps());
    TrialReport out;
    progress.set_pulse(sup.heartbeat_divisions, [&out] { ++out.heartbeats; });
    util::Rng rng(config.trial_seed);
    const double target =
        rng.uniform(config.earliest_fraction, config.latest_fraction);
    FlipEngine engine(registry, config.policy);
    progress.arm(target, [&](double at) {
      out.record = engine.inject(config.model, rng, at, config.burst_elements);
    });
    try {
      workload.run(device, progress);
    } catch (...) {
      ::_exit(2);
    }
    progress.finish();
    const auto output = workload.output_bytes();
    out.matches = output.size() == golden.golden().size() &&
                  std::equal(output.begin(), output.end(),
                             golden.golden().begin());
    if (!out.matches) {
      out.sdc = summarize_sdc(golden.golden(), output, golden.output_type(),
                              golden.output_shape());
    }
    const bool sent = ::write(fds[1], &out, sizeof(out)) ==
                      static_cast<ssize_t>(sizeof(out));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  TrialReport out;
  EXPECT_EQ(::read(fds[0], &out, sizeof(out)),
            static_cast<ssize_t>(sizeof(out)));
  ::close(fds[0]);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return out;
}

/// Field-by-field equality of two injection records.
void expect_same_injection(const InjectionRecord& a, const InjectionRecord& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.changed, b.changed);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.frame, b.frame);
  EXPECT_EQ(a.worker, b.worker);
  EXPECT_EQ(a.site_index, b.site_index);
  EXPECT_EQ(a.element_index, b.element_index);
  EXPECT_EQ(a.burst_elements, b.burst_elements);
  EXPECT_EQ(a.flipped_bits[0], b.flipped_bits[0]);
  EXPECT_EQ(a.flipped_bits[1], b.flipped_bits[1]);
  EXPECT_EQ(a.flipped_count, b.flipped_count);
  EXPECT_EQ(a.progress_fraction, b.progress_fraction);
  EXPECT_STREQ(a.site_name, b.site_name);
  EXPECT_STREQ(a.category, b.category);
}

TEST(FastPath, CheckpointedTrialsEqualFromStartRuns) {
  // Targets on and between every 1/16 grid point span every checkpoint the
  // template can park; each routed trial must report exactly what a
  // from-start execution of its command reports. Zero flips early in the
  // run, while most of the toy's output is still zero, often change
  // nothing: those trials are cut as converged at the first grid point.
  const SupervisorConfig sup = toy_supervisor_config();
  TrialSupervisor supervisor(&make_long_toy, sup);
  supervisor.prepare_golden();
  constexpr FaultModel kModels[] = {FaultModel::kSingle, FaultModel::kDouble,
                                    FaultModel::kRandom, FaultModel::kZero};
  std::vector<double> targets;
  for (int k = 0; k < 32; ++k) targets.push_back((k + 0.5) / 32.0);
  for (int k = 1; k < 16; ++k) targets.push_back(k / 16.0);
  const std::size_t cycled = targets.size();
  for (int k = 1; k <= 4; ++k) targets.push_back(0.002 * k);
  unsigned converged = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    TrialConfig config;
    config.trial_seed = 0x5eed00 + i;
    config.model = i < cycled ? kModels[i % 4] : FaultModel::kZero;
    config.policy = i % 2 == 0 ? SelectionPolicy::kCarolFi
                               : SelectionPolicy::kBytesWeighted;
    config.earliest_fraction = targets[i];
    config.latest_fraction = targets[i];
    const TrialResult got = supervisor.run_trial(config);
    const TrialReport want =
        from_start(&make_long_toy, config, sup, supervisor);
    SCOPED_TRACE("target " + std::to_string(targets[i]));
    if (got.converged_at > 0.0) ++converged;
    ASSERT_TRUE(got.outcome == Outcome::kMasked ||
                got.outcome == Outcome::kSdc);
    EXPECT_EQ(got.outcome == Outcome::kMasked, want.matches);
    expect_same_injection(got.record, want.record);
    EXPECT_EQ(got.sdc.pattern, want.sdc.pattern);
    EXPECT_EQ(got.sdc.mismatched, want.sdc.mismatched);
    EXPECT_EQ(got.sdc.max_relative_error, want.sdc.max_relative_error);
    EXPECT_EQ(got.heartbeats, want.heartbeats);
  }
  // The routes above were real: the template parked checkpoints, and at
  // least one trial was cut as converged.
  EXPECT_GE(children_of(supervisor.slot_template_pid(0)).size(), 2u);
  EXPECT_GE(converged, 1u);
}

TEST(FastPath, ConvergedTrialsAreMaskedFromStart) {
  // A trial cut as converged must be exactly what its full run from the
  // start reports: Masked, with the same injection and the same
  // heartbeats. Every paper workload and every hardened variant, targets
  // spread over the grid, models cycling.
  struct Member {
    const char* name;
    WorkloadFactory factory;
    bool must_converge;  ///< golden run >= 2.4 ms: checkpoints on any host
  };
  std::vector<Member> members;
  for (const work::WorkloadInfo& info : work::all_workloads()) {
    members.push_back({info.name.data(), info.factory,
                       info.name == "CLAMR" || info.name == "HotSpot"});
  }
  members.push_back({"DGEMM+ABFT", &work::make_abft_dgemm, false});
  members.push_back({"HotSpot+DWC", &work::make_hardened_hotspot, false});
  members.push_back({"CLAMR+guards", &work::make_hardened_clamr, true});
  members.push_back({"LavaMD+RMT", &work::make_rmt_lavamd, false});
  constexpr FaultModel kModels[] = {FaultModel::kSingle, FaultModel::kDouble,
                                    FaultModel::kRandom, FaultModel::kZero};
  constexpr unsigned kTrials = 48;
  SupervisorConfig sup;
  // Hung trials are never cut; a short deadline keeps them cheap.
  sup.min_timeout_seconds = 0.25;
  for (const Member& member : members) {
    SCOPED_TRACE(member.name);
    TrialSupervisor supervisor(member.factory, sup);
    supervisor.prepare_golden();
    unsigned converged = 0;
    for (unsigned i = 0; i < kTrials; ++i) {
      TrialConfig config;
      config.trial_seed = 0xc0417e00 + i;
      config.model = kModels[i % 4];
      config.earliest_fraction = (i + 0.5) / kTrials;
      config.latest_fraction = config.earliest_fraction;
      const TrialResult got = supervisor.run_trial(config);
      if (got.converged_at == 0.0) continue;
      ++converged;
      SCOPED_TRACE("trial " + std::to_string(i) + " cut at " +
                   std::to_string(got.converged_at));
      EXPECT_EQ(got.outcome, Outcome::kMasked);
      EXPECT_GT(got.converged_at, got.record.progress_fraction);
      const TrialReport want =
          from_start(member.factory, config, sup, supervisor);
      EXPECT_TRUE(want.matches);
      expect_same_injection(got.record, want.record);
      EXPECT_EQ(got.heartbeats, want.heartbeats);
    }
    if (member.must_converge) {
      EXPECT_GE(converged, 1u);
    }
  }
}

TEST(FastPath, LostCheckpointRespawnsTheTemplateAndReplays) {
  // Every parked checkpoint dies: the next trial's route hits a closed
  // socket, the template exits, and the campaign process respawns it and
  // replays the command onto the same result.
  TrialSupervisor supervisor(&make_long_toy, toy_supervisor_config());
  supervisor.prepare_golden();
  const TrialConfig config{.trial_seed = 0xbeefULL,
                           .earliest_fraction = 0.9,
                           .latest_fraction = 0.9};
  const TrialResult reference = supervisor.run_trial(config);
  const std::vector<pid_t> parked =
      children_of(supervisor.slot_template_pid(0));
  ASSERT_GE(parked.size(), 2u);
  for (const pid_t pid : parked) ASSERT_EQ(::kill(pid, SIGKILL), 0);
  const TrialResult replayed = supervisor.run_trial(config);
  EXPECT_GE(supervisor.template_respawns(), 1u);
  EXPECT_EQ(replayed.outcome, reference.outcome);
  EXPECT_EQ(replayed.record.site_index, reference.record.site_index);
  EXPECT_EQ(replayed.record.element_index, reference.record.element_index);
  EXPECT_EQ(replayed.record.flipped_bits[0], reference.record.flipped_bits[0]);
  EXPECT_EQ(replayed.heartbeats, reference.heartbeats);
}

TEST(FastPath, SlotProcessesHoldNoInheritedDescriptor) {
  // A descriptor the campaign process holds (here opened before the first
  // launch, without close-on-exec) must not reach the template, its
  // checkpoints or their trials.
  TrialSupervisor supervisor(&make_long_toy, toy_supervisor_config());
  supervisor.prepare_golden();
  const std::string marker = temp_path("inherited_fd");
  const int inherited = ::open(marker.c_str(), O_RDWR | O_CREAT, 0600);
  ASSERT_GE(inherited, 0);
  (void)supervisor.run_clean_trial();
  const pid_t tmpl = supervisor.slot_template_pid(0);
  ASSERT_GT(tmpl, 0);
  std::vector<pid_t> tree = descendants_of(tmpl);
  tree.push_back(tmpl);
  for (const pid_t pid : tree) {
    const fs::path fds = "/proc/" + std::to_string(pid) + "/fd";
    for (const auto& fd : fs::directory_iterator(fds)) {
      std::error_code ec;
      EXPECT_NE(fs::read_symlink(fd.path(), ec), fs::path(marker))
          << "slot process " << pid << " holds the campaign's descriptor";
    }
  }
  ::close(inherited);
  fs::remove(marker);
}

}  // namespace
}  // namespace phifi::fi
