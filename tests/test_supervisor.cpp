#include "core/supervisor.hpp"

#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "tests/toy_workload.hpp"

// RLIMIT_AS clashes with ASan's shadow-memory reservation, so the
// address-space rlimit test must be skipped under ASan.
#if defined(__SANITIZE_ADDRESS__)
#define PHIFI_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PHIFI_ASAN 1
#endif
#endif

namespace phifi::fi {
namespace {

using phifi::testing::ToyWorkload;
using phifi::testing::toy_supervisor_config;

TEST(Supervisor, GoldenIsPrepared) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  EXPECT_EQ(supervisor.golden().size(), 64 * sizeof(double));
  EXPECT_EQ(supervisor.output_type(), ElementType::kF64);
  EXPECT_EQ(supervisor.time_windows(), 4u);
  EXPECT_GT(supervisor.golden_seconds(), 0.0);
  EXPECT_EQ(supervisor.workload_name(), "Toy");
}

TEST(Supervisor, CleanTrialIsMasked) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  const TrialResult result = supervisor.run_clean_trial();
  EXPECT_EQ(result.outcome, Outcome::kMasked);
  EXPECT_EQ(result.due_kind, DueKind::kNone);
}

TEST(Supervisor, RandomFaultInOutputIsSdc) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  int sdcs = 0;
  int injected = 0;
  for (int i = 0; injected < 10 && i < 40; ++i) {
    TrialConfig config;
    config.trial_seed = 1000 + i;
    config.model = FaultModel::kRandom;
    config.policy = SelectionPolicy::kGlobalBytesWeighted;
    const TrialResult result = supervisor.run_trial(config);
    // A very late target can race the end of the run; such trials are
    // reported NotInjected and retried, as in a real campaign.
    if (result.outcome == Outcome::kNotInjected) continue;
    ++injected;
    if (result.outcome == Outcome::kSdc) {
      ++sdcs;
      EXPECT_TRUE(result.record.injected);
      EXPECT_EQ(result.record.model, FaultModel::kRandom);
      // The SDC trial's output is available and differs from golden.
      const auto output = supervisor.slot_output(0);
      ASSERT_EQ(output.size(), supervisor.golden().size());
      EXPECT_NE(std::memcmp(output.data(), supervisor.golden().data(),
                            output.size()),
                0);
    }
  }
  // A Random overwrite of a persistently accumulated output element can
  // practically never restore the exact value.
  EXPECT_GE(sdcs, 8);
}

TEST(Supervisor, CrashTrialIsDueCrash) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_crash,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  TrialConfig config;
  config.trial_seed = 5;
  const TrialResult result = supervisor.run_trial(config);
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kCrash);
}

TEST(Supervisor, HangTrialIsDueHang) {
  ToyWorkload::reset_run_counter();
  auto config = toy_supervisor_config();
  config.min_timeout_seconds = 0.3;
  config.timeout_factor = 5.0;
  TrialSupervisor supervisor(&phifi::testing::make_toy_hang, config);
  supervisor.prepare_golden();
  TrialConfig trial;
  trial.trial_seed = 6;
  const TrialResult result = supervisor.run_trial(trial);
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kHang);
  // A plain hang dies to SIGTERM inside the grace window; no escalation.
  EXPECT_FALSE(result.escalated_kill);
}

TEST(Supervisor, SigtermIgnoringHangIsEscalatedToSigkill) {
  ToyWorkload::reset_run_counter();
  auto config = toy_supervisor_config();
  config.min_timeout_seconds = 0.3;
  config.timeout_factor = 5.0;
  config.kill_grace_seconds = 0.1;
  TrialSupervisor supervisor(&phifi::testing::make_toy_hang_ignore_term,
                             config);
  supervisor.prepare_golden();
  TrialConfig trial;
  trial.trial_seed = 8;
  const TrialResult result = supervisor.run_trial(trial);
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kHang);
  EXPECT_TRUE(result.escalated_kill);
}

TEST(Supervisor, AddressSpaceRlimitIsDueRlimit) {
#ifdef PHIFI_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#endif
  ToyWorkload::reset_run_counter();
  auto config = toy_supervisor_config();
  config.child_address_space_mb = 512;
  // Generous deadline: this test asserts *classification* (rlimit beats
  // watchdog), and touching 512MB can outlast the default ~0.5s deadline
  // on a loaded parallel-ctest host, misclassifying the trial as a hang.
  config.min_timeout_seconds = 10.0;
  TrialSupervisor supervisor(&phifi::testing::make_toy_bloat, config);
  supervisor.prepare_golden();
  TrialConfig trial;
  trial.trial_seed = 9;
  const TrialResult result = supervisor.run_trial(trial);
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kRlimit);
}

TEST(Supervisor, CpuRlimitIsDueRlimit) {
  ToyWorkload::reset_run_counter();
  auto config = toy_supervisor_config();
  // Deadline far beyond the CPU limit so the kernel's SIGXCPU, not the
  // watchdog, is what stops the spinning child.
  config.min_timeout_seconds = 10.0;
  config.child_cpu_seconds = 1;
  TrialSupervisor supervisor(&phifi::testing::make_toy_hang, config);
  supervisor.prepare_golden();
  TrialConfig trial;
  trial.trial_seed = 10;
  const TrialResult result = supervisor.run_trial(trial);
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kRlimit);
  EXPECT_LT(result.seconds, 5.0);
}

TEST(Supervisor, HeartbeatExtendsDeadlineForSlowChild) {
  ToyWorkload::reset_run_counter();
  auto config = toy_supervisor_config();
  config.min_timeout_seconds = 0.15;
  config.heartbeat_divisions = 16;
  config.max_deadline_factor = 4.0;
  TrialSupervisor supervisor(&phifi::testing::make_toy_slow, config);
  supervisor.prepare_golden();
  // The slowed run (~0.3s) blows past the 0.15s base deadline, but the
  // child keeps beating, so the watchdog lets it finish.
  const TrialResult result = supervisor.run_clean_trial();
  EXPECT_EQ(result.outcome, Outcome::kMasked);
  EXPECT_GT(result.heartbeats, 0u);
  EXPECT_GT(result.seconds, 0.15);
}

TEST(Supervisor, SlowChildWithoutHeartbeatIsKilled) {
  ToyWorkload::reset_run_counter();
  auto config = toy_supervisor_config();
  config.min_timeout_seconds = 0.15;
  config.heartbeat_divisions = 0;  // heartbeat off: hard deadline applies
  TrialSupervisor supervisor(&phifi::testing::make_toy_slow, config);
  supervisor.prepare_golden();
  const TrialResult result = supervisor.run_clean_trial();
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kHang);
}

TEST(Supervisor, StallTimeoutCutsSilentChildEarly) {
  ToyWorkload::reset_run_counter();
  auto config = toy_supervisor_config();
  config.min_timeout_seconds = 3.0;  // generous absolute deadline
  config.heartbeat_divisions = 16;
  config.stall_timeout_seconds = 0.2;
  TrialSupervisor supervisor(&phifi::testing::make_toy_hang, config);
  supervisor.prepare_golden();
  TrialConfig trial;
  trial.trial_seed = 11;
  const TrialResult result = supervisor.run_trial(trial);
  // The hang toy beats through its first half, then goes silent; the
  // stall timeout reaps it long before the 3s deadline.
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kStall);
  EXPECT_LT(result.seconds, 1.5);
}

TEST(Supervisor, WaitSurvivesSignalInterruptions) {
  ToyWorkload::reset_run_counter();
  // Install a no-op SIGUSR1 handler WITHOUT SA_RESTART so every delivery
  // forces waitpid/nanosleep in the supervisor out with EINTR.
  struct sigaction action = {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction old_action = {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &old_action), 0);

  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();

  std::atomic<bool> done{false};
  pthread_t target = pthread_self();
  std::thread pester([&] {
    while (!done.load(std::memory_order_relaxed)) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const TrialResult result = supervisor.run_clean_trial();
  done.store(true, std::memory_order_relaxed);
  pester.join();
  sigaction(SIGUSR1, &old_action, nullptr);

  EXPECT_EQ(result.outcome, Outcome::kMasked);
  EXPECT_EQ(result.due_kind, DueKind::kNone);
}

TEST(Supervisor, ThrowTrialIsDueAbnormalExit) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_throw,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  TrialConfig trial;
  trial.trial_seed = 7;
  const TrialResult result = supervisor.run_trial(trial);
  EXPECT_EQ(result.outcome, Outcome::kDue);
  EXPECT_EQ(result.due_kind, DueKind::kAbnormalExit);
}

TEST(Supervisor, WindowAttributionMatchesProgressFraction) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                             toy_supervisor_config());
  supervisor.prepare_golden();
  for (int i = 0; i < 8; ++i) {
    TrialConfig trial;
    trial.trial_seed = 100 + i;
    trial.model = FaultModel::kSingle;
    const TrialResult result = supervisor.run_trial(trial);
    if (result.outcome == Outcome::kNotInjected) continue;
    const unsigned expected = std::min(
        3u, static_cast<unsigned>(result.record.progress_fraction * 4));
    EXPECT_EQ(result.window, expected);
  }
}

TEST(Supervisor, GoldenIsDeterministicAcrossInstances) {
  ToyWorkload::reset_run_counter();
  TrialSupervisor a(&phifi::testing::make_toy_normal,
                    toy_supervisor_config());
  a.prepare_golden();
  ToyWorkload::reset_run_counter();
  TrialSupervisor b(&phifi::testing::make_toy_normal,
                    toy_supervisor_config());
  b.prepare_golden();
  ASSERT_EQ(a.golden().size(), b.golden().size());
  EXPECT_EQ(std::memcmp(a.golden().data(), b.golden().data(),
                        a.golden().size()),
            0);
}

}  // namespace
}  // namespace phifi::fi
