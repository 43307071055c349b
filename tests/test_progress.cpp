#include "core/progress.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace phifi::fi {
namespace {

TEST(Progress, FractionTracksTicks) {
  ProgressTracker progress;
  progress.reset(10);
  EXPECT_EQ(progress.fraction(), 0.0);
  progress.tick(3);
  EXPECT_DOUBLE_EQ(progress.fraction(), 0.3);
  progress.tick(7);
  EXPECT_DOUBLE_EQ(progress.fraction(), 1.0);
  progress.tick(5);  // over-ticking clamps
  EXPECT_DOUBLE_EQ(progress.fraction(), 1.0);
}

TEST(Progress, ZeroTotalIsZeroFraction) {
  ProgressTracker progress;
  progress.reset(0);
  progress.tick(100);
  EXPECT_EQ(progress.fraction(), 0.0);
}

TEST(Progress, HookFiresOnceAtCrossing) {
  ProgressTracker progress;
  progress.reset(100);
  int fires = 0;
  double fired_at = 0.0;
  progress.arm(0.5, [&](double at) {
    ++fires;
    fired_at = at;
  });
  for (int i = 0; i < 49; ++i) progress.tick();
  EXPECT_EQ(fires, 0);
  progress.tick();  // crosses 0.5
  EXPECT_EQ(fires, 1);
  EXPECT_DOUBLE_EQ(fired_at, 0.5);
  for (int i = 0; i < 50; ++i) progress.tick();
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(progress.fired());
}

TEST(Progress, LateTargetFiresAtFinish) {
  ProgressTracker progress;
  progress.reset(10);
  int fires = 0;
  double fired_at = -1.0;
  progress.arm(0.999, [&](double at) {
    ++fires;
    fired_at = at;
  });
  for (int i = 0; i < 9; ++i) progress.tick();
  EXPECT_EQ(fires, 0);
  progress.finish();
  EXPECT_EQ(fires, 1);
  EXPECT_DOUBLE_EQ(fired_at, 1.0);
  EXPECT_TRUE(progress.finished());
}

TEST(Progress, WeightedTickCrossingReportsActualFraction) {
  ProgressTracker progress;
  progress.reset(100);
  double fired_at = 0.0;
  progress.arm(0.5, [&](double at) { fired_at = at; });
  progress.tick(80);  // jumps straight past the target
  EXPECT_DOUBLE_EQ(fired_at, 0.8);
}

TEST(Progress, UnarmedNeverFires) {
  ProgressTracker progress;
  progress.reset(4);
  progress.tick(4);
  progress.finish();
  EXPECT_FALSE(progress.fired());
}

TEST(Progress, ResetClearsArming) {
  ProgressTracker progress;
  progress.reset(4);
  int fires = 0;
  progress.arm(0.1, [&](double) { ++fires; });
  progress.reset(4);
  progress.tick(4);
  progress.finish();
  EXPECT_EQ(fires, 0);
}

TEST(Progress, PulseFiresOncePerSlice) {
  ProgressTracker progress;
  progress.reset(100);
  int pulses = 0;
  progress.set_pulse(4, [&] { ++pulses; });
  progress.tick(24);
  EXPECT_EQ(pulses, 0);  // below the first 1/4 slice
  progress.tick(1);
  EXPECT_EQ(pulses, 1);  // crossed 25%
  progress.tick(50);
  EXPECT_EQ(pulses, 2);  // a jump over several slices pulses once
  progress.tick(25);
  EXPECT_EQ(pulses, 3);
  progress.tick(10);  // over-ticking clamps; no extra pulse
  EXPECT_EQ(pulses, 3);
}

TEST(Progress, PulseAndArmCoexist) {
  ProgressTracker progress;
  progress.reset(100);
  int pulses = 0;
  int fires = 0;
  progress.set_pulse(10, [&] { ++pulses; });
  progress.arm(0.5, [&](double) { ++fires; });
  for (int i = 0; i < 100; ++i) progress.tick();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(pulses, 10);
}

TEST(Progress, ResetClearsPulse) {
  ProgressTracker progress;
  progress.reset(10);
  int pulses = 0;
  progress.set_pulse(2, [&] { ++pulses; });
  progress.reset(10);
  progress.tick(10);
  EXPECT_EQ(pulses, 0);
}

TEST(Progress, CheckpointHookRunsBetweenPulseAndInjectionCheck) {
  // A trial forked inside the checkpoint hook re-arms there; its injection
  // must still fire on the tick that reached the checkpoint.
  ProgressTracker progress;
  progress.reset(100);
  std::string order;
  progress.set_pulse(4, [&] { order += 'p'; });
  progress.set_checkpoint_hook([&] {
    order += 'c';
    progress.arm(0.25, [&](double at) {
      order += 'i';
      EXPECT_DOUBLE_EQ(at, 0.25);
    });
  });
  progress.checkpoint_at(0.25);
  for (int i = 0; i < 24; ++i) progress.tick();
  EXPECT_EQ(order, "");
  progress.tick();
  EXPECT_EQ(order, "pci");
  for (int i = 0; i < 75; ++i) progress.tick();
  EXPECT_EQ(order, "pcippp");  // one checkpoint, one injection
}

TEST(Progress, CheckpointHookSchedulesTheNextOne) {
  ProgressTracker progress;
  progress.reset(16);
  std::vector<double> at;
  progress.set_checkpoint_hook([&] {
    at.push_back(progress.fraction());
    progress.checkpoint_at(at.size() < 3 ? 0.25 * (at.size() + 1)
                                         : ProgressTracker::kNoCheckpoint);
  });
  progress.checkpoint_at(0.0);  // reached by the first tick
  progress.tick(16);
  // One tick that crosses several checkpoints takes only the first.
  EXPECT_EQ(at, std::vector<double>({1.0}));
  progress.reset(16);
  progress.set_checkpoint_hook([&] {
    at.push_back(progress.fraction());
    progress.checkpoint_at(at.size() < 4 ? 0.25 * at.size()
                                         : ProgressTracker::kNoCheckpoint);
  });
  progress.checkpoint_at(0.25);
  for (int i = 0; i < 16; ++i) progress.tick();
  EXPECT_EQ(at, std::vector<double>({1.0, 0.25, 0.5, 0.75}));
}

TEST(Progress, ConcurrentTickersFireExactlyOnce) {
  for (int round = 0; round < 20; ++round) {
    ProgressTracker progress;
    progress.reset(4000);
    std::atomic<int> fires{0};
    progress.arm(0.5, [&](double) { fires.fetch_add(1); });
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&progress] {
        for (int i = 0; i < 1000; ++i) progress.tick();
      });
    }
    for (auto& t : threads) t.join();
    progress.finish();
    EXPECT_EQ(fires.load(), 1);
  }
}

}  // namespace
}  // namespace phifi::fi
