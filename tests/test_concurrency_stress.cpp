// Concurrency stress tests, written to run under ThreadSanitizer.
//
// These deliberately hammer the three cross-thread surfaces of the
// codebase — the MetricsRegistry (hot-path relaxed atomics behind a
// name-lookup mutex), the SharedChannel heartbeat/output protocol
// (release/acquire publication across what is normally a process
// boundary), and ProgressTracker's concurrent tick path (one-shot hook
// exchange plus the monotone pulse) — so the CI TSan job exercises the
// exact orderings the phicheck atomics policy declares. They also pass as
// plain tests: every assertion is on exact totals or monotone invariants,
// never on racy intermediate reads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/progress.hpp"
#include "core/shared_channel.hpp"
#include "telemetry/metrics.hpp"

namespace {

constexpr int kThreads = 4;
constexpr int kIters = 5000;

TEST(ConcurrencyStressTest, MetricsRegistryCountersAndGauges) {
  phifi::telemetry::MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Every thread get-or-creates the shared counter by name (races on
      // the registry mutex) and its own private counter, interleaved with
      // gauge stores.
      auto& shared = registry.counter("stress.shared");
      auto& mine = registry.counter("stress.t" + std::to_string(t));
      auto& gauge = registry.gauge("stress.gauge");
      for (int i = 0; i < kIters; ++i) {
        shared.inc();
        mine.inc(2);
        gauge.set(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(registry.counter("stress.shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("stress.t" + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters) * 2);
  }
  const double g = registry.gauge("stress.gauge").value();
  EXPECT_GE(g, 0.0);
  EXPECT_LE(g, static_cast<double>(kIters - 1));
}

TEST(ConcurrencyStressTest, MetricsRegistryHistogramUnderSnapshot) {
  phifi::telemetry::MetricsRegistry registry;
  std::atomic<bool> done{false};

  // One thread snapshots continuously while the others observe: snapshot()
  // must tolerate concurrent relaxed mutation without torn structure.
  std::thread snapshotter([&registry, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = registry.snapshot();
      (void)snap;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      auto& h = registry.histogram("stress.latency",
                                   phifi::telemetry::default_latency_edges_ms());
      for (int i = 0; i < kIters; ++i) {
        h.observe(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  const auto* h = registry.find_histogram("stress.latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t bucket_sum = 0;
  for (std::size_t i = 0; i < h->bucket_total(); ++i) {
    bucket_sum += h->bucket_count(i);
  }
  EXPECT_EQ(bucket_sum, h->count());
}

TEST(ConcurrencyStressTest, SharedChannelHeartbeatAndSdcSummary) {
  // In production the writer is the forked child and the reader is the
  // watchdog thread in the parent; same memory, same orderings — threads
  // here make the race visible to TSan.
  phifi::fi::SharedChannel channel;
  channel.reset();

  std::atomic<bool> writer_done{false};

  std::thread writer([&channel, &writer_done] {
    phifi::fi::InjectionRecord record{};
    record.site_index = 7;
    channel.store_record(record);
    for (int i = 0; i < kIters; ++i) channel.beat();
    channel.store_verdict(false, {.mismatched = 13,
                                  .max_relative_error = 0.125,
                                  .pattern = phifi::fi::ErrorPattern::kLine});
    writer_done.store(true, std::memory_order_release);
  });

  // Reader polls exactly like the watchdog: heartbeat must be monotone,
  // record/verdict flags must only ever go up, and a verdict, once seen,
  // comes with its whole summary.
  std::uint64_t last_beat = 0;
  bool saw_record = false;
  while (!writer_done.load(std::memory_order_acquire)) {
    const std::uint64_t beat = channel.heartbeat();
    EXPECT_GE(beat, last_beat);
    last_beat = beat;
    if (channel.record_ready()) saw_record = true;
    if (channel.verdict_ready()) {
      EXPECT_EQ(channel.sdc_summary().mismatched, 13u);
    }
    std::this_thread::yield();
  }
  writer.join();

  EXPECT_TRUE(saw_record || channel.record_ready());
  EXPECT_TRUE(channel.verdict_ready());
  EXPECT_EQ(channel.heartbeat(), static_cast<std::uint64_t>(kIters));
  EXPECT_EQ(channel.record().site_index, 7u);

  const phifi::fi::SdcSummary sdc = channel.sdc_summary();
  EXPECT_EQ(sdc.mismatched, 13u);
  EXPECT_EQ(sdc.max_relative_error, 0.125);
  EXPECT_EQ(sdc.pattern, phifi::fi::ErrorPattern::kLine);
}

TEST(ConcurrencyStressTest, ParallelSlotChannels) {
  // The multi-worker scheduler gives every slot its own SharedChannel; the
  // parent polls all of them from one thread while N children write. Model
  // that here with one writer thread per channel and a single polling
  // reader, so TSan checks the per-slot publication orderings exactly as
  // the parallel campaign exercises them — no fork involved.
  constexpr int kSlots = 4;
  std::vector<std::unique_ptr<phifi::fi::SharedChannel>> channels;
  channels.reserve(kSlots);
  for (int s = 0; s < kSlots; ++s) {
    channels.push_back(std::make_unique<phifi::fi::SharedChannel>());
    channels.back()->reset();
  }

  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  writers.reserve(kSlots);
  for (int s = 0; s < kSlots; ++s) {
    writers.emplace_back([&channels, &writers_done, s] {
      auto& channel = *channels[static_cast<std::size_t>(s)];
      phifi::fi::InjectionRecord record{};
      record.site_index = static_cast<unsigned>(s);
      channel.store_record(record);
      for (int i = 0; i < kIters; ++i) channel.beat();
      phifi::fi::SdcSummary sdc;
      sdc.mismatched = 0x40 + static_cast<std::uint64_t>(s);
      channel.store_verdict(false, sdc);
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // One reader sweeps every slot per pass, like poll_slots().
  std::vector<std::uint64_t> last_beat(kSlots, 0);
  while (writers_done.load(std::memory_order_acquire) < kSlots) {
    for (int s = 0; s < kSlots; ++s) {
      auto& channel = *channels[static_cast<std::size_t>(s)];
      const std::uint64_t beat = channel.heartbeat();
      EXPECT_GE(beat, last_beat[static_cast<std::size_t>(s)]);
      last_beat[static_cast<std::size_t>(s)] = beat;
      (void)channel.record_ready();
    }
    std::this_thread::yield();
  }
  for (auto& th : writers) th.join();

  // Slot isolation: every channel holds exactly its own writer's data.
  for (int s = 0; s < kSlots; ++s) {
    auto& channel = *channels[static_cast<std::size_t>(s)];
    EXPECT_TRUE(channel.verdict_ready());
    EXPECT_EQ(channel.heartbeat(), static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(channel.record().site_index, static_cast<unsigned>(s));
    EXPECT_EQ(channel.sdc_summary().mismatched,
              0x40 + static_cast<std::uint64_t>(s));
  }
}

TEST(ConcurrencyStressTest, ProgressTrackerConcurrentTicks) {
  phifi::fi::ProgressTracker tracker;
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kIters;
  tracker.reset(total);

  std::atomic<int> hook_fires{0};
  std::atomic<int> pulses{0};
  tracker.arm(0.5, [&hook_fires](double fraction) {
    hook_fires.fetch_add(1, std::memory_order_relaxed);
    EXPECT_GE(fraction, 0.5);
  });
  tracker.set_pulse(
      10, [&pulses] { pulses.fetch_add(1, std::memory_order_relaxed); });

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kIters; ++i) tracker.tick();
    });
  }
  for (auto& th : threads) th.join();
  tracker.finish();

  // The one-shot injection hook must fire exactly once no matter how the
  // ticks interleave; the pulse is a liveness signal and only needs to
  // have fired at all.
  EXPECT_EQ(hook_fires.load(std::memory_order_relaxed), 1);
  EXPECT_GE(pulses.load(std::memory_order_relaxed), 1);
  EXPECT_DOUBLE_EQ(tracker.fraction(), 1.0);
  EXPECT_TRUE(tracker.fired());
  EXPECT_TRUE(tracker.finished());
}

}  // namespace
