#include "phi/device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "phi/resource_map.hpp"

namespace phifi::phi {
namespace {

TEST(DeviceSpec, KnightsCorner3120a) {
  const DeviceSpec spec = DeviceSpec::knights_corner_3120a();
  EXPECT_EQ(spec.physical_cores, 57u);
  EXPECT_EQ(spec.threads_per_core, 4u);
  EXPECT_EQ(spec.hardware_threads(), 228u);
  EXPECT_EQ(spec.vector_bits, 512u);
  EXPECT_EQ(spec.dram_bytes, std::size_t{6} << 30);
  EXPECT_EQ(spec.l2_bytes_total(), std::size_t{57} * 512 * 1024);
}

class PartitionTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(PartitionTest, CoversRangeExactlyOnce) {
  const auto [count, workers] = GetParam();
  std::size_t covered = 0;
  std::size_t previous_end = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const auto [begin, end] = Device::partition(count, w, workers);
    EXPECT_LE(begin, end);
    EXPECT_EQ(begin, previous_end);  // contiguous, ordered
    covered += end - begin;
    previous_end = end;
  }
  EXPECT_EQ(covered, count);
  EXPECT_EQ(previous_end, count);
}

TEST_P(PartitionTest, BalancedWithinOne) {
  const auto [count, workers] = GetParam();
  std::size_t min_len = count + 1;
  std::size_t max_len = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const auto [begin, end] = Device::partition(count, w, workers);
    min_len = std::min(min_len, end - begin);
    max_len = std::max(max_len, end - begin);
  }
  EXPECT_LE(max_len - min_len, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionTest,
    ::testing::Values(std::make_tuple(0, 4), std::make_tuple(1, 4),
                      std::make_tuple(96, 228), std::make_tuple(228, 228),
                      std::make_tuple(1000, 7), std::make_tuple(5, 5)));

TEST(Device, LaunchRunsEveryLogicalWorkerOnce) {
  Device device(DeviceSpec::test_device(), 1);
  std::vector<std::atomic<int>> hits(device.spec().hardware_threads());
  device.launch(device.spec().hardware_threads(), [&](WorkerCtx& ctx) {
    hits[ctx.worker].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Device, LaunchZeroWorkersIsNoOp) {
  Device device(DeviceSpec::test_device(), 1);
  device.launch(0, [](WorkerCtx&) { FAIL(); });
}

TEST(Device, RepeatedLaunchesWork) {
  Device device(DeviceSpec::test_device(), 1);
  std::atomic<int> total{0};
  for (int i = 0; i < 50; ++i) {
    device.launch(8, [&](WorkerCtx&) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 400);
}

TEST(Device, ParallelForCoversRange) {
  Device device(DeviceSpec::test_device(), 1);
  std::vector<std::atomic<int>> hits(1000);
  device.parallel_for(1000, [&](std::size_t begin, std::size_t end,
                                WorkerCtx&) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Device, WorkerCtxReportsWorkerCount) {
  Device device(DeviceSpec::test_device(), 1);
  device.launch(5, [&](WorkerCtx& ctx) {
    EXPECT_EQ(ctx.num_workers, 5u);
    EXPECT_LT(ctx.worker, 5u);
    EXPECT_NE(ctx.ctl, nullptr);
    EXPECT_NE(ctx.counters, nullptr);
  });
}

TEST(Device, ExceptionsPropagateToCaller) {
  Device device(DeviceSpec::test_device(), 1);
  EXPECT_THROW(device.launch(4,
                             [](WorkerCtx& ctx) {
                               if (ctx.worker == 2) {
                                 throw std::runtime_error("boom");
                               }
                             }),
               std::runtime_error);
  // Device remains usable afterwards.
  std::atomic<int> count{0};
  device.launch(4, [&](WorkerCtx&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(Device, LaunchRunsWorkersInOrderOnTheCallingThread) {
  // A launch is a loop over its logical workers on the caller's thread: a
  // run is single-threaded, so a checkpoint fork keeps all of it and the
  // injection fires on the thread that crosses its target. A throwing
  // worker does not stop the ones after it; the first error is rethrown.
  Device device(DeviceSpec::test_device(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<unsigned> order;
  EXPECT_THROW(device.launch(6,
                             [&](WorkerCtx& ctx) {
                               EXPECT_EQ(std::this_thread::get_id(), caller);
                               order.push_back(ctx.worker);
                               if (ctx.worker == 1 || ctx.worker == 4) {
                                 throw std::runtime_error(
                                     std::to_string(ctx.worker));
                               }
                             }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
  try {
    device.launch(3, [](WorkerCtx& ctx) {
      throw std::runtime_error(std::to_string(ctx.worker));
    });
    FAIL() << "launch swallowed the workers' errors";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "0");
  }
}

TEST(Device, RefusesMoreThanOneOsThread) {
  EXPECT_THROW(Device(DeviceSpec::test_device(), 2), std::invalid_argument);
  EXPECT_THROW(Device(DeviceSpec::test_device(), 0), std::invalid_argument);
}

TEST(Device, CountersAccumulate) {
  Device device(DeviceSpec::test_device(), 1);
  device.counters().reset();
  device.launch(3, [](WorkerCtx& ctx) { ctx.counters->add_flops(10); });
  const CounterSnapshot snap = device.counters().snapshot();
  EXPECT_EQ(snap.flops, 30u);
  EXPECT_EQ(snap.kernel_launches, 1u);
  EXPECT_EQ(snap.logical_threads_run, 3u);
}

TEST(Counters, ArithmeticIntensity) {
  Counters counters;
  counters.add_flops(100);
  counters.add_bytes_read(40);
  counters.add_bytes_written(10);
  EXPECT_DOUBLE_EQ(counters.snapshot().arithmetic_intensity(), 2.0);
  counters.reset();
  EXPECT_EQ(counters.snapshot().flops, 0u);
  EXPECT_EQ(counters.snapshot().arithmetic_intensity(), 0.0);
}

TEST(ControlBlock, VolatileSlotsRoundTrip) {
  ControlLayout layout;
  const ControlSlot a = layout.add("a");
  const ControlSlot b = layout.add("b");
  EXPECT_EQ(layout.count(), 2u);
  EXPECT_EQ(layout.name(0), "a");

  ControlBlock block;
  block.set(a, 42);
  block.set(b, -7);
  EXPECT_EQ(block.get(a), 42);
  EXPECT_EQ(block.get(b), -7);
  EXPECT_EQ(block.add(a, 8), 50);
  EXPECT_EQ(block.get(a), 50);
  block.clear();
  EXPECT_EQ(block.get(a), 0);
}

TEST(ControlBlock, SlotBytesAliasTheSlot) {
  ControlLayout layout;
  const ControlSlot a = layout.add("a");
  ControlBlock block;
  block.set(a, 1);
  auto bytes = block.slot_bytes(0);
  ASSERT_EQ(bytes.size(), 8u);
  bytes[0] = std::byte{0xff};
  EXPECT_EQ(block.get(a), 0xff);
}

TEST(ResourceMap, InventoryMatchesSpec) {
  const DeviceSpec spec = DeviceSpec::knights_corner_3120a();
  const ResourceMap map = ResourceMap::for_spec(spec);
  const Resource* l2 = map.find(ResourceClass::kL2Cache);
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->bits, spec.l2_bytes_total() * 8);
  EXPECT_EQ(l2->protection, Protection::kSecded);
  const Resource* dram = map.find(ResourceClass::kDram);
  ASSERT_NE(dram, nullptr);
  EXPECT_FALSE(dram->beam_exposed);
}

TEST(ResourceMap, UnprotectedSubsetSmaller) {
  const ResourceMap map =
      ResourceMap::for_spec(DeviceSpec::knights_corner_3120a());
  EXPECT_GT(map.exposed_bits(), map.exposed_bits(/*unprotected_only=*/true));
  EXPECT_GT(map.exposed_bits(true), 0u);
}

TEST(ResourceMap, EccDisabledRemovesProtection) {
  DeviceSpec spec = DeviceSpec::knights_corner_3120a();
  spec.ecc_enabled = false;
  const ResourceMap map = ResourceMap::for_spec(spec);
  EXPECT_EQ(map.find(ResourceClass::kL2Cache)->protection, Protection::kNone);
  // With ECC off, every beam-exposed bit is unprotected.
  EXPECT_EQ(map.exposed_bits(), map.exposed_bits(/*unprotected_only=*/true));
}

}  // namespace
}  // namespace phifi::phi
