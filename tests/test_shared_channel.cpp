#include "core/shared_channel.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>

namespace phifi::fi {
namespace {

TEST(SharedChannel, InitiallyEmpty) {
  SharedChannel channel(64);
  EXPECT_FALSE(channel.record_ready());
  EXPECT_FALSE(channel.output_ready());
  EXPECT_EQ(channel.capacity(), 64u);
  EXPECT_TRUE(channel.output().empty());
}

TEST(SharedChannel, RecordRoundTrip) {
  SharedChannel channel(16);
  InjectionRecord record;
  record.injected = true;
  record.model = FaultModel::kDouble;
  record.worker = 42;
  record.progress_fraction = 0.75;
  std::strcpy(record.site_name, "var_x");
  std::strcpy(record.category, "matrix");
  channel.store_record(record);
  ASSERT_TRUE(channel.record_ready());
  const InjectionRecord loaded = channel.record();
  EXPECT_TRUE(loaded.injected);
  EXPECT_EQ(loaded.model, FaultModel::kDouble);
  EXPECT_EQ(loaded.worker, 42);
  EXPECT_DOUBLE_EQ(loaded.progress_fraction, 0.75);
  EXPECT_STREQ(loaded.site_name, "var_x");
}

TEST(SharedChannel, OutputRoundTripAndReset) {
  SharedChannel channel(8);
  const std::byte payload[4] = {std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}};
  channel.store_output(payload);
  ASSERT_TRUE(channel.output_ready());
  const auto output = channel.output();
  ASSERT_EQ(output.size(), 4u);
  EXPECT_EQ(std::memcmp(output.data(), payload, 4), 0);

  channel.reset();
  EXPECT_FALSE(channel.output_ready());
  EXPECT_FALSE(channel.record_ready());
  EXPECT_TRUE(channel.output().empty());
}

TEST(SharedChannel, SecondRecordOverwritesFirst) {
  SharedChannel channel(8);
  InjectionRecord provisional;
  provisional.injected = true;
  provisional.model = FaultModel::kZero;
  channel.store_record(provisional);
  InjectionRecord final_record = provisional;
  final_record.element_index = 99;
  std::strcpy(final_record.site_name, "final");
  channel.store_record(final_record);
  EXPECT_EQ(channel.record().element_index, 99u);
  EXPECT_STREQ(channel.record().site_name, "final");
}

TEST(SharedChannel, VisibleAcrossFork) {
  // The core property: a child's writes are observed by the parent.
  SharedChannel channel(16);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    InjectionRecord record;
    record.injected = true;
    record.element_index = 1234;
    channel.store_record(record);
    const std::byte payload[2] = {std::byte{0xaa}, std::byte{0xbb}};
    channel.store_output(payload);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(channel.record_ready());
  ASSERT_TRUE(channel.output_ready());
  EXPECT_EQ(channel.record().element_index, 1234u);
  EXPECT_EQ(channel.output()[0], std::byte{0xaa});
  EXPECT_EQ(channel.output()[1], std::byte{0xbb});
}

TEST(SharedChannel, HeartbeatCountsAndResets) {
  SharedChannel channel(8);
  EXPECT_EQ(channel.heartbeat(), 0u);
  channel.beat();
  channel.beat();
  channel.beat();
  EXPECT_EQ(channel.heartbeat(), 3u);
  channel.reset();
  EXPECT_EQ(channel.heartbeat(), 0u);
}

TEST(SharedChannel, HeartbeatVisibleAcrossFork) {
  // The watchdog's liveness signal: child beats, parent observes.
  SharedChannel channel(8);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (int i = 0; i < 5; ++i) channel.beat();
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(channel.heartbeat(), 5u);
}

TEST(SharedChannel, ZeroCapacityHandlesEmptyOutput) {
  SharedChannel channel(0);
  channel.store_output({});
  EXPECT_TRUE(channel.output_ready());
  EXPECT_TRUE(channel.output().empty());
}

}  // namespace
}  // namespace phifi::fi
