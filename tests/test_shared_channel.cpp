#include "core/shared_channel.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>

namespace phifi::fi {
namespace {

TEST(SharedChannel, InitiallyEmpty) {
  SharedChannel channel;
  EXPECT_FALSE(channel.record_ready());
  EXPECT_FALSE(channel.verdict_ready());
  EXPECT_EQ(channel.sdc_summary().mismatched, 0u);
}

TEST(SharedChannel, RecordRoundTrip) {
  SharedChannel channel;
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

TEST(SharedChannel, VerdictAndSummaryRoundTripAndReset) {
  SharedChannel channel;
  SdcSummary sdc;
  sdc.mismatched = 12;
  sdc.max_relative_error = 0.25;
  sdc.pattern = ErrorPattern::kSquare;
  channel.store_verdict(/*matches_golden=*/false, sdc);
  ASSERT_TRUE(channel.verdict_ready());
  EXPECT_FALSE(channel.verdict_matches());
  const SdcSummary loaded = channel.sdc_summary();
  EXPECT_EQ(loaded.mismatched, 12u);
  EXPECT_EQ(loaded.max_relative_error, 0.25);
  EXPECT_EQ(loaded.pattern, ErrorPattern::kSquare);

  channel.reset();
  EXPECT_FALSE(channel.verdict_ready());
  EXPECT_FALSE(channel.record_ready());
  EXPECT_EQ(channel.sdc_summary().mismatched, 0u);
  EXPECT_EQ(channel.sdc_summary().pattern, ErrorPattern::kNone);
}

TEST(SharedChannel, SecondRecordOverwritesFirst) {
  SharedChannel channel;
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
  SharedChannel channel;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    InjectionRecord record;
    record.injected = true;
    record.element_index = 1234;
    channel.store_record(record);
    channel.store_verdict(false, {.mismatched = 3,
                                  .max_relative_error = 0.5,
                                  .pattern = ErrorPattern::kLine});
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(channel.record_ready());
  ASSERT_TRUE(channel.verdict_ready());
  EXPECT_EQ(channel.record().element_index, 1234u);
  EXPECT_EQ(channel.sdc_summary().mismatched, 3u);
  EXPECT_EQ(channel.sdc_summary().pattern, ErrorPattern::kLine);
}

TEST(SharedChannel, HeartbeatCountsAndResets) {
  SharedChannel channel;
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
  SharedChannel channel;
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

TEST(SharedChannel, UnknownPatternReadsAsUnclassified) {
  // The summary is child-written; a value no ErrorPattern names (a wild
  // write) must not reach a PatternTally index.
  SharedChannel channel;
  SdcSummary sdc;
  sdc.mismatched = 2;
  sdc.pattern = static_cast<ErrorPattern>(200);
  channel.store_verdict(false, sdc);
  EXPECT_EQ(channel.sdc_summary().pattern, ErrorPattern::kNone);
  EXPECT_EQ(channel.sdc_summary().mismatched, 2u);
}

}  // namespace
}  // namespace phifi::fi
