// The summarizer's element comparison: which elements differ, by how much.
#include "core/sdc_summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tests/sdc_helpers.hpp"

namespace phifi::fi {
namespace {

using phifi::testing::bytes_of;

/// Summary of `observed` against `golden`, laid out as one row.
template <typename T>
SdcSummary summarize(const std::vector<T>& golden,
                     const std::vector<T>& observed, ElementType type) {
  return summarize_sdc(bytes_of(golden), bytes_of(observed), type,
                       {.width = golden.size()});
}

TEST(RelativeError, Conventions) {
  EXPECT_DOUBLE_EQ(relative_error(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error(10.0, 11.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(10.0, 9.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(-10.0, -9.0), 0.1);
  EXPECT_TRUE(std::isinf(relative_error(0.0, 1.0)));
  EXPECT_TRUE(std::isinf(
      relative_error(1.0, std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isinf(
      relative_error(1.0, std::numeric_limits<double>::infinity())));
}

TEST(Compare, IdenticalBuffersMatch) {
  const std::vector<float> golden = {1.0f, 2.0f, 3.0f};
  const SdcSummary sdc = summarize(golden, golden, ElementType::kF32);
  EXPECT_EQ(sdc.mismatched, 0u);
  EXPECT_EQ(sdc.max_relative_error, 0.0);
  EXPECT_EQ(sdc.pattern, ErrorPattern::kNone);
}

TEST(Compare, FindsMismatchPositionsAndErrors) {
  const std::vector<double> golden = {1.0, 2.0, 4.0, 8.0};
  const std::vector<double> observed = {1.0, 2.2, 4.0, 4.0};
  const SdcSummary sdc = summarize(golden, observed, ElementType::kF64);
  EXPECT_EQ(sdc.mismatched, 2u);
  EXPECT_NEAR(sdc.max_relative_error, 0.5, 1e-12);
  // Elements 1 and 3 of one row.
  EXPECT_EQ(sdc.pattern, ErrorPattern::kLine);
}

TEST(Compare, BitwiseCatchesNegativeZero) {
  const std::vector<float> golden = {0.0f};
  const std::vector<float> observed = {-0.0f};
  const SdcSummary sdc = summarize(golden, observed, ElementType::kF32);
  EXPECT_EQ(sdc.mismatched, 1u);
  EXPECT_EQ(sdc.max_relative_error, 0.0);  // numerically equal
  EXPECT_EQ(sdc.pattern, ErrorPattern::kSingle);
}

TEST(Compare, NanIsNonFiniteAndInfiniteError) {
  const std::vector<float> golden = {1.0f, 2.0f};
  const std::vector<float> observed = {std::nanf(""), 2.0f};
  const SdcSummary sdc = summarize(golden, observed, ElementType::kF32);
  EXPECT_EQ(sdc.mismatched, 1u);
  EXPECT_TRUE(std::isinf(sdc.max_relative_error));
}

TEST(Compare, ChangedNanPayloadIsAMismatch) {
  const std::vector<double> golden = {
      std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> observed = golden;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &observed[0], sizeof(bits));
  bits ^= 1;  // a different payload, still a NaN
  std::memcpy(&observed[0], &bits, sizeof(bits));
  ASSERT_TRUE(std::isnan(observed[0]));
  const SdcSummary sdc = summarize(golden, observed, ElementType::kF64);
  EXPECT_EQ(sdc.mismatched, 1u);
  EXPECT_TRUE(std::isinf(sdc.max_relative_error));
}

TEST(Compare, IntegerTypes) {
  const std::vector<std::int32_t> golden = {10, -20, 0};
  const std::vector<std::int32_t> observed = {10, -22, 0};
  const SdcSummary sdc = summarize(golden, observed, ElementType::kI32);
  EXPECT_EQ(sdc.mismatched, 1u);
  EXPECT_NEAR(sdc.max_relative_error, 0.1, 1e-12);

  const std::vector<std::int64_t> golden64 = {0, 7};
  const std::vector<std::int64_t> observed64 = {3, 7};
  const SdcSummary sdc64 = summarize(golden64, observed64, ElementType::kI64);
  EXPECT_EQ(sdc64.mismatched, 1u);
  EXPECT_TRUE(std::isinf(sdc64.max_relative_error));  // against a zero
}

TEST(Compare, ToleranceCounting) {
  // Worst element 20% off: an SDC at every tolerance below that.
  const std::vector<double> golden = {100.0, 100.0, 100.0};
  const std::vector<double> observed = {100.05, 101.0, 120.0};
  const SdcSummary sdc = summarize(golden, observed, ElementType::kF64);
  EXPECT_EQ(sdc.mismatched, 3u);
  EXPECT_NEAR(sdc.max_relative_error, 0.2, 1e-12);
  EXPECT_TRUE(sdc.is_sdc_at(0.0001));
  EXPECT_TRUE(sdc.is_sdc_at(0.005));
  EXPECT_TRUE(sdc.is_sdc_at(0.05));
  EXPECT_FALSE(sdc.is_sdc_at(0.5));
}

TEST(Compare, SizeMismatchIsFullyWrongBeyondPrefix) {
  const std::vector<float> golden = {1.0f, 2.0f, 3.0f};
  const std::vector<float> observed = {1.0f, 2.0f};
  const SdcSummary sdc = summarize(golden, observed, ElementType::kF32);
  EXPECT_EQ(sdc.mismatched, 1u);
  EXPECT_TRUE(std::isinf(sdc.max_relative_error));
  EXPECT_EQ(sdc.pattern, ErrorPattern::kSingle);
}

TEST(Compare, LongerOutputIsSummarizedAsEmpty) {
  // Never read past the golden: every golden element counts as missing.
  const std::vector<float> golden = {1.0f, 2.0f, 3.0f};
  const std::vector<float> observed = {1.0f, 2.0f, 3.0f, 4.0f};
  const SdcSummary sdc = summarize(golden, observed, ElementType::kF32);
  EXPECT_EQ(sdc.mismatched, 3u);
  EXPECT_TRUE(std::isinf(sdc.max_relative_error));
  EXPECT_EQ(sdc.pattern, ErrorPattern::kLine);
}

}  // namespace
}  // namespace phifi::fi
