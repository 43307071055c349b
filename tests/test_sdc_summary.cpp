// The SDC summary a trial child publishes (core/sdc_summary.hpp): what it
// counts and classifies, that it allocates nothing, and how the beam fold
// reads it back out of the per-trial records.
#include "core/sdc_summary.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/campaign.hpp"
#include "radiation/beam.hpp"
#include "tests/sdc_helpers.hpp"

namespace {

/// Global operator new calls in this process; the summarizer must add none.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace phifi::fi {
namespace {

using phifi::testing::bytes_of;

/// The toy workload's output layout: an 8x8 grid of doubles.
constexpr util::Shape kGrid{.width = 8, .height = 8};

std::vector<double> golden_grid() {
  std::vector<double> values(kGrid.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 + static_cast<double>(i);
  }
  return values;
}

/// Summary of the grid with `count` elements from flat index `first`
/// bumped by `fraction` of their value.
SdcSummary corrupted(std::size_t first, std::size_t count, double fraction) {
  const std::vector<double> golden = golden_grid();
  std::vector<double> observed = golden;
  for (std::size_t i = first; i < first + count; ++i) {
    observed[i] *= 1.0 + fraction;
  }
  return summarize_sdc(bytes_of(golden), bytes_of(observed),
                       ElementType::kF64, kGrid);
}

TEST(SdcSummary, CountsAndClassifiesSdcs) {
  const SdcSummary single = corrupted(5, 1, 0.5);
  const SdcSummary row = corrupted(8, 8, 0.5);
  const SdcSummary all = corrupted(0, 64, 0.5);
  EXPECT_EQ(single.mismatched, 1u);
  EXPECT_EQ(single.pattern, ErrorPattern::kSingle);
  EXPECT_EQ(row.mismatched, 8u);
  EXPECT_EQ(row.pattern, ErrorPattern::kLine);
  EXPECT_EQ(all.mismatched, 64u);
  EXPECT_EQ(all.pattern, ErrorPattern::kSquare);
  EXPECT_NEAR(all.max_relative_error, 0.5, 1e-12);
}

TEST(SdcSummary, ToleranceComesFromTheMaxRelativeError) {
  const SdcSummary small = corrupted(3, 1, 0.004);  // ~0.4% error
  const SdcSummary large = corrupted(9, 2, 0.20);   // 20% error
  EXPECT_NEAR(small.max_relative_error, 0.004, 1e-9);
  EXPECT_NEAR(large.max_relative_error, 0.20, 1e-9);
  EXPECT_FALSE(small.is_sdc_at(0.01));
  EXPECT_TRUE(large.is_sdc_at(0.01));
  EXPECT_FALSE(large.is_sdc_at(0.5));
}

TEST(SdcSummary, MatchingOutputSummarizesToZeros) {
  const std::vector<double> golden = golden_grid();
  const SdcSummary clean = summarize_sdc(bytes_of(golden), bytes_of(golden),
                                         ElementType::kF64, kGrid);
  EXPECT_EQ(clean.mismatched, 0u);
  EXPECT_EQ(clean.max_relative_error, 0.0);
  EXPECT_EQ(clean.pattern, ErrorPattern::kNone);
}

/// Allocations made by summarizing a multi-element SDC of element type T
/// (every other element wrong, the last one missing).
template <typename T>
std::uint64_t allocations_while_summarizing(ElementType type) {
  std::vector<T> golden(kGrid.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    golden[i] = static_cast<T>(i + 1);
  }
  std::vector<T> observed = golden;
  for (std::size_t i = 0; i < observed.size(); i += 2) {
    observed[i] = static_cast<T>(observed[i] * 3);
  }
  observed.pop_back();
  const std::uint64_t before = g_allocations.load();
  const SdcSummary sdc =
      summarize_sdc(bytes_of(golden), bytes_of(observed), type, kGrid);
  const std::uint64_t made = g_allocations.load() - before;
  EXPECT_EQ(sdc.mismatched, kGrid.size() / 2 + 1);
  EXPECT_EQ(sdc.pattern, ErrorPattern::kSquare);
  return made;
}

TEST(SdcSummary, AllocatesNothing) {
  // The summary runs in a trial child after an injected fault, whose heap
  // may be corrupt: a malloc there could abort and turn an SDC into a
  // crash.
  EXPECT_EQ(allocations_while_summarizing<float>(ElementType::kF32), 0u);
  EXPECT_EQ(allocations_while_summarizing<double>(ElementType::kF64), 0u);
  EXPECT_EQ(allocations_while_summarizing<std::int32_t>(ElementType::kI32),
            0u);
  EXPECT_EQ(allocations_while_summarizing<std::int64_t>(ElementType::kI64),
            0u);
  // The counter does count: a vector allocates.
  const std::uint64_t before = g_allocations.load();
  std::vector<int> probe(4);
  EXPECT_GT(g_allocations.load(), before);
}

TrialResult trial_with(Outcome outcome, SdcSummary sdc) {
  TrialResult trial;
  trial.outcome = outcome;
  trial.sdc = sdc;
  return trial;
}

TEST(BeamFold, ReadsTheSummariesOfSdcRecordsOnly) {
  // Three SDCs among other outcomes: the fold's pattern split, tolerance
  // curve and single-element share come from those three alone.
  CampaignResult campaign;
  campaign.by_window.resize(4);
  accumulate_trial(campaign, trial_with(Outcome::kSdc, corrupted(5, 1, 0.5)));
  accumulate_trial(campaign, trial_with(Outcome::kMasked, {}));
  accumulate_trial(campaign,
                   trial_with(Outcome::kSdc, corrupted(8, 8, 0.004)));
  TrialResult due = trial_with(Outcome::kDue, {});
  due.due_kind = DueKind::kCrash;
  accumulate_trial(campaign, due);
  accumulate_trial(campaign,
                   trial_with(Outcome::kSdc, corrupted(0, 64, 0.20)));
  campaign.attempts = campaign.trials.size();

  const radiation::BeamResult beam =
      radiation::fold_beam(campaign, radiation::BeamPlan(), 7);
  EXPECT_EQ(beam.sdc, 3u);
  EXPECT_EQ(beam.patterns.total(), 3u);
  EXPECT_EQ(beam.patterns.count(ErrorPattern::kSingle), 1u);
  EXPECT_EQ(beam.patterns.count(ErrorPattern::kLine), 1u);
  EXPECT_EQ(beam.patterns.count(ErrorPattern::kSquare), 1u);
  EXPECT_NEAR(beam.single_element_fraction, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(beam.tolerance.total_sdc(), 3u);
  EXPECT_EQ(beam.tolerance.sdc_at(0.01), 2u);
  EXPECT_EQ(beam.tolerance.sdc_at(0.3), 1u);
  EXPECT_EQ(beam.tolerance.sdc_at(0.6), 0u);
}

}  // namespace
}  // namespace phifi::fi
