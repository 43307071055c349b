// Spatial classes of the child-side SDC summary (Sec. 4.3, Fig. 2), and
// the campaign tally that folds them.
#include "analysis/spatial.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tests/sdc_helpers.hpp"
#include "util/rng.hpp"

namespace phifi::analysis {
namespace {

using fi::ErrorPattern;

/// The class of an output whose elements at `indices` are wrong.
ErrorPattern pattern_at(const std::vector<std::size_t>& indices,
                        const util::Shape& shape) {
  return testing::summarize_at(shape, indices).pattern;
}

const util::Shape k2d{.width = 16, .height = 16};
const util::Shape k3d{.width = 8, .height = 8, .depth = 8};

std::size_t at(const util::Shape& shape, std::size_t x, std::size_t y,
               std::size_t z = 0) {
  return util::flatten(shape, {x, y, z});
}

TEST(Spatial, EmptyIsNone) {
  EXPECT_EQ(pattern_at({}, k2d), ErrorPattern::kNone);
  EXPECT_EQ(testing::summarize_at(k2d, {}).mismatched, 0u);
}

TEST(Spatial, OneErrorIsSingle) {
  const std::vector<std::size_t> indices = {at(k2d, 3, 7)};
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kSingle);
}

TEST(Spatial, RowErrorsAreLine) {
  std::vector<std::size_t> indices;
  for (std::size_t x = 2; x < 9; ++x) indices.push_back(at(k2d, x, 5));
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kLine);
}

TEST(Spatial, ColumnErrorsAreLine) {
  std::vector<std::size_t> indices;
  for (std::size_t y = 0; y < 16; ++y) indices.push_back(at(k2d, 4, y));
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kLine);
}

TEST(Spatial, TwoErrorsInSameRowAreLine) {
  const std::vector<std::size_t> indices = {at(k2d, 1, 5), at(k2d, 14, 5)};
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kLine);
}

TEST(Spatial, DenseBlockIsSquare) {
  std::vector<std::size_t> indices;
  for (std::size_t y = 4; y < 8; ++y) {
    for (std::size_t x = 4; x < 8; ++x) indices.push_back(at(k2d, x, y));
  }
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kSquare);
}

TEST(Spatial, SparseScatterIsRandom) {
  // Two far-apart errors in different rows/cols: bounding box 14x11,
  // fill 2/154 << threshold.
  const std::vector<std::size_t> indices = {at(k2d, 1, 2), at(k2d, 14, 12)};
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kRandom);
}

TEST(Spatial, RandomScatterIsRandom) {
  util::Rng rng(5);
  std::vector<std::size_t> indices;
  for (int i = 0; i < 10; ++i) {
    indices.push_back(at(k2d, rng.below(16), rng.below(16)));
  }
  // With 10 points over a 16x16 box the fill is at most 10/~150.
  const ErrorPattern pattern = pattern_at(indices, k2d);
  EXPECT_TRUE(pattern == ErrorPattern::kRandom ||
              pattern == ErrorPattern::kLine)
      << to_string(pattern);
}

TEST(Spatial, DenseCubeIsCubic) {
  std::vector<std::size_t> indices;
  for (std::size_t z = 2; z < 5; ++z) {
    for (std::size_t y = 2; y < 5; ++y) {
      for (std::size_t x = 2; x < 5; ++x) indices.push_back(at(k3d, x, y, z));
    }
  }
  EXPECT_EQ(pattern_at(indices, k3d), ErrorPattern::kCubic);
}

TEST(Spatial, PlaneWithin3dIsSquare) {
  std::vector<std::size_t> indices;
  for (std::size_t y = 1; y < 5; ++y) {
    for (std::size_t x = 1; x < 5; ++x) indices.push_back(at(k3d, x, y, 3));
  }
  EXPECT_EQ(pattern_at(indices, k3d), ErrorPattern::kSquare);
}

TEST(Spatial, PillarWithin3dIsLine) {
  std::vector<std::size_t> indices;
  for (std::size_t z = 0; z < 8; ++z) indices.push_back(at(k3d, 3, 3, z));
  EXPECT_EQ(pattern_at(indices, k3d), ErrorPattern::kLine);
}

TEST(Spatial, SparseCornersOf3dAreRandom) {
  const std::vector<std::size_t> indices = {at(k3d, 0, 0, 0),
                                            at(k3d, 7, 7, 7)};
  EXPECT_EQ(pattern_at(indices, k3d), ErrorPattern::kRandom);
}

TEST(Spatial, CubicImpossibleIn2d) {
  // Exhaustive-ish property: no 2D index set can classify as cubic.
  util::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::size_t> indices;
    const std::size_t count = 1 + rng.below(20);
    for (std::size_t i = 0; i < count; ++i) {
      indices.push_back(rng.below(k2d.size()));
    }
    EXPECT_NE(pattern_at(indices, k2d), ErrorPattern::kCubic);
  }
}

TEST(Spatial, CountAndBoxAreTheWholeRule) {
  // A dense block and the same block with interior holes, down to the
  // threshold, share a class; one element fewer crosses into random.
  std::vector<std::size_t> indices;
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) indices.push_back(at(k2d, x, y));
  }
  const std::vector<std::size_t> corners = {at(k2d, 0, 0), at(k2d, 3, 0),
                                            at(k2d, 0, 3), at(k2d, 3, 3)};
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kSquare);
  // 4 of a 4x4 box: exactly kSquareFillThreshold.
  EXPECT_EQ(pattern_at(corners, k2d), ErrorPattern::kSquare);
  const std::vector<std::size_t> three(corners.begin(), corners.end() - 1);
  EXPECT_EQ(pattern_at(three, k2d), ErrorPattern::kRandom);
  EXPECT_EQ(testing::summarize_at(k2d, corners).mismatched, 4u);
}

TEST(Spatial, FullOutputCorruptionIsSquare) {
  std::vector<std::size_t> indices(k2d.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  EXPECT_EQ(pattern_at(indices, k2d), ErrorPattern::kSquare);
}

TEST(PatternTallyTest, FractionsExcludeNone) {
  PatternTally tally;
  tally.add(ErrorPattern::kSingle);
  tally.add(ErrorPattern::kSingle);
  tally.add(ErrorPattern::kLine);
  tally.add(ErrorPattern::kNone);
  EXPECT_EQ(tally.total(), 4u);
  EXPECT_DOUBLE_EQ(tally.fraction(ErrorPattern::kSingle), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(tally.fraction(ErrorPattern::kLine), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(tally.fraction(ErrorPattern::kCubic), 0.0);
}

TEST(PatternTallyTest, EmptyFractionIsZero) {
  PatternTally tally;
  EXPECT_DOUBLE_EQ(tally.fraction(ErrorPattern::kSingle), 0.0);
}

}  // namespace
}  // namespace phifi::analysis
