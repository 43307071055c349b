// Cross-module property tests: invariants that must hold over randomized
// and parameterized input sweeps rather than single examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "analysis/tolerance.hpp"
#include "core/fault_model.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "tests/sdc_helpers.hpp"
#include "util/statistics.hpp"
#include "workloads/clamr/zorder.hpp"
#include "workloads/registry.hpp"

namespace phifi {
namespace {

// ---- fault models over varying element sizes ----

class FaultModelSizeTest
    : public ::testing::TestWithParam<std::tuple<fi::FaultModel, int>> {};

TEST_P(FaultModelSizeTest, StaysWithinElementAndReportsChange) {
  const auto [model, size] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(size) * 131 +
                static_cast<int>(model));
  for (int trial = 0; trial < 100; ++trial) {
    // A guard band around the element must never be touched.
    std::vector<std::byte> buffer(static_cast<std::size_t>(size) + 16,
                                  std::byte{0x5a});
    const auto element =
        std::span<std::byte>(buffer).subspan(8, static_cast<std::size_t>(size));
    const fi::FaultApplication app = apply_fault(model, element, rng);
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_EQ(buffer[i], std::byte{0x5a});
      ASSERT_EQ(buffer[buffer.size() - 1 - i], std::byte{0x5a});
    }
    // `changed` must agree with the bytes.
    bool any_changed = false;
    for (std::byte b : element) any_changed |= b != std::byte{0x5a};
    ASSERT_EQ(app.changed, any_changed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsBySize, FaultModelSizeTest,
    ::testing::Combine(::testing::ValuesIn(fi::kAllFaultModels),
                       ::testing::Values(1, 4, 8, 16)));

// ---- spatial classifier invariances ----

TEST(SpatialProperties, TransposeMapsPatternsConsistently) {
  const util::Shape shape{.width = 12, .height = 12};
  util::Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t count = 1 + rng.below(20);
    std::set<std::size_t> unique;
    std::set<std::size_t> transposed;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t x = rng.below(12);
      const std::size_t y = rng.below(12);
      unique.insert(util::flatten(shape, {x, y, 0}));
      transposed.insert(util::flatten(shape, {y, x, 0}));
    }
    const std::vector<std::size_t> a(unique.begin(), unique.end());
    const std::vector<std::size_t> b(transposed.begin(), transposed.end());
    // Transposition swaps rows and columns; every pattern class is
    // symmetric under it.
    EXPECT_EQ(testing::summarize_at(shape, a).pattern,
              testing::summarize_at(shape, b).pattern);
  }
}

TEST(SpatialProperties, TranslationInvariantWithinBounds) {
  const util::Shape shape{.width = 16, .height = 16};
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::set<std::size_t> base;
    const std::size_t count = 1 + rng.below(6);
    for (std::size_t i = 0; i < count; ++i) {
      base.insert(util::flatten(shape, {rng.below(8), rng.below(8), 0}));
    }
    std::vector<std::size_t> original(base.begin(), base.end());
    std::vector<std::size_t> shifted;
    for (std::size_t flat : original) {
      const util::Coord c = util::unflatten(shape, flat);
      shifted.push_back(util::flatten(shape, {c.x + 7, c.y + 7, 0}));
    }
    EXPECT_EQ(testing::summarize_at(shape, original).pattern,
              testing::summarize_at(shape, shifted).pattern);
  }
}

TEST(SpatialProperties, SubsetOfLineIsLineOrSingle) {
  const util::Shape shape{.width = 32, .height = 32};
  util::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t row = rng.below(32);
    std::vector<std::size_t> indices;
    for (std::size_t x = 0; x < 32; ++x) {
      if (rng.bernoulli(0.4)) {
        indices.push_back(util::flatten(shape, {x, row, 0}));
      }
    }
    if (indices.empty()) continue;
    const fi::ErrorPattern pattern =
        testing::summarize_at(shape, indices).pattern;
    EXPECT_TRUE(pattern == fi::ErrorPattern::kLine ||
                pattern == fi::ErrorPattern::kSingle)
        << to_string(pattern);
  }
}

// ---- Morton keys ----

TEST(ZOrderProperties, ParentKeyIsChildKeyShifted) {
  using work::clamr::morton_encode;
  util::Rng rng(9);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint32_t x = static_cast<std::uint32_t>(rng.below(1 << 12));
    const std::uint32_t y = static_cast<std::uint32_t>(rng.below(1 << 12));
    EXPECT_EQ(morton_encode(x, y) >> 2, morton_encode(x >> 1, y >> 1));
  }
}

TEST(ZOrderProperties, KeysAreUniquePerCoordinate) {
  using work::clamr::morton_encode;
  std::set<std::uint32_t> keys;
  for (std::uint32_t x = 0; x < 32; ++x) {
    for (std::uint32_t y = 0; y < 32; ++y) {
      keys.insert(morton_encode(x, y));
    }
  }
  EXPECT_EQ(keys.size(), 32u * 32u);
}

// ---- tolerance curve ----

TEST(ToleranceProperties, RemainingFractionMonotoneForRandomInputs) {
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    analysis::ToleranceAnalysis tolerance;
    const int count = 1 + static_cast<int>(rng.below(50));
    for (int i = 0; i < count; ++i) {
      tolerance.add_sdc(std::exp(rng.uniform(-12.0, 2.0)));
    }
    double previous = 1.1;
    for (double t : analysis::ToleranceAnalysis::default_tolerances()) {
      const double remaining = tolerance.remaining_fraction(t);
      ASSERT_LE(remaining, previous + 1e-12);
      ASSERT_GE(remaining, 0.0);
      previous = remaining;
    }
  }
}

// ---- interval coverage sweep ----

class WilsonCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(WilsonCoverageTest, CoversTruePNearNominal) {
  const double p = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(p * 1e6) + 1);
  int covered = 0;
  constexpr int kExperiments = 1500;
  constexpr int kSamples = 200;
  for (int e = 0; e < kExperiments; ++e) {
    std::uint64_t successes = 0;
    for (int i = 0; i < kSamples; ++i) successes += rng.bernoulli(p);
    const util::Interval ci = util::wilson_interval(successes, kSamples);
    covered += (ci.lo <= p && p <= ci.hi);
  }
  EXPECT_GT(covered, kExperiments * 0.92) << "p = " << p;
}

INSTANTIATE_TEST_SUITE_P(PGrid, WilsonCoverageTest,
                         ::testing::Values(0.02, 0.1, 0.3, 0.5, 0.8));

// ---- golden outputs are finite ----

class GoldenFiniteTest : public ::testing::TestWithParam<work::WorkloadInfo> {
};

TEST_P(GoldenFiniteTest, FloatOutputsHaveNoNansOrInfs) {
  auto workload = GetParam().factory();
  workload->setup(31337);
  phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
  fi::ProgressTracker progress;
  progress.reset(workload->total_steps());
  workload->run(device, progress);
  progress.finish();
  const auto bytes = workload->output_bytes();
  if (workload->output_type() == fi::ElementType::kF32) {
    const auto* values = reinterpret_cast<const float*>(bytes.data());
    for (std::size_t i = 0; i < bytes.size() / 4; ++i) {
      ASSERT_TRUE(std::isfinite(values[i])) << "index " << i;
    }
  } else if (workload->output_type() == fi::ElementType::kF64) {
    const auto* values = reinterpret_cast<const double*>(bytes.data());
    for (std::size_t i = 0; i < bytes.size() / 8; ++i) {
      ASSERT_TRUE(std::isfinite(values[i])) << "index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, GoldenFiniteTest,
    ::testing::ValuesIn(work::all_workloads()),
    [](const ::testing::TestParamInfo<work::WorkloadInfo>& param_info) {
      return std::string(param_info.param.name);
    });

// ---- hamming distance of fault models ----

TEST(FaultModelProperties, DoubleAlwaysDistanceTwoFromOriginal) {
  util::Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    std::array<std::byte, 8> data{};
    for (auto& b : data) b = static_cast<std::byte>(rng.next() & 0xff);
    const auto original = data;
    apply_fault(fi::FaultModel::kDouble, data, rng);
    EXPECT_EQ(util::hamming_distance(original, data), 2u);
  }
}

TEST(FaultModelProperties, ZeroIsIdempotent) {
  util::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    std::array<std::byte, 8> data{};
    for (auto& b : data) b = static_cast<std::byte>(rng.next() & 0xff);
    apply_fault(fi::FaultModel::kZero, data, rng);
    const auto after_first = data;
    const fi::FaultApplication second =
        apply_fault(fi::FaultModel::kZero, data, rng);
    EXPECT_EQ(data, after_first);
    EXPECT_FALSE(second.changed);
  }
}

}  // namespace
}  // namespace phifi
