#include "core/sdc_summary.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace phifi::fi {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The spatial class of `count` mismatches whose coordinates span the box
/// [lo, hi].
ErrorPattern classify(std::uint64_t count, const util::Coord& lo,
                      const util::Coord& hi) {
  if (count == 0) return ErrorPattern::kNone;
  if (count == 1) return ErrorPattern::kSingle;
  const std::size_t ex = hi.x - lo.x + 1;
  const std::size_t ey = hi.y - lo.y + 1;
  const std::size_t ez = hi.z - lo.z + 1;
  const int spread_dims = (ex > 1) + (ey > 1) + (ez > 1);

  // All errors share a row, column, or pillar: a line, whatever its length.
  if (spread_dims <= 1) return ErrorPattern::kLine;

  // One extent is 1 for a 2D spread.
  const double fill = static_cast<double>(count) /
                      (static_cast<double>(ex) * static_cast<double>(ey) *
                       static_cast<double>(ez));
  if (spread_dims == 2) {
    return fill >= kSquareFillThreshold ? ErrorPattern::kSquare
                                        : ErrorPattern::kRandom;
  }
  return fill >= kCubicFillThreshold ? ErrorPattern::kCubic
                                     : ErrorPattern::kRandom;
}

template <typename T>
SdcSummary summarize_typed(std::span<const std::byte> golden,
                           std::span<const std::byte> observed,
                           const util::Shape& shape) {
  const std::size_t n_golden = golden.size() / sizeof(T);
  const std::size_t n_observed =
      observed.size() > golden.size() ? 0 : observed.size() / sizeof(T);
  SdcSummary summary;
  util::Coord lo{~std::size_t{0}, ~std::size_t{0}, ~std::size_t{0}};
  util::Coord hi{0, 0, 0};
  for (std::size_t i = 0; i < n_golden; ++i) {
    double error = kInfinity;
    if (i < n_observed) {
      const std::byte* g = golden.data() + i * sizeof(T);
      const std::byte* o = observed.data() + i * sizeof(T);
      if (std::memcmp(g, o, sizeof(T)) == 0) continue;
      T golden_value;
      T observed_value;
      std::memcpy(&golden_value, g, sizeof(T));
      std::memcpy(&observed_value, o, sizeof(T));
      error = relative_error(static_cast<double>(golden_value),
                             static_cast<double>(observed_value));
    }
    ++summary.mismatched;
    // A NaN error (non-finite golden value) never raises the maximum.
    summary.max_relative_error = std::max(summary.max_relative_error, error);
    const util::Coord c = util::unflatten(shape, i);
    lo = {std::min(lo.x, c.x), std::min(lo.y, c.y), std::min(lo.z, c.z)};
    hi = {std::max(hi.x, c.x), std::max(hi.y, c.y), std::max(hi.z, c.z)};
  }
  summary.pattern = classify(summary.mismatched, lo, hi);
  return summary;
}

}  // namespace

double relative_error(double golden, double observed) {
  if (!std::isfinite(observed)) return kInfinity;
  if (golden == observed) return 0.0;
  if (golden == 0.0) return kInfinity;
  return std::fabs(observed - golden) / std::fabs(golden);
}

SdcSummary summarize_sdc(std::span<const std::byte> golden,
                         std::span<const std::byte> observed,
                         ElementType type, const util::Shape& shape) {
  switch (type) {
    case ElementType::kF32:
      return summarize_typed<float>(golden, observed, shape);
    case ElementType::kF64:
      return summarize_typed<double>(golden, observed, shape);
    case ElementType::kI32:
      return summarize_typed<std::int32_t>(golden, observed, shape);
    case ElementType::kI64:
      return summarize_typed<std::int64_t>(golden, observed, shape);
  }
  return {};
}

}  // namespace phifi::fi
