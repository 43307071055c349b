// Spatial split of a campaign's SDCs (Sec. 4.3, Fig. 2).
//
// Each SDC's pattern is classified by the trial child that produced it
// (fi::SdcSummary, core/sdc_summary.hpp, which documents the classes and
// their thresholds); this tally folds those patterns over a campaign.
#pragma once

#include <cstddef>

#include "core/sdc_summary.hpp"

namespace phifi::analysis {

/// Per-pattern counters for aggregating a campaign.
struct PatternTally {
  std::size_t counts[fi::kPatternCount] = {};

  void add(fi::ErrorPattern pattern) {
    ++counts[static_cast<int>(pattern)];
  }
  [[nodiscard]] std::size_t count(fi::ErrorPattern pattern) const {
    return counts[static_cast<int>(pattern)];
  }
  [[nodiscard]] std::size_t total() const {
    std::size_t sum = 0;
    for (std::size_t c : counts) sum += c;
    return sum;
  }
  /// Fraction of classified SDCs (excludes kNone) with the given pattern.
  [[nodiscard]] double fraction(fi::ErrorPattern pattern) const;
};

}  // namespace phifi::analysis
