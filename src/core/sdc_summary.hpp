// One SDC's evidence, summarized where it is found.
//
// The beam study (Sec. 4) classifies an execution as SDC on *any* bit
// mismatch, then needs three numbers per SDC: how many output elements are
// wrong (Sec. 4.3's single-element share), the largest relative error among
// them (the imprecise-computing analysis of Sec. 4.4, Fig. 3) and the
// geometry of the wrong elements (Fig. 2's spatial split). The trial child
// computes all three in one pass as soon as its output fails to match the
// golden copy; the summary rides the journal record, so a replayed or
// remote SDC carries the same evidence as a live one.
//
// The paper buckets every SDC by the geometry of its wrong elements:
//   single — exactly one wrong value;
//   line   — multiple wrong values confined to one row, column or pillar;
//   square — wrong values spanning two dimensions in a coherent block;
//   cubic  — wrong values spanning three dimensions coherently (only
//            possible for 3D outputs, i.e. LavaMD);
//   random — multiple wrong values with no clear pattern.
// "Coherent block" is a bounding-box fill-density rule: the class is a
// function of the mismatch count and the bounding box of the mismatched
// coordinates alone, with the documented thresholds below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/workload_api.hpp"
#include "util/array_view.hpp"

namespace phifi::fi {

enum class ErrorPattern : std::uint8_t {
  kNone = 0,
  kSingle = 1,
  kLine = 2,
  kSquare = 3,
  kCubic = 4,
  kRandom = 5,
};

constexpr std::string_view to_string(ErrorPattern pattern) {
  switch (pattern) {
    case ErrorPattern::kNone: return "none";
    case ErrorPattern::kSingle: return "single";
    case ErrorPattern::kLine: return "line";
    case ErrorPattern::kSquare: return "square";
    case ErrorPattern::kCubic: return "cubic";
    case ErrorPattern::kRandom: return "random";
  }
  return "?";
}

inline constexpr int kPatternCount = 6;

/// Minimum fraction of a 2D bounding box that must be corrupted for the
/// cluster to count as "square" rather than "random".
inline constexpr double kSquareFillThreshold = 0.25;
/// Same for a 3D bounding box ("cubic").
inline constexpr double kCubicFillThreshold = 0.10;

/// What one SDC did to the output. All zero for every other outcome.
struct SdcSummary {
  /// Output elements that differ bitwise from the golden copy.
  std::uint64_t mismatched = 0;
  /// Largest relative error among them (relative_error()'s conventions).
  double max_relative_error = 0.0;
  ErrorPattern pattern = ErrorPattern::kNone;

  /// True if the execution still counts as an SDC when output values within
  /// `tolerance` relative error are accepted (Sec. 4.4; a fraction, 0.005 =
  /// 0.5%).
  [[nodiscard]] bool is_sdc_at(double tolerance) const {
    return max_relative_error > tolerance;
  }
};

/// |observed - golden| / |golden|. A non-finite observed value, and nonzero
/// disagreement against a zero golden value, report +infinity.
double relative_error(double golden, double observed);

/// Summarizes `observed` against `golden`, both arrays of `type` laid out
/// in `shape`, in one pass that allocates nothing: it runs in a trial child
/// whose heap an injected fault may have corrupted, where a malloc could
/// abort and turn the SDC into a crash. Elements compare bitwise, so -0.0
/// against 0.0 and changed NaN payloads count. Elements a short output
/// lacks are mismatched with relative error +infinity; an output longer
/// than the golden is summarized as empty (every golden element mismatched,
/// +infinity). Never reads past either buffer.
SdcSummary summarize_sdc(std::span<const std::byte> golden,
                         std::span<const std::byte> observed,
                         ElementType type, const util::Shape& shape);

}  // namespace phifi::fi
