// Test helpers for the child-side SDC summarizer (core/sdc_summary.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/sdc_summary.hpp"

namespace phifi::testing {

template <typename T>
std::span<const std::byte> bytes_of(const std::vector<T>& values) {
  return std::as_bytes(std::span<const T>(values));
}

/// The summary of an f64 output laid out in `shape` whose elements at the
/// flat `indices` differ from the golden copy (repeats collapse).
inline fi::SdcSummary summarize_at(const util::Shape& shape,
                                   std::span<const std::size_t> indices) {
  const std::vector<double> golden(shape.size(), 1.0);
  std::vector<double> observed = golden;
  for (std::size_t index : indices) observed[index] = 2.0;
  return fi::summarize_sdc(bytes_of(golden), bytes_of(observed),
                           fi::ElementType::kF64, shape);
}

}  // namespace phifi::testing
