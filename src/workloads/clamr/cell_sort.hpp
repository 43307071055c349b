// The "Sort" portion of CLAMR: ordering cells by their Z-order key.
//
// Implemented as an explicit bottom-up merge sort over (key, index) pairs
// with its working buffers owned by this object so they can be registered
// as injection sites ("mesh.sort"). A corrupted key mis-orders the mesh
// (sibling groups break, coarsening goes wrong -> SDC); a corrupted
// permutation entry sends later passes to a wild cell index (-> DUE) —
// the two failure modes the paper measures for CLAMR's Sort (Sec. 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/array_view.hpp"

namespace phifi::work::clamr {

class CellSort {
 public:
  /// Allocates buffers for up to `capacity` cells.
  explicit CellSort(std::size_t capacity = 0) { reserve(capacity); }

  void reserve(std::size_t capacity) {
    keys_.resize(capacity);
    perm_.resize(capacity);
    scratch_keys_.resize(capacity);
    scratch_perm_.resize(capacity);
  }

  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

  /// Loads `count` keys (key[i] belongs to cell i) and sorts the implied
  /// permutation by key, stable. After the call, perm()[r] is the cell index
  /// of rank r. `pass_tick`, if set, is invoked after every merge pass so a
  /// fault-injection campaign can land flips *during* the sort, while the
  /// scratch buffers are live.
  void sort(std::span<const std::uint32_t> keys,
            const std::function<void()>& pass_tick = nullptr);

  [[nodiscard]] std::span<const std::uint32_t> keys() const {
    return {keys_.data(), count_};
  }
  [[nodiscard]] std::span<const std::int32_t> perm() const {
    return {perm_.data(), count_};
  }
  [[nodiscard]] std::size_t count() const { return count_; }
  /// The sorted count as an object, for state registration.
  [[nodiscard]] const std::size_t& count_state() const { return count_; }

  /// Buffers for injection-site registration.
  [[nodiscard]] std::span<std::uint32_t> key_buffer() { return keys_.span(); }
  [[nodiscard]] std::span<std::int32_t> perm_buffer() { return perm_.span(); }
  [[nodiscard]] std::span<std::uint32_t> scratch_key_buffer() {
    return scratch_keys_.span();
  }
  [[nodiscard]] std::span<std::int32_t> scratch_perm_buffer() {
    return scratch_perm_.span();
  }

 private:
  void merge_pass(std::size_t width);

  util::AlignedBuffer<std::uint32_t> keys_;
  util::AlignedBuffer<std::int32_t> perm_;
  util::AlignedBuffer<std::uint32_t> scratch_keys_;
  util::AlignedBuffer<std::int32_t> scratch_perm_;
  std::size_t count_ = 0;
};

}  // namespace phifi::work::clamr
