// The "Tree" portion of CLAMR: a quadtree for cell point-location.
//
// The mesh tiles a square domain; every AMR cell occupies one quadrant at
// its refinement depth. The tree is rebuilt each timestep from the current
// cell list and answers "which cell contains fine-grid point (x, y)?" —
// the query the solver uses to find face neighbors across refinement
// levels. Node storage is flat int32 arrays so the fault injector can
// corrupt child links ("mesh.tree"); a corrupted link sends a query into
// wild memory, the paper's dominant DUE source for CLAMR's Tree portion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/array_view.hpp"

namespace phifi::work::clamr {

class Quadtree {
 public:
  static constexpr std::int32_t kNull = -1;
  /// Hard bound on query descent; a corrupted child link can otherwise walk
  /// arbitrarily far. Deep enough for any legal tree (root + 16 levels).
  static constexpr int kMaxDescent = 24;

  /// `fine_size` is the finest-grid edge length (power of two). Capacity is
  /// the maximum number of cells the tree will index.
  Quadtree(std::uint32_t fine_size, std::size_t cell_capacity);

  /// Rebuilds the tree. Cell c covers the fine-grid square with corner
  /// (x[c]*w, y[c]*w) and edge w = fine_size >> depth[c], where depth is the
  /// cell's quadtree depth (0 = whole domain).
  void build(std::span<const std::int32_t> cell_x,
             std::span<const std::int32_t> cell_y,
             std::span<const std::int32_t> cell_depth, std::size_t count);

  /// Returns the index of the cell whose square contains (fx, fy), or kNull
  /// if the point is outside the domain / the tree is corrupted. By default
  /// no bounds are checked on child links (that is the point); in safe mode
  /// (the Sec. 6 "bounds-check child links during descent" mitigation) a
  /// corrupted link yields kNull instead of a wild read.
  [[nodiscard]] std::int32_t locate(std::int64_t fx, std::int64_t fy) const;

  /// Enables the hardened descent. Costs one compare per level.
  void set_safe_mode(bool safe) { safe_mode_ = safe; }
  [[nodiscard]] bool safe_mode() const { return safe_mode_; }

  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  /// The node and indexed-cell counts as objects, for state registration.
  [[nodiscard]] const std::size_t& node_count_state() const {
    return node_count_;
  }
  [[nodiscard]] const std::size_t& cell_count_state() const {
    return cell_count_;
  }
  [[nodiscard]] std::size_t node_capacity() const { return leaf_cell_.size(); }
  [[nodiscard]] std::uint32_t fine_size() const { return fine_size_; }

  /// Raw arrays for injection-site registration.
  [[nodiscard]] std::span<std::int32_t> children_buffer() {
    return children_.span();
  }
  [[nodiscard]] std::span<std::int32_t> leaf_buffer() {
    return leaf_cell_.span();
  }

 private:
  std::int32_t new_node();

  std::uint32_t fine_size_;
  util::AlignedBuffer<std::int32_t> children_;   // 4 per node
  util::AlignedBuffer<std::int32_t> leaf_cell_;  // cell index or kNull
  std::size_t node_count_ = 0;
  std::size_t cell_count_ = 0;
  bool safe_mode_ = false;
};

}  // namespace phifi::work::clamr
