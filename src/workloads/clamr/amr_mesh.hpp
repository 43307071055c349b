// The cell-based AMR mesh of the CLAMR mini-app.
//
// Cells tile a square domain; each cell is a quadrant at quadtree depth
// `depth` (the base grid sits at depth log2(base_size), refinement adds up
// to `max_refine` levels). State is a linearized shallow-water field
// (h, u, v) advanced with a Lax-Friedrichs step; neighbors across
// refinement levels are found through the Quadtree. Each timestep the mesh
// is re-sorted along the Z-order curve — coarsening depends on sibling
// adjacency in that order, the Sort/Tree structure the paper's criticality
// analysis targets.
//
// All arrays are preallocated at capacity (the fully refined mesh) and never
// reallocate, so injection-site pointers stay stable across regridding.
#pragma once

#include <cstdint>

#include "util/array_view.hpp"
#include "workloads/clamr/quadtree.hpp"

namespace phifi::work::clamr {

struct MeshParams {
  std::uint32_t base_size = 16;  ///< level-0 cells per edge (power of two)
  int max_refine = 2;            ///< extra refinement levels
  float wave_speed2 = 1.0f;      ///< g*H of the linearized equations
  float dt = 0.35f;              ///< timestep (fine cell width = 1)
  // Hysteresis chosen so the refined region tracks the expanding wave
  // front: the cell count peaks about a third into the run and then falls
  // as Lax-Friedrichs dissipation flattens the wave — the paper's "CLAMR
  // becomes more sensitive when the number of active cells reaches its
  // maximum" dynamic (Fig. 6, window 3 of 9).
  float refine_threshold = 0.04f;
  float coarsen_threshold = 0.015f;

  [[nodiscard]] std::uint32_t fine_size() const {
    return base_size << max_refine;
  }
  [[nodiscard]] int base_depth() const {
    int d = 0;
    while ((1u << d) < base_size) ++d;
    return d;
  }
};

class AmrMesh {
 public:
  explicit AmrMesh(MeshParams params);

  /// Resets to the base grid with a Gaussian water-column hump in the
  /// center (the dam-break / wave-propagation initial condition).
  void init_dam_break(float amplitude = 0.5f);

  [[nodiscard]] std::size_t cell_count() const { return count_; }
  /// The live cell count as an object, for state registration.
  [[nodiscard]] const std::size_t& count_state() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const MeshParams& params() const { return params_; }

  /// Writes each cell's Z-order key (computed at fine resolution) into
  /// keys[0..cell_count).
  void compute_keys(std::span<std::uint32_t> keys) const;

  /// Reorders the cell arrays so that cell r is the cell previously at
  /// index perm[r]. perm must be a permutation of [0, cell_count).
  void apply_permutation(std::span<const std::int32_t> perm);

  /// Rebuilds `tree` from the current cells.
  void build_tree(Quadtree& tree) const;

  /// Advances one cell (by index) of the Lax-Friedrichs step, reading the
  /// current state and `tree`, writing the scratch state. Thread-safe for
  /// disjoint cells.
  void compute_cell(const Quadtree& tree, std::size_t cell);

  /// Publishes the scratch state computed by compute_cell as current.
  void swap_state();

  /// Refines/coarsens based on the current state's gradients, using `tree`
  /// for neighbor lookups and visiting cells in the Z-order given by
  /// `order` (rank -> cell index; empty means the arrays are already
  /// sorted). Enforces the 2:1 grading constraint (no cell ends up more
  /// than one level coarser than a face neighbor), as real CLAMR meshes
  /// do. The rebuilt arrays come out in Z-order, so regridding doubles as
  /// the reorder step. Returns the new cell count.
  std::size_t regrid(const Quadtree& tree,
                     std::span<const std::int32_t> order = {});

  /// True if every pair of face neighbors differs by at most one level.
  /// `tree` must be built from the current cells.
  [[nodiscard]] bool is_graded(const Quadtree& tree) const;

  /// Samples h onto the fine grid: out has fine_size^2 entries, row-major.
  void rasterize(std::span<float> out) const;

  /// Total water volume (h * area); conserved up to boundary effects.
  [[nodiscard]] double total_volume() const;

  // Raw arrays for injection-site registration (full capacity).
  [[nodiscard]] std::span<float> h_buffer() { return h_.span(); }
  [[nodiscard]] std::span<float> u_buffer() { return u_.span(); }
  [[nodiscard]] std::span<float> v_buffer() { return v_.span(); }
  [[nodiscard]] std::span<std::int32_t> x_buffer() { return x_.span(); }
  [[nodiscard]] std::span<std::int32_t> y_buffer() { return y_.span(); }
  [[nodiscard]] std::span<std::int32_t> depth_buffer() {
    return depth_.span();
  }
  [[nodiscard]] std::span<float> hn_buffer() { return hn_.span(); }
  [[nodiscard]] std::span<float> un_buffer() { return un_.span(); }
  [[nodiscard]] std::span<float> vn_buffer() { return vn_.span(); }
  [[nodiscard]] std::span<std::int32_t> marks_buffer() {
    return marks_.span();
  }
  /// Mutable access for constant-site registration (dt, thresholds, ...).
  [[nodiscard]] MeshParams& mutable_params() { return params_; }

  [[nodiscard]] std::span<const float> h() const {
    return {h_.data(), count_};
  }
  [[nodiscard]] std::span<const std::int32_t> depth() const {
    return {depth_.data(), count_};
  }
  [[nodiscard]] std::span<const std::int32_t> x() const {
    return {x_.data(), count_};
  }
  [[nodiscard]] std::span<const std::int32_t> y() const {
    return {y_.data(), count_};
  }

 private:
  /// Neighbor state at the four faces of cell `cell` (self at boundaries).
  struct Neighborhood {
    float h_e, h_w, h_n, h_s;
    float u_e, u_w, u_n, u_s;
    float v_e, v_w, v_n, v_s;
  };
  Neighborhood gather(const Quadtree& tree, std::size_t cell) const;

  MeshParams params_;
  std::size_t capacity_;
  std::size_t count_ = 0;

  // Cell geometry: quadrant coordinates at the cell's own depth.
  util::AlignedBuffer<std::int32_t> x_;
  util::AlignedBuffer<std::int32_t> y_;
  util::AlignedBuffer<std::int32_t> depth_;
  // State and Lax-Friedrichs scratch.
  util::AlignedBuffer<float> h_, u_, v_;
  util::AlignedBuffer<float> hn_, un_, vn_;
  /// Fine-grid sample points on the quarter positions of each face (two
  /// per face: a face can abut two finer neighbors), used by the grading
  /// pass and checker. Order: E, E, W, W, N, N, S, S.
  struct FacePoints {
    std::int64_t fx[8];
    std::int64_t fy[8];
  };
  [[nodiscard]] FacePoints face_points(std::size_t cell) const;

  // Regrid staging buffers, refine/coarsen marks, and the rank inverse
  // used by the grading pass.
  util::AlignedBuffer<std::int32_t> rx_, ry_, rdepth_, marks_;
  util::AlignedBuffer<std::int32_t> rank_of_cell_;
  util::AlignedBuffer<float> rh_, ru_, rv_;
};

}  // namespace phifi::work::clamr
