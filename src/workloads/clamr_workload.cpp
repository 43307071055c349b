#include "workloads/clamr_workload.hpp"

#include <algorithm>

namespace phifi::work {

Clamr::Clamr(clamr::MeshParams params, unsigned steps, unsigned workers,
             bool hardened)
    : WorkloadBase(hardened ? "CLAMR+guards" : "CLAMR", /*time_windows=*/9,
                   workers),
      params_(params),
      steps_(steps),
      hardened_(hardened),
      mesh_(params),
      tree_(params.fine_size(),
            static_cast<std::size_t>(params.fine_size()) *
                params.fine_size()),
      sort_(static_cast<std::size_t>(params.fine_size()) *
            params.fine_size()) {
  key_scratch_.resize(mesh_.capacity());
  raster_.resize(static_cast<std::size_t>(params_.fine_size()) *
                 params_.fine_size());
  tree_.set_safe_mode(hardened_);
}

bool Clamr::sort_is_valid(std::size_t cells) {
  const auto perm = sort_.perm();
  const auto keys = sort_.keys();
  if (perm.size() != cells) return false;
  audit_seen_.assign(cells, 0);
  for (std::size_t r = 0; r < cells; ++r) {
    const std::int32_t cell = perm[r];
    if (cell < 0 || static_cast<std::size_t>(cell) >= cells) return false;
    if (audit_seen_[static_cast<std::size_t>(cell)]) return false;
    audit_seen_[static_cast<std::size_t>(cell)] = 1;
    if (r > 0 && keys[r - 1] > keys[r]) return false;
  }
  return true;
}

void Clamr::setup(std::uint64_t input_seed) {
  util::Rng rng(input_seed ^ 0xc1a32);
  init_amplitude_ = static_cast<float>(rng.uniform(0.4, 0.6));

  // Serial dry run to learn the per-step cell counts (= progress weights).
  mesh_.init_dam_break(init_amplitude_);
  step_cells_.assign(steps_, 0);
  total_ticks_ = 0;
  for (unsigned s = 0; s < steps_; ++s) {
    step_cells_[s] = mesh_.cell_count();
    advance_step(nullptr,
                 [this](std::uint64_t weight) { total_ticks_ += weight; });
  }

  // Reset to the initial condition for the measured run.
  mesh_.init_dam_break(init_amplitude_);
  reset_control();
}

void Clamr::advance_step(phi::Device* device, const TickFn& tick) {
  const std::size_t cells = mesh_.cell_count();
  // Phase tick weights, scaled to one tick per cell in the compute phase.
  // Shares approximate measured phase costs: sort ~25% spread over its
  // merge passes, tree ~10%, regrid ~15%.
  const std::uint64_t w_pass =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cells) / 40);
  const std::uint64_t w_tree =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cells) / 10);
  const std::uint64_t w_regrid =
      std::max<std::uint64_t>(1, 3 * static_cast<std::uint64_t>(cells) / 20);

  // (1) Sort: compute each cell's Z-order key and sort. Ticks fire after
  // every merge pass, so injections land while the scratch buffers are
  // live. The resulting permutation (rank -> cell) stays live through the
  // compute and regrid phases below — it is the mesh's "index" structure,
  // and corrupting it mid-step sends the solver to a wild cell (the
  // paper's Sort criticality).
  mesh_.compute_keys(key_scratch_.span());
  sort_.sort({key_scratch_.data(), cells},
             tick ? std::function<void()>([&] { tick(w_pass); })
                  : std::function<void()>());
  if (hardened_ && !sort_is_valid(cells)) {
    // Post-sort audit (Sec. 6.1): the order is reconstructible from the
    // cell geometry, so a corrupted sort is repaired by redoing it.
    mesh_.compute_keys(key_scratch_.span());
    sort_.sort({key_scratch_.data(), cells});
    if (!sort_is_valid(cells)) {
      throw std::runtime_error("CLAMR sort audit failed after retry");
    }
  }
  const std::int32_t* perm = sort_.perm().data();

  // (2) Tree: rebuild the point-location quadtree.
  mesh_.build_tree(tree_);
  if (tick) tick(w_tree);

  // (3) Compute: one Lax-Friedrichs step over all cells, visited in rank
  // order through the live permutation.
  if (device != nullptr) {
    // Per-step prologue: every hardware thread's rank bounds are written
    // before the sweep starts, so corrupting a thread's bounds before it
    // runs is consumed rather than overwritten.
    device->launch(workers(), [&, cells](phi::WorkerCtx& ctx) {
      phi::ControlBlock& cb = control(ctx.worker);
      const auto [begin, end] =
          phi::Device::partition(cells, ctx.worker, ctx.num_workers);
      cb.set(s_begin_, static_cast<std::int64_t>(begin));
      cb.set(s_end_, static_cast<std::int64_t>(end));
      cb.set(s_ncells_, static_cast<std::int64_t>(cells));
    });
    device->launch(workers(), [&, cells](phi::WorkerCtx& ctx) {
      phi::ControlBlock& cb = control(ctx.worker);
      for (cb.set(s_cell_, cb.get(s_begin_)); cb.get(s_cell_) < cb.get(s_end_);
           cb.add(s_cell_, 1)) {
        // Hardened sweep clamps the rank and the mapped cell: corruption of
        // the bounds or the live permutation degrades to skipped work
        // instead of a wild access.
        if (hardened_) {
          const std::int64_t rank = cb.get(s_cell_);
          if (rank < 0 || rank >= static_cast<std::int64_t>(cells)) break;
          const std::int32_t mapped = perm[rank];
          if (mapped < 0 || static_cast<std::size_t>(mapped) >= cells) {
            if (tick) tick(1);
            continue;
          }
        }
        const auto cell = static_cast<std::size_t>(
            perm[cb.get(s_cell_)]);
        mesh_.compute_cell(tree_, cell);
        // Per-cell ticks keep injections landing *inside* the step, while
        // the sort permutation and tree links are live — where the paper's
        // Sort/Tree criticality comes from.
        if (tick) tick(1);
      }
      const std::uint64_t computed =
          cb.get(s_end_) > cb.get(s_begin_)
              ? static_cast<std::uint64_t>(cb.get(s_end_) - cb.get(s_begin_))
              : 0;
      ctx.counters->add_flops(computed * 30);
      // Per cell: 4 neighbors x (h,u,v) + own geometry in, (h,u,v) out.
      ctx.counters->add_bytes_read(computed * 60);
      ctx.counters->add_bytes_written(computed * 12);
    });
  } else {
    for (std::size_t r = 0; r < cells; ++r) {
      mesh_.compute_cell(tree_, static_cast<std::size_t>(perm[r]));
      if (tick) tick(1);
    }
  }
  mesh_.swap_state();

  // (4) Regrid on the updated state (geometry unchanged, tree still
  // valid), walking cells in Z-order through the same live permutation.
  mesh_.regrid(tree_, sort_.perm());
  if (tick) tick(w_regrid);
}

void Clamr::run(phi::Device& device, fi::ProgressTracker& progress) {
  const TickFn tick = [&progress](std::uint64_t weight) {
    progress.tick(weight);
  };
  for (unsigned s = 0; s < steps_; ++s) {
    control(0).set(s_step_, s);
    advance_step(&device, tick);
  }
  mesh_.rasterize(raster_.span());
}

void Clamr::register_sites(fi::SiteRegistry& registry) {
  // The arrays are preallocated for the fully refined worst case; the mesh
  // only ever uses a prefix. Register the *live* extent (the dry run in
  // setup() measured the peak cell count) so injections model faults in
  // allocated-and-used memory, as in the real application.
  std::size_t peak = static_cast<std::size_t>(params_.base_size) *
                     params_.base_size;
  for (std::uint64_t c : step_cells_) {
    peak = std::max(peak, static_cast<std::size_t>(c));
  }
  const std::size_t live =
      std::min(mesh_.capacity(), peak + peak / 4 + 16);
  const std::size_t live_nodes =
      std::min(tree_.node_capacity(), live * 2 + 64);

  // Mesh state and geometry ("others" in the paper's mesh split).
  registry.add_global_array<float>("mesh_h", "mesh.other",
                                   mesh_.h_buffer().first(live));
  registry.add_global_array<float>("mesh_u", "mesh.other",
                                   mesh_.u_buffer().first(live));
  registry.add_global_array<float>("mesh_v", "mesh.other",
                                   mesh_.v_buffer().first(live));
  registry.add_global_array<float>("mesh_h_new", "mesh.other",
                                   mesh_.hn_buffer().first(live));
  registry.add_global_array<float>("mesh_u_new", "mesh.other",
                                   mesh_.un_buffer().first(live));
  registry.add_global_array<float>("mesh_v_new", "mesh.other",
                                   mesh_.vn_buffer().first(live));
  registry.add_global_array<std::int32_t>("mesh_x", "mesh.other",
                                          mesh_.x_buffer().first(live));
  registry.add_global_array<std::int32_t>("mesh_y", "mesh.other",
                                          mesh_.y_buffer().first(live));
  registry.add_global_array<std::int32_t>("mesh_depth", "mesh.other",
                                          mesh_.depth_buffer().first(live));
  registry.add_global_array<std::int32_t>("regrid_marks", "mesh.other",
                                          mesh_.marks_buffer().first(live));
  registry.add_global_array<float>("output_raster", "mesh.other",
                                   raster_.span());

  // Sort machinery.
  registry.add_global_array<std::uint32_t>("sort_keys", "mesh.sort",
                                           sort_.key_buffer().first(live));
  registry.add_global_array<std::int32_t>("sort_perm", "mesh.sort",
                                          sort_.perm_buffer().first(live));
  registry.add_global_array<std::uint32_t>(
      "sort_scratch_keys", "mesh.sort",
      sort_.scratch_key_buffer().first(live));
  registry.add_global_array<std::int32_t>(
      "sort_scratch_perm", "mesh.sort",
      sort_.scratch_perm_buffer().first(live));

  // Tree machinery.
  registry.add_global_array<std::int32_t>(
      "tree_children", "mesh.tree",
      tree_.children_buffer().first(live_nodes * 4));
  registry.add_global_array<std::int32_t>("tree_leaves", "mesh.tree",
                                          tree_.leaf_buffer().first(
                                              live_nodes));

  // Physics constants.
  clamr::MeshParams& p = mesh_.mutable_params();
  registry.add_global_scalar("dt", "constant", p.dt);
  registry.add_global_scalar("wave_speed2", "constant", p.wave_speed2);
  registry.add_global_scalar("refine_threshold", "constant",
                             p.refine_threshold);
  registry.add_global_scalar("coarsen_threshold", "constant",
                             p.coarsen_threshold);

  register_control_sites(registry);

  // Bookkeeping that later steps read and no site holds: the live cell
  // count of the mesh and of the sort, and the tree's node and cell
  // counts. A step's other scratch (regrid staging, sort keys, the audit)
  // is written before it is read within the step.
  registry.add_state_object("mesh_cell_count", mesh_.count_state());
  registry.add_state_object("sort_count", sort_.count_state());
  registry.add_state_object("tree_node_count", tree_.node_count_state());
  registry.add_state_object("tree_cell_count", tree_.cell_count_state());
}

std::span<const std::byte> Clamr::output_bytes() const {
  return {reinterpret_cast<const std::byte*>(raster_.data()),
          raster_.size() * sizeof(float)};
}

}  // namespace phifi::work
