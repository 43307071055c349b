#include "workloads/lavamd.hpp"

#include <cmath>

namespace phifi::work {

LavaMd::LavaMd(std::size_t boxes_per_dim, std::size_t particles_per_box,
               unsigned workers)
    : WorkloadBase("LavaMD", /*time_windows=*/4, workers),
      nb_(boxes_per_dim),
      ppb_(particles_per_box) {}

void LavaMd::setup(std::uint64_t input_seed) {
  util::Rng rng(input_seed ^ 0x1a7a);
  const std::size_t particles = particle_count();
  rv_.resize(particles * 4);
  qv_.resize(particles);
  fv_.resize(particles * 4);
  neighbors_.resize(box_count() * 27);
  neighbor_counts_.resize(box_count());

  // Particles are placed inside their own box (unit box edge) so the
  // cut-off structure of the original benchmark is preserved.
  for (std::size_t bz = 0; bz < nb_; ++bz) {
    for (std::size_t by = 0; by < nb_; ++by) {
      for (std::size_t bx = 0; bx < nb_; ++bx) {
        const std::size_t box = (bz * nb_ + by) * nb_ + bx;
        for (std::size_t p = 0; p < ppb_; ++p) {
          const std::size_t particle = box * ppb_ + p;
          rv_[particle * 4 + 0] = static_cast<double>(bx) + rng.uniform();
          rv_[particle * 4 + 1] = static_cast<double>(by) + rng.uniform();
          rv_[particle * 4 + 2] = static_cast<double>(bz) + rng.uniform();
          rv_[particle * 4 + 3] = rng.uniform(0.1, 1.0);
          qv_[particle] = rng.uniform(0.1, 1.0);
        }
      }
    }
  }

  // Neighbor lists: the box itself plus every box within one step in each
  // dimension (no periodic wrap), -1-padded to 27 entries.
  for (std::size_t bz = 0; bz < nb_; ++bz) {
    for (std::size_t by = 0; by < nb_; ++by) {
      for (std::size_t bx = 0; bx < nb_; ++bx) {
        const std::size_t box = (bz * nb_ + by) * nb_ + bx;
        std::size_t count = 0;
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const std::int64_t nz = static_cast<std::int64_t>(bz) + dz;
              const std::int64_t ny = static_cast<std::int64_t>(by) + dy;
              const std::int64_t nx = static_cast<std::int64_t>(bx) + dx;
              if (nz < 0 || ny < 0 || nx < 0 ||
                  nz >= static_cast<std::int64_t>(nb_) ||
                  ny >= static_cast<std::int64_t>(nb_) ||
                  nx >= static_cast<std::int64_t>(nb_)) {
                continue;
              }
              neighbors_[box * 27 + count++] = (nz * nb_ + ny) * nb_ + nx;
            }
          }
        }
        neighbor_counts_[box] = static_cast<std::int64_t>(count);
        for (std::size_t pad = count; pad < 27; ++pad) {
          neighbors_[box * 27 + pad] = -1;
        }
      }
    }
  }
  alpha_ = 0.5;
  ptr_rv_ = rv_.data();
  ptr_qv_ = qv_.data();
  ptr_fv_ = fv_.data();
  ptr_neighbors_ = neighbors_.data();
  ptr_neighbor_counts_ = neighbor_counts_.data();
  reset_control();
}

void LavaMd::run(phi::Device& device, fi::ProgressTracker& progress) {
  const double* const volatile* prv = &ptr_rv_;
  const double* const volatile* pqv = &ptr_qv_;
  double* const volatile* pfv = &ptr_fv_;
  const std::int64_t* const volatile* pneighbors = &ptr_neighbors_;
  const std::int64_t* const volatile* pcounts = &ptr_neighbor_counts_;
  const volatile double* alpha = &alpha_;

  // Prologue: box partition and particles-per-box are loop-invariant; each
  // hardware thread's copies are written once and stay live all run.
  device.launch(workers(), [&](phi::WorkerCtx& ctx) {
    phi::ControlBlock& cb = control(ctx.worker);
    const auto [begin, end] =
        phi::Device::partition(box_count(), ctx.worker, ctx.num_workers);
    cb.set(s_begin_, static_cast<std::int64_t>(begin));
    cb.set(s_end_, static_cast<std::int64_t>(end));
    cb.set(s_ppb_, static_cast<std::int64_t>(ppb_));
  });

  device.launch(workers(), [&](phi::WorkerCtx& ctx) {
    phi::ControlBlock& cb = control(ctx.worker);
    if (cb.get(s_begin_) >= cb.get(s_end_)) return;

    for (cb.set(s_box_, cb.get(s_begin_)); cb.get(s_box_) < cb.get(s_end_);
         cb.add(s_box_, 1)) {
      const double* rv = *prv;
      const double* qv = *pqv;
      double* fv = *pfv;
      const std::int64_t* neighbors = *pneighbors;
      const std::int64_t* neighbor_counts = *pcounts;
      const std::int64_t box = cb.get(s_box_);
      const std::int64_t ppb = cb.get(s_ppb_);
      const double a2 = (*alpha) * (*alpha);

      for (cb.set(s_i_, box * ppb); cb.get(s_i_) < (box + 1) * ppb;
           cb.add(s_i_, 1)) {
        const std::int64_t i = cb.get(s_i_);
        const double xi = rv[i * 4 + 0];
        const double yi = rv[i * 4 + 1];
        const double zi = rv[i * 4 + 2];
        const double vi = rv[i * 4 + 3];
        double fx = 0.0;
        double fy = 0.0;
        double fz = 0.0;
        double fw = 0.0;

        for (cb.set(s_nbr_, 0); cb.get(s_nbr_) < neighbor_counts[box];
             cb.add(s_nbr_, 1)) {
          const std::int64_t nbr_box = neighbors[box * 27 + cb.get(s_nbr_)];
          for (cb.set(s_j_, nbr_box * ppb);
               cb.get(s_j_) < (nbr_box + 1) * ppb; cb.add(s_j_, 1)) {
            const std::int64_t j = cb.get(s_j_);
            const double dx = xi - rv[j * 4 + 0];
            const double dy = yi - rv[j * 4 + 1];
            const double dz = zi - rv[j * 4 + 2];
            const double d2 = dx * dx + dy * dy + dz * dz;
            const double u2 = a2 * d2;
            const double vij = std::exp(-u2);
            const double fs = (vi + rv[j * 4 + 3]) * 2.0 * vij;
            const double q = qv[j];
            fw += q * vij;
            fx += q * fs * dx;
            fy += q * fs * dy;
            fz += q * fs * dz;
          }
        }
        fv[i * 4 + 0] = fx;
        fv[i * 4 + 1] = fy;
        fv[i * 4 + 2] = fz;
        fv[i * 4 + 3] = fw;
        const auto pairs =
            static_cast<std::uint64_t>(neighbor_counts[box]) * ppb;
        ctx.counters->add_flops(pairs * 20);
        // Per pair: neighbor position 4-vector + charge.
        ctx.counters->add_bytes_read(pairs * 5 * sizeof(double));
        ctx.counters->add_bytes_written(4 * sizeof(double));
      }
      progress.tick();
    }
  });
}

void LavaMd::register_sites(fi::SiteRegistry& registry) {
  registry.add_global_array<double>("positions", "distance", rv_.span());
  registry.add_global_array<double>("charges", "charge", qv_.span());
  registry.add_global_array<double>("forces", "force", fv_.span());
  registry.add_global_array<std::int64_t>("neighbor_list", "box",
                                          neighbors_.span());
  registry.add_global_array<std::int64_t>("neighbor_counts", "box",
                                          neighbor_counts_.span());
  registry.add_global_scalar("alpha", "constant", alpha_);
  registry.add_global_scalar("ptr_positions", "pointer", ptr_rv_);
  registry.add_global_scalar("ptr_charges", "pointer", ptr_qv_);
  registry.add_global_scalar("ptr_forces", "pointer", ptr_fv_);
  registry.add_global_scalar("ptr_neighbors", "pointer", ptr_neighbors_);
  registry.add_global_scalar("ptr_neighbor_counts", "pointer",
                             ptr_neighbor_counts_);
  register_control_sites(registry);
}

std::span<const std::byte> LavaMd::output_bytes() const {
  return {reinterpret_cast<const std::byte*>(fv_.data()),
          fv_.size() * sizeof(double)};
}

}  // namespace phifi::work
