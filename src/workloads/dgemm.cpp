#include "workloads/dgemm.hpp"

namespace phifi::work {

Dgemm::Dgemm(std::size_t n, unsigned workers)
    : WorkloadBase("DGEMM", /*time_windows=*/5, workers), n_(n) {}

void Dgemm::setup(std::uint64_t input_seed) {
  util::Rng rng(input_seed ^ 0xd6e44);
  a_.resize(n_ * n_);
  b_.resize(n_ * n_);
  c_.resize(n_ * n_);
  // Positive inputs (HPL-style): every C element is bounded away from
  // zero, so per-element relative error is meaningful for the tolerance
  // analysis of Fig. 3.
  for (auto& v : a_.span()) v = rng.uniform(0.05, 1.0);
  for (auto& v : b_.span()) v = rng.uniform(0.05, 1.0);
  alpha_ = 1.0;
  ptr_a_ = a_.data();
  ptr_b_ = b_.data();
  ptr_c_ = c_.data();
  reset_control();
}

void Dgemm::run(phi::Device& device, fi::ProgressTracker& progress) {
  // alpha and the base pointers are re-read per row through volatile
  // glvalues so a corrupted constant or pointer affects every row computed
  // after the flip.
  const volatile double* alpha = &alpha_;
  const double* const volatile* pa = &ptr_a_;
  const double* const volatile* pb = &ptr_b_;
  double* const volatile* pc = &ptr_c_;

  // Prologue: every hardware thread's loop-invariant control state (bounds,
  // strides) is written up front, as it is live for the whole kernel on the
  // real device. A corruption of any thread's bounds before that thread
  // runs is consumed, not overwritten.
  device.launch(workers(), [&](phi::WorkerCtx& ctx) {
    phi::ControlBlock& cb = control(ctx.worker);
    const auto [row_begin, row_end] =
        phi::Device::partition(n_, ctx.worker, ctx.num_workers);
    cb.set(s_row_begin_, static_cast<std::int64_t>(row_begin));
    cb.set(s_row_end_, static_cast<std::int64_t>(row_end));
    cb.set(s_n_, static_cast<std::int64_t>(n_));
    cb.set(s_lda_, static_cast<std::int64_t>(n_));
  });

  device.launch(workers(), [&](phi::WorkerCtx& ctx) {
    phi::ControlBlock& cb = control(ctx.worker);
    for (cb.set(s_i_, cb.get(s_row_begin_)); cb.get(s_i_) < cb.get(s_row_end_);
         cb.add(s_i_, 1)) {
      const std::int64_t i = cb.get(s_i_);
      const double row_alpha = *alpha;
      const double* a = *pa;
      const double* b = *pb;
      double* c = *pc;
      cb.set(s_a_row_, i * cb.get(s_lda_));
      cb.set(s_c_row_, i * cb.get(s_lda_));
      for (cb.set(s_k_, 0); cb.get(s_k_) < cb.get(s_n_); cb.add(s_k_, 1)) {
        const std::int64_t k = cb.get(s_k_);
        const double aik = row_alpha * a[cb.get(s_a_row_) + k];
        const double* b_row = b + k * cb.get(s_lda_);
        double* c_row = c + cb.get(s_c_row_);
        for (cb.set(s_j_, 0); cb.get(s_j_) < cb.get(s_n_); cb.add(s_j_, 1)) {
          const std::int64_t j = cb.get(s_j_);
          c_row[j] += aik * b_row[j];
        }
      }
      ctx.counters->add_flops(2 * n_ * n_);
      progress.tick();
    }
  });
  // Unique data traffic (B stays cache-resident across rows): A and B read
  // once, C written once. This is what makes DGEMM compute-bound.
  device.counters().add_bytes_read(2 * n_ * n_ * sizeof(double));
  device.counters().add_bytes_written(n_ * n_ * sizeof(double));
}

void Dgemm::register_sites(fi::SiteRegistry& registry) {
  registry.add_global_array<double>("matrix_a", "matrix", a_.span());
  registry.add_global_array<double>("matrix_b", "matrix", b_.span());
  registry.add_global_array<double>("matrix_c", "matrix", c_.span());
  registry.add_global_scalar("alpha", "constant", alpha_);
  registry.add_global_scalar("ptr_a", "pointer", ptr_a_);
  registry.add_global_scalar("ptr_b", "pointer", ptr_b_);
  registry.add_global_scalar("ptr_c", "pointer", ptr_c_);
  register_control_sites(registry);
}

std::span<const std::byte> Dgemm::output_bytes() const {
  return {reinterpret_cast<const std::byte*>(c_.data()),
          c_.size() * sizeof(double)};
}

}  // namespace phifi::work
