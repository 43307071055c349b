#include "workloads/lud.hpp"

namespace phifi::work {

Lud::Lud(std::size_t n, unsigned workers)
    : WorkloadBase("LUD", /*time_windows=*/4, workers), n_(n) {}

void Lud::setup(std::uint64_t input_seed) {
  util::Rng rng(input_seed ^ 0x10d);
  a_.resize(n_ * n_);
  original_.resize(n_ * n_);
  // Diagonally dominant so the factorization is stable without pivoting.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      a_[i * n_ + j] = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    a_[i * n_ + i] += static_cast<float>(n_);
  }
  for (std::size_t i = 0; i < n_ * n_; ++i) original_[i] = a_[i];
  ptr_a_ = a_.data();
  reset_control();
}

std::uint64_t Lud::total_steps() const {
  // One tick per updated row, weighted by its trailing length (n - k):
  // step k contributes (n-k-1)(n-k), ticked by the workers as they finish
  // rows so injections land inside the elimination step.
  std::uint64_t total = 0;
  for (std::size_t k = 0; k + 1 < n_; ++k) {
    total += (n_ - k - 1) * (n_ - k);
  }
  return total;
}

void Lud::run(phi::Device& device, fi::ProgressTracker& progress) {
  float* const volatile* pa = &ptr_a_;
  // Prologue: the leading dimension is loop-invariant; each hardware
  // thread's copy is written once and stays live for the whole run.
  device.launch(workers(), [&](phi::WorkerCtx& ctx) {
    control(ctx.worker).set(s_n_, static_cast<std::int64_t>(n_));
  });
  for (std::size_t k = 0; k < n_; ++k) {
    // Step k: rows below the pivot scale their column-k entry and update
    // their trailing submatrix row. Row k and column k are final afterwards.
    const std::size_t remaining = n_ - k - 1;
    device.launch(workers(), [&, k](phi::WorkerCtx& ctx) {
      phi::ControlBlock& cb = control(ctx.worker);
      const auto [begin, end] =
          phi::Device::partition(remaining, ctx.worker, ctx.num_workers);
      cb.set(s_k_, static_cast<std::int64_t>(k));
      cb.set(s_begin_, static_cast<std::int64_t>(k + 1 + begin));
      cb.set(s_end_, static_cast<std::int64_t>(k + 1 + end));

      for (cb.set(s_i_, cb.get(s_begin_)); cb.get(s_i_) < cb.get(s_end_);
           cb.add(s_i_, 1)) {
        float* a = *pa;
        const std::int64_t i = cb.get(s_i_);
        const std::int64_t kk = cb.get(s_k_);
        const std::int64_t nn = cb.get(s_n_);
        const float pivot = a[kk * nn + kk];
        const float scale = a[i * nn + kk] / pivot;
        a[i * nn + kk] = scale;
        const float* pivot_row = a + kk * nn;
        float* row = a + i * nn;
        for (cb.set(s_j_, kk + 1); cb.get(s_j_) < nn; cb.add(s_j_, 1)) {
          const std::int64_t j = cb.get(s_j_);
          row[j] -= scale * pivot_row[j];
        }
        ctx.counters->add_flops(2 * (nn - kk));
        ctx.counters->add_bytes_read(2 * (nn - kk) * sizeof(float));
        ctx.counters->add_bytes_written((nn - kk) * sizeof(float));
        progress.tick(static_cast<std::uint64_t>(n_ - k));
      }
    });
  }
}

void Lud::register_sites(fi::SiteRegistry& registry) {
  registry.add_global_array<float>("matrix", "matrix", a_.span());
  registry.add_global_scalar("ptr_matrix", "pointer", ptr_a_);
  register_control_sites(registry);
}

std::span<const std::byte> Lud::output_bytes() const {
  return {reinterpret_cast<const std::byte*>(a_.data()),
          a_.size() * sizeof(float)};
}

}  // namespace phifi::work
