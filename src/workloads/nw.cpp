#include "workloads/nw.hpp"

#include <algorithm>

namespace phifi::work {

Nw::Nw(std::size_t length, unsigned workers)
    : WorkloadBase("NW", /*time_windows=*/4, workers), length_(length) {}

void Nw::setup(std::uint64_t input_seed) {
  util::Rng rng(input_seed ^ 0x4e57);
  const std::size_t cols = length_ + 1;
  score_.resize(cols * cols);
  seq1_.resize(length_);
  seq2_.resize(length_);
  blosum_.resize(kAlphabet * kAlphabet);
  for (auto& v : seq1_.span()) {
    v = static_cast<std::int32_t>(rng.below(kAlphabet));
  }
  for (auto& v : seq2_.span()) {
    v = static_cast<std::int32_t>(rng.below(kAlphabet));
  }
  // BLOSUM-like substitution scores: positive diagonal, mildly negative
  // off-diagonal, symmetric.
  for (std::size_t a = 0; a < kAlphabet; ++a) {
    for (std::size_t b = a; b < kAlphabet; ++b) {
      const std::int32_t s =
          (a == b) ? static_cast<std::int32_t>(4 + rng.below(5))
                   : static_cast<std::int32_t>(rng.range(-4, 1));
      blosum_[a * kAlphabet + b] = s;
      blosum_[b * kAlphabet + a] = s;
    }
  }
  gap_penalty_ = 2;
  // Boundary conditions: leading row/column pay cumulative gap penalties.
  const std::size_t n = cols;
  for (std::size_t i = 0; i < n; ++i) {
    score_[i * n] = -static_cast<std::int32_t>(i) * gap_penalty_;
    score_[i] = -static_cast<std::int32_t>(i) * gap_penalty_;
  }
  ptr_score_ = score_.data();
  ptr_seq1_ = seq1_.data();
  ptr_seq2_ = seq2_.data();
  ptr_blosum_ = blosum_.data();
  reset_control();
}

void Nw::run(phi::Device& device, fi::ProgressTracker& progress) {
  const std::size_t cols = length_ + 1;
  std::int32_t* const volatile* pscore = &ptr_score_;
  const std::int32_t* const volatile* pseq1 = &ptr_seq1_;
  const std::int32_t* const volatile* pseq2 = &ptr_seq2_;
  const std::int32_t* const volatile* pblosum = &ptr_blosum_;

  // Prologue: matrix stride and gap penalty are loop-invariant; each
  // hardware thread's copies are written once and stay live all run.
  device.launch(workers(), [&](phi::WorkerCtx& ctx) {
    phi::ControlBlock& cb = control(ctx.worker);
    cb.set(s_cols_, static_cast<std::int64_t>(cols));
    cb.set(s_penalty_, gap_penalty_);
  });

  // Wavefront over anti-diagonals d = i + j (1-based matrix coordinates):
  // cells on one diagonal depend only on the two previous diagonals, so a
  // diagonal is one bulk-synchronous launch.
  for (std::size_t d = 2; d <= 2 * length_; ++d) {
    const std::size_t i_lo = d > length_ + 1 ? d - length_ : 1;
    const std::size_t i_hi = std::min(d - 1, length_);  // inclusive
    const std::size_t count = i_hi - i_lo + 1;

    device.launch(workers(), [&](phi::WorkerCtx& ctx) {
      phi::ControlBlock& cb = control(ctx.worker);
      const auto [begin, end] =
          phi::Device::partition(count, ctx.worker, ctx.num_workers);
      if (begin >= end) return;
      std::int32_t* score = *pscore;
      const std::int32_t* seq1 = *pseq1;
      const std::int32_t* seq2 = *pseq2;
      const std::int32_t* blosum = *pblosum;
      cb.set(s_diag_, static_cast<std::int64_t>(d));
      cb.set(s_begin_, static_cast<std::int64_t>(i_lo + begin));
      cb.set(s_end_, static_cast<std::int64_t>(i_lo + end));

      for (cb.set(s_i_, cb.get(s_begin_)); cb.get(s_i_) < cb.get(s_end_);
           cb.add(s_i_, 1)) {
        const std::int64_t i = cb.get(s_i_);
        const std::int64_t j = cb.get(s_diag_) - i;
        const std::int64_t nc = cb.get(s_cols_);
        const std::int32_t penalty =
            static_cast<std::int32_t>(cb.get(s_penalty_));
        // Runtime substitution lookup: the sequence values index the
        // substitution matrix, as in the Rodinia kernel.
        const std::int32_t sim =
            blosum[seq1[i - 1] * static_cast<std::int64_t>(kAlphabet) +
                   seq2[j - 1]];
        const std::int32_t diag = score[(i - 1) * nc + (j - 1)] + sim;
        const std::int32_t up = score[(i - 1) * nc + j] - penalty;
        const std::int32_t left = score[i * nc + (j - 1)] - penalty;
        score[i * nc + j] = std::max(diag, std::max(up, left));
      }
      ctx.counters->add_flops(4 * (end - begin));
      ctx.counters->add_bytes_read(4 * sizeof(std::int32_t) * (end - begin));
      ctx.counters->add_bytes_written(sizeof(std::int32_t) * (end - begin));
      progress.tick(end - begin);  // in-launch ticks: injections land
                                   // while the wavefront state is live
    });
  }
}

void Nw::register_sites(fi::SiteRegistry& registry) {
  registry.add_global_array<std::int32_t>("score_matrix", "matrix",
                                          score_.span());
  registry.add_global_array<std::int32_t>("sequence_1", "matrix",
                                          seq1_.span());
  registry.add_global_array<std::int32_t>("sequence_2", "matrix",
                                          seq2_.span());
  registry.add_global_array<std::int32_t>("blosum", "matrix", blosum_.span());
  registry.add_global_scalar("gap_penalty", "constant", gap_penalty_);
  registry.add_global_scalar("ptr_score", "pointer", ptr_score_);
  registry.add_global_scalar("ptr_seq1", "pointer", ptr_seq1_);
  registry.add_global_scalar("ptr_seq2", "pointer", ptr_seq2_);
  registry.add_global_scalar("ptr_blosum", "pointer", ptr_blosum_);
  register_control_sites(registry);
}

std::int32_t Nw::alignment_score() const {
  const std::size_t cols = length_ + 1;
  return score_[cols * cols - 1];
}

std::span<const std::byte> Nw::output_bytes() const {
  return {reinterpret_cast<const std::byte*>(score_.data()),
          score_.size() * sizeof(std::int32_t)};
}

}  // namespace phifi::work
