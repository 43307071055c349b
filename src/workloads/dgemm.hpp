// DGEMM: double-precision dense matrix multiply, C += alpha * A x B.
//
// The paper's compute-bound benchmark (Sec. 3.2). Parallelized over rows of
// C across the 228 logical hardware threads. Each worker keeps nine integer
// loop-control variables in its control block — the same "nine loop control
// variables ... each of the 228 threads allocates those nine integers"
// structure whose replicated footprint the paper identifies as the source of
// DGEMM's control-variable criticality (Sec. 6).
#pragma once

#include "util/array_view.hpp"
#include "workloads/common.hpp"

namespace phifi::work {

class Dgemm : public WorkloadBase {
 public:
  explicit Dgemm(std::size_t n = 96, unsigned workers = kKncWorkers);

  void setup(std::uint64_t input_seed) override;
  void run(phi::Device& device, fi::ProgressTracker& progress) override;
  void register_sites(fi::SiteRegistry& registry) override;

  [[nodiscard]] std::span<const std::byte> output_bytes() const override;
  [[nodiscard]] util::Shape output_shape() const override {
    return {.width = n_, .height = n_};
  }
  [[nodiscard]] fi::ElementType output_type() const override {
    return fi::ElementType::kF64;
  }
  [[nodiscard]] std::uint64_t total_steps() const override { return n_; }

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::span<const double> a() const { return a_.span(); }
  [[nodiscard]] std::span<const double> b() const { return b_.span(); }
  [[nodiscard]] std::span<double> c() { return c_.span(); }

 private:
  std::size_t n_;
  util::AlignedBuffer<double> a_;
  util::AlignedBuffer<double> b_;
  util::AlignedBuffer<double> c_;
  double alpha_ = 1.0;
  // Base-pointer variables, re-read from memory each row: corrupting one
  // (as CAROL-FI does when it picks a pointer from the frame) sends the
  // kernel into wild memory — the paper's dominant matrix-fault DUE path.
  const double* ptr_a_ = nullptr;
  const double* ptr_b_ = nullptr;
  double* ptr_c_ = nullptr;

  // The nine per-worker loop-control variables.
  phi::ControlSlot s_i_ = declare_slot("i");
  phi::ControlSlot s_j_ = declare_slot("j");
  phi::ControlSlot s_k_ = declare_slot("k");
  phi::ControlSlot s_row_begin_ = declare_slot("row_begin");
  phi::ControlSlot s_row_end_ = declare_slot("row_end");
  phi::ControlSlot s_n_ = declare_slot("n");
  phi::ControlSlot s_lda_ = declare_slot("lda");
  phi::ControlSlot s_a_row_ = declare_slot("a_row");
  phi::ControlSlot s_c_row_ = declare_slot("c_row");
};

}  // namespace phifi::work
