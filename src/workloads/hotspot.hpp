// HotSpot: iterative thermal simulation of a chip floorplan (Rodinia).
//
// Memory-bound stencil (Sec. 3.2): each iteration updates every cell's
// temperature from its four neighbors, its power draw, and the ambient sink.
// The open-system dissipation is what attenuates injected errors over the
// remaining iterations — the mechanism behind HotSpot's steep FIT-vs-
// tolerance curve (Fig. 3) and its low Single-model SDC PVF (Fig. 5a).
#pragma once

#include "mitigation/dwc.hpp"
#include "util/array_view.hpp"
#include "workloads/common.hpp"

namespace phifi::work {

class HotSpot : public WorkloadBase {
 public:
  /// `hardened` enables the Sec. 6.1 mitigation for HotSpot's critical
  /// portions: TMR on the RC constants plus per-iteration scrubbing
  /// (refresh) of the replicated per-thread control bounds. The TMR copies
  /// are themselves registered as injection sites.
  explicit HotSpot(std::size_t rows = 96, std::size_t cols = 96,
                   unsigned iterations = 48, unsigned workers = kKncWorkers,
                   bool hardened = false);

  void setup(std::uint64_t input_seed) override;
  void run(phi::Device& device, fi::ProgressTracker& progress) override;
  void register_sites(fi::SiteRegistry& registry) override;

  [[nodiscard]] std::span<const std::byte> output_bytes() const override;
  [[nodiscard]] util::Shape output_shape() const override {
    return {.width = cols_, .height = rows_};
  }
  [[nodiscard]] fi::ElementType output_type() const override {
    return fi::ElementType::kF32;
  }
  /// One tick per row per iteration: injections land inside the sweep,
  /// while loop state and the ping-pong pointers are live.
  [[nodiscard]] std::uint64_t total_steps() const override {
    return static_cast<std::uint64_t>(iterations_) * rows_;
  }

  [[nodiscard]] std::span<const float> temperatures() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  unsigned iterations_;
  util::AlignedBuffer<float> temp_[2];  // ping-pong buffers
  util::AlignedBuffer<float> power_;
  unsigned final_buffer_ = 0;

  // Physical constants of the RC thermal model (the paper found HotSpot's
  // constants and control variables to be its critical portions, Sec. 6).
  float rx_inv_ = 0.0f;
  float ry_inv_ = 0.0f;
  float rz_inv_ = 0.0f;
  float step_div_cap_ = 0.0f;
  float amb_temp_ = 0.0f;

  // Ping-pong buffer pointers, swapped each iteration and re-read per row;
  // registered as injection sites like any other frame variable.
  const float* ptr_tin_ = nullptr;
  float* ptr_tout_ = nullptr;
  const float* ptr_power_ = nullptr;

  // Hardening state (used only when hardened_): TMR shadows of the five
  // constants, stored as float bit patterns.
  bool hardened_ = false;
  static constexpr std::size_t kConstantCount = 5;
  mitigation::Tmr<std::uint32_t> shadows_[kConstantCount];

  void write_worker_bounds(phi::Device& device);
  void scrub_constants();
  float* constant_by_index(std::size_t index);

  phi::ControlSlot s_row_ = declare_slot("row");
  phi::ControlSlot s_col_ = declare_slot("col");
  phi::ControlSlot s_row_begin_ = declare_slot("row_begin");
  phi::ControlSlot s_row_end_ = declare_slot("row_end");
  phi::ControlSlot s_ncols_ = declare_slot("ncols");
  phi::ControlSlot s_nrows_ = declare_slot("nrows");
  phi::ControlSlot s_idx_ = declare_slot("idx");
};

}  // namespace phifi::work
