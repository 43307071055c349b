#include "workloads/hotspot.hpp"

#include "util/bits.hpp"

namespace phifi::work {

HotSpot::HotSpot(std::size_t rows, std::size_t cols, unsigned iterations,
                 unsigned workers, bool hardened)
    : WorkloadBase(hardened ? "HotSpot+DWC" : "HotSpot", /*time_windows=*/5,
                   workers),
      rows_(rows),
      cols_(cols),
      iterations_(iterations),
      hardened_(hardened) {}

float* HotSpot::constant_by_index(std::size_t index) {
  float* constants[kConstantCount] = {&rx_inv_, &ry_inv_, &rz_inv_,
                                      &step_div_cap_, &amb_temp_};
  return constants[index];
}

void HotSpot::scrub_constants() {
  // TMR vote per constant; a corrupted live value (or one corrupted shadow
  // copy) is repaired. Three-way shadow disagreement is unrecoverable and
  // becomes a detected error (clean abort -> DUE).
  for (std::size_t i = 0; i < kConstantCount; ++i) {
    const std::uint32_t good = shadows_[i].get();  // throws on 3-way split
    float* live = constant_by_index(i);
    if (util::float_bits(*live) != good) {
      *live = util::bits_to_float(good);
    }
  }
}

void HotSpot::write_worker_bounds(phi::Device& device) {
  device.launch(workers(), [&](phi::WorkerCtx& ctx) {
    phi::ControlBlock& cb = control(ctx.worker);
    const auto [begin, end] =
        phi::Device::partition(rows_, ctx.worker, ctx.num_workers);
    cb.set(s_row_begin_, static_cast<std::int64_t>(begin));
    cb.set(s_row_end_, static_cast<std::int64_t>(end));
    cb.set(s_ncols_, static_cast<std::int64_t>(cols_));
    cb.set(s_nrows_, static_cast<std::int64_t>(rows_));
  });
}

void HotSpot::setup(std::uint64_t input_seed) {
  util::Rng rng(input_seed ^ 0x407590);
  temp_[0].resize(rows_ * cols_);
  temp_[1].resize(rows_ * cols_);
  power_.resize(rows_ * cols_);
  for (std::size_t i = 0; i < rows_ * cols_; ++i) {
    temp_[0][i] = 323.0f + static_cast<float>(rng.uniform(0.0, 1.0));
    power_[i] = static_cast<float>(rng.uniform(0.0, 0.5));
  }
  // Normalized RC constants (step/Cap folded to 1). Chosen so the explicit
  // update is stable: step_div_cap * (2*rx_inv + 2*ry_inv + rz_inv) < 1.
  // Only the relative magnitudes matter for the error-attenuation behaviour
  // the paper analyses (lateral diffusion ~4x stronger than the vertical
  // sink, as in the Rodinia constants).
  rx_inv_ = 0.1f;
  ry_inv_ = 0.1f;
  rz_inv_ = 0.05f;
  step_div_cap_ = 1.0f;
  amb_temp_ = 80.0f;
  final_buffer_ = iterations_ % 2;
  ptr_tin_ = temp_[0].data();
  ptr_tout_ = temp_[1].data();
  ptr_power_ = power_.data();
  if (hardened_) {
    for (std::size_t i = 0; i < kConstantCount; ++i) {
      shadows_[i].set(util::float_bits(*constant_by_index(i)));
    }
  }
  reset_control();
}

void HotSpot::run(phi::Device& device, fi::ProgressTracker& progress) {
  // Constants and buffer pointers re-read through volatile glvalues every
  // row so a corrupted constant or pointer poisons all subsequently
  // computed cells.
  const float* const volatile* ptin = &ptr_tin_;
  float* const volatile* ptout = &ptr_tout_;
  const float* const volatile* ppower = &ptr_power_;
  const volatile float* rx_inv = &rx_inv_;
  const volatile float* ry_inv = &ry_inv_;
  const volatile float* rz_inv = &rz_inv_;
  const volatile float* step_div_cap = &step_div_cap_;
  const volatile float* amb = &amb_temp_;

  // Prologue: the row partition and grid dimensions are loop-invariant
  // across all iterations, so each hardware thread's copies are written
  // once and stay live (= corruptible) for the whole run, as on the card.
  // The hardened variant deliberately removes that exposure by refreshing
  // (scrubbing) the bounds at every iteration.
  write_worker_bounds(device);

  for (unsigned iter = 0; iter < iterations_; ++iter) {
    if (hardened_) {
      scrub_constants();
      if (iter != 0) write_worker_bounds(device);
    }
    ptr_tin_ = temp_[iter % 2].data();
    ptr_tout_ = temp_[(iter + 1) % 2].data();

    device.launch(workers(), [&](phi::WorkerCtx& ctx) {
      phi::ControlBlock& cb = control(ctx.worker);
      for (cb.set(s_row_, cb.get(s_row_begin_));
           cb.get(s_row_) < cb.get(s_row_end_); cb.add(s_row_, 1)) {
        const std::int64_t r = cb.get(s_row_);
        const float* tin = *ptin;
        float* tout = *ptout;
        const float* power = *ppower;
        const std::int64_t nc = cb.get(s_ncols_);
        const std::int64_t nr = cb.get(s_nrows_);
        const float k_rx = *rx_inv;
        const float k_ry = *ry_inv;
        const float k_rz = *rz_inv;
        const float k_step = *step_div_cap;
        const float k_amb = *amb;
        for (cb.set(s_col_, 0); cb.get(s_col_) < nc; cb.add(s_col_, 1)) {
          const std::int64_t c = cb.get(s_col_);
          cb.set(s_idx_, r * nc + c);
          const std::int64_t idx = cb.get(s_idx_);
          const float t = tin[idx];
          // Edge cells mirror themselves, as in the Rodinia kernel.
          const float t_w = (c > 0) ? tin[idx - 1] : t;
          const float t_e = (c < nc - 1) ? tin[idx + 1] : t;
          const float t_n = (r > 0) ? tin[idx - nc] : t;
          const float t_s = (r < nr - 1) ? tin[idx + nc] : t;
          const float delta =
              k_step * (power[idx] + (t_e + t_w - 2.0f * t) * k_rx +
                        (t_n + t_s - 2.0f * t) * k_ry + (k_amb - t) * k_rz);
          tout[idx] = t + delta;
        }
        ctx.counters->add_flops(12 * static_cast<std::uint64_t>(nc));
        ctx.counters->add_bytes_read(6 * nc * sizeof(float));
        ctx.counters->add_bytes_written(nc * sizeof(float));
        progress.tick();
      }
    });
  }
}

void HotSpot::register_sites(fi::SiteRegistry& registry) {
  registry.add_global_array<float>("temp_a", "matrix", temp_[0].span());
  registry.add_global_array<float>("temp_b", "matrix", temp_[1].span());
  registry.add_global_array<float>("power", "matrix", power_.span());
  registry.add_global_scalar("rx_inv", "constant", rx_inv_);
  registry.add_global_scalar("ry_inv", "constant", ry_inv_);
  registry.add_global_scalar("rz_inv", "constant", rz_inv_);
  registry.add_global_scalar("step_div_cap", "constant", step_div_cap_);
  registry.add_global_scalar("amb_temp", "constant", amb_temp_);
  registry.add_global_scalar("ptr_temp_in", "pointer", ptr_tin_);
  registry.add_global_scalar("ptr_temp_out", "pointer", ptr_tout_);
  registry.add_global_scalar("ptr_power", "pointer", ptr_power_);
  if (hardened_) {
    // The protection state is corruptible program state too.
    registry.add_global(
        "constant_shadows", "constant",
        {reinterpret_cast<std::byte*>(&shadows_[0]),
         sizeof(shadows_)},
        sizeof(std::uint32_t));
  }
  register_control_sites(registry);
}

std::span<const float> HotSpot::temperatures() const {
  return temp_[final_buffer_].span();
}

std::span<const std::byte> HotSpot::output_bytes() const {
  const auto& final_temp = temp_[final_buffer_];
  return {reinterpret_cast<const std::byte*>(final_temp.data()),
          final_temp.size() * sizeof(float)};
}

}  // namespace phifi::work
