// A tiny, controllable workload for exercising the supervisor machinery:
// configurable to run cleanly, crash, hang, or throw mid-execution.
//
// Misbehaving modes only act from the second run() onwards within a
// process tree: the first run is the supervisor's in-process golden
// execution, which must stay clean. Templates and their trial grandchildren
// inherit the incremented counter and therefore misbehave. Call
// reset_run_counter() before each prepare_golden().
#pragma once

#include <csignal>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/workload_api.hpp"
#include "util/array_view.hpp"

namespace phifi::testing {

class ToyWorkload : public fi::Workload {
 public:
  enum class Mode {
    kNormal,
    kCrash,
    kHang,
    kThrow,
    /// Ignores SIGTERM then hangs — exercises the SIGTERM→SIGKILL
    /// escalation path of the watchdog.
    kHangIgnoreTerm,
    /// Allocates without bound — exercises the address-space rlimit path.
    kBloat,
    /// Runs far slower than the golden run but keeps ticking — exercises
    /// the heartbeat "slow but alive" deadline extension.
    kSlow,
    /// Finishes with an output 1024x the golden size — exercises the shm
    /// channel's capacity bound.
    kOversize,
  };

  explicit ToyWorkload(Mode mode = Mode::kNormal, unsigned steps = 600)
      : mode_(mode), steps_(steps) {}

  static void reset_run_counter() { global_runs_.store(0); }

  [[nodiscard]] std::string_view name() const override { return "Toy"; }

  void setup(std::uint64_t input_seed) override {
    out_.assign(64, 0.0);
    scale_ = 1.0 + static_cast<double>(input_seed % 7);
  }

  void run(phi::Device&, fi::ProgressTracker& progress) override {
    const bool golden_run = global_runs_.fetch_add(1) == 0;
    const volatile double* scale = &scale_;
    for (unsigned step = 0; step < steps_; ++step) {
      if (!golden_run && step == steps_ / 2) misbehave();
      if (!golden_run && mode_ == Mode::kSlow) {
        // Much slower than the golden run, but still ticking: the heartbeat
        // should keep the watchdog from killing this child.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // ~10us of busy work per step so the flip thread has time to fire.
      volatile double sink = 0.0;
      for (int i = 0; i < 2000; ++i) {
        sink = sink + 1.0;
      }
      out_[step % out_.size()] += *scale * static_cast<double>(step % 13);
      progress.tick();
    }
    // Grown only here: the last tick reached fraction 1, so the flip has
    // fired and the registered span over out_ is no longer written.
    if (!golden_run && mode_ == Mode::kOversize) {
      out_.resize(out_.size() * 1024);
    }
  }

  void register_sites(fi::SiteRegistry& registry) override {
    registry.add_global_array<double>("toy_output", "data",
                                      std::span<double>(out_));
    registry.add_global_scalar("scale", "constant", scale_);
  }

  [[nodiscard]] std::span<const std::byte> output_bytes() const override {
    return {reinterpret_cast<const std::byte*>(out_.data()),
            out_.size() * sizeof(double)};
  }
  [[nodiscard]] util::Shape output_shape() const override {
    return {.width = 8, .height = 8};
  }
  [[nodiscard]] fi::ElementType output_type() const override {
    return fi::ElementType::kF64;
  }
  [[nodiscard]] unsigned time_windows() const override { return 4; }
  [[nodiscard]] std::uint64_t total_steps() const override { return steps_; }

 private:
  void misbehave() {
    switch (mode_) {
      case Mode::kNormal:
        return;
      case Mode::kCrash: {
        volatile int* null_ptr = nullptr;
        *null_ptr = 1;  // SIGSEGV
        return;
      }
      case Mode::kHang: {
        volatile bool forever = true;
        while (forever) {
        }
        return;
      }
      case Mode::kThrow:
        throw std::runtime_error("toy failure");
      case Mode::kHangIgnoreTerm: {
        std::signal(SIGTERM, SIG_IGN);
        volatile bool forever = true;
        while (forever) {
        }
        return;
      }
      case Mode::kBloat: {
        // Keep every chunk referenced so the optimizer cannot elide the
        // allocations; the vector leaks, but the child is about to die.
        static std::vector<char*> hoard;
        for (;;) {
          constexpr std::size_t kChunk = 32u << 20;
          char* chunk = new char[kChunk];
          std::memset(chunk, 0x5a, kChunk);
          hoard.push_back(chunk);
        }
        return;
      }
      case Mode::kSlow:
      case Mode::kOversize:
        return;  // handled in run()
    }
  }

  static inline std::atomic<int> global_runs_{0};

  Mode mode_;
  unsigned steps_;
  std::vector<double> out_;
  double scale_ = 1.0;
};

inline std::unique_ptr<fi::Workload> make_toy_normal() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kNormal);
}
inline std::unique_ptr<fi::Workload> make_toy_crash() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kCrash);
}
inline std::unique_ptr<fi::Workload> make_toy_hang() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kHang);
}
inline std::unique_ptr<fi::Workload> make_toy_throw() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kThrow);
}
inline std::unique_ptr<fi::Workload> make_toy_hang_ignore_term() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kHangIgnoreTerm);
}
inline std::unique_ptr<fi::Workload> make_toy_bloat() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kBloat);
}
inline std::unique_ptr<fi::Workload> make_toy_oversize() {
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kOversize);
}
inline std::unique_ptr<fi::Workload> make_toy_slow() {
  // Fewer steps so the 1ms-per-step slowed run stays ~0.3s.
  return std::make_unique<ToyWorkload>(ToyWorkload::Mode::kSlow, 300);
}

/// Supervisor config tuned for fast unit tests.
inline fi::SupervisorConfig toy_supervisor_config() {
  fi::SupervisorConfig config;
  config.device_os_threads = 1;
  config.device_spec = phi::DeviceSpec::test_device();
  config.min_timeout_seconds = 0.5;
  config.timeout_factor = 30.0;
  return config;
}

}  // namespace phifi::testing
