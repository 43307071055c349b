// The contract between the fault-injection framework and a benchmark.
//
// A Workload owns its inputs, outputs and scratch memory; the supervisor
// calls setup() and register_sites() once per fork-server template, and
// run() once per trial (in a grandchild forked from the post-setup image). Outputs are exposed as raw bytes plus a logical shape and
// element type so the analysis layer can diff, classify spatial patterns,
// and compute relative errors without knowing the algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "core/injection_site.hpp"
#include "core/progress.hpp"
#include "phi/device.hpp"
#include "util/array_view.hpp"

namespace phifi::fi {

/// Element type of a workload's output array, for typed comparison.
enum class ElementType { kF32, kF64, kI32, kI64 };

constexpr std::size_t element_size(ElementType type) {
  switch (type) {
    case ElementType::kF32: return 4;
    case ElementType::kF64: return 8;
    case ElementType::kI32: return 4;
    case ElementType::kI64: return 8;
  }
  return 0;
}

constexpr std::string_view to_string(ElementType type) {
  switch (type) {
    case ElementType::kF32: return "f32";
    case ElementType::kF64: return "f64";
    case ElementType::kI32: return "i32";
    case ElementType::kI64: return "i64";
  }
  return "?";
}

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Allocates state and deterministically generates inputs from the seed.
  virtual void setup(std::uint64_t input_seed) = 0;

  /// Runs the benchmark on the device, ticking `progress` as it goes.
  /// Must be deterministic given setup(): two fault-free runs produce
  /// bit-identical output_bytes(). How far a run got is what the ticks
  /// say: the supervisor turns them into heartbeats, which the journal
  /// records per trial.
  virtual void run(phi::Device& device, ProgressTracker& progress) = 0;

  /// Registers every corruptible variable, and as state
  /// (SiteRegistry::add_state) any other mutable memory a later step of
  /// run() reads: a trial whose sites, state and output equal the golden
  /// run's at a progress point is cut Masked there. Called after setup();
  /// pointers must stay valid until the workload is destroyed.
  virtual void register_sites(SiteRegistry& registry) = 0;

  [[nodiscard]] virtual std::span<const std::byte> output_bytes() const = 0;
  [[nodiscard]] virtual util::Shape output_shape() const = 0;
  [[nodiscard]] virtual ElementType output_type() const = 0;

  /// Number of equal execution-time windows the paper splits this benchmark
  /// into (Fig. 6): CLAMR 9, DGEMM/HotSpot 5, LUD/NW 4.
  [[nodiscard]] virtual unsigned time_windows() const = 0;

  /// Total progress steps run() will tick (the denominator for fraction()).
  [[nodiscard]] virtual std::uint64_t total_steps() const = 0;

  [[nodiscard]] std::size_t output_element_count() const {
    return output_bytes().size() / element_size(output_type());
  }
};

/// Factory used by the supervisor to build a fresh workload for the golden
/// run and in each template process. Must be callable repeatedly and
/// deterministic.
using WorkloadFactory = std::unique_ptr<Workload> (*)();

}  // namespace phifi::fi
