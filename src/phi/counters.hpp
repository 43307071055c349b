// Device performance counters.
//
// The paper characterizes benchmarks by arithmetic intensity (HotSpot is
// memory-bound, DGEMM compute-bound, Sec. 3.2/4.2) and uses that to explain
// FIT differences. Kernels report flops and bytes so the analysis layer can
// compute intensity. Kernels run on the device's calling thread, so the
// counters are plain integers.
#pragma once

#include <cstdint>

namespace phifi::phi {

struct CounterSnapshot {
  std::uint64_t flops = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t logical_threads_run = 0;

  /// Total memory traffic (read + write), the denominator of intensity.
  [[nodiscard]] std::uint64_t bytes_total() const {
    return bytes_read + bytes_written;
  }

  /// Flops per byte moved; 0 when no traffic was recorded.
  [[nodiscard]] double arithmetic_intensity() const {
    const std::uint64_t traffic = bytes_total();
    return traffic == 0 ? 0.0
                        : static_cast<double>(flops) /
                              static_cast<double>(traffic);
  }
};

class Counters {
 public:
  void add_flops(std::uint64_t n) { totals_.flops += n; }
  void add_bytes_read(std::uint64_t n) { totals_.bytes_read += n; }
  void add_bytes_written(std::uint64_t n) { totals_.bytes_written += n; }
  void add_kernel_launch() { ++totals_.kernel_launches; }
  void add_logical_threads(std::uint64_t n) {
    totals_.logical_threads_run += n;
  }

  void reset() { totals_ = {}; }

  [[nodiscard]] CounterSnapshot snapshot() const { return totals_; }

 private:
  CounterSnapshot totals_;
};

}  // namespace phifi::phi
