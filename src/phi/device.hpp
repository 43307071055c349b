// Offload-style execution runtime emulating a many-thread coprocessor.
//
// The Knights Corner card runs kernels across up to 228 hardware threads.
// Reproducing the paper's reliability mechanisms does not require cycle
// accuracy; it requires the *software structure* of such a device:
//   * many logical hardware threads, each with private control state
//     (ControlBlock) that is replicated per thread and corruptible;
//   * shared arrays in device memory that all threads read/write;
//   * bulk-synchronous kernel launches.
// A launch runs its logical hardware threads one after another, in worker
// order, on the calling thread. That preserves all of the above, keeps a
// fault-injection trial cheap enough to run thousands of times, and makes
// a run single-threaded: a checkpoint fork keeps the whole run, and the
// injection fires on the one thread that crosses its target.
//
// Restriction: a kernel body must not synchronize across logical workers
// (they run sequentially). Express phases as separate launches, as offload
// programming models do.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "phi/control_block.hpp"
#include "phi/counters.hpp"
#include "phi/device_spec.hpp"

namespace phifi::phi {

class Device;

/// Everything a kernel body sees about the logical thread it runs on.
struct WorkerCtx {
  unsigned worker = 0;       ///< logical hardware-thread id
  unsigned num_workers = 1;  ///< logical threads in this launch
  ControlBlock* ctl = nullptr;
  Counters* counters = nullptr;

  [[nodiscard]] ControlBlock& control() const { return *ctl; }
};

class Device {
 public:
  /// Creates a device. Kernels run on the calling thread: `os_threads`
  /// must be 1 (std::invalid_argument otherwise); the parameter stays for
  /// callers that pass a configured thread count.
  explicit Device(DeviceSpec spec = DeviceSpec::knights_corner_3120a(),
                  unsigned os_threads = 1);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] Counters& counters() { return counters_; }

  /// Per-logical-thread control block; valid for
  /// worker < spec().hardware_threads().
  [[nodiscard]] ControlBlock& control_block(unsigned worker);

  /// Runs `body` once per logical worker in [0, workers), in worker order,
  /// on the calling thread. Bulk-synchronous: returns after every logical
  /// worker finished. A worker's exception does not stop the others; the
  /// first one is rethrown once all have run.
  void launch(unsigned workers, const std::function<void(WorkerCtx&)>& body);

  /// Block-partitions [0, count) across all hardware threads and invokes
  /// body(begin, end, ctx) per logical worker with a non-empty range.
  void parallel_for(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t, WorkerCtx&)>& body);

  /// Contiguous chunk of [0,count) owned by `worker` of `workers`.
  static std::pair<std::size_t, std::size_t> partition(std::size_t count,
                                                       unsigned worker,
                                                       unsigned workers);

 private:
  DeviceSpec spec_;
  Counters counters_;
  std::vector<ControlBlock> control_blocks_;
};

}  // namespace phifi::phi
