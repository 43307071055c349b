#include "phi/device.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <stdexcept>

namespace phifi::phi {

Device::Device(DeviceSpec spec, unsigned os_threads)
    : spec_(std::move(spec)), control_blocks_(spec_.hardware_threads()) {
  if (os_threads != 1) {
    throw std::invalid_argument(
        "phi::Device: kernels run on the calling thread (os_threads must be "
        "1)");
  }
}

ControlBlock& Device::control_block(unsigned worker) {
  assert(worker < control_blocks_.size());
  return control_blocks_[worker];
}

void Device::launch(unsigned workers,
                    const std::function<void(WorkerCtx&)>& body) {
  assert(workers <= spec_.hardware_threads());
  counters_.add_kernel_launch();
  counters_.add_logical_threads(workers);
  std::exception_ptr first_error;
  for (unsigned worker = 0; worker < workers; ++worker) {
    WorkerCtx ctx{.worker = worker,
                  .num_workers = workers,
                  .ctl = &control_blocks_[worker],
                  .counters = &counters_};
    try {
      body(ctx);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void Device::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, WorkerCtx&)>& body) {
  const unsigned workers = spec_.hardware_threads();
  launch(workers, [count, workers, &body](WorkerCtx& ctx) {
    const auto [begin, end] = partition(count, ctx.worker, workers);
    if (begin < end) body(begin, end, ctx);
  });
}

std::pair<std::size_t, std::size_t> Device::partition(std::size_t count,
                                                      unsigned worker,
                                                      unsigned workers) {
  assert(workers > 0 && worker < workers);
  const std::size_t base = count / workers;
  const std::size_t extra = count % workers;
  const std::size_t begin = static_cast<std::size_t>(worker) * base +
                            std::min<std::size_t>(worker, extra);
  const std::size_t len = base + (worker < extra ? 1 : 0);
  return {begin, begin + len};
}

}  // namespace phifi::phi
