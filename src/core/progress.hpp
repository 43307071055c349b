// Execution-progress tracking, the injection trigger.
//
// CAROL-FI interrupts the program after a random delay: GDB stops the
// world, the Flip-script corrupts one variable, execution resumes. This
// reproduction triggers on *execution progress* instead: the workload ticks
// a step counter as it runs, and the tick that crosses a uniformly sampled
// target fraction fires the armed injection hook synchronously on the
// ticking thread. Same distribution of injection times, exact time-window
// bookkeeping (Fig. 6), and no dependence on thread-scheduling latency —
// which matters both for determinism and because a campaign forks thousands
// of children on a possibly oversubscribed host. The same ticks drive the
// heartbeat pulse, so a trial's journaled heartbeat count says how far its
// run got.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

namespace phifi::fi {

class ProgressTracker {
 public:
  /// Hook invoked once, on the ticking thread, when progress first reaches
  /// the armed fraction. Receives the fraction at the crossing tick.
  using InjectionHook = std::function<void(double)>;

  /// Hook invoked each time progress crosses another 1/divisions of the run
  /// (the supervisor uses it to bump the shared-channel heartbeat). May fire
  /// more than once per division under concurrent ticking; callees must
  /// treat it as a monotone liveness pulse, not an exact counter.
  using PulseHook = std::function<void()>;

  void reset(std::uint64_t total_steps) {
    total_.store(total_steps, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    finished_.store(false, std::memory_order_relaxed);
    fired_.store(false, std::memory_order_relaxed);
    armed_ = false;
    hook_ = nullptr;
    pulse_divisions_ = 0;
    pulse_done_.store(0, std::memory_order_relaxed);
    pulse_ = nullptr;
  }

  /// Arms the one-shot injection hook. Call before run(), never during.
  void arm(double target_fraction, InjectionHook hook) {
    target_ = target_fraction;
    hook_ = std::move(hook);
    armed_ = true;
  }

  /// Arms the repeating pulse hook: fires whenever progress enters a new
  /// 1/divisions slice of the run. Call before run(); divisions == 0
  /// disables pulsing.
  void set_pulse(unsigned divisions, PulseHook pulse) {
    pulse_divisions_ = divisions;
    pulse_ = std::move(pulse);
    pulse_done_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] bool fired() const {
    return fired_.load(std::memory_order_acquire);
  }

  /// Called by the workload as it completes steps; safe from any thread.
  void tick(std::uint64_t steps = 1) {
    const std::uint64_t done =
        done_.fetch_add(steps, std::memory_order_relaxed) + steps;
    if (!armed_ && pulse_divisions_ == 0) return;
    const std::uint64_t total = total_.load(std::memory_order_relaxed);
    if (total == 0) return;
    const double fraction =
        static_cast<double>(done) / static_cast<double>(total);
    if (pulse_divisions_ != 0) {
      const std::uint64_t slice =
          static_cast<std::uint64_t>(fraction * pulse_divisions_);
      if (slice > pulse_done_.load(std::memory_order_relaxed)) {
        pulse_done_.store(slice, std::memory_order_relaxed);
        pulse_();
      }
    }
    if (armed_ && fraction >= target_ &&
        !fired_.exchange(true, std::memory_order_acq_rel)) {
      hook_(fraction > 1.0 ? 1.0 : fraction);
    }
  }

  /// Marks the run complete. If the armed hook has not fired (a target of
  /// ~1.0 can land after the last tick), it fires here so every trial
  /// injects — CAROL-FI's equivalent is an interrupt landing between the
  /// final computation and the output check.
  void finish() {
    finished_.store(true, std::memory_order_release);
    if (armed_ && !fired_.exchange(true, std::memory_order_acq_rel)) {
      hook_(1.0);
    }
  }

  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  [[nodiscard]] double fraction() const {
    const std::uint64_t total = total_.load(std::memory_order_relaxed);
    if (total == 0) return 0.0;
    const std::uint64_t done = done_.load(std::memory_order_relaxed);
    const double f = static_cast<double>(done) / static_cast<double>(total);
    return f > 1.0 ? 1.0 : f;
  }

 private:
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> finished_{false};
  std::atomic<bool> fired_{false};
  bool armed_ = false;
  double target_ = 1.0;
  InjectionHook hook_;
  unsigned pulse_divisions_ = 0;
  std::atomic<std::uint64_t> pulse_done_{0};
  PulseHook pulse_;
};

}  // namespace phifi::fi
