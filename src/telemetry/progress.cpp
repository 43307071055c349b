#include "telemetry/progress.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "telemetry/estimator.hpp"

namespace phifi::telemetry {

namespace {

std::uint64_t counter_value(const MetricsRegistry& registry,
                            const std::string& name) {
  const Counter* counter = registry.find_counter(name);
  return counter == nullptr ? 0 : counter->value();
}

std::string fmt1(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", value);
  return buffer;
}

std::string fmt_eta(double seconds) {
  // "--": not computable yet (no throughput sample), the cold-start case.
  if (!std::isfinite(seconds) || seconds < 0.0) return "--";
  const auto total = static_cast<std::uint64_t>(seconds + 0.5);
  char buffer[32];
  if (total >= 3600) {
    std::snprintf(buffer, sizeof buffer, "%lluh%02llum",
                  static_cast<unsigned long long>(total / 3600),
                  static_cast<unsigned long long>((total % 3600) / 60));
  } else if (total >= 60) {
    std::snprintf(buffer, sizeof buffer, "%llum%02llus",
                  static_cast<unsigned long long>(total / 60),
                  static_cast<unsigned long long>(total % 60));
  } else {
    std::snprintf(buffer, sizeof buffer, "%llus",
                  static_cast<unsigned long long>(total));
  }
  return buffer;
}

}  // namespace

ProgressEmitter::ProgressEmitter(const MetricsRegistry& registry,
                                 std::ostream& out, double interval_seconds)
    : registry_(&registry),
      out_(&out),
      interval_seconds_(interval_seconds),
      start_(Clock::now()),
      last_emit_(start_),
      last_sample_(start_) {}

void ProgressEmitter::set_estimator(const CampaignEstimator* estimator,
                                    double target_half_width) {
  estimator_ = estimator;
  target_half_width_ = target_half_width;
}

std::string ProgressEmitter::render() const {
  const std::uint64_t completed =
      counter_value(*registry_, "campaign.completed");
  const std::uint64_t target = static_cast<std::uint64_t>(
      registry_->find_gauge("campaign.trials_target") != nullptr
          ? registry_->find_gauge("campaign.trials_target")->value()
          : 0.0);
  const std::uint64_t masked = counter_value(*registry_, "campaign.masked");
  const std::uint64_t sdc = counter_value(*registry_, "campaign.sdc");
  const std::uint64_t due = counter_value(*registry_, "campaign.due");
  const std::uint64_t total = masked + sdc + due;

  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start_).count();
  const double rate =
      elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
  const double remaining =
      target > completed ? static_cast<double>(target - completed) : 0.0;
  const double eta_seconds = rate > 0.0 ? remaining / rate : -1.0;

  const auto percent = [total](std::uint64_t n) {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(n) /
                            static_cast<double>(total);
  };

  std::string line = "[progress] " + std::to_string(completed) + "/" +
                     std::to_string(target) + " trials, " + fmt1(rate) +
                     "/s, ETA " + fmt_eta(eta_seconds);

  // Fabric (coordinator) view: the campaign.* counters are the fleet fold,
  // fed exactly as a local run's commit point feeds them, so the rate and
  // ETA above are fabric-wide trials/s — this just makes the fan-out
  // visible.
  const Gauge* workers_live = registry_->find_gauge("fabric.workers_live");
  if (workers_live != nullptr) {
    const Gauge* leased = registry_->find_gauge("fabric.leases_outstanding");
    line += " | workers: " +
            std::to_string(
                static_cast<std::uint64_t>(workers_live->value())) +
            " live / " +
            std::to_string(static_cast<std::uint64_t>(
                leased != nullptr ? leased->value() : 0.0)) +
            " leased";
  }

  if (completed == 0 || total == 0) {
    // Cold start: nothing completed yet (or the registry has no campaign
    // counters at all) — an all-zero outcome split would be misleading.
    return line + " | waiting for first completed trial";
  }
  line += " | masked " + fmt1(percent(masked)) + "% sdc " +
          fmt1(percent(sdc)) + "% due " + fmt1(percent(due)) + "%";

  // Live estimate: SDC proportion with its Wilson half-width, and — when
  // chasing a target precision — the projected trials/time to reach it.
  if (estimator_ != nullptr && estimator_->total() > 0) {
    const util::Interval sdc_ci = estimator_->sdc_interval();
    line += " | sdc " + fmt1(100.0 * sdc_ci.point) + "% ±" +
            fmt1(100.0 * sdc_ci.half_width());
    if (target_half_width_ > 0.0) {
      const std::uint64_t more =
          estimator_->trials_to_half_width(target_half_width_);
      line += " | ETA to ±" + fmt1(100.0 * target_half_width_) + "%: ";
      if (more == 0) {
        line += "reached";
      } else {
        line += std::to_string(more) + " trials";
        if (rate > 0.0) {
          line +=
              " (~" + fmt_eta(static_cast<double>(more) / rate) + ")";
        }
      }
    }
  }

  // DUE-kind breakdown, only for kinds actually seen.
  static const char* kKinds[] = {"crash", "abnormal-exit", "hang",
                                 "rlimit", "stall"};
  std::string kinds;
  for (const char* kind : kKinds) {
    const std::uint64_t n =
        counter_value(*registry_, std::string("campaign.due.") + kind);
    if (n == 0) continue;
    if (!kinds.empty()) kinds += " ";
    kinds += std::string(kind) + ":" + std::to_string(n);
  }
  if (!kinds.empty()) line += " (" + kinds + ")";
  return line;
}

void ProgressEmitter::tick() {
  const auto now = Clock::now();
  if (std::chrono::duration<double>(now - last_emit_).count() <
      interval_seconds_) {
    return;
  }
  last_emit_ = now;
  emit_now();
}

void ProgressEmitter::emit_now() {
  *out_ << render() << std::endl;  // flush: progress must be visible live
  ++emitted_;
}

}  // namespace phifi::telemetry
