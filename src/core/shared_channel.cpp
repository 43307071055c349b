#include "core/shared_channel.hpp"

// Generated by phicheck at build time: static_asserts pinning the layout of
// every shm-pod annotated struct (trivially-copyable / standard-layout /
// lock-free atomics / sizeof). Included here so the guards compile into the
// core library exactly once.
#include "core/shm_layout_asserts.hpp"

#include <sys/mman.h>

#include <new>
#include <stdexcept>

namespace phifi::fi {

SharedChannel::SharedChannel() {
  void* mem = ::mmap(nullptr, sizeof(ShmHeader), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("SharedChannel: mmap failed");
  }
  header_ = new (mem) ShmHeader{};
  reset();
}

SharedChannel::~SharedChannel() {
  if (header_ != nullptr) {
    header_->~ShmHeader();
    ::munmap(header_, sizeof(ShmHeader));
  }
}

void SharedChannel::reset() {
  header_->record_ready.store(0, std::memory_order_relaxed);
  header_->heartbeat.store(0, std::memory_order_relaxed);
  header_->record = InjectionRecord{};
  // Fork-server fields. The template is guaranteed idle here (blocked on
  // the command socket, dead, or not yet spawned), so relaxed stores are a plain
  // parent-side reset, not a cross-process publish. template_setup_seconds
  // deliberately survives: the template writes it once per process.
  header_->verdict_ready.store(0, std::memory_order_relaxed);
  header_->status_ready.store(0, std::memory_order_relaxed);
  header_->cmd_ready.store(0, std::memory_order_relaxed);
  header_->child_pid.store(0, std::memory_order_relaxed);
  header_->verdict = 0;
  header_->child_status = 0;
  header_->sdc_pattern = 0;
  header_->sdc_mismatched = 0;
  header_->sdc_max_relative_error = 0.0;
  header_->trial_valid = 0;
  header_->inject_seconds = 0.0;
  header_->classify_seconds = 0.0;
  header_->converged_at = 0.0;
}

void SharedChannel::beat(std::uint64_t pulses) {
  header_->heartbeat.fetch_add(pulses, std::memory_order_release);
}

std::uint64_t SharedChannel::heartbeat() const {
  return header_->heartbeat.load(std::memory_order_acquire);
}

void SharedChannel::store_record(const InjectionRecord& record) {
  header_->record = record;
  header_->record_ready.store(1, std::memory_order_release);
}

bool SharedChannel::record_ready() const {
  return header_->record_ready.load(std::memory_order_acquire) != 0;
}

InjectionRecord SharedChannel::record() const { return header_->record; }

void SharedChannel::store_verdict(bool matches_golden,
                                  const SdcSummary& sdc) {
  header_->verdict = matches_golden ? 1 : 0;
  header_->sdc_pattern = static_cast<std::uint32_t>(sdc.pattern);
  header_->sdc_mismatched = sdc.mismatched;
  header_->sdc_max_relative_error = sdc.max_relative_error;
  header_->verdict_ready.store(1, std::memory_order_release);
}

void SharedChannel::store_converged_at(double fraction) {
  header_->converged_at = fraction;
}

TrialCommand SharedChannel::load_command() const {
  // The wake byte on the command pipe is written strictly after
  // cmd_ready's release store, so this load normally succeeds first try;
  // the loop covers the theoretical reordering window.
  while (header_->cmd_ready.load(std::memory_order_acquire) == 0) {
  }
  TrialCommand command;
  command.injected = header_->trial_valid != 0;
  command.trial_seed = header_->trial_seed;
  command.model = header_->trial_model;
  command.policy = header_->trial_policy;
  command.burst = header_->trial_burst;
  command.earliest_fraction = header_->trial_earliest;
  command.latest_fraction = header_->trial_latest;
  return command;
}

void SharedChannel::publish_child(std::int32_t pid) {
  header_->child_pid.store(pid, std::memory_order_release);
}

void SharedChannel::publish_status(std::int32_t status) {
  header_->child_status = status;
  header_->status_ready.store(1, std::memory_order_release);
}

void SharedChannel::store_template_setup_seconds(double seconds) {
  header_->template_setup_seconds = seconds;
}

void SharedChannel::store_trial_timing(double inject_seconds,
                                       double classify_seconds) {
  header_->inject_seconds = inject_seconds;
  header_->classify_seconds = classify_seconds;
}

void SharedChannel::store_command(const TrialCommand& command) {
  header_->trial_valid = command.injected ? 1 : 0;
  header_->trial_seed = command.trial_seed;
  header_->trial_model = command.model;
  header_->trial_policy = command.policy;
  header_->trial_burst = command.burst;
  header_->trial_earliest = command.earliest_fraction;
  header_->trial_latest = command.latest_fraction;
  header_->cmd_ready.store(1, std::memory_order_release);
}

bool SharedChannel::verdict_ready() const {
  return header_->verdict_ready.load(std::memory_order_acquire) != 0;
}

bool SharedChannel::verdict_matches() const { return header_->verdict != 0; }

SdcSummary SharedChannel::sdc_summary() const {
  SdcSummary sdc;
  sdc.mismatched = header_->sdc_mismatched;
  sdc.max_relative_error = header_->sdc_max_relative_error;
  // Child-written: a value outside the enum reads as unclassified.
  sdc.pattern = header_->sdc_pattern < static_cast<std::uint32_t>(kPatternCount)
                    ? static_cast<ErrorPattern>(header_->sdc_pattern)
                    : ErrorPattern::kNone;
  return sdc;
}

bool SharedChannel::status_ready() const {
  return header_->status_ready.load(std::memory_order_acquire) != 0;
}

std::int32_t SharedChannel::child_status() const {
  return header_->child_status;
}

std::int32_t SharedChannel::child_pid() const {
  return header_->child_pid.load(std::memory_order_acquire);
}

double SharedChannel::template_setup_seconds() const {
  return header_->template_setup_seconds;
}

double SharedChannel::trial_inject_seconds() const {
  return header_->inject_seconds;
}

double SharedChannel::trial_classify_seconds() const {
  return header_->classify_seconds;
}

double SharedChannel::converged_at() const { return header_->converged_at; }

}  // namespace phifi::fi
