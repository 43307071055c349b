#include "core/shared_channel.hpp"

// Generated by phicheck at build time: static_asserts pinning the layout of
// every shm-pod annotated struct (trivially-copyable / standard-layout /
// lock-free atomics / sizeof). Included here so the guards compile into the
// core library exactly once.
#include "core/shm_layout_asserts.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>

namespace phifi::fi {

SharedChannel::SharedChannel(std::size_t output_capacity) {
  capacity_ = output_capacity;
  map_bytes_ = sizeof(ShmHeader) + output_capacity;
  void* mem = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("SharedChannel: mmap failed");
  }
  header_ = new (mem) ShmHeader{};
  payload_ = static_cast<std::byte*>(mem) + sizeof(ShmHeader);
  reset();
}

SharedChannel::~SharedChannel() {
  if (header_ != nullptr) {
    header_->~ShmHeader();
    ::munmap(header_, map_bytes_);
  }
}

void SharedChannel::reset() {
  header_->record_ready.store(0, std::memory_order_relaxed);
  header_->output_ready.store(0, std::memory_order_relaxed);
  header_->heartbeat.store(0, std::memory_order_relaxed);
  header_->output_size = 0;
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
  header_->output_digest = 0;
  header_->trial_valid = 0;
  header_->setup_seconds = 0.0;
  header_->inject_seconds = 0.0;
  header_->classify_seconds = 0.0;
}

void SharedChannel::beat() {
  header_->heartbeat.fetch_add(1, std::memory_order_release);
}

std::uint64_t SharedChannel::heartbeat() const {
  return header_->heartbeat.load(std::memory_order_acquire);
}

void SharedChannel::store_record(const InjectionRecord& record) {
  header_->record = record;
  header_->record_ready.store(1, std::memory_order_release);
}

void SharedChannel::store_output(std::span<const std::byte> output) {
  // A corrupted run can report an output larger than the golden; copying
  // it would run past this mapping into whatever follows (another slot's
  // channel, which every trial child inherits). Its size alone crosses.
  if (output.size() <= capacity_) {
    std::copy(output.begin(), output.end(), payload_);
  }
  header_->output_size = output.size();
  header_->output_ready.store(1, std::memory_order_release);
}

bool SharedChannel::output_ready() const {
  return header_->output_ready.load(std::memory_order_acquire) != 0;
}

bool SharedChannel::record_ready() const {
  return header_->record_ready.load(std::memory_order_acquire) != 0;
}

InjectionRecord SharedChannel::record() const { return header_->record; }

std::span<const std::byte> SharedChannel::output() const {
  // output_size is child-written: past the mapping it returns no bytes.
  const std::uint64_t size = header_->output_size;
  if (size > capacity_) return {};
  return {payload_, size};
}

void SharedChannel::store_verdict(bool matches_golden, std::uint64_t digest) {
  header_->verdict = matches_golden ? 1 : 0;
  header_->output_digest = digest;
  header_->verdict_ready.store(1, std::memory_order_release);
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

void SharedChannel::store_trial_timing(double setup_seconds,
                                       double inject_seconds,
                                       double classify_seconds) {
  header_->setup_seconds = setup_seconds;
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

std::uint64_t SharedChannel::output_digest() const {
  return header_->output_digest;
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

double SharedChannel::trial_setup_seconds() const {
  return header_->setup_seconds;
}

double SharedChannel::trial_inject_seconds() const {
  return header_->inject_seconds;
}

double SharedChannel::trial_classify_seconds() const {
  return header_->classify_seconds;
}

}  // namespace phifi::fi
