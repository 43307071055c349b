// Parent/child result channel for forked fault-injection trials.
//
// The supervisor forks each trial so crashes and hangs (DUEs) cannot poison
// the campaign process. The child reports the injection record, its
// verdict and, for an SDC, the summary of its corrupted output through an
// anonymous shared mmap created before the fork; the parent reads it after
// reaping the child. No output bytes cross. A record-ready flag is set
// *before* the fault is applied so that even a trial that crashes
// microseconds after the flip still tells the parent what was corrupted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/flip_engine.hpp"
#include "core/sdc_summary.hpp"

namespace phifi::fi {

/// Layout of the anonymous shared mapping the supervisor and the forked
/// trial communicate through. Namespace-scope (not a private nested type)
/// so the phicheck-generated layout asserts can name it; nothing outside
/// SharedChannel should touch it.
// phicheck:shm-pod phifi::fi::ShmHeader size=272 atomic
struct ShmHeader {
  std::atomic<std::uint32_t> record_ready;
  // Child-side classification verdict: set once the trial child compared
  // its output against the shared golden mapping (and, on a mismatch,
  // summarized it into the sdc_* fields).
  std::atomic<std::uint32_t> verdict_ready;
  std::atomic<std::uint64_t> heartbeat;
  InjectionRecord record;
  // ---- fork-server fields ----
  // Template-side completion: the template reaped its grandchild and
  // published the wait status (the campaign parent cannot waitpid a
  // grandchild).
  std::atomic<std::uint32_t> status_ready;
  // Parent->template command handshake: the command fields below are
  // published under cmd_ready before the wake byte is written to the pipe.
  std::atomic<std::uint32_t> cmd_ready;
  // Grandchild pid, published by the template right after its fork so the
  // watchdog can signal the trial process directly.
  std::atomic<std::int32_t> child_pid;
  std::uint32_t verdict;       ///< 1 = output matches golden (Masked)
  std::int32_t child_status;   ///< grandchild waitpid status
  std::uint32_t trial_valid;   ///< command carries an injected-trial config
  std::uint32_t trial_model;
  std::uint32_t trial_policy;
  std::uint32_t trial_burst;
  // The SDC summary (SdcSummary), written before verdict_ready.
  std::uint32_t sdc_pattern;
  std::uint64_t sdc_mismatched;
  double sdc_max_relative_error;
  std::uint64_t trial_seed;
  double trial_earliest;
  double trial_latest;
  /// One-time cost of the template before it serves its first trial:
  /// workload setup plus the run-ahead that parks its checkpoints. Written
  /// once by the template, never cleared by reset().
  double template_setup_seconds;
  // ---- per-trial phase timing (latency anatomy profiler) ----
  // Written by the trial child before it exits, cleared by reset(): how
  // much of the child's wall-clock went to flip arming and to in-child
  // classification. The campaign subtracts these from the reap interval
  // to isolate the run.
  double inject_seconds;
  double classify_seconds;
};

/// Mirror of the supervisor's TrialConfig for the template command block
/// (the channel layer deliberately knows nothing about supervisor types).
struct TrialCommand {
  bool injected = false;  ///< false = clean (golden-comparison) trial
  std::uint64_t trial_seed = 0;
  std::uint32_t model = 0;
  std::uint32_t policy = 0;
  std::uint32_t burst = 1;
  double earliest_fraction = 0.0;
  double latest_fraction = 0.0;
};

class SharedChannel {
 public:
  SharedChannel();
  ~SharedChannel();

  SharedChannel(const SharedChannel&) = delete;
  SharedChannel& operator=(const SharedChannel&) = delete;

  /// Parent: clears all flags before forking the next trial.
  void reset();

  // ---- child side ----

  /// Publishes (or re-publishes) the injection record.
  void store_record(const InjectionRecord& record);

  /// Bumps the liveness heartbeat by `pulses`. The child calls this as it
  /// crosses execution-time windows (a trial resumed from a checkpoint
  /// first credits the pulses of the prefix it skipped); the watchdog
  /// reads it to tell a slow-but-alive child from a hung one.
  void beat(std::uint64_t pulses = 1);

  /// Publishes how the child's own wall-clock decomposed: flip arming and
  /// in-child classification, in seconds. Plain stores — the parent reads
  /// them only after reaping, and zeros (never written) are valid.
  void store_trial_timing(double inject_seconds, double classify_seconds);

  /// Publishes the child-side classification verdict with the summary of
  /// a mismatching output (zeros for a match); the summary lands first, so
  /// a parent that sees the verdict sees its summary.
  void store_verdict(bool matches_golden, const SdcSummary& sdc);

  // ---- template (fork-server) side ----

  /// Reads the trial command published by store_command(). Called after
  /// the wake byte arrives on the command pipe.
  [[nodiscard]] TrialCommand load_command() const;

  /// Publishes the freshly forked grandchild's pid for the watchdog.
  void publish_child(std::int32_t pid);

  /// Publishes the grandchild's reaped wait status; this is the parent's
  /// completion signal for template-mode trials.
  void publish_status(std::int32_t status);

  /// Records the template's one-time setup and run-ahead cost (never
  /// cleared by reset(); written before the first publish_status()).
  void store_template_setup_seconds(double seconds);

  // ---- parent side ----

  /// Publishes the next trial command for the template, then returns;
  /// the caller wakes the template through the command pipe.
  void store_command(const TrialCommand& command);

  [[nodiscard]] bool verdict_ready() const;
  /// Valid only when verdict_ready(): did the output match the golden?
  [[nodiscard]] bool verdict_matches() const;
  /// Valid only when verdict_ready(): the mismatching output's summary.
  [[nodiscard]] SdcSummary sdc_summary() const;
  [[nodiscard]] bool status_ready() const;
  [[nodiscard]] std::int32_t child_status() const;
  [[nodiscard]] std::int32_t child_pid() const;
  [[nodiscard]] double template_setup_seconds() const;
  /// Child-reported phase timing, valid after reap; zero if never stored.
  [[nodiscard]] double trial_inject_seconds() const;
  [[nodiscard]] double trial_classify_seconds() const;

  [[nodiscard]] std::uint64_t heartbeat() const;
  [[nodiscard]] bool record_ready() const;
  [[nodiscard]] InjectionRecord record() const;

 private:
  ShmHeader* header_ = nullptr;
};

}  // namespace phifi::fi
