// Parent/child result channel for forked fault-injection trials.
//
// The supervisor forks each trial so crashes and hangs (DUEs) cannot poison
// the campaign process. The child reports the injection record and the
// program output through an anonymous shared mmap created before the fork;
// the parent reads it after reaping the child. A record-ready flag is set
// *before* the fault is applied so that even a trial that crashes
// microseconds after the flip still tells the parent what was corrupted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/flip_engine.hpp"

namespace phifi::fi {

/// Layout of the anonymous shared mapping the supervisor and the forked
/// trial communicate through. Namespace-scope (not a private nested type)
/// so the phicheck-generated layout asserts can name it; nothing outside
/// SharedChannel should touch it.
// phicheck:shm-pod phifi::fi::ShmHeader size=280 atomic
struct ShmHeader {
  std::atomic<std::uint32_t> record_ready;
  std::atomic<std::uint32_t> output_ready;
  std::atomic<std::uint64_t> heartbeat;
  std::uint64_t output_size;
  InjectionRecord record;
  // ---- fork-server fields ----
  // Child-side classification verdict: set once the trial child compared
  // its output against the shared golden mapping (or digest).
  std::atomic<std::uint32_t> verdict_ready;
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
  std::uint64_t output_digest;  ///< FNV-1a 64 of the child's output bytes
  std::uint64_t trial_seed;
  double trial_earliest;
  double trial_latest;
  /// One-time workload setup cost in the template, for trial telemetry.
  /// Written once by the template, never cleared by reset().
  double template_setup_seconds;
  // ---- per-trial phase timing (latency anatomy profiler) ----
  // Written by the trial child before it exits, cleared by reset(): how
  // much of the child's wall-clock went to workload setup, to site
  // registration + flip arming, and to in-child classification. The
  // campaign subtracts these from the reap interval to isolate the run.
  double setup_seconds;
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
  /// Creates a channel able to carry `output_capacity` output bytes.
  explicit SharedChannel(std::size_t output_capacity);
  ~SharedChannel();

  SharedChannel(const SharedChannel&) = delete;
  SharedChannel& operator=(const SharedChannel&) = delete;

  /// Parent: clears all flags before forking the next trial.
  void reset();

  // ---- child side ----

  /// Publishes (or re-publishes) the injection record.
  void store_record(const InjectionRecord& record);

  /// Copies the final output and marks the trial complete. An output over
  /// capacity() is wrong-shaped: only its size is recorded, and output()
  /// returns no bytes for it.
  void store_output(std::span<const std::byte> output);

  /// Bumps the liveness heartbeat. The child calls this as it crosses
  /// execution-time windows; the watchdog reads it to tell a slow-but-alive
  /// child from a hung one.
  void beat();

  /// Publishes how the child's own wall-clock decomposed: workload setup,
  /// site registration + flip arming, and in-child
  /// classification, all in seconds. Plain stores — the parent reads them
  /// only after reaping, and zeros (never written) are valid.
  void store_trial_timing(double setup_seconds, double inject_seconds,
                          double classify_seconds);

  /// Publishes the child-side classification verdict. Masked trials ship
  /// only this (zero output bytes cross the channel); SDC trials
  /// additionally store_output() so the parent can analyze the corrupted
  /// bytes.
  void store_verdict(bool matches_golden, std::uint64_t digest);

  // ---- template (fork-server) side ----

  /// Reads the trial command published by store_command(). Called after
  /// the wake byte arrives on the command pipe.
  [[nodiscard]] TrialCommand load_command() const;

  /// Publishes the freshly forked grandchild's pid for the watchdog.
  void publish_child(std::int32_t pid);

  /// Publishes the grandchild's reaped wait status; this is the parent's
  /// completion signal for template-mode trials.
  void publish_status(std::int32_t status);

  /// Records the template's one-time workload setup cost (never cleared
  /// by reset(); written before the first publish_status()).
  void store_template_setup_seconds(double seconds);

  // ---- parent side ----

  /// Publishes the next trial command for the template, then returns;
  /// the caller wakes the template through the command pipe.
  void store_command(const TrialCommand& command);

  [[nodiscard]] bool verdict_ready() const;
  /// Valid only when verdict_ready(): did the output match the golden?
  [[nodiscard]] bool verdict_matches() const;
  [[nodiscard]] std::uint64_t output_digest() const;
  [[nodiscard]] bool status_ready() const;
  [[nodiscard]] std::int32_t child_status() const;
  [[nodiscard]] std::int32_t child_pid() const;
  [[nodiscard]] double template_setup_seconds() const;
  /// Child-reported phase timing, valid after reap; zero if never stored.
  [[nodiscard]] double trial_setup_seconds() const;
  [[nodiscard]] double trial_inject_seconds() const;
  [[nodiscard]] double trial_classify_seconds() const;

  [[nodiscard]] std::uint64_t heartbeat() const;
  [[nodiscard]] bool output_ready() const;
  [[nodiscard]] bool record_ready() const;
  [[nodiscard]] InjectionRecord record() const;
  [[nodiscard]] std::span<const std::byte> output() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  ShmHeader* header_ = nullptr;
  std::byte* payload_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t map_bytes_ = 0;
};

}  // namespace phifi::fi
