// Trial supervisor: the Supervisor script of CAROL-FI (Sec. 5.1).
//
// Every trial runs through a per-slot fork server. A slot's template
// process is forked from the campaign process and pays workload setup and
// the trial context (device, progress tracker, flip engine) once. It then
// runs the fault-free run ahead and parks a forked copy of it — a
// checkpoint — at progress points spaced by the golden run time (none for
// short runs: the template then serves from its pre-run image alone).
// Each trial is forked from the latest checkpoint at or before its
// injection target and resumes the interrupted run there, executing
// exactly what a from-start run executes from that point, so COW hands
// every trial a pristine copy and no trial re-runs the prefix. The trial
// arms the flip (the Flip-script analog) and runs the benchmark on the
// emulated device. At the first 1/16 progress point after its flip, and
// once more at the next, it compares digests of its sites, registered
// state and output with the ones the template recorded there in its
// fault-free run: a trial whose run has re-joined the golden run can only
// reproduce the golden output, so it is committed Masked there. Every
// other trial finishes the run, classifies its output in place against
// the golden copy (a sealed read-only mapping every process inherits),
// summarizes a mismatch (the SDC summary) and ships both through a
// shared-memory channel; no output bytes reach the campaign process. The
// campaign process is the watchdog:
// it blocks on each template's command socket for the completion byte,
// kills trials past the deadline, and classifies the outcome — Masked (output
// bit-identical to the golden copy), SDC (mismatch), or DUE (crash /
// abnormal exit / hang).
//
// Trials run in *slots*: each slot owns its own SharedChannel shm segment,
// template process and watchdog state, so a multi-worker campaign can keep
// several trials in flight at once (start_trial/poll_slots), while the
// classic one-at-a-time API (run_trial) drives slot 0 synchronously.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/flip_engine.hpp"
#include "core/golden_map.hpp"
#include "core/outcome.hpp"
#include "core/sdc_summary.hpp"
#include "core/shared_channel.hpp"
#include "core/workload_api.hpp"
#include "phi/counters.hpp"
#include "phi/device_spec.hpp"
#include "telemetry/metrics.hpp"

namespace phifi::fi {

struct SupervisorConfig {
  /// Input-generation seed; fixed for a whole campaign so every trial runs
  /// the same computation as the golden copy.
  std::uint64_t input_seed = 0x900d5eedULL;
  /// OS threads backing the emulated device. Trials are single-threaded:
  /// TrialSupervisor refuses any other value than 1. Kept only for
  /// callers that still read it.
  unsigned device_os_threads = 1;
  phi::DeviceSpec device_spec = phi::DeviceSpec::knights_corner_3120a();
  /// Watchdog deadline = max(min_timeout_seconds,
  ///                         timeout_factor * golden run time).
  double timeout_factor = 30.0;
  double min_timeout_seconds = 1.0;
  /// Overdue children get SIGTERM first; SIGKILL follows after this grace
  /// window if they have not exited (injected faults can wedge signal
  /// handling, and test workloads may ignore SIGTERM outright).
  double kill_grace_seconds = 0.25;
  /// Per-child address-space cap in MiB (0 = inherit the parent's limit).
  /// A child that exhausts it fails allocation and is classified
  /// DueKind::kRlimit instead of wedging the host under memory pressure.
  std::size_t child_address_space_mb = 0;
  /// Per-child CPU-seconds cap (0 = unlimited). The kernel delivers
  /// SIGXCPU, classified DueKind::kRlimit — a runaway child dies by rlimit
  /// even if the watchdog itself is starved.
  unsigned child_cpu_seconds = 0;
  /// Heartbeat pulses the child emits over one run (0 disables the
  /// heartbeat protocol). While the heartbeat keeps advancing, a child past
  /// the base deadline is granted extensions up to
  /// max_deadline_factor * deadline — "slow but alive" is not a hang.
  unsigned heartbeat_divisions = 16;
  double max_deadline_factor = 4.0;
  /// If > 0, a child whose heartbeat has not advanced for this many seconds
  /// is killed *before* the absolute deadline and classified
  /// DueKind::kStall. Requires heartbeat_divisions > 0.
  double stall_timeout_seconds = 0.0;
  /// Optional metrics sink (not owned; must outlive the supervisor). The
  /// watchdog feeds supervisor.poll_interval_ms and
  /// supervisor.heartbeat_gap_ms histograms plus escalation counters.
  /// nullptr disables all observation at the cost of one branch per poll.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct TrialConfig {
  std::uint64_t trial_seed = 0;  ///< drives flip randomness + injection time
  FaultModel model = FaultModel::kSingle;
  SelectionPolicy policy = SelectionPolicy::kCarolFi;
  /// Consecutive elements the fault footprint covers (1 = one variable
  /// element; the beam model uses wider bursts for vector/cache strikes).
  unsigned burst_elements = 1;
  /// Injection-time fraction is drawn uniformly from this range. Kept off
  /// the exact endpoints so the flip reliably fires while the program runs.
  double earliest_fraction = 0.01;
  double latest_fraction = 0.99;
};

struct TrialResult {
  Outcome outcome = Outcome::kNotInjected;
  DueKind due_kind = DueKind::kNone;
  InjectionRecord record;
  /// Time window the injection fell into, in [0, time_windows).
  unsigned window = 0;
  double seconds = 0.0;
  /// Heartbeat pulses observed from the child (diagnostics).
  std::uint64_t heartbeats = 0;
  /// True when the child ignored SIGTERM and had to be SIGKILLed.
  bool escalated_kill = false;
  /// True when the trial paid no workload setup on its critical path:
  /// every trial except the one that (re)spawned its slot's template.
  bool setup_skipped = false;
  /// What an SDC did to the output, summarized by the trial child; zeros
  /// for every other outcome.
  SdcSummary sdc;
  /// Grid fraction at which a Masked trial was cut because its state had
  /// re-joined the golden run; 0 when the trial ran to its end. Not
  /// journaled: the verdict and heartbeats equal the full run's.
  double converged_at = 0.0;

  // ---- latency anatomy (not journaled: the profiler and perfbench read
  //      these; the journal keeps the fields above) ----

  /// Sub-interval boundaries, seconds from trial start, monotonic:
  /// fork span = [0, fork_done), child run = [fork_done, reaped),
  /// classify = [reaped, classified).
  double fork_done_seconds = 0.0;
  double reaped_seconds = 0.0;
  double classified_seconds = 0.0;
  /// Decomposition of the trial's wall-clock (zeros for trials that died
  /// before reporting): the template's one-time workload setup (charged to
  /// the trial that spawned it), flip arming, and in-child classification.
  /// The profiler subtracts these from the reap interval to isolate the run.
  double setup_seconds = 0.0;
  double inject_seconds = 0.0;
  double classify_child_seconds = 0.0;
};

/// One trial that finished (exited, crashed, or was killed) during a
/// poll_slots() pass, classified and ready to hand back.
struct SlotCompletion {
  unsigned slot = 0;
  TrialResult result;
};

class TrialSupervisor {
 public:
  TrialSupervisor(WorkloadFactory factory, SupervisorConfig config = {});
  ~TrialSupervisor();

  TrialSupervisor(const TrialSupervisor&) = delete;
  TrialSupervisor& operator=(const TrialSupervisor&) = delete;

  /// Runs the fault-free golden execution in-process, publishes its output
  /// into the sealed golden mapping and records its digest and timing.
  /// Must be called before run_trial(). The emulated device is torn down
  /// afterwards so the campaign process is single-threaded when it forks.
  void prepare_golden();

  /// Runs one injected trial in a forked child and classifies the outcome.
  /// Synchronous convenience over slot 0; must not be mixed with in-flight
  /// async slots.
  TrialResult run_trial(const TrialConfig& config);

  /// Runs a fault-free trial through the same fork/channel machinery;
  /// used for self-checks and injector-overhead measurement.
  TrialResult run_clean_trial();

  // ---- multi-slot (parallel campaign) API ----

  /// Grows the slot pool to `count` slots, each with its own shm channel.
  /// Requires prepare_golden() first; never shrinks, and never reallocates
  /// the channel of an active slot.
  void ensure_slots(unsigned count);

  [[nodiscard]] unsigned slot_count() const {
    return static_cast<unsigned>(slots_.size());
  }
  [[nodiscard]] bool slot_active(unsigned slot) const;
  /// Number of slots with a forked child currently in flight.
  [[nodiscard]] unsigned active_slots() const { return active_count_; }

  /// Forks one injected trial into a free slot. Throws std::runtime_error
  /// on fork failure (the slot stays free; the attempt can be retried).
  void start_trial(unsigned slot, const TrialConfig& config);

  /// One scheduler pass: reaps (and replays onto a fresh template) any
  /// active slot whose template died, then runs the watchdog (deadline,
  /// stall, heartbeat extension, SIGTERM→SIGKILL escalation) over the slots
  /// still running. Returns every trial that completed this pass,
  /// classified.
  std::vector<SlotCompletion> poll_slots();

  /// Blocks until a completion event is plausible, then returns so the
  /// caller can run poll_slots() again. The wait is a poll(2) over the
  /// active templates' command sockets: a template sends one completion
  /// byte per trial and its death closes the socket, so the kernel ends
  /// the wait the moment a trial is done — no reap latency and, on a
  /// loaded machine, no wakeups competing with the trials for CPU. Bounded
  /// by a 10ms tick so watchdog bookkeeping (deadlines, stall detection)
  /// keeps running.
  void wait_for_completion();

  /// Cancels every active slot without classifying: SIGKILLs the slot's
  /// trial grandchild, lets its template reap it, then shuts the template
  /// down (it reaps its checkpoints first; SIGKILL is the backstop) — used
  /// to cancel speculative attempts past the campaign's finish line and to
  /// tear down on abort. The next launch in the slot respawns its
  /// template.
  void kill_active_slots();

  /// The sealed golden mapping.
  [[nodiscard]] std::span<const std::byte> golden() const {
    return golden_map_.golden();
  }
  [[nodiscard]] util::Shape output_shape() const { return shape_; }
  [[nodiscard]] ElementType output_type() const { return type_; }
  [[nodiscard]] unsigned time_windows() const { return windows_; }
  [[nodiscard]] double golden_seconds() const { return golden_seconds_; }
  [[nodiscard]] std::string_view workload_name() const { return name_; }

  /// FNV-1a 64 digest of the golden output (0 until prepared). Journal
  /// headers carry it, and a resume refuses a journal whose golden differs.
  [[nodiscard]] std::uint64_t golden_digest() const {
    return golden_map_.digest();
  }
  /// Times a dead template process had to be respawned mid-campaign.
  [[nodiscard]] unsigned template_respawns() const {
    return template_respawns_;
  }
  /// PID of the slot's template (fork-server) process, or -1 when none is
  /// alive. Diagnostics and the template-crash drill in tests.
  [[nodiscard]] pid_t slot_template_pid(unsigned slot) const {
    return slot < slots_.size() ? slots_[slot].template_pid : -1;
  }

  /// Shuts down idle template processes (closes their command pipes and
  /// reaps them). Called by the destructor; requires no active slots.
  void shutdown_templates();

  /// Device performance counters of the golden run (arithmetic intensity
  /// per Sec. 3.2/4.2; feeds the report and the metrics registry).
  [[nodiscard]] const phi::CounterSnapshot& golden_counters() const {
    return golden_counters_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-slot state: the channel is allocated once and reused across the
  /// trials scheduled into the slot; the template outlives them too.
  struct Slot {
    std::unique_ptr<SharedChannel> channel;
    bool active = false;
    bool injected = false;  ///< launched with an injection config
    Clock::time_point start{};
    Clock::time_point last_beat_time{};
    Clock::time_point last_poll_time{};
    std::uint64_t last_beat = 0;
    double fork_done = 0.0;
    pid_t template_pid = -1;  ///< fork-server process (outlives trials)
    int cmd_fd = -1;          ///< parent end of the template command socket
    TrialCommand pending{};   ///< last dispatched command, for respawn replay
    unsigned respawn_attempts = 0;  ///< respawns charged to the current trial
    bool setup_skipped = false;     ///< the in-flight trial paid no setup
  };

  TrialResult run_child(const TrialConfig* config);
  void launch(unsigned slot, const TrialConfig* config);
  /// Classifies a finished trial from its wait status and frees the slot.
  TrialResult finalize_slot(Slot& slot, int status, DueKind killed_as,
                            bool escalated);
  /// Forks a fresh template process for the slot.
  void spawn_template(unsigned slot);
  /// Ensures a live template and hands it the slot's pending command,
  /// respawning (bounded) if the template died before it could be woken.
  void dispatch_pending(unsigned slot);
  /// Closes the slot's command socket and reaps its template, which tears
  /// its checkpoints down first; SIGKILL is a backstop after a grace, or
  /// immediate when `graceful` is false (a wedged template).
  void kill_template(Slot& slot, bool graceful);
  /// Watchdog kill: signals the grandchild and waits for the template to
  /// publish its status. Returns false when the grandchild does not exist
  /// yet and `force` is not set (retry next poll); with `force`, kills the
  /// whole template subtree.
  bool kill_template_trial(Slot& slot, bool force, int* status,
                           bool* escalated);
  /// Reap-pass handler for a template process that died mid-trial.
  void handle_template_death(unsigned slot);
  /// The template's trial context and checkpoint tree (supervisor.cpp).
  struct TrialContext;
  /// Template process body: setup and the trial context once, then parked
  /// checkpoints of one run-ahead serve the trial grandchildren.
  [[noreturn]] void template_main(SharedChannel* channel, int cmd_fd,
                                  pid_t parent);

  WorkloadFactory factory_;
  SupervisorConfig config_;
  phi::CounterSnapshot golden_counters_;
  util::Shape shape_;
  ElementType type_ = ElementType::kF32;
  unsigned windows_ = 1;
  double golden_seconds_ = 0.0;
  /// The golden run's thread CPU time, which plans the checkpoints: host
  /// load stretches the wall time, not this.
  double golden_cpu_seconds_ = 0.0;
  std::string name_;
  std::vector<Slot> slots_;
  unsigned active_count_ = 0;
  bool prepared_ = false;
  /// Sealed read-only shared mapping of the golden output, inherited by
  /// every template and trial.
  GoldenMap golden_map_;
  unsigned template_respawns_ = 0;
};

}  // namespace phifi::fi
