#include "core/supervisor.hpp"

#include <cerrno>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <new>
#include <stdexcept>

#include "util/log.hpp"
#include "util/posix_io.hpp"

namespace phifi::fi {

namespace {

using Clock = std::chrono::steady_clock;

/// Child exit code for an allocation failure under the address-space rlimit
/// (distinct from the generic uncaught-exception code 3).
constexpr int kChildExitRlimit = 4;

/// Template (fork-server) exit codes: fork of a checkpoint or trial failed
/// / waitpid on the trial failed / a parked checkpoint vanished. Either way
/// the parent respawns it and replays the command.
constexpr int kTemplateExitForkFailed = 5;
constexpr int kTemplateExitWaitFailed = 6;
constexpr int kTemplateExitLostCheckpoint = 7;

/// A template that keeps dying this many times over one trial points at a
/// systemic problem (OOM killer, broken workload setup); give up loudly
/// rather than spin on respawns.
constexpr unsigned kMaxTemplateRespawns = 3;

/// Upper bound on one wait_for_completion() block. Completion itself wakes
/// the poll() instantly via an event fd; the tick only paces watchdog
/// bookkeeping (deadlines, stall detection), whose thresholds are seconds.
constexpr int kWatchdogTickMs = 10;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Progress slices of one run a checkpoint may sit on.
constexpr unsigned kCheckpointGrid = 16;

/// Least golden run time between consecutive checkpoints. Each parked
/// checkpoint costs its fork, the copy-on-write faults the forking run
/// takes afterwards and a reap at teardown. At 1 ms no small-input run
/// (all under 1.02 ms) gets a checkpoint, and the paper-mix members keep
/// nearly all the gain a finer span gives (docs/PARALLELISM.md, "The
/// checkpoint span, measured").
constexpr double kCheckpointSpanSeconds = 1e-3;

/// Slices between consecutive checkpoints for a run of `golden_seconds`,
/// assuming run time spreads evenly over progress; 0 when no checkpoint
/// after the pre-run one fits, and the template serves alone.
unsigned checkpoint_spacing(double golden_seconds) {
  const double slice = golden_seconds / kCheckpointGrid;
  if (!(slice > 0.0)) return 0;
  const double spacing = std::ceil(kCheckpointSpanSeconds / slice);
  return spacing < kCheckpointGrid
             ? std::max(1u, static_cast<unsigned>(spacing))
             : 0;
}

/// The injection target of an injected command: the first draw of the
/// trial's stream. The router and the trial both draw it here, so a trial
/// is served by the checkpoint its own draw selects.
double injection_target(const TrialCommand& command, util::Rng& rng) {
  rng.reseed(command.trial_seed);
  return rng.uniform(command.earliest_fraction, command.latest_fraction);
}

/// Closes every descriptor but stdio and `keep`: a template or checkpoint
/// holds nothing of its parent's but the socket it is served through.
void keep_only_fd(int keep) {
  const unsigned fd = static_cast<unsigned>(keep);
  if (fd > 3) ::close_range(3, fd - 1, 0);
  ::close_range(fd + 1, ~0U, 0);
}

/// Ties a forked template or trial to its parent's life: SIGKILL when the
/// forking thread exits, and an immediate exit when the parent is already
/// gone (it died between fork() and the prctl). Without it a SIGKILLed
/// campaign leaves its templates — and their checkpoints and any hanging
/// trial, whose watchdog died with the campaign — alive, holding whatever
/// the parent held open.
void die_with_parent(pid_t parent) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(1);
}

/// waitpid that survives signal delivery to the campaign process: EINTR is
/// a retry, not an error. Any other failure is real and still throws.
// phicheck:eintr-helper retry loop below; every waitpid in this file routes here
pid_t waitpid_eintr(pid_t pid, int* status, int flags) {
  while (true) {
    const pid_t reaped = ::waitpid(pid, status, flags);
    if (reaped >= 0 || errno != EINTR) return reaped;
  }
}

/// Flattens a TrialConfig into the POD command block the template loads
/// from shared memory. nullptr = clean (uninjected) trial.
TrialCommand to_command(const TrialConfig* config) {
  TrialCommand command;
  if (config == nullptr) return command;
  command.injected = true;
  command.trial_seed = config->trial_seed;
  command.model = static_cast<std::uint32_t>(config->model);
  command.policy = static_cast<std::uint32_t>(config->policy);
  command.burst = config->burst_elements;
  command.earliest_fraction = config->earliest_fraction;
  command.latest_fraction = config->latest_fraction;
  return command;
}

/// Wakes a template blocked on its command socket. MSG_NOSIGNAL turns a dead
/// template into EPIPE instead of a campaign-killing SIGPIPE. Returns false
/// when the template is gone.
bool wake_template_fd(int fd) {
  const std::byte wake{1};
  return util::io::send_some(fd, &wake, 1, MSG_NOSIGNAL) == 1;
}

/// Blocks until a template has reaped its grandchild and published the
/// wait status, for at most `seconds`; returns whether the status is there.
/// The template's completion byte on its command socket (`cmd_fd`, the
/// parent end) follows every publish, so the wait is a poll(2) that ends
/// the moment the status lands. Bytes read here are completion bytes only.
bool await_status(const SharedChannel& channel, int cmd_fd, double seconds) {
  const auto start = Clock::now();
  while (!channel.status_ready()) {
    const double left = seconds - seconds_since(start);
    if (left <= 0.0 || cmd_fd < 0) return false;
    pollfd done{cmd_fd, POLLIN, 0};
    if (util::io::poll_retry(&done, 1,
                             static_cast<int>(std::ceil(left * 1e3))) <= 0) {
      continue;
    }
    // Every holder of the template's end is gone: no status is coming.
    if ((done.revents & (POLLHUP | POLLERR)) != 0) {
      return channel.status_ready();
    }
    std::byte drained[16];
    (void)util::io::recv_some(cmd_fd, drained, sizeof(drained), MSG_DONTWAIT);
  }
  return true;
}

/// Waits (bounded) until `pid` has exited; returns whether it did. Used on
/// orphaned grandchildren after SIGKILL: they reparent to init (or a
/// subreaper), so waitpid cannot observe them, and kill(pid, 0) keeps
/// succeeding on the zombie until its new parent gets round to reaping it.
/// A pidfd turns readable the moment the process exits, reaped or not,
/// after which no verdict or heartbeat write can land; ESRCH means it is
/// already gone. Raw syscall (Linux 5.3+) because not every libc exposes
/// pidfd_open to C++.
bool wait_exited(pid_t pid, double timeout_seconds) {
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (fd < 0) return errno == ESRCH;
  pollfd exited{fd, POLLIN, 0};
  const bool done = util::io::poll_retry(
                        &exited, 1, static_cast<int>(timeout_seconds * 1e3)) > 0;
  ::close(fd);
  return done;
}

}  // namespace

/// Everything a trial needs, built once per template before any checkpoint
/// exists and inherited by every checkpoint and trial through fork(): the
/// device, the progress tracker with its hooks, the flip engine and the
/// rng. A trial only writes its command into it (reseed, draw the target,
/// set the policy, re-arm) and allocates nothing, so every route reaches
/// the injection with the same heap. Each hook captures this one pointer,
/// which std::function stores in place.
struct TrialSupervisor::TrialContext {
  /// One parked image of the template's run.
  struct Checkpoint {
    double fraction = 0.0;  ///< progress at which the image is parked
    pid_t pid = -1;
    int fd = -1;  ///< the template's end of the checkpoint's socket
  };

  TrialContext(const TrialSupervisor& owner, Workload& served,
               SharedChannel* shared, int command_fd,
               Clock::time_point start);

  /// Heartbeat pulse: the channel's in a trial, counted in the run-ahead.
  void pulse();
  /// Injection hook body: the flip, with its provisional record first.
  void inject(double at);
  /// The checkpoint that serves `routed`: the latest at or before its
  /// injection target. A pure function of the command.
  [[nodiscard]] unsigned route_of(const TrialCommand& routed) const;
  /// Publishes a trial's wait status and sends the completion byte.
  void publish_done(int status);
  /// Forks the next checkpoint; returns in the template (which routes
  /// instead after the last one) and in every trial forked there.
  void park_checkpoint();
  /// Checkpoint child body: serve() in a process of its own.
  void park(int fd, pid_t parent);
  /// Serve loop over `fd`; returns only in a trial child.
  void serve(int fd);
  /// Trial child's setup: rlimits, command, re-arm. Allocates nothing.
  void begin_trial(int fd, pid_t parent);
  /// The template's router after its last checkpoint.
  [[noreturn]] void route();
  /// Tears the checkpoints down (close, reap) and exits with `code`.
  [[noreturn]] void retire(int code);
  /// Trial child's end: classify in place, publish the verdict, exit.
  [[noreturn]] void finish();

  const TrialSupervisor& supervisor;
  Workload& workload;
  SharedChannel* channel;
  const int cmd_fd;  ///< the template's end of the command socket
  const Clock::time_point started;
  SiteRegistry registry;
  phi::Device device;
  ProgressTracker progress;
  FlipEngine engine;
  util::Rng rng;
  TrialCommand command;
  double inject_seconds = 0.0;
  bool in_trial = false;
  /// Heartbeat pulses of the run-ahead so far; a trial forked at a
  /// checkpoint inherits the count and credits it.
  std::uint64_t beats = 0;
  /// Checkpoints to park, the pre-run one included; 0 = the template
  /// serves alone.
  unsigned planned = 0;
  unsigned parked = 0;
  std::array<Checkpoint, kCheckpointGrid> checkpoints{};
};

TrialSupervisor::TrialSupervisor(WorkloadFactory factory,
                                 SupervisorConfig config)
    : factory_(factory), config_(config) {
  assert(factory_ != nullptr);
  // A checkpoint fork keeps only the forking thread, and a multi-threaded
  // run fires the injection on whichever thread crosses the target: trials
  // are single-threaded.
  if (config_.device_os_threads != 1) {
    throw std::invalid_argument(
        "TrialSupervisor: trials run on one device thread "
        "(device_os_threads must be 1)");
  }
}

TrialSupervisor::~TrialSupervisor() {
  // Never leave orphaned trial children behind: a campaign that throws
  // mid-flight still reaps on unwind.
  kill_active_slots();
  shutdown_templates();
}

void TrialSupervisor::prepare_golden() {
  auto workload = factory_();
  workload->setup(config_.input_seed);
  const auto start = Clock::now();
  {
    // Scoped so the device's pool threads are joined before any fork.
    phi::Device device(config_.device_spec, 1);
    ProgressTracker progress;
    progress.reset(workload->total_steps());
    workload->run(device, progress);
    progress.finish();
    // Snapshot while the device is still alive: arithmetic intensity of the
    // fault-free run (Sec. 3.2/4.2) for the report and metrics export.
    golden_counters_ = device.counters().snapshot();
  }
  golden_seconds_ = seconds_since(start);
  // Publish the golden once into a sealed read-only mapping every template
  // and trial inherits; its digest goes into the journal header so a
  // resume can refuse a journal written from another golden.
  golden_map_.publish(workload->output_bytes());
  shape_ = workload->output_shape();
  type_ = workload->output_type();
  windows_ = workload->time_windows();
  name_ = workload->name();
  prepared_ = true;
  ensure_slots(1);
  util::log_info() << name_ << ": golden run " << golden_seconds_ << "s, "
                   << golden_map_.size() << " output bytes";
}

void TrialSupervisor::ensure_slots(unsigned count) {
  assert(prepared_ && "call prepare_golden() first");
  while (slots_.size() < count) {
    Slot slot;
    slot.channel = std::make_unique<SharedChannel>();
    slots_.push_back(std::move(slot));
  }
}

bool TrialSupervisor::slot_active(unsigned slot) const {
  return slot < slots_.size() && slots_[slot].active;
}

TrialResult TrialSupervisor::run_trial(const TrialConfig& config) {
  assert(prepared_ && "call prepare_golden() first");
  return run_child(&config);
}

TrialResult TrialSupervisor::run_clean_trial() {
  assert(prepared_ && "call prepare_golden() first");
  return run_child(nullptr);
}

TrialResult TrialSupervisor::run_child(const TrialConfig* config) {
  assert(active_count_ == 0 &&
         "synchronous run_trial cannot overlap in-flight slots");
  launch(0, config);
  while (true) {
    std::vector<SlotCompletion> done = poll_slots();
    if (!done.empty()) return std::move(done.front().result);
    wait_for_completion();
  }
}

void TrialSupervisor::launch(unsigned slot_index, const TrialConfig* config) {
  assert(slot_index < slots_.size());
  Slot& slot = slots_[slot_index];
  assert(!slot.active && "slot already has a child in flight");
  slot.channel->reset();
  const auto start = Clock::now();
  // Hand the command to the slot's fork server (spawning it first if
  // needed), which forks the trial grandchild. The grandchild is not our
  // waitpid child; completion arrives through the channel's status_ready
  // flag and the template's completion byte.
  slot.respawn_attempts = 0;
  slot.pending = to_command(config);
  slot.setup_skipped = slot.template_pid > 0;
  dispatch_pending(slot_index);
  slot.active = true;
  slot.injected = config != nullptr;
  slot.start = start;
  slot.fork_done = seconds_since(start);
  slot.last_beat = slot.channel->heartbeat();
  slot.last_beat_time = start;
  slot.last_poll_time = start;
  ++active_count_;
}

void TrialSupervisor::spawn_template(unsigned slot_index) {
  Slot& slot = slots_[slot_index];
  if (slot.cmd_fd >= 0) {
    // Stale socket from a dead template; a fresh socketpair guarantees no
    // queued wake bytes survive into the new process.
    ::close(slot.cmd_fd);
    slot.cmd_fd = -1;
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("TrialSupervisor: socketpair failed");
  }
  SharedChannel* channel = slot.channel.get();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("TrialSupervisor: template fork failed");
  }
  if (pid == 0) {
    template_main(channel, fds[1], parent);  // never returns
  }
  ::close(fds[1]);
  slot.cmd_fd = fds[0];
  slot.template_pid = pid;
}

void TrialSupervisor::dispatch_pending(unsigned slot_index) {
  Slot& slot = slots_[slot_index];
  unsigned attempts = 0;
  while (true) {
    if (slot.template_pid < 0) {
      spawn_template(slot_index);
      slot.setup_skipped = false;  // this trial pays the template's setup
    }
    slot.channel->store_command(slot.pending);
    if (wake_template_fd(slot.cmd_fd)) return;
    // The template died between spawn and wake (EPIPE): reap and retry.
    int status = 0;
    (void)waitpid_eintr(slot.template_pid, &status, 0);
    slot.template_pid = -1;
    ++template_respawns_;
    if (++attempts >= kMaxTemplateRespawns) {
      throw std::runtime_error(
          "TrialSupervisor: template process keeps dying at startup");
    }
  }
}

void TrialSupervisor::start_trial(unsigned slot, const TrialConfig& config) {
  launch(slot, &config);
}

std::vector<SlotCompletion> TrialSupervisor::poll_slots() {
  std::vector<SlotCompletion> done;
  // Reap pass: the templates are this process's only children. An idle
  // slot's dead template is noticed (and reaped) by its next dispatch; an
  // active slot's gets its orphaned grandchild cleaned up and the pending
  // command replayed on a fresh template — counter-indexed seeds make the
  // replayed trial bit-identical, so tallies are unaffected.
  for (unsigned i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.active || slot.template_pid < 0) continue;
    int status = 0;
    const pid_t reaped = waitpid_eintr(slot.template_pid, &status, WNOHANG);
    if (reaped == 0) continue;
    if (reaped < 0) {
      throw std::runtime_error("TrialSupervisor: waitpid failed");
    }
    slot.template_pid = -1;
    handle_template_death(i);
  }

  // Watchdog pass over the slots still running: deadline, heartbeat
  // extension, stall detection, escalation.
  telemetry::Histogram* poll_hist = nullptr;
  telemetry::Histogram* beat_hist = nullptr;
  if (config_.metrics != nullptr && active_count_ > 0) {
    poll_hist = &config_.metrics->histogram(
        "supervisor.poll_interval_ms", telemetry::poll_interval_edges_ms());
    beat_hist = &config_.metrics->histogram(
        "supervisor.heartbeat_gap_ms", telemetry::default_latency_edges_ms());
  }
  const double deadline = std::max(config_.min_timeout_seconds,
                                   config_.timeout_factor * golden_seconds_);
  const bool heartbeat_on = config_.heartbeat_divisions > 0;
  const double hard_deadline =
      heartbeat_on ? std::max(config_.max_deadline_factor, 1.0) * deadline
                   : deadline;
  // A child past the base deadline stays alive only while its heartbeat
  // advanced within this window; the optional stall timeout additionally
  // cuts a silent child before the deadline.
  const double liveness_window = config_.stall_timeout_seconds > 0.0
                                     ? config_.stall_timeout_seconds
                                     : deadline;

  for (unsigned i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.active) continue;
    // The grandchild is reaped by its template, not by us, so "done" is the
    // template's published wait status.
    if (slot.channel->status_ready()) {
      done.push_back({i, finalize_slot(slot, slot.channel->child_status(),
                                       DueKind::kNone, /*escalated=*/false)});
      continue;
    }
    const auto now = Clock::now();
    const double elapsed = seconds_since(slot.start);
    if (poll_hist != nullptr) {
      poll_hist->observe(
          std::chrono::duration<double, std::milli>(now - slot.last_poll_time)
              .count());
    }
    slot.last_poll_time = now;
    if (heartbeat_on) {
      const std::uint64_t beat = slot.channel->heartbeat();
      if (beat != slot.last_beat) {
        if (beat_hist != nullptr) {
          beat_hist->observe(std::chrono::duration<double, std::milli>(
                                 now - slot.last_beat_time)
                                 .count());
        }
        slot.last_beat = beat;
        slot.last_beat_time = now;
      }
    }
    const double beat_gap =
        std::chrono::duration<double>(now - slot.last_beat_time).count();

    DueKind killed_as = DueKind::kNone;
    if (heartbeat_on && config_.stall_timeout_seconds > 0.0 &&
        beat_gap > config_.stall_timeout_seconds) {
      killed_as = DueKind::kStall;
    } else if (elapsed > deadline) {
      const bool alive = heartbeat_on && beat_gap <= liveness_window &&
                         elapsed <= hard_deadline;
      if (!alive) killed_as = DueKind::kHang;
    }
    if (killed_as != DueKind::kNone) {
      // Far past the hard deadline with still no grandchild pid, the
      // template itself is wedged (e.g. workload setup hangs): take the
      // whole subtree down instead of skipping forever.
      const bool force =
          elapsed > hard_deadline + std::max(1.0, config_.kill_grace_seconds);
      int status = 0;
      bool escalated = false;
      if (kill_template_trial(slot, force, &status, &escalated)) {
        done.push_back({i, finalize_slot(slot, status, killed_as, escalated)});
      }
    }
  }
  return done;
}

void TrialSupervisor::kill_template(Slot& slot, bool graceful) {
  // Closing the command socket first is the template's shutdown request:
  // it closes its checkpoints' sockets and reaps every checkpoint before
  // it exits. A SIGKILL would orphan them instead, onto a subreaper that
  // may never reap them, so it is only the backstop after a grace — and
  // immediate for a wedged template.
  if (slot.cmd_fd >= 0) {
    ::close(slot.cmd_fd);
    slot.cmd_fd = -1;
  }
  if (slot.template_pid <= 0) return;
  if (!graceful ||
      !wait_exited(slot.template_pid,
                   std::max(1.0, config_.kill_grace_seconds))) {
    ::kill(slot.template_pid, SIGKILL);
  }
  int status = 0;
  (void)waitpid_eintr(slot.template_pid, &status, 0);
  slot.template_pid = -1;
}

bool TrialSupervisor::kill_template_trial(Slot& slot, bool force, int* status,
                                          bool* escalated) {
  const pid_t gpid = slot.channel->child_pid();
  if (gpid <= 0) {
    if (!force) return false;  // template hasn't forked yet; retry next poll
    // Wedged template, no grandchild: kill and reap the template itself.
    kill_template(slot, /*graceful=*/false);
    *status = SIGKILL;  // raw wait status: signaled by SIGKILL
    *escalated = true;
    return true;
  }
  // Signal the grandchild and wait for the template to reap it and publish
  // the status: SIGTERM, a grace window, then SIGKILL.
  ::kill(gpid, SIGTERM);
  *escalated =
      !await_status(*slot.channel, slot.cmd_fd, config_.kill_grace_seconds);
  if (*escalated) {
    ::kill(gpid, SIGKILL);
    if (!await_status(*slot.channel, slot.cmd_fd,
                      std::max(1.0, config_.kill_grace_seconds))) {
      // The grandchild is SIGKILLed but its template never published a
      // status: the template is wedged too. Take it down and synthesize
      // the status.
      kill_template(slot, /*graceful=*/false);
      *status = SIGKILL;
      return true;
    }
  }
  *status = slot.channel->child_status();
  return true;
}

void TrialSupervisor::handle_template_death(unsigned slot_index) {
  Slot& slot = slots_[slot_index];
  ++template_respawns_;
  if (++slot.respawn_attempts > kMaxTemplateRespawns) {
    throw std::runtime_error(
        "TrialSupervisor: template process keeps dying mid-trial");
  }
  util::log_warn() << name_ << ": template for slot " << slot_index
                   << " died mid-trial; respawning and replaying";
  // The dead template's grandchild is now an orphan (reparented to init, so
  // not waitpid-able here). Kill it and wait until it has exited before
  // resetting the channel, so no late write races the replay.
  const pid_t gpid = slot.channel->child_pid();
  if (gpid > 0 && !slot.channel->status_ready()) {
    ::kill(gpid, SIGKILL);
    (void)wait_exited(gpid, 1.0);
  }
  slot.channel->reset();
  dispatch_pending(slot_index);
  if (config_.metrics != nullptr) {
    config_.metrics->counter("supervisor.template_respawns").inc();
  }
}

void TrialSupervisor::wait_for_completion() {
  std::vector<pollfd> fds;
  std::vector<pid_t> templates;
  fds.reserve(slots_.size());
  templates.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (!slot.active || slot.cmd_fd < 0) continue;
    fds.push_back({slot.cmd_fd, POLLIN, 0});
    templates.push_back(slot.template_pid);
  }
  if (fds.empty()) return;
  const int ready = util::io::poll_retry(
      fds.data(), static_cast<nfds_t>(fds.size()), kWatchdogTickMs);
  if (ready <= 0) return;  // watchdog tick: caller re-polls slots
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLHUP | POLLERR)) != 0 && templates[i] > 0) {
      // HUP means the template's end is gone: the process is past the
      // point of running user code but may not be a zombie yet. Parking in
      // a WNOWAIT waitid hands it the CPU to finish dying — a single-core
      // machine would otherwise spin instantly-ready poll() against
      // WNOHANG-empty waitpid for a scheduler slice — while leaving the
      // zombie for poll_slots()'s reap pass.
      siginfo_t info;
      std::memset(&info, 0, sizeof(info));
      (void)::waitid(P_PID, static_cast<id_t>(templates[i]), &info,
                     WEXITED | WNOWAIT);
    } else if ((fds[i].revents & POLLIN) != 0) {
      // Drain completion bytes so a byte observed after its trial was
      // already finalized via the channel flag cannot accumulate into a
      // stream of spurious instant wakes.
      std::byte consumed[16];
      (void)util::io::recv_some(fds[i].fd, consumed, sizeof(consumed),
                                MSG_DONTWAIT);
    }
  }
}

void TrialSupervisor::kill_active_slots() {
  for (Slot& slot : slots_) {
    if (!slot.active) continue;
    // Cancel by ending the whole template subtree: the simplest way to
    // guarantee no queued wake byte, in-flight command, or late status
    // publish leaks into the slot's next trial. The next launch pays one
    // template respawn — cancels only happen at the campaign finish line.
    // The grandchild dies first so that its checkpoint reaps it, and the
    // template reaps its checkpoints before it exits: killed the other way
    // round they would be orphaned onto a PID 1 that may never reap them.
    // A wedged template leaves the orphan to wait_exited().
    const pid_t gpid =
        slot.channel->status_ready() ? 0 : slot.channel->child_pid();
    if (gpid > 0) {
      ::kill(gpid, SIGKILL);
      (void)await_status(*slot.channel, slot.cmd_fd, 1.0);
    }
    kill_template(slot, /*graceful=*/true);
    if (gpid > 0 && !slot.channel->status_ready()) (void)wait_exited(gpid, 1.0);
    slot.active = false;
    --active_count_;
  }
}

void TrialSupervisor::shutdown_templates() {
  assert(active_count_ == 0 && "shutdown_templates with trials in flight");
  // Closing the parent end of the command socket EOFs the template's
  // blocking read; it reaps its checkpoints, _exit(0)s and we reap it.
  // Every socket closes before the first reap, so the templates tear
  // their trees down in parallel.
  for (Slot& slot : slots_) {
    if (slot.cmd_fd >= 0) {
      ::close(slot.cmd_fd);
      slot.cmd_fd = -1;
    }
  }
  for (Slot& slot : slots_) {
    if (slot.template_pid > 0) {
      int status = 0;
      (void)waitpid_eintr(slot.template_pid, &status, 0);
      slot.template_pid = -1;
    }
  }
}

TrialResult TrialSupervisor::finalize_slot(Slot& slot, int status,
                                           DueKind killed_as,
                                           bool escalated) {
  TrialResult result;
  result.seconds = seconds_since(slot.start);
  result.fork_done_seconds = slot.fork_done;
  result.reaped_seconds = result.seconds;
  result.heartbeats = slot.channel->heartbeat();
  result.escalated_kill = escalated;
  result.setup_skipped = slot.setup_skipped;
  if (!slot.setup_skipped) {
    // This trial (re)spawned its fork server, so the template's one-time
    // workload setup and run-ahead sit on this trial's critical path.
    result.setup_seconds = slot.channel->template_setup_seconds();
  }
  result.inject_seconds = slot.channel->trial_inject_seconds();
  result.classify_child_seconds = slot.channel->trial_classify_seconds();
  if (slot.channel->record_ready()) result.record = slot.channel->record();
  result.window = windows_ == 0
                      ? 0
                      : std::min(windows_ - 1,
                                 static_cast<unsigned>(
                                     result.record.progress_fraction *
                                     windows_));

  if (killed_as != DueKind::kNone) {
    result.outcome = Outcome::kDue;
    result.due_kind = killed_as;
  } else if (WIFSIGNALED(status)) {
    result.outcome = Outcome::kDue;
    result.due_kind =
        WTERMSIG(status) == SIGXCPU ? DueKind::kRlimit : DueKind::kCrash;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == kChildExitRlimit) {
    result.outcome = Outcome::kDue;
    result.due_kind = DueKind::kRlimit;
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
             !slot.channel->verdict_ready()) {
    result.outcome = Outcome::kDue;
    result.due_kind = DueKind::kAbnormalExit;
  } else if (slot.injected && !result.record.injected) {
    // Clean exit but the flip never fired: the run finished before the
    // armed fraction (shouldn't happen with finish()-backstop, but stay
    // honest if it does).
    result.outcome = Outcome::kNotInjected;
  } else if (slot.channel->verdict_matches()) {
    // The child already classified against the shared golden mapping.
    result.outcome = Outcome::kMasked;
  } else {
    result.outcome = Outcome::kSdc;
    result.sdc = slot.channel->sdc_summary();
  }
  result.classified_seconds = seconds_since(slot.start);

  slot.active = false;
  slot.respawn_attempts = 0;
  // slot.template_pid deliberately survives: the fork server outlives the
  // trials it ran and keeps serving this slot.
  --active_count_;

  if (config_.metrics != nullptr && escalated) {
    config_.metrics->counter("supervisor.escalated_kills").inc();
  }
  if (config_.metrics != nullptr && killed_as != DueKind::kNone) {
    config_.metrics->counter("supervisor.watchdog_kills").inc();
  }
  return result;
}

// phicheck:fork-child-entry
void TrialSupervisor::template_main(SharedChannel* channel, int cmd_fd,
                                    pid_t parent) {
  // Fork-server process: pay factory + setup + the trial context ONCE,
  // then serve trial grandchildren forked from parked images of one
  // fault-free run. COW gives every grandchild a pristine copy of its
  // image, so in-place mutation by one trial can never leak into the next.
  // Every inherited descriptor but stdio and the command socket is closed
  // first: the parent's close must read as EOF here, and nothing the
  // campaign process holds open (other slots' sockets, a fabric worker's
  // coordinator socket) may outlive it in the slot tree.
  die_with_parent(parent);
  keep_only_fd(cmd_fd);
  // Injected faults routinely corrupt a trial's heap; glibc then spams
  // stderr before aborting. That abort IS the result (a DUE), so the noise
  // is dropped for every trial of this template unless the operator asked
  // for verbose logs.
  if (util::log_level() > util::LogLevel::kInfo) {
    // Deliberate stdio before the workload entry: this process is
    // single-threaded, and the redirect must land before any workload code
    // can crash and trigger glibc's stderr spew.
    // phicheck:allow(fork-safety) reviewed pre-workload stderr redirect
    std::FILE* sink = std::freopen("/dev/null", "w", stderr);
    (void)sink;
  }
  // phicheck:fork-workload-entry — setup runs workload code; a crash here
  // surfaces as a template death and the parent respawns (bounded).
  try {
    const auto started = Clock::now();
    auto workload = factory_();
    workload->setup(config_.input_seed);
    TrialContext ctx(*this, *workload, channel, cmd_fd, started);
    if (ctx.planned == 0) {
      // No checkpoint pays: this process is checkpoint 0 and serves every
      // trial from its own pre-run image.
      channel->store_template_setup_seconds(seconds_since(started));
      ctx.serve(cmd_fd);
    } else {
      ctx.park_checkpoint();
    }
    // A trial forked from the pre-run image starts the run here. The
    // template runs ahead, parks the later checkpoints from inside the run
    // and routes from the last one; a trial forked there resumes inside
    // the run and returns here when it ends.
    workload->run(ctx.device, ctx.progress);
    if (!ctx.in_trial) ctx.route();  // the run ended before its last checkpoint
    ctx.finish();
  } catch (const std::bad_alloc&) {
    ::_exit(kChildExitRlimit);
  } catch (...) {
    ::_exit(3);
  }
}

TrialSupervisor::TrialContext::TrialContext(const TrialSupervisor& owner,
                                            Workload& served,
                                            SharedChannel* shared,
                                            int command_fd,
                                            Clock::time_point start)
    : supervisor(owner),
      workload(served),
      channel(shared),
      cmd_fd(command_fd),
      started(start),
      device(owner.config_.device_spec, 1),
      engine(registry, SelectionPolicy::kCarolFi) {
  workload.register_sites(registry);
  progress.reset(workload.total_steps());
  if (owner.config_.heartbeat_divisions > 0) {
    progress.set_pulse(owner.config_.heartbeat_divisions, [this] { pulse(); });
  }
  progress.set_checkpoint_hook([this] { park_checkpoint(); });
  const unsigned spacing = checkpoint_spacing(owner.golden_seconds_);
  planned = spacing == 0 ? 0 : 1 + (kCheckpointGrid - 1) / spacing;
  for (unsigned k = 0; k < planned; ++k) {
    checkpoints[k].fraction =
        static_cast<double>(k * spacing) / kCheckpointGrid;
  }
}

void TrialSupervisor::TrialContext::pulse() {
  if (in_trial) {
    channel->beat();
  } else {
    ++beats;  // the run-ahead's pulses, credited to trials forked later
  }
}

void TrialSupervisor::TrialContext::inject(double at) {
  // A provisional record lands first: if the flip crashes the program
  // within microseconds, the parent still learns the model.
  const auto model = static_cast<FaultModel>(command.model);
  InjectionRecord provisional;
  provisional.injected = true;
  provisional.model = model;
  provisional.progress_fraction = at;
  channel->store_record(provisional);
  channel->store_record(engine.inject(model, rng, at, command.burst));
}

unsigned TrialSupervisor::TrialContext::route_of(
    const TrialCommand& routed) const {
  // A clean trial never arms, so the latest image serves it.
  if (!routed.injected) return parked - 1;
  util::Rng draw;
  const double target = injection_target(routed, draw);
  unsigned k = 0;
  while (k + 1 < parked && checkpoints[k + 1].fraction <= target) ++k;
  return k;
}

void TrialSupervisor::TrialContext::publish_done(int status) {
  channel->publish_status(status);
  // Completion byte, after the status is visible: wakes a parent blocked
  // in wait_for_completion(). Best effort — a vanished parent surfaces as
  // EOF on the next command read.
  const std::byte trial_done{1};
  (void)util::io::send_some(cmd_fd, &trial_done, 1, MSG_NOSIGNAL);
}

// phicheck:fork-resume
void TrialSupervisor::TrialContext::park_checkpoint() {
  // Runs inside the template's run (from the checkpoint hook) or just
  // before it: forks a child that parks this image and serves every trial
  // routed to it. A trial forked there returns out of here and resumes
  // the interrupted run. Inside a kernel body the device's pool would
  // catch an exception, so every failure is an _exit.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds) != 0) {
    ::_exit(kTemplateExitForkFailed);
  }
  const pid_t self = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) ::_exit(kTemplateExitForkFailed);
  if (pid == 0) {
    park(fds[1], self);
    return;
  }
  ::close(fds[1]);
  checkpoints[parked].pid = pid;
  checkpoints[parked].fd = fds[0];
  if (++parked == planned) route();
  progress.checkpoint_at(checkpoints[parked].fraction);
}

// phicheck:fork-child-entry
void TrialSupervisor::TrialContext::park(int fd, pid_t parent) {
  die_with_parent(parent);
  keep_only_fd(fd);
  serve(fd);
}

// phicheck:fork-resume
void TrialSupervisor::TrialContext::serve(int fd) {
  // One serve loop for every parked image: the template serving alone
  // reads its commands from the campaign process and publishes each
  // status itself; a checkpoint is woken by the template's router and
  // reports the status back to it. Returns only in a trial child.
  const bool routed = fd != cmd_fd;
  const pid_t self = ::getpid();
  while (true) {
    std::byte wake;
    if (util::io::read_some(fd, &wake, 1) <= 0) ::_exit(0);  // shutdown
    const pid_t pid = ::fork();
    if (pid < 0) ::_exit(kTemplateExitForkFailed);
    if (pid == 0) {
      begin_trial(fd, self);
      return;
    }
    channel->publish_child(pid);
    int status = 0;
    if (waitpid_eintr(pid, &status, 0) < 0) ::_exit(kTemplateExitWaitFailed);
    if (!routed) {
      publish_done(status);
    } else if (util::io::send_some(fd, &status, sizeof(status),
                                   MSG_NOSIGNAL) != sizeof(status)) {
      ::_exit(0);  // the router is gone
    }
  }
}

// phicheck:fork-child-entry
void TrialSupervisor::TrialContext::begin_trial(int fd, pid_t parent) {
  // Trial grandchild: only writes its command into the inherited context
  // — no factory, setup or construction, and no allocation, so every
  // route reaches the injection with the same heap. Selection, fault bits
  // and injection time come from the trial seed alone, in a fixed draw
  // order: tallies are a pure function of the campaign seed
  // (tests/test_fastpath.cpp pins the draws).
  die_with_parent(parent);
  ::close(fd);
  const SupervisorConfig& config = supervisor.config_;
  // Resource fences: a runaway trial dies by rlimit in the kernel even if
  // the parent's watchdog is starved or buggy.
  if (config.child_address_space_mb > 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(config.child_address_space_mb) * 1024 * 1024;
    const rlimit limit{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &limit);
  }
  if (config.child_cpu_seconds > 0) {
    // Hard limit one second later so SIGXCPU (catchable, classifiable) is
    // what lands, not the uncatchable hard-limit SIGKILL.
    const rlimit limit{config.child_cpu_seconds,
                       static_cast<rlim_t>(config.child_cpu_seconds) + 1};
    ::setrlimit(RLIMIT_CPU, &limit);
  }
  const auto arm_start = Clock::now();
  command = channel->load_command();
  in_trial = true;
  progress.checkpoint_at(ProgressTracker::kNoCheckpoint);
  channel->beat(beats);  // the pulses of the prefix this trial skipped
  if (command.injected) {
    const double target = injection_target(command, rng);
    engine.set_policy(static_cast<SelectionPolicy>(command.policy));
    // The hook captures one pointer, so it is stored in place.
    progress.arm(target, [this](double at) { inject(at); });
  }
  inject_seconds = seconds_since(arm_start);
}

void TrialSupervisor::TrialContext::route() {
  // The template after its last checkpoint: wakes, per command, the
  // latest checkpoint at or before the trial's injection target, and
  // relays the status that checkpoint reports. Status thus reaches the
  // campaign process only through the template. Runs inside a kernel
  // body: every failure is an _exit.
  channel->store_template_setup_seconds(seconds_since(started));
  while (true) {
    std::byte wake;
    if (util::io::read_some(cmd_fd, &wake, 1) <= 0) retire(0);  // shutdown
    const Checkpoint& to = checkpoints[route_of(channel->load_command())];
    int status = 0;
    if (util::io::send_some(to.fd, &wake, 1, MSG_NOSIGNAL) != 1 ||
        util::io::recv_some(to.fd, &status, sizeof(status), 0) !=
            sizeof(status)) {
      // A lost checkpoint: exit, and the campaign process respawns this
      // template and replays the command.
      retire(kTemplateExitLostCheckpoint);
    }
    publish_done(status);
  }
}

void TrialSupervisor::TrialContext::retire(int code) {
  // Closing a checkpoint's socket is its shutdown request; reaping every
  // one before exiting leaves no orphan to a subreaper that never reaps.
  for (unsigned k = 0; k < parked; ++k) ::close(checkpoints[k].fd);
  for (unsigned k = 0; k < parked; ++k) {
    int status = 0;
    (void)waitpid_eintr(checkpoints[k].pid, &status, 0);
  }
  ::_exit(code);
}

void TrialSupervisor::TrialContext::finish() {
  progress.finish();
  // Classify in place: memcmp against the inherited golden mapping
  // decides the verdict. Only a mismatch is summarized, in one pass that
  // allocates nothing (the fault may have corrupted the heap). Exit only
  // through _exit() so the parent's atexit handlers and buffers are not
  // replayed.
  const auto classify_start = Clock::now();
  const auto output = workload.output_bytes();
  const auto golden = supervisor.golden_map_.golden();
  const bool matches =
      output.size() == golden.size() &&
      std::memcmp(output.data(), golden.data(), output.size()) == 0;
  SdcSummary sdc;
  if (!matches) {
    sdc = summarize_sdc(golden, output, supervisor.type_, supervisor.shape_);
  }
  channel->store_trial_timing(inject_seconds, seconds_since(classify_start));
  channel->store_verdict(matches, sdc);
  ::_exit(0);
}

}  // namespace phifi::fi
