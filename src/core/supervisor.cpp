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

/// Template (fork-server) exit codes: fork of a trial grandchild failed /
/// waitpid on the grandchild failed. Either way the parent respawns it.
constexpr int kTemplateExitForkFailed = 5;
constexpr int kTemplateExitWaitFailed = 6;

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

/// Ties a forked template or trial to its parent's life: SIGKILL when the
/// forking thread exits, and an immediate exit when the parent is already
/// gone (it died between fork() and the prctl). Without it a SIGKILLed
/// campaign leaves its templates — and any hanging trial, whose watchdog
/// died with the campaign — alive, holding whatever the parent held open.
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

/// Waits (bounded) until `pid` has exited. Used on orphaned grandchildren
/// after SIGKILL: they reparent to init (or a subreaper), so waitpid cannot
/// observe them, and kill(pid, 0) keeps succeeding on the zombie until its
/// new parent gets round to reaping it. A pidfd turns readable the moment
/// the process exits, reaped or not, after which no verdict or heartbeat
/// write can land; ESRCH means it is already gone. Raw syscall (Linux 5.3+)
/// because not every libc exposes pidfd_open to C++.
void wait_exited(pid_t pid, double timeout_seconds) {
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (fd < 0) return;
  pollfd exited{fd, POLLIN, 0};
  (void)util::io::poll_retry(&exited, 1,
                             static_cast<int>(timeout_seconds * 1e3));
  ::close(fd);
}

}  // namespace

TrialSupervisor::TrialSupervisor(WorkloadFactory factory,
                                 SupervisorConfig config)
    : factory_(factory), config_(config) {
  assert(factory_ != nullptr);
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
    phi::Device device(config_.device_spec, config_.device_os_threads);
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
  // and trial inherits; its digest goes into the journal header so a later
  // resume can adopt the golden without re-running it.
  golden_map_.publish(workload->output_bytes());
  golden_digest_ = golden_map_.digest();
  output_capacity_ = golden_map_.size();
  shape_ = workload->output_shape();
  type_ = workload->output_type();
  windows_ = workload->time_windows();
  name_ = workload->name();
  prepared_ = true;
  ensure_slots(1);
  util::log_info() << name_ << ": golden run " << golden_seconds_ << "s, "
                   << output_capacity_ << " output bytes";
}

void TrialSupervisor::adopt_golden(std::uint64_t digest,
                                   std::uint64_t output_bytes,
                                   double golden_seconds) {
  if (digest == 0 || output_bytes == 0) {
    throw std::runtime_error("TrialSupervisor: cannot adopt an empty golden");
  }
  // Output metadata comes from a setup-less instance: shape, type, windows
  // and name are structural workload properties, fixed at construction.
  auto workload = factory_();
  shape_ = workload->output_shape();
  type_ = workload->output_type();
  windows_ = workload->time_windows();
  name_ = workload->name();
  golden_digest_ = digest;
  output_capacity_ = output_bytes;
  golden_seconds_ = golden_seconds;  // preserves the watchdog deadline
  adopted_ = true;
  prepared_ = true;
  ensure_slots(1);
  util::log_info() << name_ << ": adopted golden digest, skipped "
                   << golden_seconds << "s golden run";
}

void TrialSupervisor::ensure_slots(unsigned count) {
  assert(prepared_ && "call prepare_golden() first");
  while (slots_.size() < count) {
    Slot slot;
    slot.channel = std::make_unique<SharedChannel>(output_capacity_);
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

std::span<const std::byte> TrialSupervisor::slot_output(unsigned slot) const {
  assert(slot < slots_.size());
  const auto output = slots_[slot].channel->output();
  // Masked trials ship zero output bytes (the verdict is enough); observers
  // expecting the trial's output get the golden span, which is
  // bit-identical by definition of Masked.
  if (output.empty() && golden_map_.mapped() &&
      slots_[slot].channel->verdict_ready() &&
      slots_[slot].channel->verdict_matches()) {
    return golden_map_.golden();
  }
  return output;
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
    template_main(channel, fds[1], fds[0], parent);  // never returns
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

void TrialSupervisor::kill_template(Slot& slot) {
  if (slot.template_pid > 0) {
    ::kill(slot.template_pid, SIGKILL);
    int status = 0;
    (void)waitpid_eintr(slot.template_pid, &status, 0);
    slot.template_pid = -1;
  }
  if (slot.cmd_fd >= 0) {
    ::close(slot.cmd_fd);
    slot.cmd_fd = -1;
  }
}

bool TrialSupervisor::kill_template_trial(Slot& slot, bool force, int* status,
                                          bool* escalated) {
  const pid_t gpid = slot.channel->child_pid();
  if (gpid <= 0) {
    if (!force) return false;  // template hasn't forked yet; retry next poll
    // Wedged template, no grandchild: kill and reap the template itself.
    kill_template(slot);
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
      kill_template(slot);
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
    wait_exited(gpid, 1.0);
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
    // Cancel by killing the whole template subtree: the simplest way to
    // guarantee no queued wake byte, in-flight command, or late status
    // publish leaks into the slot's next trial. The next launch pays one
    // template respawn — cancels only happen at the campaign finish line.
    // The grandchild dies first so that its template reaps it: killed the
    // other way round it would be orphaned onto a PID 1 that may never
    // reap it. A wedged template leaves the orphan to wait_exited().
    const pid_t gpid =
        slot.channel->status_ready() ? 0 : slot.channel->child_pid();
    if (gpid > 0) {
      ::kill(gpid, SIGKILL);
      (void)await_status(*slot.channel, slot.cmd_fd, 1.0);
    }
    kill_template(slot);
    if (gpid > 0 && !slot.channel->status_ready()) wait_exited(gpid, 1.0);
    slot.active = false;
    --active_count_;
  }
}

void TrialSupervisor::shutdown_templates() {
  assert(active_count_ == 0 && "shutdown_templates with trials in flight");
  // Closing the parent end of the command socket EOFs the template's
  // blocking read; it _exit(0)s and we reap it. Close ALL socket ends
  // first: a template spawned later inherits the parent ends of earlier
  // slots, so EOF delivery can cascade in reverse spawn order.
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
  result.setup_seconds = slot.channel->trial_setup_seconds();
  if (!slot.setup_skipped) {
    // This trial (re)spawned its fork server, so the template's one-time
    // workload setup sits on this trial's critical path.
    result.setup_seconds += slot.channel->template_setup_seconds();
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
  } else {
    // The child already classified against the shared golden mapping (or
    // its digest) and shipped only the verdict.
    result.outcome = slot.channel->verdict_matches() ? Outcome::kMasked
                                                     : Outcome::kSdc;
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
                                    int parent_fd, pid_t parent) {
  // Fork-server process: pay factory + setup + register_sites ONCE, then
  // loop forking trial grandchildren from this post-setup image on
  // command. COW gives every grandchild a pristine copy of the post-setup
  // state, so in-place mutation by one trial can never leak into the next.
  //
  // Inherited parent-side socket ends are closed first — ours so the
  // parent's close reliably reads as EOF, the other slots' so their
  // shutdown does not wait on this process.
  die_with_parent(parent);
  ::close(parent_fd);
  for (const Slot& other : slots_) {
    if (other.cmd_fd >= 0 && other.cmd_fd != cmd_fd) ::close(other.cmd_fd);
  }
  // phicheck:fork-workload-entry — setup runs workload code; a crash here
  // surfaces as a template death and the parent respawns (bounded).
  try {
    const auto setup_start = Clock::now();
    auto workload = factory_();
    workload->setup(config_.input_seed);
    SiteRegistry registry;
    workload->register_sites(registry);
    channel->store_template_setup_seconds(seconds_since(setup_start));
    const pid_t self = ::getpid();
    while (true) {
      std::byte wake;
      const ssize_t n = util::io::read_some(cmd_fd, &wake, 1);
      if (n <= 0) ::_exit(0);  // parent closed the socket: clean shutdown
      const TrialCommand command = channel->load_command();
      const pid_t pid = ::fork();
      if (pid < 0) ::_exit(kTemplateExitForkFailed);
      if (pid == 0) {
        // never returns
        trial_main(*workload, registry, command, channel, self);
      }
      channel->publish_child(pid);
      int status = 0;
      if (waitpid_eintr(pid, &status, 0) < 0) {
        ::_exit(kTemplateExitWaitFailed);
      }
      channel->publish_status(status);
      // Completion byte, after the status is visible: wakes a parent
      // blocked in wait_for_completion(). Best effort — a vanished parent
      // surfaces as EOF on the next command read.
      const std::byte trial_done{1};
      (void)util::io::send_some(cmd_fd, &trial_done, 1, MSG_NOSIGNAL);
    }
  } catch (...) {
    ::_exit(3);
  }
}

// phicheck:fork-child-entry
void TrialSupervisor::trial_main(Workload& workload, SiteRegistry& registry,
                                 const TrialCommand& command,
                                 SharedChannel* channel, pid_t parent) {
  // Trial grandchild: the workload arrives post-setup (COW from the
  // template), so there is no factory/setup/register_sites here — straight
  // to arming the flip and running. Classification happens in place
  // against the inherited golden mapping; only a verdict (and, for SDC,
  // the corrupted bytes) crosses the channel. Exit only through _exit() so
  // the parent's atexit handlers and buffers are not replayed.
  //
  // Injected faults routinely corrupt the child's heap; glibc then spams
  // stderr before aborting. That abort IS the result (a DUE), so the noise
  // is dropped unless the operator asked for verbose logs.
  die_with_parent(parent);
  if (util::log_level() > util::LogLevel::kInfo) {
    // Deliberate stdio before the workload entry: the template was
    // single-threaded at fork, and the redirect must land before any
    // workload code can crash and trigger glibc's stderr spew.
    // phicheck:allow(fork-safety) reviewed pre-workload stderr redirect
    std::FILE* sink = std::freopen("/dev/null", "w", stderr);
    (void)sink;
  }
  // Resource fences: a runaway trial dies by rlimit in the kernel even if
  // the parent's watchdog is starved or buggy.
  if (config_.child_address_space_mb > 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(config_.child_address_space_mb) * 1024 * 1024;
    const rlimit limit{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &limit);
  }
  if (config_.child_cpu_seconds > 0) {
    // Hard limit one second later so SIGXCPU (catchable, classifiable) is
    // what lands, not the uncatchable hard-limit SIGKILL.
    const rlimit limit{config_.child_cpu_seconds,
                       static_cast<rlim_t>(config_.child_cpu_seconds) + 1};
    ::setrlimit(RLIMIT_CPU, &limit);
  }
  // phicheck:fork-workload-entry — from here the child runs workload code.
  try {
    ProgressTracker progress;
    progress.reset(workload.total_steps());
    if (config_.heartbeat_divisions > 0) {
      progress.set_pulse(config_.heartbeat_divisions,
                         [channel] { channel->beat(); });
    }

    phi::Device device(config_.device_spec, config_.device_os_threads);

    // Selection, fault bits and injection time come from the trial seed
    // alone, in a fixed draw order: tallies are a pure function of the
    // campaign seed (tests/test_fastpath.cpp pins the draws).
    const auto arm_start = Clock::now();
    util::Rng rng(command.injected ? command.trial_seed : 0);
    FlipEngine engine(registry,
                      command.injected
                          ? static_cast<SelectionPolicy>(command.policy)
                          : SelectionPolicy::kCarolFi);
    if (command.injected) {
      const double target = rng.uniform(command.earliest_fraction,
                                        command.latest_fraction);
      // The hook runs on whichever worker thread crosses the target, like
      // the Flip-script running while the stopped program's state sits in
      // memory. A provisional record lands first: if the flip crashes the
      // program within microseconds, the parent still learns the model.
      progress.arm(target, [channel, &command, &engine, &rng](double at) {
        InjectionRecord provisional;
        provisional.injected = true;
        provisional.model = static_cast<FaultModel>(command.model);
        provisional.progress_fraction = at;
        channel->store_record(provisional);
        const InjectionRecord record =
            engine.inject(static_cast<FaultModel>(command.model), rng, at,
                          command.burst);
        channel->store_record(record);
      });
    }
    const double inject_seconds = seconds_since(arm_start);

    workload.run(device, progress);
    progress.finish();

    // Classify in place: memcmp against the inherited golden mapping, or
    // digest-only when the golden was adopted from a journal.
    const auto classify_start = Clock::now();
    const auto output = workload.output_bytes();
    const std::uint64_t digest = fnv1a64(output);
    bool matches;
    if (golden_map_.mapped()) {
      matches = output.size() == golden_map_.size() &&
                std::memcmp(output.data(), golden_map_.golden().data(),
                            output.size()) == 0;
    } else {
      matches = output.size() == output_capacity_ && digest == golden_digest_;
    }
    // SDC ships the corrupted bytes for parent-side analysis; Masked ships
    // nothing but the verdict. Output lands before the verdict flag so the
    // parent never sees a verdict without its bytes.
    if (!matches) channel->store_output(output);
    // The trial paid no setup (the post-setup image arrived via COW); the
    // template's one-time cost is attributed by finalize_slot to the trial
    // that spawned it.
    channel->store_trial_timing(0.0, inject_seconds,
                                seconds_since(classify_start));
    channel->store_verdict(matches, digest);
  } catch (const std::bad_alloc&) {
    ::_exit(kChildExitRlimit);
  } catch (...) {
    ::_exit(3);
  }
  ::_exit(0);
}

}  // namespace phifi::fi
