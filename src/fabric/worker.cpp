#include "fabric/worker.hpp"

#include <poll.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/campaign_journal.hpp"
#include "fabric/protocol.hpp"
#include "fabric/stats.hpp"
#include "telemetry/history.hpp"  // run_id_to_hex
#include "util/log.hpp"
#include "util/posix_io.hpp"

namespace phifi::fabric {

namespace {

using Clock = std::chrono::steady_clock;

/// Lease timeouts without a live coordinator link after which a worker
/// between leases stops: the coordinator reclaims a silent worker's leases
/// after one lease timeout, so by then it holds none.
constexpr double kUnreachableLeaseTimeouts = 4.0;

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

struct CurrentLease {
  std::uint64_t id = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// The whole worker: link state machine + lease executor. Single-threaded;
/// all socket I/O happens between trials (run_range's on_tick), never
/// inside one.
class WorkerLoop {
 public:
  WorkerLoop(fi::TrialSupervisor& supervisor,
             const fi::CampaignConfig& campaign, std::uint64_t fingerprint,
             const FabricOptions& options,
             telemetry::MetricsRegistry* metrics,
             telemetry::TraceWriter* trace, std::ostream& out)
      : supervisor_(&supervisor),
        config_(campaign),
        fingerprint_(fingerprint),
        options_(&options),
        metrics_(metrics),
        trace_(trace),
        out_(&out) {}

  WorkerResult run();

 private:
  void open_shard();
  void on_welcome(const Message& msg);
  bool ensure_link();
  void drain_link();
  void handle(const Message& msg);
  bool tick();  ///< run_range's on_tick: pump link, heartbeat; false = stop
  void maybe_heartbeat();
  void execute_lease();
  void send_done();
  bool stop_requested() const {
    return config_.stop_flag != nullptr &&
           config_.stop_flag->load(std::memory_order_relaxed);
  }

  fi::TrialSupervisor* supervisor_;
  fi::CampaignConfig config_;
  std::uint64_t fingerprint_;
  const FabricOptions* options_;
  telemetry::MetricsRegistry* metrics_;
  telemetry::TraceWriter* trace_;
  std::ostream* out_;

  WorkerResult result_;
  std::unique_ptr<fi::CampaignJournalWriter> shard_;
  /// Attempt indices already durable in the shard, with their
  /// classification — the worker's resume state, the source of lease base
  /// counts, and the per-attempt detail attached to each LeaseDone.
  std::map<std::uint64_t, AttemptOutcome> done_;

  std::unique_ptr<Connection> link_;
  bool welcomed_ = false;
  bool requested_ = false;
  double backoff_ms_ = 0.0;
  Clock::time_point next_connect_{Clock::now()};
  /// When a live link was last seen; the worker gives up on a coordinator
  /// silent for kUnreachableLeaseTimeouts lease timeouts.
  Clock::time_point last_link_{Clock::now()};

  std::optional<CurrentLease> lease_;
  Clock::time_point last_heartbeat_{};
  // Set by handle() while run_range is inside tick(); examined after.
  bool shutdown_seen_ = false;
  bool revoked_ = false;

  // Observability: campaign run id (adopted from WELCOME) and the process
  // start the heartbeat snapshot's uptime counts from.
  std::uint64_t run_id_ = 0;
  bool trace_header_written_ = false;
  bool resumed_shard_ = false;
  Clock::time_point started_{Clock::now()};
};

void WorkerLoop::open_shard() {
  if (file_exists(options_->shard_path)) {
    const fi::JournalContents contents =
        fi::read_journal(options_->shard_path);
    if (contents.header.fingerprint != fingerprint_) {
      throw std::runtime_error(
          "fabric: shard journal '" + options_->shard_path +
          "' was written by a different campaign configuration "
          "(fingerprint mismatch: shard has " +
          std::to_string(contents.header.fingerprint) +
          ", this campaign is " + std::to_string(fingerprint_) + ")");
    }
    fi::require_same_golden(contents.header, supervisor_->golden_digest(),
                            "fabric: shard journal '" + options_->shard_path +
                                "'");
    for (const fi::JournalRecord& record : contents.records) {
      done_.emplace(record.attempt_index, attempt_from_trial(record.trial));
    }
    shard_ = std::make_unique<fi::CampaignJournalWriter>(
        options_->shard_path, contents.valid_bytes, config_.journal_fsync,
        config_.journal_batch);
    resumed_shard_ = true;
    *out_ << "[fabric] worker resumed shard '" << options_->shard_path
          << "': " << done_.size() << " attempts already durable";
    if (contents.dropped_bytes > 0) {
      *out_ << " (dropped " << contents.dropped_bytes << " torn bytes)";
    }
    *out_ << "\n";
  } else {
    fi::JournalHeader header;
    header.fingerprint = fingerprint_;
    header.time_windows = supervisor_->time_windows();
    header.workload = supervisor_->workload_name();
    header.run_id = run_id_;
    // A restarted worker, and the merge, refuse a shard from another golden.
    header.golden_digest = supervisor_->golden_digest();
    shard_ = std::make_unique<fi::CampaignJournalWriter>(
        options_->shard_path, header, config_.journal_fsync,
        config_.journal_batch);
  }
}

/// WELCOME establishes the worker's identity and the campaign's run id —
/// the shard journal header and the trace header carry both, so a shard
/// or a worker trace can be tied back to the coordinator's lease events
/// (docs/FLEET_OBSERVABILITY.md).
void WorkerLoop::on_welcome(const Message& msg) {
  result_.worker_id = msg.worker;
  welcomed_ = true;
  if (run_id_ == 0) run_id_ = msg.run;
  result_.run_id = run_id_;
  if (trace_ != nullptr) {
    trace_->set_run_id(run_id_ != 0 ? telemetry::run_id_to_hex(run_id_)
                                    : std::string());
    trace_->set_worker(result_.worker_id);
  }
  // The shard is opened only now: a fresh shard's header wants the run id,
  // which only the coordinator knows.
  if (shard_ == nullptr) open_shard();
  if (trace_ != nullptr && !trace_header_written_) {
    trace_header_written_ = true;
    telemetry::TraceCampaign header;
    header.workload = supervisor_->workload_name();
    header.trials = config_.trials;
    header.seed = config_.seed;
    header.policy = std::string(to_string(config_.policy));
    for (const fi::FaultModel model : config_.models) {
      header.models.emplace_back(to_string(model));
    }
    header.time_windows = supervisor_->time_windows();
    header.resumed = resumed_shard_;
    header.jobs = config_.jobs;
    trace_->campaign(header);
  }
}

/// Connects (rate-limited by exponential backoff) and sends HELLO. The
/// HELLO carries the current lease, if any, so a coordinator that still
/// considers it outstanding re-adopts instead of double-issuing.
bool WorkerLoop::ensure_link() {
  if (link_ != nullptr && link_->alive()) {
    last_link_ = Clock::now();
    return true;
  }
  if (link_ != nullptr) {
    // Before abandoning a dead link, pop any frames it salvaged — a
    // kShutdown that raced our last send must win over a reconnect.
    drain_link();
    if (shutdown_seen_) return false;
  }
  const auto now = Clock::now();
  if (now < next_connect_) return false;
  const int fd = connect_to(parse_address(options_->address));
  if (fd < 0) {
    backoff_ms_ = backoff_ms_ <= 0.0
                      ? options_->reconnect_initial_ms
                      : std::min(backoff_ms_ * 2.0,
                                 options_->reconnect_initial_ms * 1024.0);
    next_connect_ = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  backoff_ms_));
    return false;
  }
  backoff_ms_ = 0.0;
  last_link_ = now;
  link_ = std::make_unique<Connection>(fd);
  welcomed_ = false;
  requested_ = false;
  util::log_debug() << "fabric: worker " << result_.worker_id
                    << " connected"
                    << (lease_.has_value()
                            ? " (claiming lease " +
                                  std::to_string(lease_->id) + ")"
                            : std::string());
  Message hello;
  hello.type = MsgType::kHello;
  hello.worker = result_.worker_id;
  hello.fingerprint = fingerprint_;
  if (lease_.has_value()) {
    hello.lease = lease_->id;
    hello.begin = lease_->begin;
    hello.end = lease_->end;
  }
  link_->send(hello);
  return true;
}

void WorkerLoop::handle(const Message& msg) {
  switch (msg.type) {
    case MsgType::kWelcome:
      on_welcome(msg);
      break;
    case MsgType::kReject:
      result_.rejected = true;
      result_.reject_reason = msg.text;
      link_->close();
      break;
    case MsgType::kShutdown:
      util::log_debug() << "fabric: worker " << result_.worker_id
                        << " received shutdown";
      shutdown_seen_ = true;
      break;
    case MsgType::kLeaseRevoke:
      if (lease_.has_value() && lease_->id == msg.lease) {
        util::log_warn() << "fabric: worker " << result_.worker_id
                         << " lease " << msg.lease
                         << " revoked (reclaimed by coordinator)";
        revoked_ = true;
      }
      break;
    case MsgType::kLeaseGrant:
      if (lease_.has_value()) {
        // Re-adoption ack for the lease already in hand (the reconnect
        // path) — nothing to do. Any other grant here is a protocol slip.
        if (lease_->id != msg.lease) {
          util::log_warn() << "fabric: worker " << result_.worker_id
                           << " ignoring unexpected grant " << msg.lease
                           << " while holding " << lease_->id;
        }
        break;
      }
      util::log_debug() << "fabric: worker " << result_.worker_id
                        << " granted lease " << msg.lease << " ["
                        << msg.begin << ", " << msg.end << ")";
      lease_ = CurrentLease{msg.lease, msg.begin, msg.end};
      requested_ = false;
      break;
    case MsgType::kHello:
    case MsgType::kLeaseRequest:
    case MsgType::kLeaseDone:
    case MsgType::kHeartbeat:
    case MsgType::kGoodbye:
    default:  // default stays for out-of-range bytes decoded off the wire
      util::log_warn() << "fabric: worker ignoring unexpected "
                       << to_string(msg.type);
      break;
  }
}

void WorkerLoop::drain_link() {
  if (link_ == nullptr) return;
  // Pop buffered frames even when the link is already down: a failed
  // send salvages the peer's parting frames (kShutdown, typically) into
  // the inbound buffer, and skipping them here would miss the shutdown
  // and reconnect forever against a coordinator that already exited.
  if (link_->alive()) link_->pump();
  Message msg;
  try {
    // Keep popping even if pump() just hit EOF: the peer's final frames
    // (a kShutdown before close, typically) are already buffered.
    while (link_->next(&msg)) handle(msg);
  } catch (const std::runtime_error& error) {
    util::log_warn() << "fabric: worker dropping corrupt link: "
                     << error.what();
    link_->close();
  }
}

/// The worker's one periodic frame, every heartbeat_seconds once welcomed:
/// it keeps the held lease alive (lease 0 between leases) and carries the
/// cumulative snapshot. Sent between trials only, never inside one.
void WorkerLoop::maybe_heartbeat() {
  if (link_ == nullptr || !link_->alive() || !welcomed_) return;
  const auto now = Clock::now();
  if (std::chrono::duration<double>(now - last_heartbeat_).count() <
      options_->heartbeat_seconds) {
    return;
  }
  last_heartbeat_ = now;
  WorkerStats stats;
  stats.executed = result_.executed;
  stats.leases_done = result_.leases_done;
  stats.uptime_seconds =
      std::chrono::duration<double>(now - started_).count();
  if (config_.profiler != nullptr) {
    stats.profile = config_.profiler->snapshot();
  }
  Message beat;
  beat.type = MsgType::kHeartbeat;
  beat.worker = result_.worker_id;
  if (lease_.has_value()) beat.lease = lease_->id;
  beat.text = encode_stats(stats);
  link_->send(beat);
}

bool WorkerLoop::tick() {
  if (stop_requested()) return false;
  // Partition tolerance: keep executing the lease while disconnected —
  // the shard journal is the durable output either way. Reconnect
  // attempts ride the backoff clock; a successful HELLO re-claims the
  // lease so the coordinator can re-adopt it.
  ensure_link();
  drain_link();
  if (shutdown_seen_ || revoked_) return false;
  maybe_heartbeat();
  return true;
}

void WorkerLoop::send_done() {
  shard_->sync();  // phicheck:durable-before(done)
  Message done;
  done.type = MsgType::kLeaseDone;
  done.worker = result_.worker_id;
  done.lease = lease_->id;
  done.begin = lease_->begin;
  done.end = lease_->end;
  // The per-attempt classification of the whole range (positional: entry i
  // is attempt begin+i) — the coordinator's only record of its outcomes.
  std::vector<AttemptOutcome> attempts;
  attempts.reserve(lease_->end - lease_->begin);
  for (std::uint64_t index = lease_->begin; index < lease_->end; ++index) {
    const auto it = done_.find(index);
    if (it == done_.end()) {
      throw std::logic_error("fabric: lease [" +
                             std::to_string(lease_->begin) + ", " +
                             std::to_string(lease_->end) +
                             ") reported done without attempt " +
                             std::to_string(index) + " in the shard");
    }
    attempts.push_back(it->second);
  }
  done.text = encode_attempts(attempts);
  util::log_debug() << "fabric: worker " << result_.worker_id
                    << " done with lease " << done.lease;
  link_->send(done);  // phicheck:wire-after(done)
  ++result_.leases_done;
  lease_.reset();
  // If the link died before the send landed, the lease stays claimed in
  // the next HELLO... except we just dropped it. That is still safe: the
  // coordinator's deadline reclaims the range and some worker re-executes
  // it into its shard; the merge dedups. Holding the lease for a
  // Done-retry would be cheaper, but the simple path is also correct.
}

void WorkerLoop::execute_lease() {
  // Skip the prefix this shard already holds (a restarted worker resuming
  // its own lease).
  std::uint64_t first_missing = lease_->begin;
  for (auto it = done_.lower_bound(lease_->begin);
       it != done_.end() && it->first == first_missing &&
       it->first < lease_->end;
       ++it) {
    ++first_missing;
  }

  if (first_missing < lease_->end) {
    fi::Campaign campaign(*supervisor_, config_);
    // Re-executed attempts (post-reclaim overlap) may duplicate records
    // already in another worker's shard; within THIS shard each index
    // appears once because run_range starts past first_missing.
    fi::RangeHooks hooks;
    hooks.journal = shard_.get();
    hooks.on_commit = [this](const fi::JournalRecord& record) {
      done_.emplace(record.attempt_index, attempt_from_trial(record.trial));
      ++result_.executed;
    };
    hooks.on_tick = [this] { return tick(); };
    const fi::RangeResult range =
        campaign.run_range(first_missing, lease_->end, hooks);
    if (range.aborted) {
      result_.aborted = true;
      return;
    }
    if (range.cancelled) {
      if (revoked_) {
        lease_.reset();
        revoked_ = false;
      }
      // shutdown_seen_ / stop_flag: leave the lease claimed; the main
      // loop exits and a later resume can finish it.
      return;
    }
  }
  // Lease fully durable in the shard — report it (if we can).
  if (link_ != nullptr && link_->alive() && welcomed_) {
    send_done();
  }
  // Disconnected: keep the lease; the reconnect HELLO claims it, the
  // coordinator re-adopts and re-grants, execute_lease() finds nothing
  // missing, and the Done goes out then.
}

WorkerResult WorkerLoop::run() {
  if (options_->shard_path.empty()) {
    throw std::runtime_error(
        "fabric: worker requires a shard journal path (--shard-journal)");
  }
  *out_ << "[fabric] worker connecting to " << options_->address
        << ", shard '" << options_->shard_path << "'\n";
  while (true) {
    if (stop_requested()) {
      result_.interrupted = true;
      break;
    }
    if (shutdown_seen_) {
      result_.complete = true;
      break;
    }
    if (result_.rejected || result_.aborted) break;

    if (!ensure_link()) {
      // Between leases with no link: after kUnreachableLeaseTimeouts lease
      // timeouts the coordinator has reclaimed whatever this worker held,
      // so nothing is lost by stopping.
      const double silent =
          std::chrono::duration<double>(Clock::now() - last_link_).count();
      const double limit =
          kUnreachableLeaseTimeouts * options_->lease_timeout_seconds;
      if (!shutdown_seen_ && silent > limit) {
        result_.unreachable = true;
        result_.unreachable_seconds = silent;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    if (welcomed_ && lease_.has_value()) {
      execute_lease();
      continue;
    }
    if (welcomed_ && !lease_.has_value() && !requested_) {
      Message request;
      request.type = MsgType::kLeaseRequest;
      request.worker = result_.worker_id;
      link_->send(request);
      requested_ = true;
    }
    maybe_heartbeat();
    pollfd pfd{link_->fd(), POLLIN, 0};
    util::io::poll_retry(&pfd, 1, 100);
    drain_link();
    if (link_ != nullptr && !link_->alive()) {
      // Lost the coordinator between leases: re-request after reconnect.
      util::log_debug() << "fabric: worker " << result_.worker_id
                        << " lost coordinator link";
      requested_ = false;
    }
  }
  if (link_ != nullptr && link_->alive()) {
    Message goodbye;
    goodbye.type = MsgType::kGoodbye;
    goodbye.worker = result_.worker_id;
    link_->send(goodbye);
    link_->close();
  }
  if (shard_ != nullptr) shard_->sync();
  if (metrics_ != nullptr) {
    metrics_->counter("fabric.leases_done").inc(result_.leases_done);
  }
  *out_ << "[fabric] worker " << result_.worker_id << " done: "
        << (result_.complete
                ? "campaign complete"
                : (result_.interrupted
                       ? "interrupted"
                       : (result_.rejected
                              ? "rejected"
                              : (result_.unreachable ? "coordinator unreachable"
                                                     : "stopped"))))
        << ", " << result_.leases_done << " leases, " << result_.executed
        << " attempts executed\n";
  return result_;
}

}  // namespace

WorkerResult run_worker(fi::TrialSupervisor& supervisor,
                        const fi::CampaignConfig& campaign,
                        std::uint64_t fingerprint,
                        const FabricOptions& options,
                        telemetry::MetricsRegistry* metrics,
                        telemetry::TraceWriter* trace, std::ostream& out) {
  WorkerLoop loop(supervisor, campaign, fingerprint, options, metrics,
                  trace, out);
  return loop.run();
}

}  // namespace phifi::fabric
