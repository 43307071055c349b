#include "fabric/coordinator.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/http.hpp"
#include "fabric/lease.hpp"
#include "fabric/protocol.hpp"
#include "fabric/stats.hpp"
#include "telemetry/history.hpp"  // run_id_to_hex, generate_run_id
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/posix_io.hpp"
#include "util/statistics.hpp"

namespace phifi::fabric {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point then, Clock::time_point now) {
  return std::chrono::duration<double>(now - then).count();
}

/// Per-connection coordinator state. worker == 0 until the HELLO arrives.
struct WorkerConn {
  std::unique_ptr<Connection> link;
  std::uint64_t worker = 0;
  /// Asked for a lease while none was grantable; served on next reclaim.
  bool hungry = false;
};

/// What the coordinator remembers about a worker *identity* — unlike
/// WorkerConn this survives disconnects, so a SIGKILLed worker shows up
/// as a dead row in /campaign.json instead of vanishing.
struct WorkerView {
  bool connected = false;
  Clock::time_point joined{};
  Clock::time_point last_seen{};  ///< last frame of any kind
  bool have_stats = false;
  WorkerStats stats;              ///< latest heartbeat snapshot, verbatim
  std::uint64_t lease = 0;        ///< current lease id (0 = none)
  std::uint64_t lease_begin = 0;
  std::uint64_t lease_end = 0;
  Clock::time_point lease_since{};
};

/// The fleet tally, the coordinator's one record of outcomes: per-attempt
/// LeaseDone details buffered by range begin, folded at the contiguous
/// frontier up to the campaign finish line (as merge.cpp walks the merged
/// journal), so every number the coordinator reports — completion, the
/// campaign.* counters and progress line, /campaign.json, the trace end
/// record, --history and CoordinatorResult — is bit-identical to a
/// post-campaign phifi_merge + phifi_parse of the same accepted ranges.
struct FleetState {
  std::map<std::uint64_t, std::vector<AttemptOutcome>> details;
  std::uint64_t frontier = 0;  ///< next attempt index to fold
  fi::OutcomeTally tally;      ///< injected attempts inside the boundary
  std::uint64_t not_injected = 0;
  std::map<std::string, std::uint64_t> due_kinds;
  bool boundary = false;
  bool stopped_early = false;
};

struct LoopState {
  const fi::CampaignConfig* config = nullptr;
  std::uint64_t fingerprint = 0;
  const FabricOptions* options = nullptr;
  LeaseTable* table = nullptr;
  LeaseLedgerWriter* ledger = nullptr;
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceWriter* trace = nullptr;
  telemetry::CampaignEstimator* estimator = nullptr;
  CoordinatorResult* result = nullptr;
  std::vector<std::unique_ptr<WorkerConn>>* conns = nullptr;
  std::map<std::uint64_t, WorkerView>* views = nullptr;
  FleetState* fleet = nullptr;
  std::uint64_t next_worker_id = 1;
  std::uint64_t run_id = 0;
  Clock::time_point started{};
};

double trace_now_ms(const LoopState& state) {
  return state.trace != nullptr ? state.trace->now_ms() : 0.0;
}

void trace_fabric(const LoopState& state, const std::string& kind,
                  std::uint64_t worker, const Lease* lease,
                  std::uint64_t injected = 0) {
  if (state.trace == nullptr) return;
  telemetry::TraceFabricEvent event;
  event.kind = kind;
  event.worker = worker;
  if (lease != nullptr) {
    event.lease = lease->id;
    event.begin = lease->begin;
    event.end = lease->end;
  }
  event.injected = injected;
  event.ts_ms = trace_now_ms(state);
  state.trace->fabric(event);
}

Clock::time_point lease_deadline(const LoopState& state) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                state.options->lease_timeout_seconds));
}

void ledger_append(LoopState& state, LedgerKind kind, const Lease& lease,
                   const std::string& detail = std::string()) {
  if (state.ledger == nullptr) return;
  state.ledger->append({kind, lease.id, lease.begin, lease.end, detail});
}

/// The one gate a DONE passes, live or replayed from the ledger: its detail
/// must decode to exactly one entry per attempt of [begin, end), each with a
/// known outcome, and its lease must be outstanding with that range. Then
/// the lease retires and the detail waits at the fleet frontier. Anything
/// else is logged and ignored: a lease whose DONE did not verify stays
/// outstanding, runs out its deadline and is re-executed.
bool accept_done(LoopState& state, std::uint64_t worker,
                 std::uint64_t lease, std::uint64_t begin, std::uint64_t end,
                 const std::string& detail) {
  std::vector<AttemptOutcome> attempts;
  try {
    attempts = decode_attempts(detail);
    if (attempts.size() != end - begin) {
      throw std::runtime_error("detail has " +
                               std::to_string(attempts.size()) +
                               " entries for the range");
    }
  } catch (const std::runtime_error& error) {
    util::log_warn() << "fabric: ignoring lease-done for lease " << lease
                     << " [" << begin << ", " << end << ") from worker "
                     << worker << ": " << error.what();
    return false;
  }
  // A stale DONE (range reclaimed and re-executed elsewhere) is dropped;
  // the merge dedups any overlap in the shards.
  if (!state.table->complete(lease, begin, end)) return false;
  state.fleet->details.emplace(begin, std::move(attempts));
  return true;
}

/// Folds buffered details at the contiguous frontier into the fleet tally,
/// the campaign.* counters and the estimator — through the commit point's
/// own outcome mappings — applying the campaign finish line after every
/// injected attempt (merge.cpp does exactly this walk over the merged
/// journal). Publishes the estimator gauges when anything advanced.
void advance_fleet(LoopState& state) {
  FleetState& fleet = *state.fleet;
  bool advanced = false;
  while (!fleet.boundary) {
    const auto it = fleet.details.find(fleet.frontier);
    if (it == fleet.details.end()) break;
    for (const AttemptOutcome& attempt : it->second) {
      if (fleet.boundary) break;  // rest of the range is overshoot
      if (state.metrics != nullptr) {
        fi::count_outcome(*state.metrics, attempt.outcome, attempt.due_kind);
      }
      if (attempt.outcome == fi::Outcome::kNotInjected) {
        ++fleet.not_injected;
        continue;
      }
      fleet.tally.add(attempt.outcome);
      if (attempt.outcome == fi::Outcome::kDue) {
        ++fleet.due_kinds[attempt.due_kind];
      }
      if (state.estimator != nullptr) {
        fi::estimate_outcome(*state.estimator, attempt.outcome, attempt.model,
                             attempt.window, attempt.category,
                             attempt.injected);
      }
      const fi::FinishLine finish =
          fi::campaign_finish_line(*state.config, fleet.tally);
      fleet.boundary = finish.reached;
      fleet.stopped_early = finish.stopped_early;
    }
    fleet.frontier += it->second.size();
    fleet.details.erase(it);
    advanced = true;
  }
  if (advanced && state.estimator != nullptr && state.metrics != nullptr) {
    state.estimator->publish(*state.metrics);
  }
}

/// Folds the latest profile snapshot of every worker that sent one. Each
/// heartbeat snapshot is cumulative, so re-folding the latest from scratch on
/// every refresh is exact — the result is bit-identical to the histogram a
/// --jobs 1 run of the same committed trials would hold (profiler.hpp).
telemetry::ProfileSnapshot fold_fleet_profile(const LoopState& state) {
  telemetry::ProfileSnapshot fleet;
  for (const auto& [id, view] : *state.views) {
    if (view.have_stats) fleet.fold(view.stats.profile);
  }
  return fleet;
}

/// Refreshes the per-worker gauges (fabric.worker.<id>.*) from the view
/// table — heartbeat lag, lease age, and last-reported throughput — and
/// the fleet latency-anatomy gauges (profile.<phase>.*) when any worker
/// runs with --profile.
void refresh_worker_gauges(LoopState& state) {
  if (state.metrics == nullptr) return;
  const auto now = Clock::now();
  for (const auto& [id, view] : *state.views) {
    const std::string prefix = "fabric.worker." + std::to_string(id) + ".";
    state.metrics->gauge(prefix + "connected")
        .set(view.connected ? 1.0 : 0.0);
    state.metrics->gauge(prefix + "lag_seconds")
        .set(seconds_since(view.last_seen, now));
    state.metrics->gauge(prefix + "lease_age_seconds")
        .set(view.lease != 0 ? seconds_since(view.lease_since, now) : 0.0);
    state.metrics->gauge(prefix + "trials_per_sec")
        .set(view.have_stats ? view.stats.trials_per_sec() : 0.0);
    if (view.have_stats && view.stats.profile.trials() > 0) {
      state.metrics->gauge(prefix + "p95_run_ms")
          .set(telemetry::profile_percentile_ms(
              view.stats.profile.phase(telemetry::ProfilePhase::kRun), 95));
    }
  }
  const telemetry::ProfileSnapshot fleet = fold_fleet_profile(state);
  if (fleet.trials() == 0) return;
  for (std::size_t p = 0; p < telemetry::kProfilePhaseCount; ++p) {
    const std::string prefix =
        "profile." +
        std::string(to_string(static_cast<telemetry::ProfilePhase>(p))) +
        ".";
    state.metrics->gauge(prefix + "p50_ms")
        .set(telemetry::profile_percentile_ms(fleet.phases[p], 50));
    state.metrics->gauge(prefix + "p95_ms")
        .set(telemetry::profile_percentile_ms(fleet.phases[p], 95));
    state.metrics->gauge(prefix + "p99_ms")
        .set(telemetry::profile_percentile_ms(fleet.phases[p], 99));
  }
  state.metrics->gauge("profile.trials")
      .set(static_cast<double>(fleet.trials()));
}

/// Renders the /campaign.json document: fleet tallies and intervals, the
/// lease picture, and one row per worker ever seen (dead ones included —
/// that is the point). This is what phifi_top draws.
std::string build_campaign_json(const LoopState& state) {
  using util::json::Value;
  const auto now = Clock::now();
  Value doc = Value::object();
  doc["run_id"] = telemetry::run_id_to_hex(state.run_id);
  doc["fingerprint"] = telemetry::run_id_to_hex(state.fingerprint);
  doc["trials_target"] = state.table->trials();
  doc["uptime_seconds"] = seconds_since(state.started, now);

  const FleetState& fleet = *state.fleet;
  doc["completed"] = fleet.tally.total();
  doc["masked"] = fleet.tally.masked;
  doc["sdc"] = fleet.tally.sdc;
  doc["due"] = fleet.tally.due;
  doc["not_injected"] = fleet.not_injected;
  doc["fleet_boundary"] = fleet.boundary;
  doc["stopped_early"] = fleet.stopped_early;
  Value kinds = Value::object();
  for (const auto& [kind, count] : fleet.due_kinds) kinds[kind] = count;
  doc["due_kinds"] = std::move(kinds);
  if (state.estimator != nullptr && state.estimator->total() > 0) {
    const util::Interval sdc_ci = state.estimator->sdc_interval();
    const util::Interval due_ci = state.estimator->due_interval();
    doc["sdc_rate"] = sdc_ci.point;
    doc["sdc_ci_lo"] = sdc_ci.lo;
    doc["sdc_ci_hi"] = sdc_ci.hi;
    doc["due_rate"] = due_ci.point;
    doc["due_ci_lo"] = due_ci.lo;
    doc["due_ci_hi"] = due_ci.hi;
    if (state.config->stop_ci_width > 0.0) {
      doc["eta_trials_to_stop"] = state.estimator->trials_to_half_width(
          state.config->stop_ci_width);
    }
  }

  Value leases = Value::object();
  leases["granted"] = state.result->leases_granted;
  leases["reclaimed"] = state.result->leases_reclaimed;
  leases["outstanding"] = state.table->outstanding();
  doc["leases"] = std::move(leases);

  // Fleet latency anatomy: exact fold over the workers' cumulative
  // snapshots (present only when at least one worker profiles).
  const telemetry::ProfileSnapshot profile = fold_fleet_profile(state);
  if (profile.trials() > 0) {
    Value latency = Value::object();
    latency["trials"] = profile.trials();
    Value phases = Value::array();
    for (std::size_t p = 0; p < telemetry::kProfilePhaseCount; ++p) {
      Value row = Value::object();
      row["phase"] = std::string(
          to_string(static_cast<telemetry::ProfilePhase>(p)));
      row["count"] = profile.phases[p].count;
      row["mean_ms"] = profile.phases[p].mean_ms();
      row["p50_ms"] = telemetry::profile_percentile_ms(profile.phases[p], 50);
      row["p95_ms"] = telemetry::profile_percentile_ms(profile.phases[p], 95);
      row["p99_ms"] = telemetry::profile_percentile_ms(profile.phases[p], 99);
      phases.push_back(std::move(row));
    }
    latency["phases"] = std::move(phases);
    doc["latency"] = std::move(latency);
  }

  Value workers = Value::array();
  for (const auto& [id, view] : *state.views) {
    Value row = Value::object();
    row["id"] = id;
    row["status"] = view.connected ? "live" : "dead";
    row["lag_seconds"] = seconds_since(view.last_seen, now);
    if (view.lease != 0) {
      row["lease"] = view.lease;
      row["lease_begin"] = view.lease_begin;
      row["lease_end"] = view.lease_end;
      row["lease_age_seconds"] = seconds_since(view.lease_since, now);
    }
    if (view.have_stats) {
      row["executed"] = view.stats.executed;
      row["leases_done"] = view.stats.leases_done;
      row["trials_per_sec"] = view.stats.trials_per_sec();
      row["uptime_seconds"] = view.stats.uptime_seconds;
      if (view.stats.profile.trials() > 0) {
        row["p95_run_ms"] = telemetry::profile_percentile_ms(
            view.stats.profile.phase(telemetry::ProfilePhase::kRun), 95);
      }
    }
    workers.push_back(std::move(row));
  }
  doc["workers"] = std::move(workers);
  return doc.dump();
}

/// Grants the next available range to `conn` (ledger first, then wire).
/// Returns false when nothing is grantable right now.
bool try_grant(LoopState& state, WorkerConn& conn) {
  std::optional<Lease> lease =
      state.table->grant(conn.worker, lease_deadline(state));
  if (!lease.has_value()) return false;
  // Durability before announcement: a coordinator killed between these
  // two lines restarts with the range orphaned, and either the worker
  // re-claims it via HELLO (if the grant did reach the wire) or the
  // deadline reclaims it. Killed before the append, the grant simply
  // never happened.
  ledger_append(state, LedgerKind::kGrant, *lease);  // phicheck:durable-before(grant)
  Message grant;
  grant.type = MsgType::kLeaseGrant;
  grant.worker = conn.worker;
  grant.lease = lease->id;
  grant.begin = lease->begin;
  grant.end = lease->end;
  conn.link->send(grant);  // phicheck:wire-after(grant)
  conn.hungry = false;
  ++state.result->leases_granted;
  if (state.metrics != nullptr) {
    state.metrics->counter("fabric.leases_granted").inc();
  }
  WorkerView& view = (*state.views)[conn.worker];
  view.lease = lease->id;
  view.lease_begin = lease->begin;
  view.lease_end = lease->end;
  view.lease_since = Clock::now();
  trace_fabric(state, "lease_grant", conn.worker, &*lease);
  return true;
}

void handle_hello(LoopState& state, WorkerConn& conn, const Message& msg) {
  if (msg.fingerprint != state.fingerprint) {
    Message reject;
    reject.type = MsgType::kReject;
    reject.text = "campaign fingerprint mismatch: worker has " +
                  std::to_string(msg.fingerprint) + ", coordinator expects " +
                  std::to_string(state.fingerprint) +
                  " (different config/workload/seed?)";
    conn.link->send(reject);
    conn.link->close();
    return;
  }
  // A reconnecting worker keeps its id unless another live connection
  // already holds it (then it gets a fresh one — ids only matter for
  // lease ownership bookkeeping, not for determinism).
  std::uint64_t id = msg.worker;
  if (id != 0) {
    for (const auto& other : *state.conns) {
      if (other.get() != &conn && other->worker == id &&
          other->link->alive()) {
        id = 0;
        break;
      }
    }
  }
  if (id == 0) {
    id = state.next_worker_id++;
    ++state.result->workers_seen;
  }
  conn.worker = id;
  WorkerView& view = (*state.views)[id];
  const auto now = Clock::now();
  if (!view.connected && view.joined == Clock::time_point{}) {
    view.joined = now;
  }
  view.connected = true;
  view.last_seen = now;
  trace_fabric(state, "worker_join", id, nullptr);
  util::log_debug() << "fabric: coordinator welcomed worker " << id
                    << (msg.lease != 0
                            ? " (claims lease " + std::to_string(msg.lease) +
                                  ")"
                            : std::string());

  Message welcome;
  welcome.type = MsgType::kWelcome;
  welcome.worker = id;
  welcome.run = state.run_id;
  conn.link->send(welcome);

  // A HELLO can carry a lease claim: the worker was executing it when the
  // link (or the coordinator) died. Re-adopt if it is still outstanding;
  // otherwise tell the worker to drop it (it was reclaimed meanwhile).
  if (msg.lease != 0) {
    if (state.table->adopt(msg.lease, id, lease_deadline(state))) {
      Message grant;
      grant.type = MsgType::kLeaseGrant;
      grant.worker = id;
      grant.lease = msg.lease;
      grant.begin = msg.begin;
      grant.end = msg.end;
      conn.link->send(grant);
      view.lease = msg.lease;
      view.lease_begin = msg.begin;
      view.lease_end = msg.end;
      view.lease_since = now;
      Lease lease{msg.lease, msg.begin, msg.end, id, {}};
      trace_fabric(state, "lease_adopt", id, &lease);
    } else {
      Message revoke;
      revoke.type = MsgType::kLeaseRevoke;
      revoke.worker = id;
      revoke.lease = msg.lease;
      conn.link->send(revoke);
    }
  }
}

void handle_message(LoopState& state, WorkerConn& conn, const Message& msg) {
  if (conn.worker != 0) {
    const auto it = state.views->find(conn.worker);
    if (it != state.views->end()) it->second.last_seen = Clock::now();
  }
  switch (msg.type) {
    case MsgType::kHello:
      handle_hello(state, conn, msg);
      break;
    case MsgType::kLeaseRequest: {
      if (state.fleet->boundary) {
        Message shutdown;
        shutdown.type = MsgType::kShutdown;
        conn.link->send(shutdown);
        break;
      }
      if (!try_grant(state, conn)) {
        if (state.table->outstanding() > 0) {
          // Nothing grantable now, but outstanding leases may yet be
          // reclaimed — hold the request and serve it then.
          conn.hungry = true;
        } else {
          // Fresh space exhausted, nothing outstanding, campaign not
          // complete: the retry budget ran out. Send the worker home.
          Message shutdown;
          shutdown.type = MsgType::kShutdown;
          conn.link->send(shutdown);
        }
      }
      break;
    }
    case MsgType::kHeartbeat:
      // Liveness first, whatever the snapshot holds. A stale heartbeat
      // (lease already reclaimed) or one between leases (lease 0) refreshes
      // nothing; a revoked worker learns via the revoke already sent, or at
      // reconnect.
      state.table->heartbeat(msg.lease, lease_deadline(state));
      // The snapshot is observability only: a torn or hostile one costs a
      // log line, and no tally reads it.
      if (conn.worker != 0 && !msg.text.empty()) {
        try {
          WorkerView& view = (*state.views)[conn.worker];
          view.stats = decode_stats(msg.text);
          view.have_stats = true;
        } catch (const std::runtime_error& error) {
          util::log_warn() << "fabric: dropping malformed snapshot from "
                              "worker "
                           << conn.worker << ": " << error.what();
        }
      }
      break;
    case MsgType::kLeaseDone: {
      if (!accept_done(state, conn.worker, msg.lease, msg.begin, msg.end,
                       msg.text)) {
        break;
      }
      const Lease lease{msg.lease, msg.begin, msg.end, conn.worker, {}};
      const std::vector<AttemptOutcome>& attempts =
          state.fleet->details.at(msg.begin);
      const auto injected = static_cast<std::uint64_t>(std::count_if(
          attempts.begin(), attempts.end(), [](const AttemptOutcome& a) {
            return a.outcome != fi::Outcome::kNotInjected;
          }));
      // The detail rides into the ledger so a restarted coordinator
      // rebuilds the fleet tally from replay alone.
      ledger_append(state, LedgerKind::kDone, lease, msg.text);
      advance_fleet(state);
      if (conn.worker != 0) {
        WorkerView& view = (*state.views)[conn.worker];
        if (view.lease == msg.lease) view.lease = 0;
      }
      trace_fabric(state, "lease_done", conn.worker, &lease, injected);
      util::log_debug() << "fabric: lease " << msg.lease << " done by "
                        << conn.worker << ", fleet frontier "
                        << state.fleet->frontier;
      break;
    }
    case MsgType::kGoodbye:
      trace_fabric(state, "worker_leave", conn.worker, nullptr);
      if (conn.worker != 0) {
        const auto it = state.views->find(conn.worker);
        if (it != state.views->end()) it->second.connected = false;
      }
      conn.link->close();
      break;
    case MsgType::kWelcome:
    case MsgType::kReject:
    case MsgType::kLeaseGrant:
    case MsgType::kLeaseRevoke:
    case MsgType::kShutdown:
    default:  // default stays for out-of-range bytes decoded off the wire
      util::log_warn() << "fabric: coordinator ignoring unexpected "
                       << to_string(msg.type) << " from worker "
                       << conn.worker;
      break;
  }
}

/// Deadline sweep: reclaim expired leases, revoke them on any live link,
/// and feed reclaimed ranges to hungry workers.
void sweep_expired(LoopState& state) {
  const std::vector<Lease> expired = state.table->expire(Clock::now());
  for (const Lease& lease : expired) {
    ledger_append(state, LedgerKind::kReclaim, lease);
    ++state.result->leases_reclaimed;
    if (state.metrics != nullptr) {
      state.metrics->counter("fabric.leases_reclaimed").inc();
    }
    const auto it = state.views->find(lease.worker);
    if (it != state.views->end() && it->second.lease == lease.id) {
      it->second.lease = 0;
    }
    trace_fabric(state, "lease_reclaim", lease.worker, &lease);
    util::log_warn() << "fabric: lease " << lease.id << " ["
                     << lease.begin << ", " << lease.end
                     << ") reclaimed from worker " << lease.worker
                     << " (heartbeat deadline missed)";
    for (auto& conn : *state.conns) {
      if (conn->worker == lease.worker && conn->link->alive()) {
        Message revoke;
        revoke.type = MsgType::kLeaseRevoke;
        revoke.worker = conn->worker;
        revoke.lease = lease.id;
        conn->link->send(revoke);
      }
    }
  }
  if (!expired.empty()) {
    for (auto& conn : *state.conns) {
      if (conn->hungry && conn->link->alive() && conn->worker != 0) {
        try_grant(state, *conn);
      }
    }
  }
}

}  // namespace

// phicheck:poll-loop — single-threaded event loop; anything blocking here
// stalls heartbeats, grants, and the scrape endpoint for the whole fleet.
CoordinatorResult run_coordinator(const fi::CampaignConfig& campaign,
                                  std::uint64_t fingerprint,
                                  const FabricOptions& options,
                                  telemetry::MetricsRegistry* metrics,
                                  telemetry::TraceWriter* trace,
                                  telemetry::CampaignEstimator* estimator,
                                  telemetry::ProgressEmitter* progress,
                                  std::ostream& out) {
  // The run() retry budget; once the fold has walked all of it the
  // campaign is over even short of the finish line, as a --jobs 1 run's is.
  const std::uint64_t budget = static_cast<std::uint64_t>(
      campaign.trials * (1 + campaign.max_retry_factor));
  LeaseTable table(campaign.trials, budget, options.lease_size);

  CoordinatorResult result;
  std::vector<std::unique_ptr<WorkerConn>> conns;
  std::map<std::uint64_t, WorkerView> views;
  FleetState fleet;
  LoopState state;
  state.config = &campaign;
  state.fingerprint = fingerprint;
  state.options = &options;
  state.table = &table;
  state.metrics = metrics;
  state.trace = trace;
  state.estimator = estimator;
  state.result = &result;
  state.conns = &conns;
  state.views = &views;
  state.fleet = &fleet;
  state.started = Clock::now();

  // Run-id resolution: an explicit option wins, a resumed ledger's header
  // keeps its original id (the continued campaign IS the same run), and
  // a fresh campaign draws one.
  std::uint64_t run_id = options.run_id;

  // Ledger resume: replay an existing ledger so outstanding leases are
  // re-adoptable by their reconnecting workers (or expire and re-lease),
  // and so DONE details rebuild the exact fleet tally.
  std::unique_ptr<LeaseLedgerWriter> ledger;
  if (!options.ledger_path.empty()) {
    if (::access(options.ledger_path.c_str(), F_OK) == 0) {
      // read_ledger throws on an unreadable/headerless file — that is an
      // error here (the file exists but is not a ledger), not a fresh
      // start: silently truncating a mystery file would destroy evidence.
      const LedgerContents contents = read_ledger(options.ledger_path);
      if (contents.fingerprint != fingerprint) {
        throw std::runtime_error(
            "fabric: lease ledger '" + options.ledger_path +
            "' belongs to a different campaign (fingerprint mismatch)");
      }
      if (run_id == 0) run_id = contents.run_id;
      // Restored leases get a full timeout of grace so their workers can
      // reconnect and re-adopt before the deadline sweep re-leases them.
      const auto grace = Clock::now() +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options.lease_timeout_seconds));
      for (const LedgerRecord& record : contents.records) {
        switch (record.kind) {
          case LedgerKind::kGrant:
            table.restore_grant(record.lease, record.begin, record.end,
                                grace);
            break;
          case LedgerKind::kDone:
            accept_done(state, 0, record.lease, record.begin, record.end,
                        record.detail);
            break;
          case LedgerKind::kReclaim:
            table.restore_reclaim(record.lease);
            break;
        }
      }
      ledger = std::make_unique<LeaseLedgerWriter>(options.ledger_path,
                                                   contents.valid_bytes);
      out << "[fabric] coordinator resumed ledger '" << options.ledger_path
          << "': " << contents.records.size() << " records, "
          << table.outstanding() << " leases outstanding";
      if (contents.dropped_bytes > 0) {
        out << " (dropped " << contents.dropped_bytes << " torn bytes)";
      }
      out << "\n";
    } else {
      if (run_id == 0) run_id = telemetry::generate_run_id();
      ledger = std::make_unique<LeaseLedgerWriter>(
          options.ledger_path, fingerprint, campaign.trials, run_id);
    }
  }
  if (run_id == 0) run_id = telemetry::generate_run_id();
  state.run_id = run_id;
  result.run_id = run_id;
  state.ledger = ledger.get();
  if (trace != nullptr) {
    trace->set_run_id(telemetry::run_id_to_hex(run_id));
  }
  // Replayed DONE details fold immediately, so the fleet tally (and the
  // estimator, if any) is exact from the first poll iteration on.
  advance_fleet(state);

  const Address address = parse_address(options.address);
  const int listen_fd = listen_on(address);
  out << "[fabric] coordinator listening on " << options.address << " ("
      << campaign.trials << " trials, lease size " << options.lease_size
      << ", run " << telemetry::run_id_to_hex(run_id) << ")\n";

  // The scrape endpoint is serviced from the same poll loop as the worker
  // links — no extra thread, no locking (docs/FLEET_OBSERVABILITY.md).
  std::unique_ptr<ScrapeServer> scrape;
  if (!options.serve_metrics.empty()) {
    scrape = std::make_unique<ScrapeServer>(options.serve_metrics);
    scrape->set_metrics_handler([&state]() {
      refresh_worker_gauges(state);
      return state.metrics != nullptr ? state.metrics->render_openmetrics()
                                      : std::string("# EOF\n");
    });
    scrape->set_campaign_handler(
        [&state]() { return build_campaign_json(state); });
    out << "[fabric] scrape endpoint on " << options.serve_metrics
        << " (port " << scrape->port() << ")\n";
  }

  if (metrics != nullptr) {
    metrics->gauge("campaign.trials_target")
        .set(static_cast<double>(campaign.trials));
  }

  while (true) {
    if (campaign.stop_flag != nullptr &&
        campaign.stop_flag->load(std::memory_order_relaxed)) {
      result.interrupted = true;
      break;
    }
    // The campaign ends where the fleet fold says it does.
    if (fleet.boundary || fleet.frontier >= budget) break;

    sweep_expired(state);

    // Drop closed connections (keep the vector small; worker state that
    // matters — the leases — lives in the table, keyed by worker id).
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [&state](const auto& conn) {
                                 if (conn->link->alive()) return false;
                                 if (conn->worker != 0) {
                                   trace_fabric(state, "worker_leave",
                                                conn->worker, nullptr);
                                   const auto it = state.views->find(
                                       conn->worker);
                                   if (it != state.views->end()) {
                                     it->second.connected = false;
                                   }
                                 }
                                 return true;
                               }),
                conns.end());

    std::uint64_t live = 0;
    for (const auto& conn : conns) {
      if (conn->worker != 0) ++live;
    }
    if (metrics != nullptr) {
      metrics->gauge("fabric.workers_live").set(static_cast<double>(live));
      metrics->gauge("fabric.leases_outstanding")
          .set(static_cast<double>(table.outstanding()));
      refresh_worker_gauges(state);
    }
    if (progress != nullptr) progress->tick();

    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    for (const auto& conn : conns) {
      fds.push_back({conn->link->fd(), POLLIN, 0});
    }
    const std::size_t scrape_base = fds.size();
    if (scrape != nullptr) scrape->collect_fds(fds);
    const int n = util::io::poll_retry(fds.data(), fds.size(), 100);
    if (n < 0) {
      throw std::runtime_error("fabric: coordinator poll failed");
    }
    // Service scrape clients every pass: accepts, reads, and nonblocking
    // writes are all cheap no-ops when nothing is pending.
    if (scrape != nullptr) scrape->service();
    (void)scrape_base;
    if (n <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      while (true) {
        const int fd = accept_on(listen_fd);
        if (fd < 0) break;
        auto conn = std::make_unique<WorkerConn>();
        conn->link = std::make_unique<Connection>(fd);
        conns.push_back(std::move(conn));
      }
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      // fds[1 + i] only covers connections that existed before poll();
      // newly accepted ones are pumped next iteration.
      if (1 + i >= scrape_base) break;
      if ((fds[1 + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      WorkerConn& conn = *conns[i];
      conn.link->pump();  // EOF just marks the link dead; leases keep
                          // their deadline (quick reconnects re-adopt)
      Message msg;
      try {
        // Pop past EOF too: a worker's parting frames (kGoodbye, a final
        // kLeaseDone) are buffered even though pump() closed the link.
        while (conn.link->next(&msg)) {
          handle_message(state, conn, msg);
        }
      } catch (const std::runtime_error& error) {
        util::log_warn() << "fabric: dropping worker " << conn.worker
                         << " connection: " << error.what();
        conn.link->close();
      }
    }
  }

  // Wind-down: tell everyone still connected to go home — then WAIT for
  // each worker to hang up (kGoodbye or EOF) instead of closing right
  // away. Closing with a worker's frame still unread in our receive queue
  // resets the stream and the kernel discards the queued kShutdown; the
  // worker would see a bare disconnect and reconnect forever against an
  // address that no longer exists. The grace loop keeps handling inbound
  // frames (a crossed kLeaseDone still reaches the ledger; a crossed
  // kLeaseRequest gets the kShutdown retransmitted by handle_message).
  ::close(listen_fd);
  if (address.is_unix) ::unlink(address.path.c_str());
  Message shutdown;
  shutdown.type = MsgType::kShutdown;
  for (auto& conn : conns) {
    if (conn->link->alive()) {
      util::log_debug() << "fabric: coordinator sending shutdown to worker "
                        << conn->worker;
      conn->link->send(shutdown);
    }
  }
  const auto grace_end = Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < grace_end) {
    std::vector<pollfd> fds;
    for (const auto& conn : conns) {
      if (conn->link->alive()) {
        fds.push_back({conn->link->fd(), POLLIN, 0});
      }
    }
    if (fds.empty()) break;  // every worker has hung up
    if (scrape != nullptr) scrape->collect_fds(fds);
    util::io::poll_retry(fds.data(), fds.size(), 50);
    if (scrape != nullptr) scrape->service();
    for (auto& conn : conns) {
      if (!conn->link->alive()) continue;
      conn->link->pump();
      Message msg;
      try {
        while (conn->link->next(&msg)) handle_message(state, *conn, msg);
      } catch (const std::runtime_error&) {
        conn->link->close();
      }
    }
  }
  for (auto& conn : conns) {
    if (conn->link->alive()) {
      util::log_warn() << "fabric: worker " << conn->worker
                       << " did not hang up within the shutdown grace "
                          "period; closing anyway";
      conn->link->close();
    }
  }

  result.complete = fleet.boundary;
  result.stopped_early = fleet.stopped_early;
  result.fleet_completed = fleet.tally.total();
  result.fleet_masked = fleet.tally.masked;
  result.fleet_sdc = fleet.tally.sdc;
  result.fleet_due = fleet.tally.due;
  result.fleet_not_injected = fleet.not_injected;
  result.fleet_due_kinds = fleet.due_kinds;
  result.fleet_boundary = fleet.boundary;
  if (metrics != nullptr) {
    metrics->gauge("fabric.workers_live").set(0.0);
    metrics->gauge("fabric.leases_outstanding")
        .set(static_cast<double>(table.outstanding()));
    refresh_worker_gauges(state);
    if (estimator != nullptr) estimator->publish(*metrics);
  }
  if (progress != nullptr) progress->emit_now();
  if (trace != nullptr) {
    telemetry::TraceEnd end;
    end.completed = fleet.tally.total();
    end.masked = fleet.tally.masked;
    end.sdc = fleet.tally.sdc;
    end.due = fleet.tally.due;
    end.not_injected = fleet.not_injected;
    end.interrupted = result.interrupted;
    end.stopped_early = fleet.stopped_early;
    end.elapsed_ms = trace->now_ms();
    end.due_kinds = fleet.due_kinds;
    trace->end(end);
  }
  out << "[fabric] coordinator done: "
      << (result.complete
              ? (result.stopped_early ? "stopped early (CI target)"
                                      : "complete")
              : (result.interrupted ? "interrupted" : "incomplete"))
      << ", " << result.fleet_completed << " injected, "
      << result.leases_granted << " leases granted, "
      << result.leases_reclaimed << " reclaimed\n";
  return result;
}

}  // namespace phifi::fabric
