// Structured trial tracing: one NDJSON record per event, the injector's
// machine-readable primary output (the FINJ/ZOFI model).
//
// A campaign writes, alongside the binary write-ahead journal, a trace
// whose records carry everything the paper's timing/phase analyses need —
// when each trial forked, where and when the fault was injected (site,
// fault model, code portion, execution-time fraction), which workload
// phases ran, and how the outcome was classified — all with monotonic
// timestamps relative to campaign and trial start. phifi_parse
// --from-trace reconstructs the Fig. 6 PVF-per-time-window and Sec. 6
// per-portion criticality tables from this stream alone.
//
// Durability mirrors the journal: records are appended a line at a time;
// a crash can tear at most the final line, which the reader drops (and
// reports) instead of failing. The telemetry layer is deliberately
// decoupled from core types: records are plain strings/numbers, and the
// campaign does the enum-to-string mapping, so this library depends only
// on phifi_util.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace phifi::telemetry {

/// One timed sub-interval of a trial ("fork", "run", "classify").
/// Timestamps are milliseconds from the trial's own start, monotonic.
struct TraceSpan {
  std::string name;
  double t0_ms = 0.0;
  double t1_ms = 0.0;
};

/// One workload phase transition observed inside the trial child.
struct TracePhase {
  std::string name;
  double fraction = 0.0;  ///< execution progress when the phase began
  double t_ms = 0.0;      ///< ms from child start, monotonic
};

/// Everything traced about one trial attempt.
struct TrialTrace {
  std::uint64_t attempt = 0;
  std::string outcome;       ///< "Masked" / "SDC" / "DUE" / "NotInjected"
  std::string due_kind;      ///< "none" / "crash" / ...
  bool injected = false;
  std::string model;         ///< fault model name
  std::string site;          ///< corrupted variable
  std::string category;      ///< code portion (Sec. 6 criticality key)
  std::string frame;         ///< "global" / "worker"
  std::int32_t worker = -1;  ///< injection frame's device worker, not a slot
  /// Scheduler slot the trial ran in (0 in single-worker campaigns).
  unsigned slot = 0;
  double progress_fraction = 0.0;  ///< time-window fraction (Fig. 6)
  unsigned window = 0;
  double seconds = 0.0;
  std::uint64_t heartbeats = 0;
  bool escalated_kill = false;
  /// Seconds from trial start until the trial command was handed to the
  /// slot's template (the fork span; a respawning template adds its fork).
  double fork_seconds = 0.0;
  /// True when the trial paid no workload setup on its critical path:
  /// every trial except the one that (re)spawned its slot's template.
  bool setup_skipped = false;
  double ts_ms = 0.0;  ///< trial start, ms from campaign start (monotonic)
  std::vector<TraceSpan> spans;
  std::vector<TracePhase> phases;
};

/// Campaign-level metadata, the first record of every trace.
struct TraceCampaign {
  std::string workload;
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  std::string policy;
  std::vector<std::string> models;
  unsigned time_windows = 1;
  bool resumed = false;
  /// Worker slots the campaign scheduled trials into (--jobs). With more
  /// than one, trial ts_ms values may be non-monotonic: records commit in
  /// attempt order, not launch order.
  unsigned jobs = 1;
};

/// One fabric (coordinator) event: worker membership or a lease
/// transition. String-typed kind, like every other trace field, so the
/// telemetry layer stays decoupled from fabric types. Kinds:
/// "worker_join", "worker_leave", "lease_grant", "lease_adopt",
/// "lease_done", "lease_reclaim".
struct TraceFabricEvent {
  std::string kind;
  std::uint64_t worker = 0;
  std::uint64_t lease = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;     ///< lease range end (exclusive)
  std::uint64_t injected = 0;
  double ts_ms = 0.0;  ///< ms from campaign start, monotonic
};

/// Campaign-level summary, the final record of a complete trace.
struct TraceEnd {
  std::uint64_t completed = 0;
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;
  std::uint64_t not_injected = 0;
  bool interrupted = false;
  bool aborted = false;
  /// Sequential stopping (--stop-ci-width) ended the campaign before the
  /// configured trial count.
  bool stopped_early = false;
  /// Wall-clock ms from campaign (trace-writer) start to the end record.
  double elapsed_ms = 0.0;
  /// DUE breakdown by kind ("crash", "hang", ...), counting this run's
  /// segment like the tallies above. Kinds with zero count are omitted.
  std::map<std::string, std::uint64_t> due_kinds;
};

/// Appends NDJSON records to a file. Each record is flushed to the OS as
/// one write, so a crash tears at most the final line.
class TraceWriter {
 public:
  /// `truncate` starts a fresh trace; otherwise appends (resume).
  explicit TraceWriter(const std::string& path, bool truncate = true);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void campaign(const TraceCampaign& header);
  void trial(const TrialTrace& trial);
  void fabric(const TraceFabricEvent& event);
  void end(const TraceEnd& end);

  /// Correlation context stamped into every subsequent record (docs/
  /// FLEET_OBSERVABILITY.md): `run_id` identifies one campaign run across
  /// every process that served it; `worker_id`/`lease_id` tie a worker's
  /// records to the coordinator's grant/reclaim events. An empty run id or
  /// a zero worker/lease id clears the field.
  void set_run_id(const std::string& run_id);
  void set_worker(std::uint64_t worker_id);
  void set_lease(std::uint64_t lease_id);

  /// Forces buffered records to disk.
  void sync();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

  /// Milliseconds since this writer was created (the campaign clock that
  /// stamps TrialTrace::ts_ms), monotonic.
  [[nodiscard]] double now_ms() const;

 private:
  void write_line(util::json::Value record);

  int fd_ = -1;
  std::uint64_t records_ = 0;
  std::uint64_t t0_ns_ = 0;
  std::string run_id_;
  std::uint64_t worker_id_ = 0;
  std::uint64_t lease_id_ = 0;
};

/// Parsed trace: raw JSON values, plus the decoded trial records.
struct TraceContents {
  util::json::Value campaign;       ///< null if the trace lacks a header
  std::vector<TrialTrace> trials;
  /// Fabric (coordinator) event records, as raw JSON, in stream order.
  std::vector<util::json::Value> fabric;
  util::json::Value end;            ///< null while a campaign is running
  /// Bytes of torn/unparseable tail dropped during the load (0 = clean).
  std::uint64_t dropped_bytes = 0;
};

/// Loads a trace stream/file. A torn or corrupt tail is dropped and
/// reported via dropped_bytes; everything before it is returned. Throws
/// std::runtime_error only if the file cannot be opened.
TraceContents read_trace(std::istream& is);
TraceContents read_trace_file(const std::string& path);

/// (De)serialization of single records, exposed for tests and tools.
util::json::Value trial_to_json(const TrialTrace& trial);
TrialTrace trial_from_json(const util::json::Value& record);

}  // namespace phifi::telemetry
