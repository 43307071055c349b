// Campaign event trace: one NDJSON record per campaign-level event.
//
// A campaign's per-trial record is its write-ahead journal (core/
// campaign_journal.hpp); phifi_parse --from-journal derives every table
// and the per-injection CSV from it. The trace carries what the journal
// does not: a "campaign" header per run segment, the fabric coordinator's
// worker and lease lifecycle ("fabric"), and an "end" summary with the
// campaign's wall-clock and DUE-kind split, each on a monotonic clock
// relative to campaign start.
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

/// Campaign-level metadata, the first record of every trace.
struct TraceCampaign {
  std::string workload;
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  std::string policy;
  std::vector<std::string> models;
  unsigned time_windows = 1;
  bool resumed = false;
  /// Worker slots the campaign scheduled trials into (--jobs).
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
  void fabric(const TraceFabricEvent& event);
  void end(const TraceEnd& end);

  /// Correlation context stamped into every subsequent record (docs/
  /// FLEET_OBSERVABILITY.md): `run_id` identifies one campaign run across
  /// every process that served it; `worker_id` ties a worker's header to
  /// the coordinator's lease events. An empty run id or a zero worker id
  /// clears the field.
  void set_run_id(const std::string& run_id);
  void set_worker(std::uint64_t worker_id);

  /// Forces buffered records to disk.
  void sync();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

  /// Milliseconds since this writer was created (the campaign clock that
  /// stamps fabric events and the end record), monotonic.
  [[nodiscard]] double now_ms() const;

 private:
  void write_line(util::json::Value record);

  int fd_ = -1;
  std::uint64_t records_ = 0;
  std::uint64_t t0_ns_ = 0;
  std::string run_id_;
  std::uint64_t worker_id_ = 0;
};

/// Parsed trace, as raw JSON values.
struct TraceContents {
  util::json::Value campaign;       ///< null if the trace lacks a header
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

}  // namespace phifi::telemetry
