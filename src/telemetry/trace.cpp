#include "telemetry/trace.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>

#include "util/posix_io.hpp"

namespace phifi::telemetry {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, bool truncate)
    : t0_ns_(monotonic_ns()) {
  const int flags =
      O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("TraceWriter: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
}

TraceWriter::~TraceWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

double TraceWriter::now_ms() const {
  return static_cast<double>(monotonic_ns() - t0_ns_) / 1e6;
}

void TraceWriter::set_run_id(const std::string& run_id) { run_id_ = run_id; }

void TraceWriter::set_worker(std::uint64_t worker_id) {
  worker_id_ = worker_id;
}

// phicheck:ndjson-writer(trace.context) record
void TraceWriter::write_line(util::json::Value record) {
  if (!run_id_.empty()) record["run_id"] = run_id_;
  if (worker_id_ != 0) record["worker_id"] = worker_id_;
  std::string line = record.dump();
  line += '\n';
  // One write per record: a crash tears at most the final line, which the
  // reader drops like the journal drops a torn binary record.
  if (!util::io::write_fully(fd_, line.data(), line.size())) {
    throw std::runtime_error(std::string("TraceWriter: write failed: ") +
                             std::strerror(errno));
  }
  ++records_;
}

// phicheck:ndjson-writer(trace.campaign) record
void TraceWriter::campaign(const TraceCampaign& header) {
  util::json::Value record = util::json::Value::object();
  record["type"] = "campaign";
  record["schema"] = 1;
  record["workload"] = header.workload;
  record["trials"] = header.trials;
  record["seed"] = header.seed;
  record["policy"] = header.policy;
  util::json::Value models = util::json::Value::array();
  for (const std::string& model : header.models) models.push_back(model);
  record["models"] = std::move(models);
  record["time_windows"] = header.time_windows;
  record["resumed"] = header.resumed;
  record["jobs"] = header.jobs;
  write_line(record);
}

// phicheck:ndjson-writer(trace.fabric) record
void TraceWriter::fabric(const TraceFabricEvent& event) {
  util::json::Value record = util::json::Value::object();
  record["type"] = "fabric";
  record["kind"] = event.kind;
  record["worker"] = event.worker;
  record["lease"] = event.lease;
  record["begin"] = event.begin;
  record["end"] = event.end;
  record["injected"] = event.injected;
  record["ts_ms"] = event.ts_ms;
  write_line(record);
}

// phicheck:ndjson-writer(trace.end) record
void TraceWriter::end(const TraceEnd& end) {
  util::json::Value record = util::json::Value::object();
  record["type"] = "end";
  record["completed"] = end.completed;
  record["masked"] = end.masked;
  record["sdc"] = end.sdc;
  record["due"] = end.due;
  record["not_injected"] = end.not_injected;
  record["interrupted"] = end.interrupted;
  record["aborted"] = end.aborted;
  record["stopped_early"] = end.stopped_early;
  record["elapsed_ms"] = end.elapsed_ms;
  util::json::Value kinds = util::json::Value::object();
  for (const auto& [kind, count] : end.due_kinds) {
    if (count > 0) kinds[kind] = count;
  }
  record["due_kinds"] = std::move(kinds);
  write_line(record);
}

void TraceWriter::sync() {
  // phicheck:blocking-ok(explicit flush API called at campaign end / segment boundaries, not from the event loop; the walk reaches it via same-name 'sync' union)
  if (fd_ >= 0) ::fsync(fd_);
}

TraceContents read_trace(std::istream& is) {
  TraceContents contents;
  std::string line;
  while (true) {
    const bool got_line = static_cast<bool>(std::getline(is, line));
    if (!got_line) break;
    // A line without the trailing newline (getline at EOF) may be a torn
    // final write; treat unparseable content the same way the journal
    // treats a checksum-corrupt tail — drop it and everything after.
    const bool complete = !is.eof();
    util::json::Value record;
    bool parsed = false;
    try {
      record = util::json::parse(line);
      parsed = record.is_object();
    } catch (const std::exception&) {
      parsed = false;
    }
    if (!parsed) {
      contents.dropped_bytes += line.size() + (complete ? 1 : 0);
      // Drop the remainder of the stream too: a corrupt middle line means
      // everything after it is untrustworthy, mirroring journal semantics.
      std::string rest;
      while (std::getline(is, rest)) {
        contents.dropped_bytes += rest.size() + (is.eof() ? 0 : 1);
      }
      break;
    }
    const std::string type = record.string_or("type", "");
    if (type == "campaign") {
      contents.campaign = std::move(record);
    } else if (type == "fabric") {
      contents.fabric.push_back(std::move(record));
    } else if (type == "end") {
      contents.end = std::move(record);
    }
    // Unknown record types are skipped, not fatal: forward compatibility.
  }
  return contents;
}

TraceContents read_trace_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    throw std::runtime_error("read_trace: cannot open '" + path + "'");
  }
  return read_trace(stream);
}

}  // namespace phifi::telemetry
