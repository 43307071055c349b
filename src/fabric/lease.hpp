// Lease table + crash-durable lease ledger for the campaign fabric.
//
// The coordinator carves the campaign's attempt-index space into
// contiguous ranges and leases them to workers. A lease carries a
// heartbeat deadline: a worker that stalls, crashes, or partitions misses
// its deadline and the lease is reclaimed and re-issued — safe because
// trial seeds are counter-indexed (re-executed attempts are bit-identical)
// and the shard merge dedups overlapping records. The table tracks ranges
// only; outcomes live in the per-attempt detail each DONE carries, which
// the coordinator folds (coordinator.cpp).
//
// Every lease transition is appended to a ledger file (framed + CRC'd like
// the journal) before the wire message that announces it, so a coordinator
// killed at any instant can restart, replay the ledger, re-adopt workers
// that reconnect mid-lease, and re-lease orphaned ranges.
//
// Ledger layout (integers little-endian):
//   magic "PHIFILL2"
//   u32 header_size | header payload | u32 crc32(header payload)
//     header payload: u64 fingerprint, u64 trials, u64 run_id
//   repeated records, each:
//   u32 payload_size | record payload | u32 crc32(record payload)
//     record payload: u8 kind, u64 lease, u64 begin, u64 end,
//                     u32 detail_len + detail bytes (the per-attempt
//                     outcome detail of a DONE, fabric/stats.hpp; empty
//                     for GRANT and RECLAIM)
// A "PHIFILL1" ledger (written before DONE records had to carry a detail)
// is refused: its DONE records cannot rebuild the fleet tally.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace phifi::fabric {

struct Lease {
  std::uint64_t id = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< exclusive
  /// Owning worker id; 0 = orphaned (granted, but no live connection —
  /// the state every outstanding lease re-enters after a coordinator
  /// restart, until its worker reconnects and re-adopts it).
  std::uint64_t worker = 0;
  std::chrono::steady_clock::time_point deadline{};
};

/// Single-threaded lease bookkeeping for the coordinator's event loop.
class LeaseTable {
 public:
  using Clock = std::chrono::steady_clock;

  /// `budget` caps the attempt indices ever issued (the run() retry
  /// budget: trials * (1 + max_retry_factor)) so a pathological workload
  /// cannot make the fabric lease indices forever.
  LeaseTable(std::uint64_t trials, std::uint64_t budget,
             std::uint64_t lease_size);

  /// Grants the next range — a reclaimed range first (smallest begin),
  /// else a fresh one — as a new lease. nullopt when no work is available
  /// right now (which is not campaign completion: outstanding leases may
  /// yet be reclaimed).
  std::optional<Lease> grant(std::uint64_t worker, Clock::time_point deadline);

  /// Re-attaches an outstanding lease to a reconnecting worker (the
  /// coordinator-restart and network-partition recovery path). False if
  /// the lease is no longer outstanding (completed or reclaimed).
  bool adopt(std::uint64_t lease_id, std::uint64_t worker,
             Clock::time_point deadline);

  /// Refreshes a lease's heartbeat deadline. False for unknown (stale)
  /// lease ids — a revoked worker phoning in about a reclaimed lease.
  bool heartbeat(std::uint64_t lease_id, Clock::time_point deadline);

  /// Retires an outstanding lease whose range is [begin, end). False for
  /// stale lease ids (the range was reclaimed and belongs to someone else
  /// now) and for a range that is not the lease's.
  bool complete(std::uint64_t lease_id, std::uint64_t begin,
                std::uint64_t end);

  /// Reclaims every lease whose deadline has passed; returns them.
  std::vector<Lease> expire(Clock::time_point now);

  [[nodiscard]] std::uint64_t outstanding() const { return active_.size(); }
  [[nodiscard]] std::uint64_t trials() const { return trials_; }

  // ---- ledger replay (coordinator restart; DONE replays via complete) ----
  void restore_grant(std::uint64_t id, std::uint64_t begin,
                     std::uint64_t end, Clock::time_point deadline);
  void restore_reclaim(std::uint64_t id);

 private:
  std::uint64_t trials_;
  std::uint64_t budget_;
  std::uint64_t lease_size_;
  std::uint64_t next_fresh_ = 0;  ///< first index never leased
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Lease> active_;  ///< by lease id
  /// Reclaimed ranges awaiting re-grant, keyed by begin.
  std::map<std::uint64_t, std::uint64_t> pending_;
};

// phicheck:exhaustive-switch — replay (read_ledger) must handle every record
// kind or crash recovery silently drops state.
enum class LedgerKind : std::uint8_t {
  kGrant = 1,
  kDone = 2,
  kReclaim = 3,
};

struct LedgerRecord {
  LedgerKind kind = LedgerKind::kGrant;
  std::uint64_t lease = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// Per-attempt outcome detail (encode_attempts) on DONE records; empty
  /// otherwise.
  std::string detail;
};

struct LedgerContents {
  std::uint64_t fingerprint = 0;
  std::uint64_t trials = 0;
  std::uint64_t run_id = 0;  ///< campaign run id
  std::vector<LedgerRecord> records;
  /// File offset just past the last valid record; resume truncates here.
  std::uint64_t valid_bytes = 0;
  /// Bytes of torn/corrupt tail dropped during the load (0 = clean).
  std::uint64_t dropped_bytes = 0;
};

/// Loads a ledger. A torn tail is dropped and reported, mirroring the
/// journal. Throws std::runtime_error if the file cannot be opened, is a
/// PHIFILL1 ledger, or its header is missing/corrupt.
LedgerContents read_ledger(const std::string& path);

class LeaseLedgerWriter {
 public:
  /// Starts a fresh ledger (truncating any existing file).
  LeaseLedgerWriter(const std::string& path, std::uint64_t fingerprint,
                    std::uint64_t trials, std::uint64_t run_id);
  /// Reopens an existing (already loaded) ledger for appending,
  /// truncating a torn tail at `valid_bytes` first.
  LeaseLedgerWriter(const std::string& path, std::uint64_t valid_bytes);
  ~LeaseLedgerWriter();

  LeaseLedgerWriter(const LeaseLedgerWriter&) = delete;
  LeaseLedgerWriter& operator=(const LeaseLedgerWriter&) = delete;

  /// Appends + fsyncs one record: lease transitions are rare (per lease,
  /// not per trial), so every one is durable before it is announced.
  void append(const LedgerRecord& record);

 private:
  int fd_ = -1;
};

}  // namespace phifi::fabric
