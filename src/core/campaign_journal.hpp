// Write-ahead campaign journal: crash durability for long campaigns.
//
// The paper's >90,000 CAROL-FI injections (Sec. 5) accumulate over hours of
// runs whose whole point is to provoke crashes and hangs; losing a campaign
// to a SIGINT or an OOM kill of the *supervisor* would throw away real
// work. The journal appends one checksummed record per trial attempt as it
// completes, fsyncing per the configured policy, so a campaign killed at
// any instant can be resumed: the header carries a fingerprint of the
// campaign configuration (workload, seed, models, policy, windows) so a
// mismatched resume is rejected, and a truncated or checksum-corrupt tail
// (the torn final write of a crash) is dropped on load, not fatal.
//
// On-disk layout (all integers little-endian):
//   magic "PHIFIJL1"
//   u32 header_size | header payload | u32 crc32(header payload)
//     header payload: u64 fingerprint, u32 time_windows,
//                     u32 name_len, name bytes
//                     [, u64 run_id — absent in pre-observability journals]
//                     [, u64 golden_digest, f64 golden_seconds,
//                        u64 golden_output_bytes — absent in pre-fast-path
//                        journals]
//   repeated records, each:
//   u32 payload_size | record payload | u32 crc32(record payload)
//     record payload: u64 attempt_index + the flattened TrialResult
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/supervisor.hpp"

namespace phifi::fi {

/// When the journal reaches the disk, not just the page cache.
enum class JournalFsync {
  kEveryRecord,  ///< fsync after each append; survives power loss
  kOnClose,      ///< fsync only on sync()/close; survives process death
  /// Group commit: fsync once every K records or T ms, whichever comes
  /// first (see JournalBatchPolicy), plus on sync()/close. Power loss can
  /// cost at most the unsynced batch; process death costs nothing (the
  /// records are already in the page cache). This keeps N parallel workers
  /// from serializing behind one fsync per trial.
  kBatch,
};

/// Group-commit knobs for JournalFsync::kBatch.
struct JournalBatchPolicy {
  std::uint64_t max_records = 64;  ///< fsync after this many appends
  double max_delay_ms = 50.0;      ///< ... or this long since the last fsync
};

struct JournalHeader {
  std::uint64_t fingerprint = 0;
  unsigned time_windows = 1;
  std::string workload;
  /// Correlation id of the campaign run that created this journal (see
  /// docs/FLEET_OBSERVABILITY.md); 0 when unknown (old journals). Not part
  /// of the fingerprint: re-running the same configuration is the same
  /// campaign under a new run id.
  std::uint64_t run_id = 0;
  /// Golden-run identity of the campaign that wrote this journal: FNV-1a 64
  /// digest of the golden output, its wall-clock seconds and byte count.
  /// All zero when unknown (journals from before golden adoption). A
  /// restarted fabric worker whose fingerprint matches can adopt these
  /// via TrialSupervisor::adopt_golden() and skip the golden re-run
  /// entirely. Not fingerprinted: the digest is derived state, not
  /// configuration.
  std::uint64_t golden_digest = 0;
  double golden_seconds = 0.0;
  std::uint64_t golden_output_bytes = 0;
};

/// One journaled trial attempt. NotInjected attempts are journaled too:
/// they consume an attempt index, and resume must account for every index
/// exactly for the continued campaign to be bit-identical.
struct JournalRecord {
  std::uint64_t attempt_index = 0;
  TrialResult trial;
};

struct JournalContents {
  JournalHeader header;
  std::vector<JournalRecord> records;
  /// File offset just past the last valid record; resume truncates here.
  std::uint64_t valid_bytes = 0;
  /// Bytes of truncated/corrupt tail dropped during the load (0 = clean).
  std::uint64_t dropped_bytes = 0;
};

class CampaignJournalWriter {
 public:
  /// Starts a fresh journal at `path` (truncating any existing file) and
  /// writes the header. Throws std::runtime_error on I/O failure.
  CampaignJournalWriter(const std::string& path, const JournalHeader& header,
                        JournalFsync fsync_policy,
                        JournalBatchPolicy batch = {});

  /// Reopens an existing (already loaded and fingerprint-checked) journal
  /// for appending. Truncates to `valid_bytes` first, dropping any torn
  /// tail a crash left behind.
  CampaignJournalWriter(const std::string& path, std::uint64_t valid_bytes,
                        JournalFsync fsync_policy,
                        JournalBatchPolicy batch = {});

  ~CampaignJournalWriter();

  CampaignJournalWriter(const CampaignJournalWriter&) = delete;
  CampaignJournalWriter& operator=(const CampaignJournalWriter&) = delete;

  /// Appends one record; durable per the fsync policy when it returns.
  void append(const JournalRecord& record);

  /// Forces buffered records to disk regardless of policy.
  void sync();

  [[nodiscard]] std::uint64_t written() const { return written_; }
  /// Records appended since the last fsync (kBatch diagnostics/tests).
  [[nodiscard]] std::uint64_t unsynced() const { return unsynced_; }
  /// Seconds the most recent append() spent inside fsync (0 when that
  /// append did not flush). Lets the latency profiler attribute a batched
  /// group-commit flush to the trial whose append triggered it.
  [[nodiscard]] double last_fsync_seconds() const {
    return last_fsync_seconds_;
  }

 private:
  void write_all(const void* data, std::size_t size);

  int fd_ = -1;
  JournalFsync fsync_ = JournalFsync::kEveryRecord;
  JournalBatchPolicy batch_;
  std::uint64_t written_ = 0;
  std::uint64_t unsynced_ = 0;
  double last_fsync_seconds_ = 0.0;
  std::chrono::steady_clock::time_point last_sync_{};
};

/// Loads a journal. A truncated or checksum-corrupt tail is dropped (and
/// reported via dropped_bytes); everything before it is returned. Throws
/// std::runtime_error only if the file cannot be opened or its header is
/// itself missing or corrupt.
JournalContents read_journal(const std::string& path);

/// CRC-32 (IEEE, reflected) over a byte buffer; exposed for tests and for
/// tools that audit journals.
std::uint32_t journal_crc32(const void* data, std::size_t size);

// The one little-endian integer codec and the one checksummed frame, shared
// by the journal, the fabric lease ledger and the fabric wire protocol.

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

inline std::uint32_t get_u32(const std::uint8_t* data) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{data[i]} << (8 * i);
  return value;
}

inline std::uint64_t get_u64(const std::uint8_t* data) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{data[i]} << (8 * i);
  return value;
}

/// Frames a payload as `u32 size | payload | u32 crc32(payload)`.
std::vector<std::uint8_t> journal_frame(
    const std::vector<std::uint8_t>& payload);

/// The payload of the frame at `pos` in `data` when its size, payload and
/// crc all fit and the crc matches, else nullptr (a torn or corrupt tail).
/// On success `*size` is the payload size and `*next` the offset just past
/// the frame.
const std::uint8_t* read_journal_frame(const std::vector<std::uint8_t>& data,
                                       std::size_t pos, std::size_t* size,
                                       std::size_t* next);

}  // namespace phifi::fi
