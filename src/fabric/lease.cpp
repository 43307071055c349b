#include "fabric/lease.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "core/campaign_journal.hpp"  // the journal's codec and frame
#include "util/posix_io.hpp"

namespace phifi::fabric {

namespace {

constexpr char kMagic[8] = {'P', 'H', 'I', 'F', 'I', 'L', 'L', '2'};
/// The magic of ledgers whose DONE records carried counts and an optional
/// detail; refused by name.
constexpr char kMagicV1[8] = {'P', 'H', 'I', 'F', 'I', 'L', 'L', '1'};
/// u8 kind, u64 lease, u64 begin, u64 end, u32 detail length.
constexpr std::size_t kRecordPayload = 1 + 3 * 8 + 4;

void write_all(int fd, const void* data, std::size_t size,
               const char* what) {
  if (!util::io::write_fully(fd, data, size)) {
    throw std::runtime_error(std::string("lease ledger: ") + what + ": " +
                             std::strerror(errno));
  }
}

/// Appends one `u32 size | payload | u32 crc` frame.
void write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = fi::journal_frame(payload);
  write_all(fd, frame.data(), frame.size(), "write");
}

}  // namespace

// ---- LeaseTable ----

LeaseTable::LeaseTable(std::uint64_t trials, std::uint64_t budget,
                       std::uint64_t lease_size)
    : trials_(trials),
      budget_(budget),
      lease_size_(std::max<std::uint64_t>(1, lease_size)) {}

std::optional<Lease> LeaseTable::grant(std::uint64_t worker,
                                       Clock::time_point deadline) {
  Lease lease;
  if (!pending_.empty()) {
    const auto it = pending_.begin();
    lease.begin = it->first;
    lease.end = it->second;
    pending_.erase(it);
  } else if (next_fresh_ < budget_) {
    lease.begin = next_fresh_;
    lease.end = std::min(budget_, next_fresh_ + lease_size_);
    next_fresh_ = lease.end;
  } else {
    return std::nullopt;
  }
  lease.id = next_id_++;
  lease.worker = worker;
  lease.deadline = deadline;
  active_.emplace(lease.id, lease);
  return lease;
}

bool LeaseTable::adopt(std::uint64_t lease_id, std::uint64_t worker,
                       Clock::time_point deadline) {
  const auto it = active_.find(lease_id);
  if (it == active_.end()) return false;
  it->second.worker = worker;
  it->second.deadline = deadline;
  return true;
}

bool LeaseTable::heartbeat(std::uint64_t lease_id,
                           Clock::time_point deadline) {
  const auto it = active_.find(lease_id);
  if (it == active_.end()) return false;
  it->second.deadline = deadline;
  return true;
}

bool LeaseTable::complete(std::uint64_t lease_id, std::uint64_t begin,
                          std::uint64_t end) {
  const auto it = active_.find(lease_id);
  if (it == active_.end() || it->second.begin != begin ||
      it->second.end != end) {
    return false;
  }
  active_.erase(it);
  return true;
}

std::vector<Lease> LeaseTable::expire(Clock::time_point now) {
  std::vector<Lease> expired;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.deadline <= now) {
      expired.push_back(it->second);
      pending_.emplace(it->second.begin, it->second.end);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

void LeaseTable::restore_grant(std::uint64_t id, std::uint64_t begin,
                               std::uint64_t end,
                               Clock::time_point deadline) {
  Lease lease;
  lease.id = id;
  lease.begin = begin;
  lease.end = end;
  lease.worker = 0;  // orphaned until its worker reconnects
  lease.deadline = deadline;
  active_.emplace(id, lease);
  next_id_ = std::max(next_id_, id + 1);
  next_fresh_ = std::max(next_fresh_, end);
  // A re-grant of a previously reclaimed range consumes the pending entry.
  pending_.erase(begin);
}

void LeaseTable::restore_reclaim(std::uint64_t id) {
  const auto it = active_.find(id);
  if (it == active_.end()) return;
  pending_.emplace(it->second.begin, it->second.end);
  active_.erase(it);
}

// ---- ledger ----

LedgerContents read_ledger(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("lease ledger: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  std::vector<std::uint8_t> data;
  // phicheck:blocking-ok(startup ledger replay, before the poll loop spins; a 1 MiB ledger reads back in single-digit ms)
  if (!util::io::read_to_end(fd, data)) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("lease ledger: read '" + path +
                             "': " + std::strerror(saved));
  }
  ::close(fd);

  if (data.size() >= sizeof(kMagicV1) &&
      std::memcmp(data.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    throw std::runtime_error(
        "lease ledger: '" + path +
        "' is a PHIFILL1 ledger, written before every DONE record carried "
        "its per-attempt detail, so it cannot rebuild the fleet tally. "
        "Remove it to restart the lease space; the worker shard journals "
        "keep every committed attempt");
  }
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("lease ledger: '" + path +
                             "' is not a lease ledger (bad magic)");
  }
  LedgerContents contents;
  std::size_t size = 0;
  std::size_t next = 0;
  const std::uint8_t* payload =
      fi::read_journal_frame(data, sizeof(kMagic), &size, &next);
  if (payload == nullptr || size != 24) {
    throw std::runtime_error("lease ledger: '" + path +
                             "' has a missing or corrupt header");
  }
  contents.fingerprint = fi::get_u64(payload);
  contents.trials = fi::get_u64(payload + 8);
  contents.run_id = fi::get_u64(payload + 16);
  contents.valid_bytes = next;

  // Records: stop at the first unreadable or misshapen frame — the torn
  // tail a crash leaves behind.
  while ((payload = fi::read_journal_frame(data, contents.valid_bytes, &size,
                                           &next)) != nullptr) {
    if (size < kRecordPayload ||
        size != kRecordPayload + fi::get_u32(payload + 25)) {
      break;
    }
    LedgerRecord record;
    record.kind = static_cast<LedgerKind>(payload[0]);
    record.lease = fi::get_u64(payload + 1);
    record.begin = fi::get_u64(payload + 9);
    record.end = fi::get_u64(payload + 17);
    record.detail.assign(
        reinterpret_cast<const char*>(payload + kRecordPayload),
        size - kRecordPayload);
    contents.records.push_back(std::move(record));
    contents.valid_bytes = next;
  }
  contents.dropped_bytes = data.size() - contents.valid_bytes;
  return contents;
}

LeaseLedgerWriter::LeaseLedgerWriter(const std::string& path,
                                     std::uint64_t fingerprint,
                                     std::uint64_t trials,
                                     std::uint64_t run_id) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw std::runtime_error("lease ledger: cannot create '" + path +
                             "': " + std::strerror(errno));
  }
  write_all(fd_, kMagic, sizeof(kMagic), "write magic");
  std::vector<std::uint8_t> payload;
  fi::put_u64(payload, fingerprint);
  fi::put_u64(payload, trials);
  fi::put_u64(payload, run_id);
  write_frame(fd_, payload);
  ::fsync(fd_);
}

LeaseLedgerWriter::LeaseLedgerWriter(const std::string& path,
                                     std::uint64_t valid_bytes) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("lease ledger: cannot reopen '" + path +
                             "': " + std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("lease ledger: cannot truncate '" + path +
                             "': " + std::strerror(saved));
  }
}

LeaseLedgerWriter::~LeaseLedgerWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void LeaseLedgerWriter::append(const LedgerRecord& record) {
  std::vector<std::uint8_t> payload;
  payload.reserve(kRecordPayload + record.detail.size());
  payload.push_back(static_cast<std::uint8_t>(record.kind));
  fi::put_u64(payload, record.lease);
  fi::put_u64(payload, record.begin);
  fi::put_u64(payload, record.end);
  fi::put_u32(payload, static_cast<std::uint32_t>(record.detail.size()));
  payload.insert(payload.end(), record.detail.begin(), record.detail.end());
  write_frame(fd_, payload);
  // phicheck:blocking-ok(the deliberate one: a GRANT/DONE must be on disk before the matching wire frame or a coordinator crash forgets leases it promised (docs/FABRIC.md); bench: one fsync per lease transition, ~0.1-1ms on ext4 SSD, amortized over an entire lease of trials)
  ::fsync(fd_);
}

}  // namespace phifi::fabric
