#include "core/campaign_journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/posix_io.hpp"

namespace phifi::fi {

namespace {

constexpr char kMagic[8] = {'P', 'H', 'I', 'F', 'I', 'J', 'L', '2'};
/// Journals written before records carried the SDC summary.
constexpr char kMagicV1[8] = {'P', 'H', 'I', 'F', 'I', 'J', 'L', '1'};

// ---- little-endian field (de)serialization ----

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_bytes(std::vector<std::uint8_t>& out, const char* data,
               std::size_t size) {
  out.insert(out.end(), reinterpret_cast<const std::uint8_t*>(data),
             reinterpret_cast<const std::uint8_t*>(data) + size);
}

class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    pos_ += 4;
    return get_u32(data_ + pos_ - 4);
  }
  std::uint64_t u64() {
    need(8);
    pos_ += 8;
    return get_u64(data_ + pos_ - 8);
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  void bytes(char* out, std::size_t size) {
    need(size);
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::size_t n) {
    if (pos_ + n > size_) {
      throw std::runtime_error("journal record payload too short");
    }
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::vector<std::uint8_t> serialize_record(const JournalRecord& record) {
  std::vector<std::uint8_t> out;
  out.reserve(192);
  const TrialResult& t = record.trial;
  const InjectionRecord& r = t.record;
  put_u64(out, record.attempt_index);
  put_u8(out, static_cast<std::uint8_t>(t.outcome));
  put_u8(out, static_cast<std::uint8_t>(t.due_kind));
  put_u32(out, t.window);
  put_f64(out, t.seconds);
  put_u64(out, t.heartbeats);
  put_u8(out, t.escalated_kill ? 1 : 0);
  put_u8(out, r.injected ? 1 : 0);
  put_u8(out, r.changed ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(r.model));
  put_u8(out, static_cast<std::uint8_t>(r.frame));
  put_u32(out, static_cast<std::uint32_t>(r.worker));
  put_u32(out, r.site_index);
  put_u64(out, r.element_index);
  put_u32(out, r.burst_elements);
  put_u64(out, r.flipped_bits[0]);
  put_u64(out, r.flipped_bits[1]);
  put_u32(out, r.flipped_count);
  put_f64(out, r.progress_fraction);
  put_bytes(out, r.site_name, sizeof(r.site_name));
  put_bytes(out, r.category, sizeof(r.category));
  put_u64(out, t.sdc.mismatched);
  put_f64(out, t.sdc.max_relative_error);
  put_u8(out, static_cast<std::uint8_t>(t.sdc.pattern));
  return out;
}

JournalRecord deserialize_record(const std::uint8_t* data, std::size_t size) {
  Cursor c(data, size);
  JournalRecord record;
  TrialResult& t = record.trial;
  InjectionRecord& r = t.record;
  record.attempt_index = c.u64();
  t.outcome = static_cast<Outcome>(c.u8());
  t.due_kind = static_cast<DueKind>(c.u8());
  t.window = c.u32();
  t.seconds = c.f64();
  t.heartbeats = c.u64();
  t.escalated_kill = c.u8() != 0;
  r.injected = c.u8() != 0;
  r.changed = c.u8() != 0;
  r.model = static_cast<FaultModel>(c.u8());
  r.frame = static_cast<FrameKind>(c.u8());
  r.worker = static_cast<std::int32_t>(c.u32());
  r.site_index = c.u32();
  r.element_index = c.u64();
  r.burst_elements = c.u32();
  r.flipped_bits[0] = c.u64();
  r.flipped_bits[1] = c.u64();
  r.flipped_count = c.u32();
  r.progress_fraction = c.f64();
  c.bytes(r.site_name, sizeof(r.site_name));
  c.bytes(r.category, sizeof(r.category));
  t.sdc.mismatched = c.u64();
  t.sdc.max_relative_error = c.f64();
  const std::uint8_t pattern = c.u8();
  if (pattern >= kPatternCount) {
    throw std::runtime_error("journal record has an unknown SDC pattern");
  }
  t.sdc.pattern = static_cast<ErrorPattern>(pattern);
  if (!c.exhausted()) {
    throw std::runtime_error("journal record payload has trailing bytes");
  }
  return record;
}

std::vector<std::uint8_t> serialize_header(const JournalHeader& header) {
  std::vector<std::uint8_t> out;
  put_u64(out, header.fingerprint);
  put_u32(out, header.time_windows);
  put_u32(out, static_cast<std::uint32_t>(header.workload.size()));
  put_bytes(out, header.workload.data(), header.workload.size());
  put_u64(out, header.run_id);
  put_u64(out, header.golden_digest);
  return out;
}

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

}  // namespace

std::vector<std::uint8_t> journal_frame(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 8);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, journal_crc32(payload.data(), payload.size()));
  return out;
}

const std::uint8_t* read_journal_frame(const std::vector<std::uint8_t>& data,
                                       std::size_t pos, std::size_t* size,
                                       std::size_t* next) {
  if (pos + 4 > data.size()) return nullptr;
  const std::uint32_t payload_size = get_u32(data.data() + pos);
  if (payload_size > (1u << 20) || pos + 8 + payload_size > data.size()) {
    return nullptr;
  }
  const std::uint8_t* payload = data.data() + pos + 4;
  if (journal_crc32(payload, payload_size) != get_u32(payload + payload_size)) {
    return nullptr;
  }
  *size = payload_size;
  *next = pos + 8 + payload_size;
  return payload;
}

std::uint32_t journal_crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

CampaignJournalWriter::CampaignJournalWriter(const std::string& path,
                                             const JournalHeader& header,
                                             JournalFsync fsync_policy,
                                             JournalBatchPolicy batch)
    : fsync_(fsync_policy),
      batch_(batch),
      last_sync_(std::chrono::steady_clock::now()) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("journal: cannot create '" + path +
                             "': " + std::strerror(errno));
  }
  write_all(kMagic, sizeof(kMagic));
  const auto framed = journal_frame(serialize_header(header));
  write_all(framed.data(), framed.size());
  if (fsync_ == JournalFsync::kEveryRecord) ::fsync(fd_);
}

CampaignJournalWriter::CampaignJournalWriter(const std::string& path,
                                             std::uint64_t valid_bytes,
                                             JournalFsync fsync_policy,
                                             JournalBatchPolicy batch)
    : fsync_(fsync_policy),
      batch_(batch),
      last_sync_(std::chrono::steady_clock::now()) {
  fd_ = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("journal: cannot reopen '" + path +
                             "': " + std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("journal: cannot truncate '" + path +
                             "': " + std::strerror(err));
  }
}

CampaignJournalWriter::~CampaignJournalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void CampaignJournalWriter::write_all(const void* data, std::size_t size) {
  if (!util::io::write_fully(fd_, data, size)) {
    throw std::runtime_error(std::string("journal: write failed: ") +
                             std::strerror(errno));
  }
}

void CampaignJournalWriter::append(const JournalRecord& record) {
  const auto framed = journal_frame(serialize_record(record));
  write_all(framed.data(), framed.size());
  ++written_;
  last_fsync_seconds_ = 0.0;
  if (fsync_ == JournalFsync::kEveryRecord) {
    const auto fsync_start = std::chrono::steady_clock::now();
    // phicheck:blocking-ok(worker-side shard journal: kEveryRecord is the caller's explicit durability/latency trade; the coordinator loop reaches here only through name-union on 'append')
    ::fsync(fd_);
    last_fsync_seconds_ = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - fsync_start)
                              .count();
  } else if (fsync_ == JournalFsync::kBatch) {
    ++unsynced_;
    const double since_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - last_sync_)
                                .count();
    if (unsynced_ >= batch_.max_records || since_ms >= batch_.max_delay_ms) {
      const auto fsync_start = std::chrono::steady_clock::now();
      sync();
      last_fsync_seconds_ = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - fsync_start)
                                .count();
    }
  }
}

void CampaignJournalWriter::sync() {
  // phicheck:blocking-ok(batch-policy flush point: durability is the purpose; runs on the worker process, not the coordinator thread)
  if (fd_ >= 0) ::fsync(fd_);
  unsynced_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
}

JournalContents read_journal(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("journal: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  std::vector<std::uint8_t> file;
  // phicheck:blocking-ok(journal replay happens at worker startup/lease adoption, off the coordinator thread; the walk reaches here via same-name tick/handle union)
  if (!util::io::read_to_end(fd, file)) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("journal: read failed: " +
                             std::string(std::strerror(err)));
  }
  ::close(fd);

  if (file.size() >= sizeof(kMagicV1) &&
      std::memcmp(file.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    throw std::runtime_error(
        "journal: '" + path +
        "' is a PHIFIJL1 journal, written before SDC summaries; re-run the "
        "campaign");
  }
  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("journal: '" + path +
                             "' is not a campaign journal (bad magic)");
  }

  JournalContents contents;
  std::size_t pos = sizeof(kMagic);
  std::size_t payload_size = 0;
  std::size_t next = 0;
  const std::uint8_t* payload =
      read_journal_frame(file, pos, &payload_size, &next);
  if (payload == nullptr) {
    throw std::runtime_error("journal: '" + path + "' has a corrupt header");
  }
  try {
    Cursor c(payload, payload_size);
    contents.header.fingerprint = c.u64();
    contents.header.time_windows = c.u32();
    const std::uint32_t name_len = c.u32();
    contents.header.workload.resize(name_len);
    c.bytes(contents.header.workload.data(), name_len);
    contents.header.run_id = c.u64();
    contents.header.golden_digest = c.u64();
    if (!c.exhausted()) throw std::runtime_error("trailing bytes");
  } catch (const std::runtime_error&) {
    throw std::runtime_error("journal: '" + path + "' has a corrupt header");
  }
  pos = next;

  // Records: stop at the first unreadable frame — that is the torn tail a
  // crash leaves behind. Everything before it is intact (each record has
  // its own checksum), so the campaign loses at most the in-flight trial.
  while (pos < file.size()) {
    payload = read_journal_frame(file, pos, &payload_size, &next);
    if (payload == nullptr) break;
    JournalRecord record;
    try {
      record = deserialize_record(payload, payload_size);
    } catch (const std::runtime_error&) {
      break;  // checksum ok but shape wrong: treat as corrupt tail
    }
    contents.records.push_back(record);
    pos = next;
  }
  contents.valid_bytes = pos;
  contents.dropped_bytes = file.size() - pos;
  return contents;
}

void require_same_golden(const JournalHeader& header,
                         std::uint64_t golden_digest,
                         const std::string& what) {
  if (header.golden_digest == golden_digest) return;
  throw std::runtime_error(
      what + " was written from a different golden output (golden digest " +
      hex(header.golden_digest) + ", this campaign's " + hex(golden_digest) +
      "): input_seed or the workload changed");
}

}  // namespace phifi::fi
