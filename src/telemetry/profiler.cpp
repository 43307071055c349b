#include "telemetry/profiler.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <utility>

#include "util/posix_io.hpp"

namespace phifi::telemetry {

namespace {

constexpr std::string_view kPhaseNames[kProfilePhaseCount] = {
    "fork", "setup", "inject", "run", "classify", "rob_wait", "journal",
    "flush"};

}  // namespace

std::string_view to_string(ProfilePhase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

bool profile_phase_from_name(std::string_view name, ProfilePhase* phase) {
  for (std::size_t i = 0; i < kProfilePhaseCount; ++i) {
    if (kPhaseNames[i] == name) {
      *phase = static_cast<ProfilePhase>(i);
      return true;
    }
  }
  return false;
}

std::size_t profile_bucket_index(std::uint64_t us) {
  if (us == 0) return 0;
  const std::size_t width = static_cast<std::size_t>(std::bit_width(us));
  return width < kProfileBuckets ? width : kProfileBuckets - 1;
}

std::uint64_t profile_bucket_edge_us(std::size_t bucket) {
  if (bucket == 0) return 0;
  return (std::uint64_t{1} << bucket) - 1;
}

double profile_percentile_ms(const ProfilePhaseHist& hist, unsigned pct) {
  if (hist.count == 0) return 0.0;
  // rank = ceil(count * pct / 100), all integer: fold-order independent.
  const std::uint64_t rank = (hist.count * pct + 99) / 100;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kProfileBuckets; ++i) {
    seen += hist.buckets[i];
    if (seen >= rank) {
      return static_cast<double>(profile_bucket_edge_us(i)) / 1000.0;
    }
  }
  return static_cast<double>(profile_bucket_edge_us(kProfileBuckets - 1)) /
         1000.0;
}

void ProfileSnapshot::fold(const ProfileSnapshot& other) {
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    phases[p].count += other.phases[p].count;
    phases[p].sum_us += other.phases[p].sum_us;
    for (std::size_t b = 0; b < kProfileBuckets; ++b) {
      phases[p].buckets[b] += other.phases[p].buckets[b];
    }
  }
}

std::uint64_t profile_us_from_seconds(double seconds) {
  if (!(seconds > 0.0)) return 0;  // NaN and negatives clamp to zero
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

TrialProfiler::TrialProfiler(const std::string& path, bool truncate) {
  const int flags =
      O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("TrialProfiler: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
}

TrialProfiler::~TrialProfiler() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void TrialProfiler::set_workload(std::string workload) {
  workload_ = std::move(workload);
}

// phicheck:ndjson-writer(profile) record
util::json::Value trial_profile_to_json(const TrialProfile& profile) {
  util::json::Value record = util::json::Value::object();
  record["type"] = "profile";
  record["attempt"] = profile.attempt;
  record["workload"] = profile.workload;
  record["fork_us"] = profile.us(ProfilePhase::kFork);
  record["setup_us"] = profile.us(ProfilePhase::kSetup);
  record["inject_us"] = profile.us(ProfilePhase::kInject);
  record["run_us"] = profile.us(ProfilePhase::kRun);
  record["classify_us"] = profile.us(ProfilePhase::kClassify);
  record["rob_wait_us"] = profile.us(ProfilePhase::kRobWait);
  record["journal_us"] = profile.us(ProfilePhase::kJournal);
  record["flush_us"] = profile.us(ProfilePhase::kFlush);
  return record;
}

TrialProfile trial_profile_from_json(const util::json::Value& record) {
  TrialProfile profile;
  profile.attempt =
      static_cast<std::uint64_t>(record.number_or("attempt", 0.0));
  profile.workload = record.string_or("workload", "");
  const auto us = [&record](const char* key) {
    return static_cast<std::uint64_t>(record.number_or(key, 0.0));
  };
  profile.us(ProfilePhase::kFork) = us("fork_us");
  profile.us(ProfilePhase::kSetup) = us("setup_us");
  profile.us(ProfilePhase::kInject) = us("inject_us");
  profile.us(ProfilePhase::kRun) = us("run_us");
  profile.us(ProfilePhase::kClassify) = us("classify_us");
  profile.us(ProfilePhase::kRobWait) = us("rob_wait_us");
  profile.us(ProfilePhase::kJournal) = us("journal_us");
  profile.us(ProfilePhase::kFlush) = us("flush_us");
  return profile;
}

void TrialProfiler::trial(const TrialProfile& profile) {
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    accumulated_.phases[p].observe(profile.phase_us[p]);
  }
  if (fd_ < 0) return;  // accumulate-only: no syscalls, no allocations
  util::json::Value record = trial_profile_to_json(profile);
  if (profile.workload.empty() && !workload_.empty()) {
    record["workload"] = workload_;
  }
  std::string line = record.dump();
  line += '\n';
  // One write per record, like the tracer: a crash tears at most the
  // final line, which readers drop.
  if (!util::io::write_fully(fd_, line.data(), line.size())) {
    throw std::runtime_error(std::string("TrialProfiler: write failed: ") +
                             std::strerror(errno));
  }
  ++records_;
}

void TrialProfiler::sync() {
  // phicheck:blocking-ok(explicit flush API called at campaign end, not from the event loop; reached via same-name 'sync' union)
  if (fd_ >= 0) ::fsync(fd_);
}

// phicheck:ndjson-writer(stats.profile_phase) entry
util::json::Value profile_snapshot_to_json(const ProfileSnapshot& snapshot) {
  util::json::Value phases = util::json::Value::array();
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    const ProfilePhaseHist& hist = snapshot.phases[p];
    util::json::Value entry = util::json::Value::object();
    entry["phase"] = std::string(kPhaseNames[p]);
    entry["count"] = hist.count;
    entry["sum_us"] = hist.sum_us;
    util::json::Value buckets = util::json::Value::object();
    for (std::size_t b = 0; b < kProfileBuckets; ++b) {
      if (hist.buckets[b] > 0) {
        buckets[std::to_string(b)] = hist.buckets[b];
      }
    }
    entry["buckets"] = std::move(buckets);
    phases.push_back(std::move(entry));
  }
  util::json::Value out = util::json::Value::object();
  out["phases"] = std::move(phases);
  return out;
}

ProfileSnapshot profile_snapshot_from_json(const util::json::Value& value) {
  ProfileSnapshot snapshot;
  const util::json::Value* phases = value.find("phases");
  if (phases == nullptr || !phases->is_array()) return snapshot;
  for (const util::json::Value& entry : phases->as_array()) {
    ProfilePhase phase;
    if (!profile_phase_from_name(entry.string_or("phase", ""), &phase)) {
      continue;  // unknown phase name: forward compatibility, skip
    }
    ProfilePhaseHist& hist = snapshot.phases[static_cast<std::size_t>(phase)];
    hist.count = static_cast<std::uint64_t>(entry.number_or("count", 0.0));
    hist.sum_us = static_cast<std::uint64_t>(entry.number_or("sum_us", 0.0));
    if (const util::json::Value* buckets = entry.find("buckets");
        buckets != nullptr && buckets->is_object()) {
      for (const auto& [index, count] : buckets->as_object()) {
        const unsigned long bucket = std::strtoul(index.c_str(), nullptr, 10);
        if (bucket < kProfileBuckets) {
          hist.buckets[bucket] =
              static_cast<std::uint64_t>(count.as_double());
        }
      }
    }
  }
  return snapshot;
}

ProfileContents read_profile(std::istream& is) {
  ProfileContents contents;
  std::string line;
  while (true) {
    const bool got_line = static_cast<bool>(std::getline(is, line));
    if (!got_line) break;
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
      // Torn or corrupt line: drop it and the rest of the stream, exactly
      // like the trace reader.
      contents.dropped_bytes += line.size() + (complete ? 1 : 0);
      std::string rest;
      while (std::getline(is, rest)) {
        contents.dropped_bytes += rest.size() + (is.eof() ? 0 : 1);
      }
      break;
    }
    if (record.string_or("type", "") == "profile") {
      contents.trials.push_back(trial_profile_from_json(record));
    }
    // Unknown record types are skipped: forward compatibility.
  }
  return contents;
}

ProfileContents read_profile_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    throw std::runtime_error("read_profile: cannot open '" + path + "'");
  }
  return read_profile(stream);
}

}  // namespace phifi::telemetry
