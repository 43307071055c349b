// Trial latency anatomy profiler: where does a trial's wall-clock go?
//
// The ROADMAP's gating metric is masked-trial throughput, and the fork-
// server fast path moved per-trial time between phases without any
// instrument saying *where*. The profiler records, per committed trial,
// the duration of every phase of the trial pipeline — template dispatch,
// template setup, site selection + injection, run, in-place classification
// against the sealed golden mapping, reorder-buffer wait, journal
// append, and the batched fsync flush — into fixed-bucket log2 histograms.
//
// Discipline mirrors the campaign estimator (estimator.hpp): the snapshot
// holds only integer counts and integer microsecond sums, fold() is pure
// element-wise addition (associative + commutative), and percentiles are
// derived from the bucket counts with integer rank arithmetic — so the
// coordinator's fold of per-worker snapshots is bit-identical to the
// profile a --jobs 1 run of the same trials would accumulate.
//
// Like the tracer, the profiler is opt-in with a nullptr fast path: no
// profiler pointer in CampaignConfig means the commit path does not even
// read a clock for it. With a pointer but no file, it accumulates
// histograms without a single syscall or allocation per trial; with a
// file it additionally appends one NDJSON `profile` record per committed
// trial (torn-tail drop semantics shared with the tracer).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace phifi::telemetry {

/// The trial pipeline's phase taxonomy (docs/PROFILING.md). Order is the
/// wire and storage order; kFlush is last because it is batch-scoped (the
/// cost lands on the trial whose commit triggered the flush, zero
/// elsewhere).
enum class ProfilePhase : unsigned {
  kFork = 0,  ///< template dispatch (and respawn), to child running
  kSetup,     ///< template's one-time setup, on the trial that spawned it
  kInject,    ///< flip-engine arming in the child
  kRun,       ///< workload execution (child run loop)
  kClassify,  ///< in-place verdict (child) plus parent-side bookkeeping
  kRobWait,   ///< reorder-buffer wait from reap to in-order commit
  kJournal,   ///< write-ahead journal append for this trial
  kFlush,     ///< batched journal fsync charged to the triggering trial
};

inline constexpr std::size_t kProfilePhaseCount = 8;

[[nodiscard]] std::string_view to_string(ProfilePhase phase);

/// Parses a phase name; returns false on an unknown name.
[[nodiscard]] bool profile_phase_from_name(std::string_view name,
                                           ProfilePhase* phase);

/// log2 bucket count: bucket i (i >= 1) holds durations in
/// [2^(i-1), 2^i) microseconds, bucket 0 holds exactly 0 us, and the
/// last bucket absorbs everything >= 2^46 us (~2.2 years — unreachable).
inline constexpr std::size_t kProfileBuckets = 48;

/// Maps a duration in microseconds to its bucket index.
[[nodiscard]] std::size_t profile_bucket_index(std::uint64_t us);

/// Inclusive upper edge of a bucket, in microseconds (0 for bucket 0).
[[nodiscard]] std::uint64_t profile_bucket_edge_us(std::size_t bucket);

/// One phase's histogram: integer counts only, so fold order never
/// changes the result.
struct ProfilePhaseHist {
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::array<std::uint64_t, kProfileBuckets> buckets{};

  void observe(std::uint64_t us) {
    ++count;
    sum_us += us;
    ++buckets[profile_bucket_index(us)];
  }

  [[nodiscard]] double mean_ms() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_us) /
                            (1000.0 * static_cast<double>(count));
  }

  bool operator==(const ProfilePhaseHist&) const = default;
};

/// Percentile from bucket counts, reported as the inclusive upper edge of
/// the bucket holding the target rank, in milliseconds. Integer rank
/// arithmetic (rank = ceil(count * pct / 100)) over integer counts: the
/// value depends only on the folded counts, never on fold order.
[[nodiscard]] double profile_percentile_ms(const ProfilePhaseHist& hist,
                                           unsigned pct);

/// The foldable profile state: one histogram per phase.
struct ProfileSnapshot {
  std::array<ProfilePhaseHist, kProfilePhaseCount> phases{};

  [[nodiscard]] ProfilePhaseHist& phase(ProfilePhase p) {
    return phases[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const ProfilePhaseHist& phase(ProfilePhase p) const {
    return phases[static_cast<std::size_t>(p)];
  }

  /// Element-wise integer addition — associative and commutative, so a
  /// fleet fold over per-worker snapshots in any grouping equals the
  /// jobs=1 accumulation bit for bit.
  void fold(const ProfileSnapshot& other);

  /// Total committed trials (every phase observes once per trial, so any
  /// phase's count works; kRun is the canonical one).
  [[nodiscard]] std::uint64_t trials() const {
    return phase(ProfilePhase::kRun).count;
  }

  bool operator==(const ProfileSnapshot&) const = default;
};

/// One committed trial's phase durations — what the campaign commit path
/// hands the profiler and what one NDJSON `profile` record carries.
struct TrialProfile {
  std::uint64_t attempt = 0;
  std::string workload;
  std::array<std::uint64_t, kProfilePhaseCount> phase_us{};

  [[nodiscard]] std::uint64_t& us(ProfilePhase p) {
    return phase_us[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t us(ProfilePhase p) const {
    return phase_us[static_cast<std::size_t>(p)];
  }
};

/// Converts a non-negative duration in seconds to whole microseconds.
[[nodiscard]] std::uint64_t profile_us_from_seconds(double seconds);

/// The profiler the campaign commit path feeds. Single-writer by design
/// (the commit point is single-threaded even at --jobs N), like the
/// estimator.
class TrialProfiler {
 public:
  /// Accumulate-only profiler: no file, no syscalls on the trial path.
  TrialProfiler() = default;

  /// Accumulates and appends one NDJSON record per trial to `path`.
  /// `truncate=false` appends (resumed campaigns keep their history).
  explicit TrialProfiler(const std::string& path, bool truncate = true);
  ~TrialProfiler();

  TrialProfiler(const TrialProfiler&) = delete;
  TrialProfiler& operator=(const TrialProfiler&) = delete;

  /// Workload name stamped onto records whose TrialProfile left it empty.
  void set_workload(std::string workload);

  /// Observes one committed trial: every phase lands in its histogram,
  /// and (file-backed only) one `profile` record is appended.
  void trial(const TrialProfile& profile);

  [[nodiscard]] ProfileSnapshot snapshot() const { return accumulated_; }
  [[nodiscard]] std::uint64_t records_written() const { return records_; }
  [[nodiscard]] bool writing() const { return fd_ >= 0; }

  /// Flushes the record file (campaign end / segment boundary).
  void sync();

 private:
  ProfileSnapshot accumulated_;
  std::string workload_;
  int fd_ = -1;
  std::uint64_t records_ = 0;
};

/// JSON codecs for the fabric heartbeat (fabric/stats.cpp embeds the
/// snapshot in the worker's heartbeat payload) and for tests. Buckets are
/// encoded sparsely ({"<index>": count, ...}) to keep heartbeat frames
/// small.
[[nodiscard]] util::json::Value profile_snapshot_to_json(
    const ProfileSnapshot& snapshot);
[[nodiscard]] ProfileSnapshot profile_snapshot_from_json(
    const util::json::Value& value);

/// JSON form of one trial's record (the NDJSON line body).
[[nodiscard]] util::json::Value trial_profile_to_json(
    const TrialProfile& profile);
[[nodiscard]] TrialProfile trial_profile_from_json(
    const util::json::Value& record);

/// A parsed profile stream (phifi_parse --profile, check_telemetry.py's
/// C++-side mirror in tests).
struct ProfileContents {
  std::vector<TrialProfile> trials;
  std::size_t dropped_bytes = 0;  ///< torn/corrupt tail, dropped like trace
};

ProfileContents read_profile(std::istream& is);
ProfileContents read_profile_file(const std::string& path);

}  // namespace phifi::telemetry
