// Deterministic shard merge: folds per-worker journal shards back into
// the single journal a --jobs 1 run would have written.
//
// Each fabric worker journals the attempts it executed into its own
// checksummed shard. Because trial seeds are counter-indexed and the
// commit point orders by attempt index, the shards are a partition (plus
// possible overlap from reclaimed leases) of exactly the records a
// sequential run produces. The merge re-derives the campaign boundary —
// the trial count or the --stop-ci-width stop rule, evaluated in attempt
// order with the very function the live scheduler and journal replay use
// — so the merged journal's tallies, estimator state, and fingerprint are
// bit-identical to --jobs 1 (timing fields aside, which no tally reads).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"

namespace phifi::fabric {

struct MergeOptions {
  std::vector<std::string> shards;  ///< shard journal paths
  std::string out_path;             ///< merged journal to write
  /// Accept a shard whose final record is torn (a worker killed
  /// mid-write). Off by default: a torn shard is refused with a
  /// diagnostic naming the file, because silent tail loss looks exactly
  /// like missing work. Safe to enable for a crashed worker whose lease
  /// was re-executed elsewhere — the contiguity check still catches any
  /// genuinely missing range.
  bool allow_torn_tail = false;
  /// Digest of the golden output the shards must have been classified
  /// against (phifi_merge passes its own golden run's); 0 takes the first
  /// shard's. Either way every shard must agree, and the merged journal's
  /// header carries it, so a replay checks it like any resume.
  std::uint64_t golden_digest = 0;
};

struct MergeSummary {
  std::uint64_t shard_records = 0;  ///< total records read across shards
  std::uint64_t merged = 0;         ///< records written to the output
  std::uint64_t duplicates = 0;     ///< reclaim overlap dropped
  std::uint64_t overshoot = 0;      ///< records past the campaign boundary
  std::uint64_t injected = 0;       ///< injected completions in the output
  fi::OutcomeTally overall;         ///< tallies of the merged prefix
  bool stopped_early = false;  ///< boundary set by the --stop-ci-width rule
};

/// Merges shards into `options.out_path`. Throws std::runtime_error — the
/// message names the offending shard — when a shard has a mismatched
/// fingerprint, workload or golden digest, is torn (without
/// allow_torn_tail), or when the union of shards leaves a gap before the
/// campaign boundary.
MergeSummary merge_shards(const fi::CampaignConfig& config,
                          std::string_view workload, unsigned time_windows,
                          const MergeOptions& options);

}  // namespace phifi::fabric
