#include "fabric/merge.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace phifi::fabric {

MergeSummary merge_shards(const fi::CampaignConfig& config,
                          std::string_view workload, unsigned time_windows,
                          const MergeOptions& options) {
  if (options.shards.empty()) {
    throw std::runtime_error("merge: no shard journals given");
  }
  if (options.out_path.empty()) {
    throw std::runtime_error("merge: no output journal path given");
  }
  const std::uint64_t expected_fp =
      fi::campaign_fingerprint(config, workload, time_windows);

  // Shards are read in sorted-path order so duplicate resolution (which
  // copy of a re-executed attempt survives — they differ only in timing
  // fields) does not depend on argument order.
  std::vector<std::string> shard_paths = options.shards;
  std::sort(shard_paths.begin(), shard_paths.end());

  MergeSummary summary;
  std::vector<fi::JournalRecord> pool;
  std::uint64_t run_id = 0;
  std::uint64_t golden_digest = options.golden_digest;
  for (const std::string& path : shard_paths) {
    const fi::JournalContents contents = fi::read_journal(path);
    // Every shard of one fabric campaign carries the coordinator's run id;
    // the merged journal keeps it so the correlation survives the merge.
    if (run_id == 0) run_id = contents.header.run_id;
    if (contents.header.fingerprint != expected_fp) {
      throw std::runtime_error(
          "merge refused: shard '" + path +
          "' was written by a different campaign configuration "
          "(fingerprint mismatch — check workload, seed, policy, models, "
          "trials, and stop_ci_width)");
    }
    if (golden_digest == 0) golden_digest = contents.header.golden_digest;
    fi::require_same_golden(contents.header, golden_digest,
                            "merge refused: shard '" + path + "'");
    if (contents.dropped_bytes > 0) {
      if (!options.allow_torn_tail) {
        throw std::runtime_error(
            "merge refused: shard '" + path + "' has " +
            std::to_string(contents.dropped_bytes) +
            " bytes of torn tail (truncated mid-record). If this shard "
            "belongs to a crashed worker whose lease was re-executed, "
            "pass --allow-torn-tail; the contiguity check still catches "
            "missing work");
      }
      util::log_warn() << "merge: shard '" << path << "' dropped "
                       << contents.dropped_bytes
                       << " bytes of torn tail (--allow-torn-tail)";
    }
    summary.shard_records += contents.records.size();
    pool.insert(pool.end(), contents.records.begin(),
                contents.records.end());
  }

  // Attempt-index order; stable keeps the sorted-path tie-break for
  // duplicates from reclaimed-lease overlap.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const fi::JournalRecord& a,
                      const fi::JournalRecord& b) {
                     return a.attempt_index < b.attempt_index;
                   });

  // Walk in order, re-deriving the campaign boundary with the live commit
  // point's finish line: everything past it is worker overshoot (a lease
  // runs to completion even when the campaign ends mid-range).
  fi::CampaignResult scratch;
  scratch.by_window.resize(time_windows);
  std::vector<const fi::JournalRecord*> selected;
  std::uint64_t expected = 0;
  fi::FinishLine finish;
  for (const fi::JournalRecord& record : pool) {
    if (finish.reached) {
      ++summary.overshoot;
      continue;
    }
    if (record.attempt_index < expected) {
      ++summary.duplicates;
      continue;
    }
    if (record.attempt_index > expected) {
      throw std::runtime_error(
          "merge refused: attempts [" + std::to_string(expected) + ", " +
          std::to_string(record.attempt_index) +
          ") are in no shard — a lease was never completed. Re-run the "
          "campaign fabric (or the missing workers) to fill the gap");
    }
    selected.push_back(&record);
    fi::accumulate_trial(scratch, record.trial);
    ++expected;
    finish = fi::campaign_finish_line(config, scratch.overall);
  }
  summary.stopped_early = finish.stopped_early;
  const std::uint64_t completed = scratch.overall.total();
  const std::uint64_t budget =
      config.trials * (1 + config.max_retry_factor);
  if (!finish.reached && expected < budget) {
    throw std::runtime_error(
        "merge refused: shards cover attempts [0, " +
        std::to_string(expected) + ") with only " +
        std::to_string(completed) + "/" + std::to_string(config.trials) +
        " injected trials — the campaign is incomplete");
  }
  if (!finish.reached) {
    // The full retry budget is covered without reaching the trial count —
    // the same way a --jobs 1 run ends when NotInjected retries exhaust
    // the budget. Merge what exists; phifi_run will report the shortfall.
    util::log_warn() << "merge: attempt budget exhausted with "
                     << completed << "/" << config.trials
                     << " injected trials";
  }

  fi::JournalHeader header;
  header.fingerprint = expected_fp;
  header.time_windows = time_windows;
  header.workload = std::string(workload);
  header.run_id = run_id;
  header.golden_digest = golden_digest;
  fi::CampaignJournalWriter writer(options.out_path, header,
                                   fi::JournalFsync::kOnClose);
  for (const fi::JournalRecord* record : selected) {
    writer.append(*record);
  }
  writer.sync();

  summary.merged = selected.size();
  summary.injected = completed;
  summary.overall = scratch.overall;
  return summary;
}

}  // namespace phifi::fabric
