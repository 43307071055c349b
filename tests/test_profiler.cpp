// Trial latency anatomy profiler: the fold must be exact (a fleet of
// worker snapshots folded in any grouping equals the jobs=1 accumulation
// bit for bit), the disabled path must stay free, the NDJSON stream must
// survive torn tails, and every execution path — legacy cold-start and
// the fork-server fast path — must feed all eight phases per trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "fabric/stats.hpp"
#include "telemetry/profiler.hpp"
#include "tests/toy_workload.hpp"

namespace phifi::telemetry {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

TEST(ProfilerBuckets, IndexMapsLog2Ranges) {
  // Bucket 0 holds exactly 0 us; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(profile_bucket_index(0), 0u);
  EXPECT_EQ(profile_bucket_index(1), 1u);
  EXPECT_EQ(profile_bucket_index(2), 2u);
  EXPECT_EQ(profile_bucket_index(3), 2u);
  EXPECT_EQ(profile_bucket_index(4), 3u);
  EXPECT_EQ(profile_bucket_index(7), 3u);
  EXPECT_EQ(profile_bucket_index(8), 4u);
  EXPECT_EQ(profile_bucket_index(1023), 10u);
  EXPECT_EQ(profile_bucket_index(1024), 11u);
  // Everything at or past 2^47 lands in the final catch-all bucket.
  EXPECT_EQ(profile_bucket_index(std::uint64_t{1} << 47),
            kProfileBuckets - 1);
  EXPECT_EQ(profile_bucket_index(~std::uint64_t{0}), kProfileBuckets - 1);
}

TEST(ProfilerBuckets, EdgeIsInclusiveUpperBoundOfItsRange) {
  EXPECT_EQ(profile_bucket_edge_us(0), 0u);
  EXPECT_EQ(profile_bucket_edge_us(1), 1u);
  EXPECT_EQ(profile_bucket_edge_us(2), 3u);
  EXPECT_EQ(profile_bucket_edge_us(10), 1023u);
  // Every representable duration sits at or below its bucket's edge.
  for (const std::uint64_t us : {1ull, 2ull, 3ull, 100ull, 999ull, 4096ull,
                                 123456789ull}) {
    EXPECT_LE(us, profile_bucket_edge_us(profile_bucket_index(us))) << us;
  }
}

TEST(ProfilerBuckets, PercentilesMatchHandComputedRanks) {
  ProfilePhaseHist hist;
  EXPECT_EQ(profile_percentile_ms(hist, 50), 0.0);  // empty: no data

  // 90 observations in bucket 10 ([512, 1024) us), 10 in bucket 14
  // ([8192, 16384) us). p50 rank = 50 -> bucket 10; p95 rank = 95 ->
  // bucket 14; p99 -> bucket 14.
  for (int i = 0; i < 90; ++i) hist.observe(600);
  for (int i = 0; i < 10; ++i) hist.observe(9000);
  EXPECT_DOUBLE_EQ(profile_percentile_ms(hist, 50), 1023 / 1000.0);
  EXPECT_DOUBLE_EQ(profile_percentile_ms(hist, 95), 16383 / 1000.0);
  EXPECT_DOUBLE_EQ(profile_percentile_ms(hist, 99), 16383 / 1000.0);
  EXPECT_DOUBLE_EQ(profile_percentile_ms(hist, 100), 16383 / 1000.0);
  EXPECT_NEAR(hist.mean_ms(), (90 * 600 + 10 * 9000) / (100 * 1000.0),
              1e-12);
}

TEST(ProfilerBuckets, PercentileRankCeilingOnSmallCounts) {
  ProfilePhaseHist hist;
  hist.observe(0);
  hist.observe(1000000);  // bucket 20
  // p50 of 2 observations: rank = ceil(2*50/100) = 1 -> first bucket.
  EXPECT_DOUBLE_EQ(profile_percentile_ms(hist, 50), 0.0);
  EXPECT_DOUBLE_EQ(profile_percentile_ms(hist, 51), 1048575 / 1000.0);
}

// The acceptance property: shard a synthetic campaign across N "workers"
// at random, fold the per-worker snapshots in shuffled order (and in
// arbitrary pairings), and land bit-identically on the jobs=1 reference.
TEST(ProfilerFold, RandomShardingFoldsBitIdenticalToSequential) {
  std::mt19937_64 rng(0xf01df01dULL);
  for (int round = 0; round < 20; ++round) {
    const std::size_t trials = 1 + rng() % 400;
    const std::size_t workers = 1 + rng() % 8;

    ProfileSnapshot reference;
    std::vector<ProfileSnapshot> shards(workers);
    for (std::size_t t = 0; t < trials; ++t) {
      TrialProfile profile;
      for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
        // Mix zeros, small, and huge durations across the bucket range.
        profile.phase_us[p] = (rng() % 4 == 0) ? 0 : rng() % (1ull << 40);
      }
      const std::size_t worker = rng() % workers;
      for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
        reference.phases[p].observe(profile.phase_us[p]);
        shards[worker].phases[p].observe(profile.phase_us[p]);
      }
    }

    // Fold the shards in a shuffled order...
    std::shuffle(shards.begin(), shards.end(), rng);
    ProfileSnapshot linear;
    for (const ProfileSnapshot& shard : shards) linear.fold(shard);
    EXPECT_EQ(linear, reference) << "round " << round;

    // ...and pairwise-tree folded (associativity), through the JSON wire
    // codec each worker would ship its snapshot over (codec exactness).
    std::vector<ProfileSnapshot> level;
    level.reserve(shards.size());
    for (const ProfileSnapshot& shard : shards) {
      level.push_back(profile_snapshot_from_json(
          profile_snapshot_to_json(shard)));
    }
    while (level.size() > 1) {
      std::vector<ProfileSnapshot> next;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        ProfileSnapshot merged = level[i];
        if (i + 1 < level.size()) merged.fold(level[i + 1]);
        next.push_back(merged);
      }
      level = std::move(next);
    }
    EXPECT_EQ(level.front(), reference) << "round " << round;
    EXPECT_EQ(level.front().trials(), reference.phase(ProfilePhase::kRun)
                                          .count);
  }
}

TEST(Profiler, DefaultConstructedAccumulatesWithoutAFile) {
  TrialProfiler profiler;
  EXPECT_FALSE(profiler.writing());
  TrialProfile profile;
  profile.us(ProfilePhase::kRun) = 1500;
  profiler.trial(profile);
  profiler.trial(profile);
  profiler.sync();  // no-op without a file
  EXPECT_EQ(profiler.records_written(), 0u);
  EXPECT_EQ(profiler.snapshot().trials(), 2u);
  EXPECT_EQ(profiler.snapshot().phase(ProfilePhase::kRun).sum_us, 3000u);
}

TEST(Profiler, NdjsonRoundTripPreservesEveryField) {
  const std::string path = temp_path("profiler_roundtrip.ndjson");
  fs::remove(path);
  {
    TrialProfiler profiler(path);
    ASSERT_TRUE(profiler.writing());
    profiler.set_workload("toy");
    for (std::uint64_t attempt = 0; attempt < 5; ++attempt) {
      TrialProfile profile;
      profile.attempt = attempt;
      for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
        profile.phase_us[p] = attempt * 1000 + p;
      }
      profiler.trial(profile);
    }
    EXPECT_EQ(profiler.records_written(), 5u);
    profiler.sync();
  }
  const ProfileContents contents = read_profile_file(path);
  EXPECT_EQ(contents.dropped_bytes, 0u);
  ASSERT_EQ(contents.trials.size(), 5u);
  for (std::uint64_t attempt = 0; attempt < 5; ++attempt) {
    const TrialProfile& trial = contents.trials[attempt];
    EXPECT_EQ(trial.attempt, attempt);
    EXPECT_EQ(trial.workload, "toy");  // stamped by set_workload
    for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
      EXPECT_EQ(trial.phase_us[p], attempt * 1000 + p);
    }
  }
}

TEST(Profiler, AppendModeKeepsResumedHistory) {
  const std::string path = temp_path("profiler_append.ndjson");
  fs::remove(path);
  {
    TrialProfiler first(path);
    TrialProfile profile;
    profile.attempt = 0;
    first.trial(profile);
  }
  {
    TrialProfiler resumed(path, /*truncate=*/false);
    TrialProfile profile;
    profile.attempt = 1;
    resumed.trial(profile);
  }
  const ProfileContents contents = read_profile_file(path);
  ASSERT_EQ(contents.trials.size(), 2u);
  EXPECT_EQ(contents.trials[0].attempt, 0u);
  EXPECT_EQ(contents.trials[1].attempt, 1u);
}

TEST(Profiler, TornTailIsDroppedNotParsed) {
  std::stringstream stream;
  TrialProfile profile;
  profile.attempt = 7;
  profile.workload = "toy";
  stream << trial_profile_to_json(profile).dump() << "\n";
  const std::string torn = R"({"type":"profile","attempt":8,"wor)";
  stream << torn;  // crash mid-write: no trailing newline
  const ProfileContents contents = read_profile(stream);
  ASSERT_EQ(contents.trials.size(), 1u);
  EXPECT_EQ(contents.trials[0].attempt, 7u);
  EXPECT_EQ(contents.dropped_bytes, torn.size());
}

TEST(Profiler, UnknownRecordTypesAreSkipped) {
  std::stringstream stream;
  stream << R"({"type":"trace","attempt":0})" << "\n";
  TrialProfile profile;
  profile.attempt = 3;
  stream << trial_profile_to_json(profile).dump() << "\n";
  const ProfileContents contents = read_profile(stream);
  ASSERT_EQ(contents.trials.size(), 1u);
  EXPECT_EQ(contents.trials[0].attempt, 3u);
  EXPECT_EQ(contents.dropped_bytes, 0u);
}

TEST(ProfilerWire, WorkerStatsCarryTheSnapshotExactly) {
  fabric::WorkerStats stats;
  stats.executed = 42;
  TrialProfile profile;
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    profile.phase_us[p] = 1000 * (p + 1);
  }
  TrialProfiler profiler;
  profiler.trial(profile);
  profiler.trial(profile);
  stats.profile = profiler.snapshot();

  const fabric::WorkerStats decoded =
      fabric::decode_stats(fabric::encode_stats(stats));
  EXPECT_EQ(decoded.executed, 42u);
  EXPECT_EQ(decoded.profile, stats.profile);
  EXPECT_EQ(decoded.profile.trials(), 2u);
}

TEST(ProfilerWire, StatsWithoutProfileDecodeEmpty) {
  fabric::WorkerStats stats;
  stats.executed = 1;
  const fabric::WorkerStats decoded =
      fabric::decode_stats(fabric::encode_stats(stats));
  EXPECT_EQ(decoded.profile.trials(), 0u);
  EXPECT_EQ(decoded.profile, ProfileSnapshot{});
}

// A campaign commits one observation per phase per trial, at any jobs
// count, with one NDJSON record per attempt in attempt order.
TEST(ProfilerCampaign, FeedsEveryPhaseEveryTrialAtJobs1And2) {
  for (const unsigned jobs : {1u, 2u}) {
    const std::string path =
        temp_path("profiler_j" + std::to_string(jobs) + ".ndjson");
    fs::remove(path);
    TrialProfiler profiler(path);
    phifi::testing::ToyWorkload::reset_run_counter();
    fi::TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                                   phifi::testing::toy_supervisor_config());
    supervisor.prepare_golden();
    fi::CampaignConfig config;
    config.trials = 10;
    config.seed = 0xbeefULL;
    config.jobs = jobs;
    config.profiler = &profiler;
    const fi::CampaignResult result = fi::Campaign(supervisor, config).run();
    profiler.sync();
    EXPECT_EQ(result.attempts, 10u) << jobs;

    const ProfileSnapshot snapshot = profiler.snapshot();
    EXPECT_EQ(snapshot.trials(), 10u) << jobs;
    for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
      EXPECT_EQ(snapshot.phases[p].count, 10u)
          << to_string(static_cast<ProfilePhase>(p)) << " jobs " << jobs;
    }
    // Wall-clock phases really measured something: 10 forked trials
    // cannot take zero total fork or run time.
    EXPECT_GT(snapshot.phase(ProfilePhase::kFork).sum_us, 0u);
    EXPECT_GT(snapshot.phase(ProfilePhase::kRun).sum_us, 0u);

    const ProfileContents contents = read_profile_file(path);
    ASSERT_EQ(contents.trials.size(), 10u);
    // Attempts committed in deterministic order, once each.
    for (std::uint64_t i = 0; i < contents.trials.size(); ++i) {
      EXPECT_EQ(contents.trials[i].attempt, i);
    }
  }
}

}  // namespace
}  // namespace phifi::telemetry
