// Observatory tests: the streaming CampaignEstimator against util::stats
// ground truth and an offline pass over a real campaign, the OpenMetrics
// exposition (including the cumulative-bucket round-trip against the JSON
// snapshot), the --history ledger, and the drift gate's z-test verdicts.
#include "telemetry/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/drift.hpp"
#include "core/campaign.hpp"
#include "telemetry/history.hpp"
#include "telemetry/metrics.hpp"
#include "tests/toy_workload.hpp"
#include "util/statistics.hpp"

namespace phifi::telemetry {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

void expect_interval_eq(const util::Interval& a, const util::Interval& b) {
  EXPECT_DOUBLE_EQ(a.point, b.point);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

// -------------------------------------------------------------- estimator

TEST(CampaignEstimator, IntervalsMatchUtilStatisticsOnKnownCounts) {
  CampaignEstimator est;
  for (int i = 0; i < 7; ++i) {
    est.record(EstimatorOutcome::kMasked, "Single", 0, "data", true);
  }
  for (int i = 0; i < 2; ++i) {
    est.record(EstimatorOutcome::kSdc, "Single", 0, "data", true);
  }
  est.record(EstimatorOutcome::kDue, "Single", 0, "data", true);

  EXPECT_EQ(est.total(), 10u);
  EXPECT_EQ(est.counts().masked, 7u);
  EXPECT_EQ(est.counts().sdc, 2u);
  EXPECT_EQ(est.counts().due, 1u);
  expect_interval_eq(est.sdc_interval(), util::wilson_interval(2, 10));
  expect_interval_eq(est.due_interval(), util::wilson_interval(1, 10));
  expect_interval_eq(est.masked_interval(), util::wilson_interval(7, 10));
}

TEST(CampaignEstimator, EmptyEstimatorHasDegenerateIntervals) {
  CampaignEstimator est;
  EXPECT_EQ(est.total(), 0u);
  expect_interval_eq(est.sdc_interval(), util::wilson_interval(0, 0));
  EXPECT_TRUE(est.cells().empty());
}

TEST(CampaignEstimator, CellsAreGatedOnInjectedAndKeyedPerAxis) {
  CampaignEstimator est;
  est.record(EstimatorOutcome::kSdc, "Single", 0, "data", true);
  est.record(EstimatorOutcome::kMasked, "Single", 0, "data", true);
  est.record(EstimatorOutcome::kDue, "Double", 1, "control", true);
  // Not injected: counts toward the overall split only, never a cell.
  est.record(EstimatorOutcome::kMasked, "Single", 0, "data", false);

  EXPECT_EQ(est.total(), 4u);
  const std::vector<CellEstimate> cells = est.cells();
  ASSERT_EQ(cells.size(), 2u);
  // std::map ordering: "Double" < "Single".
  EXPECT_EQ(cells[0].key.model, "Double");
  EXPECT_EQ(cells[0].key.window, 1u);
  EXPECT_EQ(cells[0].key.category, "control");
  EXPECT_EQ(cells[0].counts.due, 1u);
  EXPECT_EQ(cells[1].key.model, "Single");
  EXPECT_EQ(cells[1].counts.total(), 2u);
  EXPECT_EQ(cells[1].counts.sdc, 1u);
  expect_interval_eq(cells[1].sdc, util::wilson_interval(1, 2));
}

TEST(CampaignEstimator, TrialsToHalfWidthProjectsAndSaturates) {
  CampaignEstimator est;
  // Before any data the planning formula still yields a finite projection
  // (the Wilson center shrinks toward 1/2, never exactly 0).
  EXPECT_GT(est.trials_to_half_width(0.01), 0u);

  for (int i = 0; i < 50; ++i) {
    est.record(i % 5 == 0 ? EstimatorOutcome::kSdc
                          : EstimatorOutcome::kMasked,
               "Single", 0, "data", true);
  }
  // A coarse target is already met at n=50.
  EXPECT_GT(est.sdc_interval().half_width(), 0.01);
  EXPECT_LE(est.sdc_interval().half_width(), 0.2);
  EXPECT_EQ(est.trials_to_half_width(0.2), 0u);
  // A tight target needs more; tighter targets need strictly more.
  const std::uint64_t more_1pct = est.trials_to_half_width(0.01);
  const std::uint64_t more_half_pct = est.trials_to_half_width(0.005);
  EXPECT_GT(more_1pct, 0u);
  EXPECT_GT(more_half_pct, more_1pct);
  // The projection matches the documented planning formula
  // n = z²·p̃(1−p̃)/eps² with p̃ the Wilson center at the current counts.
  const double z = util::normal_quantile_two_sided(est.confidence());
  const double shrink = (10.0 + z * z / 2.0) / (50.0 + z * z);
  const double needed = z * z * shrink * (1.0 - shrink) / (0.01 * 0.01);
  EXPECT_EQ(more_1pct,
            static_cast<std::uint64_t>(std::ceil(needed - 50.0)));
}

TEST(CampaignEstimator, PublishExportsOverallAndPerCellGauges) {
  CampaignEstimator est;
  est.record(EstimatorOutcome::kSdc, "Double", 2, "data", true);
  est.record(EstimatorOutcome::kMasked, "Double", 2, "data", true);

  MetricsRegistry metrics;
  est.publish(metrics);

  const Gauge* trials = metrics.find_gauge("campaign.est.trials");
  ASSERT_NE(trials, nullptr);
  EXPECT_DOUBLE_EQ(trials->value(), 2.0);
  const Gauge* rate = metrics.find_gauge("campaign.est.sdc_rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->value(), util::wilson_interval(1, 2).point);
  const Gauge* lo = metrics.find_gauge("campaign.est.sdc_ci_lo");
  ASSERT_NE(lo, nullptr);
  EXPECT_DOUBLE_EQ(lo->value(), util::wilson_interval(1, 2).lo);
  const Gauge* cell =
      metrics.find_gauge("campaign.est.cell.Double.w2.data.sdc_rate");
  ASSERT_NE(cell, nullptr);
  EXPECT_DOUBLE_EQ(cell->value(), util::wilson_interval(1, 2).point);
}

// The acceptance cross-check: the streaming estimator fed from the commit
// path must agree with an offline pass over the campaign's own trial
// records, overall and cell by cell.
TEST(CampaignEstimator, MatchesOfflinePassOverRealCampaign) {
  using phifi::testing::ToyWorkload;
  ToyWorkload::reset_run_counter();
  fi::TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                                 phifi::testing::toy_supervisor_config());
  supervisor.prepare_golden();

  CampaignEstimator streaming;
  fi::CampaignConfig config;
  config.trials = 16;
  config.seed = 42;
  config.estimator = &streaming;
  fi::Campaign campaign(supervisor, config);
  const fi::CampaignResult result = campaign.run();

  CampaignEstimator offline;
  for (const fi::TrialResult& trial : result.trials) {
    EstimatorOutcome outcome = EstimatorOutcome::kMasked;
    switch (trial.outcome) {
      case fi::Outcome::kMasked: outcome = EstimatorOutcome::kMasked; break;
      case fi::Outcome::kSdc: outcome = EstimatorOutcome::kSdc; break;
      case fi::Outcome::kDue: outcome = EstimatorOutcome::kDue; break;
      case fi::Outcome::kNotInjected: continue;
    }
    offline.record(outcome, std::string(to_string(trial.record.model)),
                   trial.window, trial.record.category,
                   trial.record.injected);
  }

  EXPECT_EQ(streaming.total(), result.overall.total());
  EXPECT_EQ(streaming.counts().masked, offline.counts().masked);
  EXPECT_EQ(streaming.counts().sdc, offline.counts().sdc);
  EXPECT_EQ(streaming.counts().due, offline.counts().due);
  expect_interval_eq(streaming.sdc_interval(), offline.sdc_interval());

  const std::vector<CellEstimate> live = streaming.cells();
  const std::vector<CellEstimate> replayed = offline.cells();
  ASSERT_EQ(live.size(), replayed.size());
  ASSERT_FALSE(live.empty());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(live[i].key == replayed[i].key);
    EXPECT_EQ(live[i].counts.masked, replayed[i].counts.masked);
    EXPECT_EQ(live[i].counts.sdc, replayed[i].counts.sdc);
    EXPECT_EQ(live[i].counts.due, replayed[i].counts.due);
  }
}

// ------------------------------------------------------------ openmetrics

TEST(OpenMetrics, RendersAllFamiliesWithTypeHelpAndEof) {
  MetricsRegistry metrics;
  metrics.counter("campaign.sdc").inc(3);
  metrics.gauge("campaign.est.sdc_rate").set(0.25);
  Histogram& hist = metrics.histogram("campaign.trial_latency_ms",
                                      {1.0, 5.0, 25.0});
  hist.observe(0.5);
  hist.observe(4.0);
  hist.observe(100.0);

  const std::string text = metrics.render_openmetrics();
  EXPECT_NE(text.find("# TYPE phifi_campaign_sdc_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP phifi_campaign_sdc_total"), std::string::npos);
  EXPECT_NE(text.find("phifi_campaign_sdc_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE phifi_campaign_est_sdc_rate gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("phifi_campaign_est_sdc_rate 0.25\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE phifi_campaign_trial_latency_ms histogram\n"),
      std::string::npos);
  // Buckets are cumulative with an le label, capped by +Inf == count.
  EXPECT_NE(text.find("phifi_campaign_trial_latency_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("phifi_campaign_trial_latency_ms_bucket{le=\"5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("phifi_campaign_trial_latency_ms_bucket{le=\"25\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("phifi_campaign_trial_latency_ms_bucket{le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("phifi_campaign_trial_latency_ms_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("phifi_campaign_trial_latency_ms_sum 104.5\n"),
            std::string::npos);
  // The exposition terminator is the last line.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetrics, HistogramBucketsRoundTripAgainstJsonSnapshot) {
  MetricsRegistry metrics;
  Histogram& hist = metrics.histogram("lat", {1.0, 2.0, 5.0});
  for (double v : {0.5, 1.5, 1.7, 3.0, 3.5, 4.0, 9.0}) hist.observe(v);

  // De-cumulate the OpenMetrics buckets and compare with the snapshot's
  // disjoint counts — the two exports must describe the same histogram.
  const std::string text = metrics.render_openmetrics();
  std::vector<std::uint64_t> cumulative;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("phifi_lat_bucket{", 0) == 0) {
      cumulative.push_back(
          static_cast<std::uint64_t>(
              std::stoull(line.substr(line.rfind(' ') + 1))));
    }
  }
  ASSERT_EQ(cumulative.size(), 4u);  // 3 edges + the +Inf bucket
  const util::json::Value snap = metrics.snapshot();
  const util::json::Value* counts =
      snap.find("histograms")->find("lat")->find("counts");
  ASSERT_NE(counts, nullptr);
  ASSERT_EQ(counts->size(), 4u);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto disjoint =
        static_cast<std::uint64_t>(counts->as_array()[i].as_double());
    EXPECT_EQ(cumulative[i] - running, disjoint) << "bucket " << i;
    running = cumulative[i];
  }
  EXPECT_EQ(cumulative.back(), hist.count());
}

TEST(OpenMetrics, SanitizesMetricNames) {
  MetricsRegistry metrics;
  metrics.gauge("campaign.est.cell.Double.w2.x-y.sdc_rate").set(1.0);
  const std::string text = metrics.render_openmetrics();
  EXPECT_NE(
      text.find("phifi_campaign_est_cell_Double_w2_x_y_sdc_rate 1\n"),
      std::string::npos);
}

// ---------------------------------------------------------------- history

HistoryRecord sample_history(std::uint64_t sdc, std::uint64_t completed) {
  HistoryRecord record;
  record.workload = "Toy";
  record.fingerprint = 0xdeadbeefcafef00dULL;  // > 2^53: hex round-trip
  record.git_revision = "v1.2-3-gabc";
  record.seed = 42;
  record.jobs = 4;
  record.trials_target = completed;
  record.completed = completed;
  record.sdc = sdc;
  record.due = completed / 10;
  record.masked = completed - sdc - record.due;
  record.not_injected = 1;
  record.stopped_early = true;
  record.elapsed_seconds = 12.5;
  record.trials_per_sec = static_cast<double>(completed) / 12.5;
  const util::Interval ci = util::wilson_interval(sdc, completed);
  record.sdc_rate = ci.point;
  record.sdc_ci_lo = ci.lo;
  record.sdc_ci_hi = ci.hi;
  HistoryCell cell;
  cell.model = "Double";
  cell.window = 2;
  cell.category = "data";
  cell.sdc = sdc / 2;
  cell.masked = completed / 2 - cell.sdc;
  const util::Interval cell_ci =
      util::wilson_interval(cell.sdc, cell.masked + cell.sdc);
  cell.sdc_rate = cell_ci.point;
  cell.sdc_ci_lo = cell_ci.lo;
  cell.sdc_ci_hi = cell_ci.hi;
  record.cells.push_back(cell);
  return record;
}

TEST(History, JsonRoundTripPreservesEveryField) {
  const HistoryRecord record = sample_history(20, 100);
  const util::json::Value json = history_to_json(record);
  EXPECT_EQ(json.string_or("type", ""), "campaign_summary");
  // The fingerprint exceeds 2^53, so it must travel as a hex string, not a
  // JSON double.
  EXPECT_EQ(json.string_or("fingerprint", ""), "deadbeefcafef00d");

  const HistoryRecord back = history_from_json(json);
  EXPECT_EQ(back.workload, record.workload);
  EXPECT_EQ(back.fingerprint, record.fingerprint);
  EXPECT_EQ(back.git_revision, record.git_revision);
  EXPECT_EQ(back.seed, record.seed);
  EXPECT_EQ(back.jobs, record.jobs);
  EXPECT_EQ(back.completed, record.completed);
  EXPECT_EQ(back.masked, record.masked);
  EXPECT_EQ(back.sdc, record.sdc);
  EXPECT_EQ(back.due, record.due);
  EXPECT_EQ(back.not_injected, record.not_injected);
  EXPECT_EQ(back.stopped_early, record.stopped_early);
  EXPECT_DOUBLE_EQ(back.elapsed_seconds, record.elapsed_seconds);
  EXPECT_DOUBLE_EQ(back.trials_per_sec, record.trials_per_sec);
  EXPECT_DOUBLE_EQ(back.sdc_rate, record.sdc_rate);
  EXPECT_DOUBLE_EQ(back.sdc_ci_lo, record.sdc_ci_lo);
  EXPECT_DOUBLE_EQ(back.sdc_ci_hi, record.sdc_ci_hi);
  ASSERT_EQ(back.cells.size(), 1u);
  EXPECT_EQ(back.cells[0].model, "Double");
  EXPECT_EQ(back.cells[0].window, 2u);
  EXPECT_EQ(back.cells[0].category, "data");
  EXPECT_EQ(back.cells[0].sdc, record.cells[0].sdc);
  EXPECT_DOUBLE_EQ(back.cells[0].sdc_rate, record.cells[0].sdc_rate);
}

TEST(History, AppendAccumulatesAndTornTailIsDropped) {
  const std::string path = temp_path("history.ndjson");
  fs::remove(path);
  append_history(path, sample_history(20, 100));
  append_history(path, sample_history(30, 100));
  std::vector<HistoryRecord> records = read_history_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sdc, 20u);
  EXPECT_EQ(records[1].sdc, 30u);

  // A torn final record (crashed writer) is dropped, not fatal.
  fs::resize_file(path, fs::file_size(path) - 7);
  records = read_history_file(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sdc, 20u);
}

TEST(History, UnknownRecordTypesAreSkippedForForwardCompat) {
  const std::string path = temp_path("history_compat.ndjson");
  fs::remove(path);
  append_history(path, sample_history(20, 100));
  {
    std::ofstream stream(path, std::ios::app | std::ios::binary);
    stream << "{\"type\": \"future-extension\"}\n";
  }
  append_history(path, sample_history(40, 100));
  const std::vector<HistoryRecord> records = read_history_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].sdc, 40u);
}

TEST(History, MissingFileThrows) {
  EXPECT_THROW(read_history_file(temp_path("history_missing.ndjson")),
               std::runtime_error);
}

// ------------------------------------------------------------------ drift

TEST(Drift, IdenticalRecordsAreQuiet) {
  // Two same-seed campaigns have bit-identical tallies; the gate must not
  // fire (this is CI's jobs=1 vs jobs=2 determinism check).
  const HistoryRecord record = sample_history(20, 100);
  const analysis::DriftReport report =
      analysis::compute_drift(record, record);
  EXPECT_FALSE(report.any_significant);
  EXPECT_TRUE(report.unmatched_cells.empty());
  ASSERT_FALSE(report.entries.empty());
  for (const analysis::DriftEntry& entry : report.entries) {
    EXPECT_DOUBLE_EQ(entry.z, 0.0) << entry.slice;
    EXPECT_DOUBLE_EQ(entry.p_value, 1.0) << entry.slice;
    EXPECT_FALSE(entry.significant) << entry.slice;
  }
}

TEST(Drift, SyntheticRegressionIsFlagged) {
  // SDC rate jumps 20% -> 40% over 1000 trials: z ~ 9.7, far past any
  // reasonable alpha. The overall "sdc" slice must flag, and the report's
  // sign convention (positive = current higher) must hold.
  const HistoryRecord baseline = sample_history(200, 1000);
  const HistoryRecord regressed = sample_history(400, 1000);
  const analysis::DriftReport report =
      analysis::compute_drift(baseline, regressed);
  EXPECT_TRUE(report.any_significant);
  bool found_sdc = false;
  for (const analysis::DriftEntry& entry : report.entries) {
    if (entry.slice != "sdc") continue;
    found_sdc = true;
    EXPECT_TRUE(entry.significant);
    EXPECT_GT(entry.z, 2.0);
    EXPECT_LT(entry.p_value, 0.001);
    EXPECT_EQ(entry.baseline_events, 200u);
    EXPECT_EQ(entry.current_events, 400u);
  }
  EXPECT_TRUE(found_sdc);
}

TEST(Drift, AlphaControlsTheVerdict) {
  // A mild shift: significant at a loose alpha, not at a strict one.
  const HistoryRecord baseline = sample_history(100, 500);
  const HistoryRecord shifted = sample_history(130, 500);
  const analysis::DriftReport loose =
      analysis::compute_drift(baseline, shifted, /*alpha=*/0.2);
  const analysis::DriftReport strict =
      analysis::compute_drift(baseline, shifted, /*alpha=*/1e-6);
  bool loose_sdc = false;
  bool strict_sdc = false;
  for (const auto& entry : loose.entries) {
    if (entry.slice == "sdc") loose_sdc = entry.significant;
  }
  for (const auto& entry : strict.entries) {
    if (entry.slice == "sdc") strict_sdc = entry.significant;
  }
  EXPECT_TRUE(loose_sdc);
  EXPECT_FALSE(strict_sdc);
}

TEST(Drift, UnmatchedCellsAreListedNotCompared) {
  HistoryRecord baseline = sample_history(20, 100);
  HistoryRecord current = sample_history(20, 100);
  HistoryCell extra;
  extra.model = "Single";
  extra.window = 0;
  extra.category = "control";
  extra.sdc = 5;
  extra.masked = 5;
  current.cells.push_back(extra);
  const analysis::DriftReport report =
      analysis::compute_drift(baseline, current);
  ASSERT_EQ(report.unmatched_cells.size(), 1u);
  EXPECT_NE(report.unmatched_cells[0].find("Single"), std::string::npos);
  EXPECT_NE(report.unmatched_cells[0].find("current only"),
            std::string::npos);
}

TEST(Drift, WorkloadMismatchThrows) {
  HistoryRecord baseline = sample_history(20, 100);
  HistoryRecord other = sample_history(20, 100);
  other.workload = "DGEMM";
  EXPECT_THROW(analysis::compute_drift(baseline, other), std::runtime_error);
}

}  // namespace
}  // namespace phifi::telemetry
