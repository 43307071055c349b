// Telemetry subsystem tests: metrics registry semantics, NDJSON trace
// round-trip and torn-tail durability (mirroring test_campaign_journal),
// and — via a real toy-workload campaign — the trace's header/end bracket
// plus the acceptance cross-check that the journal fold (phifi_parse
// --from-journal) agrees with the live tallies.
#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "telemetry/estimator.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/trace.hpp"
#include "tests/toy_workload.hpp"
#include "util/statistics.hpp"

namespace phifi::telemetry {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

// ---------------------------------------------------------------- metrics

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  Histogram hist({1.0, 2.0, 5.0});
  hist.observe(0.5);   // (−inf, 1]  -> bucket 0
  hist.observe(1.0);   // edge value lands in its own bucket
  hist.observe(1.001); // (1, 2]     -> bucket 1
  hist.observe(2.0);
  hist.observe(5.0);   // (2, 5]     -> bucket 2
  hist.observe(7.5);   // > last edge -> overflow bucket

  ASSERT_EQ(hist.bucket_total(), 4u);
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 2u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 7.5);
  EXPECT_DOUBLE_EQ(hist.mean(), hist.sum() / 6.0);
}

TEST(Histogram, RejectsDegenerateEdges) {
  EXPECT_THROW(Histogram({}), std::runtime_error);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::runtime_error);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::runtime_error);
}

TEST(Histogram, CanonicalEdgeSetsAreStrictlyAscending) {
  for (const auto& edges :
       {default_latency_edges_ms(), poll_interval_edges_ms()}) {
    ASSERT_FALSE(edges.empty());
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
    EXPECT_EQ(std::adjacent_find(edges.begin(), edges.end()), edges.end());
  }
}

TEST(MetricsRegistry, HandlesAreStableAndGetOrCreate) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("a.count");
  counter.inc();
  EXPECT_EQ(&registry.counter("a.count"), &counter);
  EXPECT_EQ(registry.counter("a.count").value(), 1u);

  Histogram& hist = registry.histogram("a.hist", {1.0, 2.0});
  // Re-request with different edges: first creation wins.
  Histogram& again = registry.histogram("a.hist", {10.0});
  EXPECT_EQ(&again, &hist);
  ASSERT_EQ(again.upper_edges().size(), 2u);

  EXPECT_EQ(registry.find_counter("missing"), nullptr);
  EXPECT_EQ(registry.find_gauge("missing"), nullptr);
  EXPECT_EQ(registry.find_histogram("missing"), nullptr);
  EXPECT_EQ(registry.find_counter("a.count"), &counter);
}

TEST(MetricsRegistry, SnapshotCarriesAllMetricKinds) {
  MetricsRegistry registry;
  registry.counter("trials").inc(3);
  registry.gauge("target").set(10.0);
  Histogram& hist = registry.histogram("lat", {1.0, 5.0});
  hist.observe(0.5);
  hist.observe(9.0);

  const util::json::Value snap = registry.snapshot();
  const util::json::Value* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("trials", -1.0), 3.0);
  const util::json::Value* gauges = snap.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->number_or("target", -1.0), 10.0);
  const util::json::Value* hists = snap.find("histograms");
  ASSERT_NE(hists, nullptr);
  const util::json::Value* lat = hists->find("lat");
  ASSERT_NE(lat, nullptr);
  // counts has one entry per edge plus the overflow bucket.
  ASSERT_EQ(lat->find("upper_edges")->size(), 2u);
  ASSERT_EQ(lat->find("counts")->size(), 3u);
  EXPECT_DOUBLE_EQ(lat->number_or("count", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(lat->number_or("sum", -1.0), 9.5);
}

// ------------------------------------------------------------------ trace

TraceFabricEvent sample_fabric_event(int i) {
  TraceFabricEvent event;
  event.kind = i % 2 == 0 ? "lease_grant" : "lease_done";
  event.worker = 1 + static_cast<std::uint64_t>(i % 3);
  event.lease = 1 + static_cast<std::uint64_t>(i);
  event.begin = 20 * static_cast<std::uint64_t>(i);
  event.end = event.begin + 20;
  event.injected = i % 2 == 0 ? 0 : 19;
  event.ts_ms = 10.0 * i;
  return event;
}

void expect_fabric_event_eq(const util::json::Value& record,
                            const TraceFabricEvent& event) {
  EXPECT_EQ(record.string_or("kind", ""), event.kind);
  EXPECT_DOUBLE_EQ(record.number_or("worker", -1.0),
                   static_cast<double>(event.worker));
  EXPECT_DOUBLE_EQ(record.number_or("lease", -1.0),
                   static_cast<double>(event.lease));
  EXPECT_DOUBLE_EQ(record.number_or("begin", -1.0),
                   static_cast<double>(event.begin));
  EXPECT_DOUBLE_EQ(record.number_or("end", -1.0),
                   static_cast<double>(event.end));
  EXPECT_DOUBLE_EQ(record.number_or("injected", -1.0),
                   static_cast<double>(event.injected));
  EXPECT_DOUBLE_EQ(record.number_or("ts_ms", -1.0), event.ts_ms);
}

std::string write_sample_trace(const std::string& name, int events,
                               bool with_end = true) {
  const std::string path = temp_path(name);
  fs::remove(path);
  TraceWriter writer(path);
  TraceCampaign header;
  header.workload = "Toy";
  header.trials = 40;
  header.seed = 42;
  header.policy = "carol-fi";
  header.models = {"Single", "Double"};
  header.time_windows = 4;
  writer.campaign(header);
  for (int i = 0; i < events; ++i) writer.fabric(sample_fabric_event(i));
  if (with_end) {
    TraceEnd end;
    end.completed = 40;
    writer.end(end);
  }
  writer.sync();
  return path;
}

TEST(Trace, RoundTripsAllRecordKinds) {
  const std::string path = write_sample_trace("trace_roundtrip.ndjson", 3);
  const TraceContents contents = read_trace_file(path);
  EXPECT_EQ(contents.dropped_bytes, 0u);
  EXPECT_FALSE(contents.campaign.is_null());
  EXPECT_EQ(contents.campaign.string_or("workload", ""), "Toy");
  EXPECT_DOUBLE_EQ(contents.campaign.number_or("time_windows", 0.0), 4.0);
  EXPECT_FALSE(contents.end.is_null());
  EXPECT_DOUBLE_EQ(contents.end.number_or("completed", 0.0), 40.0);
  ASSERT_EQ(contents.fabric.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    expect_fabric_event_eq(contents.fabric[static_cast<std::size_t>(i)],
                           sample_fabric_event(i));
  }
}

TEST(Trace, WriterCountsRecords) {
  const std::string path = temp_path("trace_count.ndjson");
  fs::remove(path);
  TraceWriter writer(path);
  EXPECT_EQ(writer.records_written(), 0u);
  writer.campaign(TraceCampaign{});
  writer.fabric(sample_fabric_event(0));
  writer.end(TraceEnd{});
  EXPECT_EQ(writer.records_written(), 3u);
  EXPECT_GE(writer.now_ms(), 0.0);
}

TEST(Trace, TornTailIsDroppedNotFatal) {
  // The torn write of a crash: chop mid-way into the final record. The
  // reader must drop exactly the torn line and report its size, mirroring
  // CampaignJournal.TruncatedTailIsDroppedNotFatal.
  const std::string path =
      write_sample_trace("trace_torn.ndjson", 3, /*with_end=*/false);
  fs::resize_file(path, fs::file_size(path) - 5);
  const TraceContents contents = read_trace_file(path);
  ASSERT_EQ(contents.fabric.size(), 2u);
  EXPECT_GT(contents.dropped_bytes, 0u);
  EXPECT_TRUE(contents.end.is_null());
  expect_fabric_event_eq(contents.fabric[1], sample_fabric_event(1));
}

TEST(Trace, GarbageLineDropsItAndTheRest) {
  const std::string path = write_sample_trace("trace_garbage.ndjson", 1,
                                              /*with_end=*/false);
  {
    std::ofstream stream(path, std::ios::app | std::ios::binary);
    stream << "{\"type\": \"fabric\", truncated nonsense\n";
    stream << "{\"type\": \"end\", \"completed\": 1}\n";
  }
  const TraceContents contents = read_trace_file(path);
  // Everything after the corrupt line is untrustworthy: the valid-looking
  // end record behind it must be dropped too, like the journal does.
  ASSERT_EQ(contents.fabric.size(), 1u);
  EXPECT_TRUE(contents.end.is_null());
  EXPECT_GT(contents.dropped_bytes, 0u);
}

TEST(Trace, AppendModeExtendsExistingTrace) {
  const std::string path =
      write_sample_trace("trace_append.ndjson", 1, /*with_end=*/false);
  {
    TraceWriter writer(path, /*truncate=*/false);
    writer.fabric(sample_fabric_event(1));
    writer.end(TraceEnd{});
  }
  const TraceContents contents = read_trace_file(path);
  EXPECT_FALSE(contents.campaign.is_null());
  ASSERT_EQ(contents.fabric.size(), 2u);
  EXPECT_FALSE(contents.end.is_null());
}

TEST(Trace, UnknownRecordTypesAreSkippedForForwardCompat) {
  // Record types this reader does not know — a future extension, or the
  // per-trial records older traces carried — are skipped, not fatal.
  const std::string path = write_sample_trace("trace_unknown.ndjson", 1);
  {
    std::ofstream stream(path, std::ios::app | std::ios::binary);
    stream << "{\"type\": \"future-extension\", \"x\": 1}\n";
    stream << "{\"type\": \"trial\", \"attempt\": 0}\n";
  }
  const TraceContents contents = read_trace_file(path);
  EXPECT_EQ(contents.dropped_bytes, 0u);
  EXPECT_EQ(contents.fabric.size(), 1u);
  EXPECT_FALSE(contents.end.is_null());
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(read_trace_file(temp_path("trace_missing.ndjson")),
               std::runtime_error);
}

// --------------------------------------------------------------- progress

TEST(ProgressEmitter, RenderReflectsRegistryCounts) {
  MetricsRegistry registry;
  registry.counter("campaign.completed").inc(10);
  registry.gauge("campaign.trials_target").set(40.0);
  registry.counter("campaign.masked").inc(5);
  registry.counter("campaign.sdc").inc(2);
  registry.counter("campaign.due").inc(3);
  registry.counter("campaign.due.hang").inc(2);
  registry.counter("campaign.due.crash").inc(1);

  std::ostringstream out;
  ProgressEmitter emitter(registry, out);
  const std::string line = emitter.render();
  EXPECT_NE(line.find("10/40 trials"), std::string::npos);
  EXPECT_NE(line.find("masked 50.0%"), std::string::npos);
  EXPECT_NE(line.find("sdc 20.0%"), std::string::npos);
  EXPECT_NE(line.find("due 30.0%"), std::string::npos);
  EXPECT_NE(line.find("hang:2"), std::string::npos);
  EXPECT_NE(line.find("crash:1"), std::string::npos);
}

TEST(ProgressEmitter, FabricViewAppearsOnlyWhenWorkersGaugeExists) {
  MetricsRegistry registry;
  registry.counter("campaign.completed").inc(10);
  registry.gauge("campaign.trials_target").set(40.0);
  registry.counter("campaign.masked").inc(10);

  std::ostringstream out;
  ProgressEmitter emitter(registry, out);
  // A plain (non-fabric) campaign never mentions workers.
  EXPECT_EQ(emitter.render().find("workers:"), std::string::npos);

  // A fabric coordinator publishes the gauges; the line shows the fan-out
  // next to the (already aggregate) rate.
  registry.gauge("fabric.workers_live").set(3.0);
  registry.gauge("fabric.leases_outstanding").set(5.0);
  const std::string line = emitter.render();
  EXPECT_NE(line.find("workers: 3 live / 5 leased"), std::string::npos);
}

TEST(ProgressEmitter, ColdStartRendersPlaceholdersNotAnEmptySplit) {
  // Before the first completed trial there is no throughput sample and no
  // outcome mix: the line must say so instead of "ETA ?" + an all-zero
  // split that looks like a real measurement.
  MetricsRegistry registry;
  registry.gauge("campaign.trials_target").set(40.0);
  std::ostringstream out;
  ProgressEmitter emitter(registry, out);
  const std::string line = emitter.render();
  EXPECT_NE(line.find("0/40 trials"), std::string::npos);
  EXPECT_NE(line.find("0.0/s"), std::string::npos);
  EXPECT_NE(line.find("ETA --"), std::string::npos);
  EXPECT_NE(line.find("waiting for first completed trial"),
            std::string::npos);
  EXPECT_EQ(line.find("masked"), std::string::npos);
  EXPECT_EQ(line.find("?"), std::string::npos);
}

TEST(ProgressEmitter, EstimatorLineShowsCiAndPrecisionEta) {
  MetricsRegistry registry;
  registry.counter("campaign.completed").inc(10);
  registry.gauge("campaign.trials_target").set(40.0);
  registry.counter("campaign.masked").inc(8);
  registry.counter("campaign.sdc").inc(2);

  CampaignEstimator estimator;
  for (int i = 0; i < 8; ++i) {
    estimator.record(EstimatorOutcome::kMasked, "Single", 0, "data", true);
  }
  for (int i = 0; i < 2; ++i) {
    estimator.record(EstimatorOutcome::kSdc, "Single", 0, "data", true);
  }

  std::ostringstream out;
  ProgressEmitter emitter(registry, out);
  emitter.set_estimator(&estimator, /*target_half_width=*/0.005);
  const std::string line = emitter.render();
  // The CI-annotated split renders the Wilson point and half-width for
  // 2/10 in percent (one decimal, matching the rest of the line).
  const util::Interval ci = util::wilson_interval(2, 10);
  char expected[64];
  std::snprintf(expected, sizeof expected, "| sdc %.1f%% ±%.1f",
                100.0 * ci.point, 100.0 * ci.half_width());
  EXPECT_NE(line.find(expected), std::string::npos);
  EXPECT_NE(line.find("ETA to ±0.5%:"), std::string::npos);
  EXPECT_NE(line.find("trials"), std::string::npos);

  // Once the target is met the ETA collapses to "reached".
  ProgressEmitter coarse(registry, out);
  coarse.set_estimator(&estimator, /*target_half_width=*/0.3);
  EXPECT_NE(coarse.render().find("ETA to ±30.0%: reached"),
            std::string::npos);
}

TEST(ProgressEmitter, TickIsTimeGatedEmitNowIsNot) {
  MetricsRegistry registry;
  std::ostringstream out;
  ProgressEmitter emitter(registry, out, /*interval_seconds=*/3600.0);
  for (int i = 0; i < 100; ++i) emitter.tick();
  EXPECT_EQ(emitter.emitted(), 0u);
  EXPECT_TRUE(out.str().empty());

  emitter.emit_now();
  EXPECT_EQ(emitter.emitted(), 1u);
  EXPECT_NE(out.str().find("[progress]"), std::string::npos);

  // A zero interval makes every tick emit.
  std::ostringstream out2;
  ProgressEmitter eager(registry, out2, /*interval_seconds=*/0.0);
  eager.tick();
  eager.tick();
  EXPECT_EQ(eager.emitted(), 2u);
}

// ----------------------------------------------- campaign-driven telemetry

/// Runs a toy campaign with trace + metrics + journal attached and exposes
/// all three outputs for cross-checking.
class CampaignTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    using phifi::testing::ToyWorkload;
    trace_path_ = temp_path("telemetry_campaign.ndjson");
    journal_path_ = temp_path("telemetry_campaign.jnl");
    fs::remove(trace_path_);
    fs::remove(journal_path_);

    fi::SupervisorConfig sup_config =
        phifi::testing::toy_supervisor_config();
    sup_config.metrics = &metrics_;
    supervisor_ = std::make_unique<fi::TrialSupervisor>(
        &phifi::testing::make_toy_normal, sup_config);
    supervisor_->prepare_golden();

    TraceWriter trace(trace_path_);
    fi::CampaignConfig config;
    config.trials = 20;
    config.seed = 42;
    config.journal_path = journal_path_;
    config.journal_fsync = fi::JournalFsync::kOnClose;
    config.trace = &trace;
    config.metrics = &metrics_;
    fi::Campaign campaign(*supervisor_, config);
    result_ = campaign.run();
    trace.sync();
    contents_ = read_trace_file(trace_path_);
  }

  std::string trace_path_;
  std::string journal_path_;
  MetricsRegistry metrics_;
  std::unique_ptr<fi::TrialSupervisor> supervisor_;
  fi::CampaignResult result_;
  TraceContents contents_;
};

TEST_F(CampaignTelemetryTest, TraceIsHeaderAndEndRecord) {
  EXPECT_EQ(contents_.dropped_bytes, 0u);
  ASSERT_FALSE(contents_.campaign.is_null());
  EXPECT_EQ(contents_.campaign.string_or("workload", ""), "Toy");
  EXPECT_DOUBLE_EQ(contents_.campaign.number_or("time_windows", 0.0), 4.0);
  ASSERT_FALSE(contents_.end.is_null());
  EXPECT_DOUBLE_EQ(contents_.end.number_or("completed", 0.0),
                   static_cast<double>(result_.overall.total()));
  EXPECT_DOUBLE_EQ(contents_.end.number_or("masked", 0.0),
                   static_cast<double>(result_.overall.masked));
  EXPECT_DOUBLE_EQ(contents_.end.number_or("sdc", 0.0),
                   static_cast<double>(result_.overall.sdc));
  EXPECT_DOUBLE_EQ(contents_.end.number_or("due", 0.0),
                   static_cast<double>(result_.overall.due));
  // The enriched end record: wall-clock, early-stop flag, DUE-kind split.
  EXPECT_FALSE(contents_.end.bool_or("stopped_early", true));
  EXPECT_GT(contents_.end.number_or("elapsed_ms", -1.0), 0.0);
  const util::json::Value* due_kinds = contents_.end.find("due_kinds");
  ASSERT_NE(due_kinds, nullptr);
  double due_kind_sum = 0.0;
  for (const auto& [kind, count] : due_kinds->as_object()) {
    EXPECT_EQ(static_cast<std::uint64_t>(count.as_double()),
              result_.due_kinds.at(kind))
        << kind;
    due_kind_sum += count.as_double();
  }
  EXPECT_DOUBLE_EQ(due_kind_sum, static_cast<double>(result_.overall.due));
  // The per-trial record is the journal's: a local trace is its campaign
  // header and its end record, nothing else.
  EXPECT_TRUE(contents_.fabric.empty());
  std::ifstream stream(trace_path_);
  std::size_t lines = 0;
  for (std::string line; std::getline(stream, line);) ++lines;
  EXPECT_EQ(lines, 2u);
}

TEST_F(CampaignTelemetryTest, JournalFoldMatchesLiveTallies) {
  // The acceptance cross-check: the journal fold phifi_parse
  // --from-journal runs must rebuild the live tallies, table by table.
  const fi::JournalContents journal = fi::read_journal(journal_path_);
  EXPECT_EQ(journal.records.size(), result_.attempts);
  fi::CampaignResult from_journal;
  from_journal.workload = journal.header.workload;
  from_journal.time_windows = journal.header.time_windows;
  from_journal.by_window.resize(journal.header.time_windows);
  for (const fi::JournalRecord& record : journal.records) {
    fi::accumulate_trial(from_journal, record.trial);
  }

  EXPECT_EQ(from_journal.workload, result_.workload);
  EXPECT_EQ(from_journal.not_injected, result_.not_injected);
  EXPECT_EQ(from_journal.due_kinds, result_.due_kinds);
  const auto expect_tally_eq = [](const fi::OutcomeTally& a,
                                  const fi::OutcomeTally& b,
                                  const std::string& what) {
    EXPECT_EQ(a.masked, b.masked) << what;
    EXPECT_EQ(a.sdc, b.sdc) << what;
    EXPECT_EQ(a.due, b.due) << what;
  };
  expect_tally_eq(from_journal.overall, result_.overall, "overall");
  for (std::size_t i = 0; i < from_journal.by_model.size(); ++i) {
    expect_tally_eq(from_journal.by_model[i], result_.by_model[i],
                    "model " + std::to_string(i));
  }
  ASSERT_EQ(from_journal.by_window.size(), result_.by_window.size());
  for (std::size_t i = 0; i < from_journal.by_window.size(); ++i) {
    expect_tally_eq(from_journal.by_window[i], result_.by_window[i],
                    "window " + std::to_string(i));
  }
  ASSERT_EQ(from_journal.by_category.size(), result_.by_category.size());
  for (const auto& [category, tally] : result_.by_category) {
    ASSERT_TRUE(from_journal.by_category.contains(category)) << category;
    expect_tally_eq(from_journal.by_category.at(category), tally, category);
  }
  ASSERT_EQ(from_journal.by_frame.size(), result_.by_frame.size());
  for (const auto& [frame, tally] : result_.by_frame) {
    ASSERT_TRUE(from_journal.by_frame.contains(frame)) << frame;
    expect_tally_eq(from_journal.by_frame.at(frame), tally, frame);
  }
}

TEST_F(CampaignTelemetryTest, MetricsMatchCampaignResult) {
  const auto counter = [this](const std::string& name) {
    const Counter* c = metrics_.find_counter(name);
    return c == nullptr ? std::uint64_t{0} : c->value();
  };
  EXPECT_EQ(counter("campaign.completed"), result_.overall.total());
  EXPECT_EQ(counter("campaign.masked"), result_.overall.masked);
  EXPECT_EQ(counter("campaign.sdc"), result_.overall.sdc);
  EXPECT_EQ(counter("campaign.due"), result_.overall.due);
  EXPECT_EQ(counter("campaign.not_injected"), result_.not_injected);

  const Gauge* target = metrics_.find_gauge("campaign.trials_target");
  ASSERT_NE(target, nullptr);
  EXPECT_DOUBLE_EQ(target->value(), 20.0);

  // Every live (non-replayed) trial lands one latency observation.
  const Histogram* latency =
      metrics_.find_histogram("campaign.trial_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), result_.overall.total());

  // The supervisor fed its watchdog histograms through the same registry.
  const Histogram* poll =
      metrics_.find_histogram("supervisor.poll_interval_ms");
  ASSERT_NE(poll, nullptr);
  EXPECT_GT(poll->count(), 0u);
}

}  // namespace
}  // namespace phifi::telemetry
