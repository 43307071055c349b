#include "cli/config.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/runner.hpp"
#include "core/campaign_journal.hpp"
#include "telemetry/history.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"

namespace phifi::cli {
namespace {

RunnerConfig parse(const std::string& text) {
  std::istringstream stream(text);
  return parse_config(stream);
}

TEST(CliConfig, DefaultsWhenEmpty) {
  const RunnerConfig config = parse("");
  EXPECT_EQ(config.mode, RunMode::kInject);
  EXPECT_EQ(config.workload, "DGEMM");
  EXPECT_EQ(config.models.size(), 4u);
}

TEST(CliConfig, ParsesAllKeys) {
  const RunnerConfig config = parse(R"(
# a comment
mode = inject
workload = HotSpot
seed = 0x10
trials = 123
policy = bytes-weighted
models = Single + Zero
earliest_fraction = 0.2
latest_fraction = 0.8
timeout_factor = 11
min_timeout_seconds = 0.5
input_seed = 42
)");
  EXPECT_EQ(config.mode, RunMode::kInject);
  EXPECT_EQ(config.workload, "HotSpot");
  EXPECT_EQ(config.seed, 16u);
  EXPECT_EQ(config.trials, 123u);
  EXPECT_EQ(config.policy, fi::SelectionPolicy::kBytesWeighted);
  ASSERT_EQ(config.models.size(), 2u);
  EXPECT_EQ(config.models[0], fi::FaultModel::kSingle);
  EXPECT_EQ(config.models[1], fi::FaultModel::kZero);
  EXPECT_DOUBLE_EQ(config.earliest_fraction, 0.2);
  EXPECT_DOUBLE_EQ(config.supervisor.min_timeout_seconds, 0.5);
  EXPECT_EQ(config.supervisor.input_seed, 42u);
}

TEST(CliConfig, ParsesAllBeamKeys) {
  const RunnerConfig config = parse(R"(
workload = HotSpot
flux = 1e5
min_sdc = 7
min_due = 3
max_executions = 99
input_seed = 42
mode = beam
)");
  EXPECT_EQ(config.mode, RunMode::kBeam);
  EXPECT_EQ(config.workload, "HotSpot");
  EXPECT_DOUBLE_EQ(config.flux, 1e5);
  EXPECT_EQ(config.min_sdc, 7u);
  EXPECT_EQ(config.min_due, 3u);
  EXPECT_EQ(config.max_executions, 99u);
  EXPECT_EQ(config.supervisor.input_seed, 42u);
}

TEST(CliConfig, KeysOfTheOtherModeAreRefusedByName) {
  // They would have no effect; the mode line may come after them.
  for (const char* key : {"trials = 5", "policy = bytes-weighted",
                          "models = Single", "earliest_fraction = 0.1",
                          "latest_fraction = 0.9"}) {
    const std::string line = key;
    const std::string name = line.substr(0, line.find(' '));
    try {
      (void)parse(line + "\nmode = beam\n");
      FAIL() << name << " was accepted in a beam file";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("line 1"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + name + "'"), std::string::npos)
          << message;
      EXPECT_NE(message.find("mode = beam"), std::string::npos) << message;
    }
    EXPECT_NO_THROW((void)parse(line + "\n")) << name;
  }
  for (const char* key : {"flux = 1e5", "min_sdc = 3", "min_due = 2",
                          "max_executions = 10"}) {
    const std::string line = key;
    const std::string name = line.substr(0, line.find(' '));
    try {
      (void)parse("mode = inject\n" + line + "\n");
      FAIL() << name << " was accepted in an inject file";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("line 2"), std::string::npos) << message;
      EXPECT_NE(message.find("'" + name + "'"), std::string::npos)
          << message;
    }
    EXPECT_THROW((void)parse(line + "\n"), std::runtime_error)
        << name << " in a file with no mode line (inject)";
    EXPECT_NO_THROW((void)parse("mode = beam\n" + line + "\n")) << name;
  }
}

TEST(CliConfig, ParsesDurabilityAndSupervisionKeys) {
  const RunnerConfig config = parse(R"(
journal_file = /tmp/c.jnl
resume = true
journal_fsync = on-close
kill_grace_seconds = 0.5
child_address_space_mb = 2048
child_cpu_seconds = 30
heartbeat_divisions = 32
stall_timeout_seconds = 1.5
max_consecutive_failures = 3
)");
  EXPECT_EQ(config.journal_file, "/tmp/c.jnl");
  EXPECT_TRUE(config.resume);
  EXPECT_EQ(config.journal_fsync, fi::JournalFsync::kOnClose);
  EXPECT_DOUBLE_EQ(config.supervisor.kill_grace_seconds, 0.5);
  EXPECT_EQ(config.supervisor.child_address_space_mb, 2048u);
  EXPECT_EQ(config.supervisor.child_cpu_seconds, 30u);
  EXPECT_EQ(config.supervisor.heartbeat_divisions, 32u);
  EXPECT_DOUBLE_EQ(config.supervisor.stall_timeout_seconds, 1.5);
  EXPECT_EQ(config.max_consecutive_failures, 3u);

  // The parsed keys reach the structs the campaign actually consumes.
  const fi::SupervisorConfig supervisor = config.supervisor_config();
  EXPECT_EQ(supervisor.child_address_space_mb, 2048u);
  EXPECT_EQ(supervisor.heartbeat_divisions, 32u);
  const fi::CampaignConfig campaign = config.campaign_config();
  EXPECT_EQ(campaign.journal_path, "/tmp/c.jnl");
  EXPECT_TRUE(campaign.resume);
  EXPECT_EQ(campaign.journal_fsync, fi::JournalFsync::kOnClose);
  EXPECT_EQ(campaign.max_consecutive_failures, 3u);
}

TEST(CliConfig, BadDurabilityValuesAreErrors) {
  EXPECT_THROW(parse("resume = maybe\n"), std::runtime_error);
  EXPECT_THROW(parse("journal_fsync = sometimes\n"), std::runtime_error);
}

TEST(CliConfig, DurabilityKeysSurviveFormatRoundTrip) {
  RunnerConfig config;
  config.journal_file = "camp.jnl";
  config.resume = true;
  config.journal_fsync = fi::JournalFsync::kOnClose;
  config.supervisor.kill_grace_seconds = 0.75;
  config.supervisor.child_address_space_mb = 4096;
  config.supervisor.child_cpu_seconds = 60;
  config.supervisor.heartbeat_divisions = 8;
  config.supervisor.stall_timeout_seconds = 2.0;
  config.max_consecutive_failures = 9;
  const RunnerConfig reparsed = parse(format_config(config));
  EXPECT_EQ(reparsed.journal_file, config.journal_file);
  EXPECT_EQ(reparsed.resume, config.resume);
  EXPECT_EQ(reparsed.journal_fsync, config.journal_fsync);
  const fi::SupervisorConfig& a = reparsed.supervisor;
  const fi::SupervisorConfig& b = config.supervisor;
  EXPECT_DOUBLE_EQ(a.kill_grace_seconds, b.kill_grace_seconds);
  EXPECT_EQ(a.child_address_space_mb, b.child_address_space_mb);
  EXPECT_EQ(a.child_cpu_seconds, b.child_cpu_seconds);
  EXPECT_EQ(a.heartbeat_divisions, b.heartbeat_divisions);
  EXPECT_DOUBLE_EQ(a.stall_timeout_seconds, b.stall_timeout_seconds);
  EXPECT_EQ(reparsed.max_consecutive_failures,
            config.max_consecutive_failures);
}

TEST(CliConfig, TelemetryKeysParseAndRoundTrip) {
  const RunnerConfig config = parse(R"(
trace_file = /tmp/c.ndjson
metrics_file = /tmp/c.metrics.json
progress_seconds = 1.5
)");
  EXPECT_EQ(config.trace_file, "/tmp/c.ndjson");
  EXPECT_EQ(config.metrics_file, "/tmp/c.metrics.json");
  EXPECT_DOUBLE_EQ(config.progress_seconds, 1.5);

  const RunnerConfig reparsed = parse(format_config(config));
  EXPECT_EQ(reparsed.trace_file, config.trace_file);
  EXPECT_EQ(reparsed.metrics_file, config.metrics_file);
  EXPECT_DOUBLE_EQ(reparsed.progress_seconds, config.progress_seconds);
}

TEST(CliConfig, ObservatoryKeysParseAndRoundTrip) {
  const RunnerConfig config = parse(R"(
metrics_format = openmetrics
history_file = /tmp/c.history.ndjson
stop_ci_width = 0.005
)");
  EXPECT_EQ(config.metrics_format, MetricsFormat::kOpenMetrics);
  EXPECT_EQ(config.history_file, "/tmp/c.history.ndjson");
  EXPECT_DOUBLE_EQ(config.stop_ci_width, 0.005);

  const RunnerConfig reparsed = parse(format_config(config));
  EXPECT_EQ(reparsed.metrics_format, config.metrics_format);
  EXPECT_EQ(reparsed.history_file, config.history_file);
  EXPECT_DOUBLE_EQ(reparsed.stop_ci_width, config.stop_ci_width);
}

TEST(CliConfig, BadObservatoryValuesAreErrors) {
  EXPECT_THROW(parse("metrics_format = xml\n"), std::runtime_error);
  EXPECT_THROW(parse("stop_ci_width = -0.1\n"), std::runtime_error);
  EXPECT_THROW(parse("stop_ci_width = 0.5\n"), std::runtime_error);
  EXPECT_THROW(parse("stop_ci_width = half\n"), std::runtime_error);
}

TEST(CliConfig, CommentsAndWhitespaceIgnored) {
  const RunnerConfig config =
      parse("  trials =  5   # inline comment\n\n   \n# whole line\n");
  EXPECT_EQ(config.trials, 5u);
}

TEST(CliConfig, UnknownKeyIsError) {
  EXPECT_THROW(parse("trails = 100\n"), std::runtime_error);
  // Removed: trials run on one device thread.
  EXPECT_THROW(parse("device_os_threads = 2\n"), std::runtime_error);
}

TEST(CliConfig, BadValuesAreErrors) {
  EXPECT_THROW(parse("trials = many\n"), std::runtime_error);
  EXPECT_THROW(parse("policy = lucky-dip\n"), std::runtime_error);
  EXPECT_THROW(parse("models = Single + Quintuple\n"), std::runtime_error);
  EXPECT_THROW(parse("mode = maybe\n"), std::runtime_error);
  EXPECT_THROW(parse("trials\n"), std::runtime_error);
  EXPECT_THROW(parse("trials =\n"), std::runtime_error);
}

TEST(CliConfig, InvalidInjectionWindowRejected) {
  EXPECT_THROW(parse("earliest_fraction = 0.9\nlatest_fraction = 0.2\n"),
               std::runtime_error);
  EXPECT_THROW(parse("latest_fraction = 1.5\n"), std::runtime_error);
}

TEST(CliConfig, FormatParseRoundTrip) {
  RunnerConfig config;
  config.workload = "NW";
  config.seed = 77;
  config.trials = 321;
  config.policy = fi::SelectionPolicy::kWorkerFrameOnly;
  config.models = {fi::FaultModel::kDouble};
  const RunnerConfig reparsed = parse(format_config(config));
  EXPECT_EQ(reparsed.mode, config.mode);
  EXPECT_EQ(reparsed.workload, config.workload);
  EXPECT_EQ(reparsed.seed, config.seed);
  EXPECT_EQ(reparsed.trials, config.trials);
  EXPECT_EQ(reparsed.policy, config.policy);
  EXPECT_EQ(reparsed.models, config.models);
}

TEST(CliConfig, BeamFormatParseRoundTrip) {
  RunnerConfig config;
  config.mode = RunMode::kBeam;
  config.workload = "NW";
  config.seed = 77;
  config.flux = 5e5;
  config.min_sdc = 9;
  config.min_due = 4;
  config.max_executions = 321;
  const std::string text = format_config(config);
  // Only the beam's own keys are written.
  EXPECT_EQ(text.find("trials"), std::string::npos) << text;
  EXPECT_EQ(text.find("models"), std::string::npos) << text;
  const RunnerConfig reparsed = parse(text);
  EXPECT_EQ(reparsed.mode, config.mode);
  EXPECT_EQ(reparsed.workload, config.workload);
  EXPECT_EQ(reparsed.seed, config.seed);
  EXPECT_DOUBLE_EQ(reparsed.flux, config.flux);
  EXPECT_EQ(reparsed.min_sdc, config.min_sdc);
  EXPECT_EQ(reparsed.min_due, config.min_due);
  EXPECT_EQ(reparsed.max_executions, config.max_executions);
}

TEST(CliRunner, UnknownWorkloadThrows) {
  RunnerConfig config;
  config.workload = "SuperLINPACK";
  std::ostringstream out;
  EXPECT_THROW(run_from_config(config, out), std::runtime_error);
}

TEST(CliRunner, RunsSmallInjectionCampaign) {
  RunnerConfig config;
  config.workload = "LUD";
  config.trials = 15;
  config.seed = 5;
  std::ostringstream out;
  const RunSummary summary = run_from_config(config, out);
  EXPECT_EQ(summary.workload, "LUD");
  EXPECT_EQ(summary.outcomes.total(), 15u);
  EXPECT_NE(out.str().find("Injection campaign - LUD"), std::string::npos);
}

TEST(CliRunner, WritesTraceAndMetricsWhenConfigured) {
  namespace fs = std::filesystem;
  const std::string trace_path =
      ::testing::TempDir() + "phifi_cli_trace.ndjson";
  const std::string metrics_path =
      ::testing::TempDir() + "phifi_cli_metrics.json";
  fs::remove(trace_path);
  fs::remove(metrics_path);

  RunnerConfig config;
  config.workload = "LUD";
  config.trials = 12;
  config.seed = 9;
  config.trace_file = trace_path;
  config.metrics_file = metrics_path;
  std::ostringstream out;
  const RunSummary summary = run_from_config(config, out);
  EXPECT_EQ(summary.outcomes.total(), 12u);
  EXPECT_GT(summary.trace_records, 0u);

  // The trace brackets the campaign: its end record carries the tallies.
  const telemetry::TraceContents contents =
      telemetry::read_trace_file(trace_path);
  EXPECT_EQ(contents.dropped_bytes, 0u);
  EXPECT_EQ(contents.campaign.string_or("workload", ""), "LUD");
  ASSERT_FALSE(contents.end.is_null());
  EXPECT_DOUBLE_EQ(contents.end.number_or("completed", -1.0),
                   static_cast<double>(summary.outcomes.total()));
  EXPECT_DOUBLE_EQ(contents.end.number_or("sdc", -1.0),
                   static_cast<double>(summary.outcomes.sdc));

  // The metrics snapshot is valid JSON and carries the campaign counters
  // plus the golden run's workload-character gauges.
  std::ifstream metrics_stream(metrics_path);
  ASSERT_TRUE(metrics_stream);
  std::stringstream buffer;
  buffer << metrics_stream.rdbuf();
  const util::json::Value snap = util::json::parse(buffer.str());
  const util::json::Value* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("campaign.completed", -1.0), 12.0);
  const util::json::Value* gauges = snap.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_GT(gauges->number_or("phi.golden.flops", 0.0), 0.0);
}

TEST(CliRunner, ProgressEmitterRendersFinalLine) {
  RunnerConfig config;
  config.workload = "LUD";
  config.trials = 8;
  config.seed = 11;
  config.progress_seconds = 0.0001;  // effectively every trial
  std::ostringstream out;
  const RunSummary summary = run_from_config(config, out);
  EXPECT_GT(summary.progress_emits, 0u);
  EXPECT_NE(out.str().find("[progress]"), std::string::npos);
}

TEST(CliRunner, RunsSmallBeamCampaign) {
  RunnerConfig config;
  config.mode = RunMode::kBeam;
  config.workload = "DGEMM";
  config.seed = 6;
  config.min_sdc = 3;
  config.min_due = 1;
  config.max_executions = 200;
  std::ostringstream out;
  const RunSummary summary = run_from_config(config, out);
  EXPECT_EQ(summary.mode, RunMode::kBeam);
  EXPECT_GT(summary.sdc_fit, 0.0);
  EXPECT_NE(out.str().find("Beam campaign - DGEMM"), std::string::npos);
}

TEST(CliRunner, BeamModeWritesEveryOutputFile) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "phifi_cli_beam";
  RunnerConfig config;
  config.mode = RunMode::kBeam;
  config.workload = "DGEMM";
  config.seed = 6;
  config.min_sdc = 3;
  config.min_due = 1;
  config.jobs = 2;
  config.journal_file = base + ".jnl";
  config.trace_file = base + ".ndjson";
  config.metrics_file = base + ".metrics.json";
  config.history_file = base + ".history.ndjson";
  config.report_file = base + ".md";
  for (const std::string* path :
       {&config.journal_file, &config.trace_file, &config.metrics_file,
        &config.history_file, &config.report_file}) {
    fs::remove(*path);
  }
  std::ostringstream out;
  const RunSummary summary = run_from_config(config, out);
  EXPECT_GE(summary.outcomes.sdc, 3u);
  EXPECT_GE(summary.outcomes.due, 1u);

  // The journal holds every committed attempt.
  EXPECT_GE(fi::read_journal(config.journal_file).records.size(),
            summary.outcomes.total());
  // The trace brackets the campaign: a header and an end record.
  const telemetry::TraceContents trace =
      telemetry::read_trace_file(config.trace_file);
  EXPECT_EQ(trace.campaign.string_or("workload", ""), "DGEMM");
  ASSERT_FALSE(trace.end.is_null());
  EXPECT_DOUBLE_EQ(trace.end.number_or("sdc", -1.0),
                   static_cast<double>(summary.outcomes.sdc));
  // The metrics snapshot counts the campaign.
  std::ifstream metrics_stream(config.metrics_file);
  ASSERT_TRUE(metrics_stream);
  std::stringstream metrics;
  metrics << metrics_stream.rdbuf();
  const util::json::Value snapshot = util::json::parse(metrics.str());
  const util::json::Value* counters = snapshot.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("campaign.completed", -1.0),
                   static_cast<double>(summary.outcomes.total()));
  // One history record, and a report with the beam section.
  EXPECT_EQ(telemetry::read_history_file(config.history_file).size(), 1u);
  std::ifstream report_stream(config.report_file);
  std::stringstream report;
  report << report_stream.rdbuf();
  EXPECT_NE(report.str().find("## Beam experiment"), std::string::npos);
}

TEST(CliRunner, BeamModeResumesATornJournal) {
  // A beam journal cut in half resumes onto the uninterrupted result: its
  // records carry the SDC summaries the beam fold needs.
  namespace fs = std::filesystem;
  RunnerConfig config;
  config.mode = RunMode::kBeam;
  config.workload = "DGEMM";
  config.seed = 6;
  config.min_sdc = 3;
  config.min_due = 1;
  config.jobs = 2;
  config.journal_file = ::testing::TempDir() + "phifi_cli_beam_resume.jnl";
  fs::remove(config.journal_file);
  std::ostringstream full_out;
  const RunSummary full = run_from_config(config, full_out);
  fs::resize_file(config.journal_file,
                  fs::file_size(config.journal_file) / 2);

  RunnerConfig resume = config;
  resume.resume = true;
  std::ostringstream resumed_out;
  const RunSummary resumed = run_from_config(resume, resumed_out);
  EXPECT_GT(resumed.resumed_trials, 0u);
  EXPECT_EQ(resumed.outcomes.total(), full.outcomes.total());
  EXPECT_EQ(resumed.outcomes.sdc, full.outcomes.sdc);
  EXPECT_EQ(resumed.outcomes.due, full.outcomes.due);
  EXPECT_EQ(resumed.sdc_fit, full.sdc_fit);
  EXPECT_EQ(resumed.due_fit, full.due_fit);
  // The beam table reads the same.
  EXPECT_EQ(resumed_out.str(), full_out.str());
}

TEST(CliConfig, SupervisorDefaultsAreTheSupervisorsOwn) {
  const fi::SupervisorConfig runner = RunnerConfig{}.supervisor_config();
  const fi::SupervisorConfig plain;
  EXPECT_EQ(runner.input_seed, plain.input_seed);
  EXPECT_EQ(runner.device_os_threads, plain.device_os_threads);
  EXPECT_EQ(runner.device_spec.model, plain.device_spec.model);
  EXPECT_EQ(runner.timeout_factor, plain.timeout_factor);
  EXPECT_EQ(runner.min_timeout_seconds, plain.min_timeout_seconds);
  EXPECT_EQ(runner.kill_grace_seconds, plain.kill_grace_seconds);
  EXPECT_EQ(runner.child_address_space_mb, plain.child_address_space_mb);
  EXPECT_EQ(runner.child_cpu_seconds, plain.child_cpu_seconds);
  EXPECT_EQ(runner.heartbeat_divisions, plain.heartbeat_divisions);
  EXPECT_EQ(runner.max_deadline_factor, plain.max_deadline_factor);
  EXPECT_EQ(runner.stall_timeout_seconds, plain.stall_timeout_seconds);
  EXPECT_EQ(runner.metrics, plain.metrics);
}

TEST(CliConfig, BeamModeMapsItsKeysOntoTheCampaign) {
  RunnerConfig config;
  config.mode = RunMode::kBeam;
  config.max_executions = 321;
  config.min_sdc = 7;
  config.min_due = 3;
  config.flux = 3e5;
  const fi::CampaignConfig beam = config.campaign_config();
  EXPECT_EQ(beam.trials, 321u);
  EXPECT_EQ(beam.min_sdc, 7u);
  EXPECT_EQ(beam.min_due, 3u);
  // The plan rides the config, so every role fingerprints the flux.
  ASSERT_NE(beam.plan, nullptr);
  EXPECT_EQ(beam.plan->fingerprint(), radiation::BeamPlan(3e5).fingerprint());
  EXPECT_EQ(fi::campaign_fingerprint(beam, "DGEMM", 5),
            fi::campaign_fingerprint(config.campaign_config(), "DGEMM", 5));
  // An injection campaign leaves the error-count finish line and the plan
  // off.
  config.mode = RunMode::kInject;
  const fi::CampaignConfig inject = config.campaign_config();
  EXPECT_EQ(inject.trials, config.trials);
  EXPECT_EQ(inject.min_sdc, 0u);
  EXPECT_EQ(inject.min_due, 0u);
  EXPECT_EQ(inject.plan, nullptr);
}

}  // namespace
}  // namespace phifi::cli
