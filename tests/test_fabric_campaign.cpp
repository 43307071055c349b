// End-to-end fabric failure drills: a worker SIGKILLed mid-lease whose
// range is reclaimed and re-executed, a client whose LeaseDone detail does
// not verify, and a coordinator SIGKILLed mid-campaign that restarts from
// its lease ledger — in every case the merged shards must be bit-identical
// to a --jobs 1 run, and every coordinator view is the fleet fold.
//
// Workers and the doomed coordinator run in forked children (fabric roles
// are separate processes in production too); the surviving coordinator
// runs in the test process so its result and metrics can be asserted
// directly. Children exit via _exit() and never touch gtest.
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/lease.hpp"
#include "fabric/merge.hpp"
#include "fabric/options.hpp"
#include "fabric/protocol.hpp"
#include "fabric/worker.hpp"
#include "telemetry/estimator.hpp"
#include "telemetry/history.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/trace.hpp"
#include "tests/toy_workload.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace phifi::fabric {
namespace {

namespace fs = std::filesystem;

using phifi::testing::ToyWorkload;
using phifi::testing::toy_supervisor_config;
using WorkloadFactoryFn = std::unique_ptr<fi::Workload> (*)();

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

fi::CampaignConfig fabric_campaign(std::size_t trials) {
  fi::CampaignConfig config;
  config.trials = trials;
  config.seed = 0xfab2e2eULL;
  return config;
}

/// The --jobs 1 reference journal every fabric drill must reproduce.
fi::JournalContents reference_journal(const fi::CampaignConfig& base,
                                      WorkloadFactoryFn factory,
                                      const std::string& path) {
  fs::remove(path);
  fi::CampaignConfig config = base;
  config.journal_path = path;
  ToyWorkload::reset_run_counter();
  fi::TrialSupervisor supervisor(factory, toy_supervisor_config());
  supervisor.prepare_golden();
  fi::Campaign campaign(supervisor, config);
  const fi::CampaignResult result = campaign.run();
  EXPECT_EQ(result.overall.total(), base.trials);
  return fi::read_journal(path);
}

void expect_same_records(const std::vector<fi::JournalRecord>& a,
                         const std::vector<fi::JournalRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].attempt_index, b[i].attempt_index) << i;
    EXPECT_EQ(a[i].trial.outcome, b[i].trial.outcome) << i;
    EXPECT_EQ(a[i].trial.due_kind, b[i].trial.due_kind) << i;
    EXPECT_EQ(a[i].trial.window, b[i].trial.window) << i;
    EXPECT_EQ(a[i].trial.record.model, b[i].trial.record.model) << i;
    EXPECT_EQ(a[i].trial.record.site_index, b[i].trial.record.site_index)
        << i;
    EXPECT_EQ(a[i].trial.record.element_index,
              b[i].trial.record.element_index)
        << i;
    EXPECT_EQ(a[i].trial.record.flipped_bits[0],
              b[i].trial.record.flipped_bits[0])
        << i;
  }
}

/// Child-side: run the full worker loop against its own supervisor and
/// exit 0 only if the coordinator declared the campaign complete.
[[noreturn]] void child_run_worker(const fi::CampaignConfig& config,
                                   WorkloadFactoryFn factory,
                                   std::uint64_t fingerprint,
                                   FabricOptions options,
                                   unsigned startup_delay_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(startup_delay_ms));
  ToyWorkload::reset_run_counter();
  fi::TrialSupervisor supervisor(factory, toy_supervisor_config());
  supervisor.prepare_golden();
  const WorkerResult result = run_worker(supervisor, config, fingerprint,
                                         options, nullptr, nullptr, std::cerr);
  ::_exit(result.complete ? 0 : 3);
}

/// Pumps `link` until a message of type `want` arrives (other types are
/// ignored). False on timeout or a dead link with nothing buffered.
bool wait_for(Connection& link, MsgType want, Message* out, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    link.pump();
    Message message;
    while (link.next(&message)) {
      if (message.type == want) {
        *out = message;
        return true;
      }
    }
    if (!link.alive()) return false;
    ::usleep(2000);
  }
  return false;
}

/// A hand-rolled worker holding one lease: its link, the WELCOME and the
/// GRANT it got.
struct LeasedClient {
  std::unique_ptr<Connection> link;
  Message welcome;
  Message grant;
};

/// Connects (retrying while the coordinator starts up), says HELLO and
/// takes one lease. nullopt on any failure.
std::optional<LeasedClient> lease_one(const std::string& address,
                                      std::uint64_t fingerprint) {
  const Address parsed = parse_address(address);
  int fd = -1;
  for (int i = 0; i < 500 && fd < 0; ++i) {
    fd = connect_to(parsed);
    if (fd < 0) ::usleep(10000);
  }
  if (fd < 0) return std::nullopt;
  LeasedClient client;
  client.link = std::make_unique<Connection>(fd);
  Message hello;
  hello.type = MsgType::kHello;
  hello.fingerprint = fingerprint;
  if (!client.link->send(hello) ||
      !wait_for(*client.link, MsgType::kWelcome, &client.welcome, 5000)) {
    return std::nullopt;
  }
  Message request;
  request.type = MsgType::kLeaseRequest;
  request.worker = client.welcome.worker;
  if (!client.link->send(request) ||
      !wait_for(*client.link, MsgType::kLeaseGrant, &client.grant, 5000)) {
    return std::nullopt;
  }
  return client;
}

/// The LEASE_DONE `client` sends for its lease, carrying `detail`.
Message done_for(const LeasedClient& client, const std::string& detail) {
  Message done;
  done.type = MsgType::kLeaseDone;
  done.worker = client.welcome.worker;
  done.lease = client.grant.lease;
  done.begin = client.grant.begin;
  done.end = client.grant.end;
  done.text = detail;
  return done;
}

/// The detail of `n` attempts that all had outcome `outcome`.
std::string uniform_detail(std::uint64_t n, const std::string& outcome) {
  std::string detail = "[";
  for (std::uint64_t i = 0; i < n; ++i) {
    detail += (i == 0 ? "{\"o\":\"" : ",{\"o\":\"") + outcome + "\"}";
  }
  return detail + "]";
}

/// Child-side: a worker that takes ONE lease, commits `kill_after`
/// records to its shard, then SIGKILLs itself mid-lease — the crash the
/// reclaim machinery exists for.
[[noreturn]] void child_doomed_worker(const fi::CampaignConfig& config,
                                      std::uint64_t fingerprint,
                                      const std::string& address,
                                      const std::string& shard_path,
                                      int kill_after) {
  ToyWorkload::reset_run_counter();
  fi::TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                                 toy_supervisor_config());
  supervisor.prepare_golden();
  const std::optional<LeasedClient> client = lease_one(address, fingerprint);
  if (!client.has_value()) ::_exit(4);

  fi::JournalHeader header;
  header.fingerprint = fingerprint;
  header.time_windows = supervisor.time_windows();
  header.workload = std::string(supervisor.workload_name());
  fi::CampaignJournalWriter shard(shard_path, header,
                                  fi::JournalFsync::kEveryRecord);

  fi::Campaign campaign(supervisor, config);
  fi::RangeHooks hooks;
  hooks.journal = &shard;
  int committed = 0;
  hooks.on_commit = [&committed, kill_after](const fi::JournalRecord&) {
    if (++committed == kill_after) {
      // Die with the lease half-done and no goodbye: the coordinator only
      // finds out when the heartbeat deadline passes.
      ::kill(::getpid(), SIGKILL);
    }
  };
  campaign.run_range(client->grant.begin, client->grant.end, hooks);
  ::_exit(5);  // unreachable if the kill fired as intended
}

/// Child-side: a client that takes ONE lease, runs nothing, and reports it
/// done twice with a detail that does not verify — none at all (what a
/// sender that only claims counts looks like), then one entry per attempt
/// with an outcome no fi::Outcome is named — and leaves.
[[noreturn]] void child_unverifiable_done(std::uint64_t fingerprint,
                                          const std::string& address) {
  const std::optional<LeasedClient> client = lease_one(address, fingerprint);
  if (!client.has_value()) ::_exit(4);
  const std::string garbled =
      uniform_detail(client->grant.end - client->grant.begin, "Garbled");
  const bool sent = client->link->send(done_for(*client, "")) &&
                    client->link->send(done_for(*client, garbled));
  ::_exit(sent ? 0 : 4);
}

TEST(FabricCampaign, WorkerKillIsReclaimedAndMatchesJobs1) {
  util::init_log_from_env();  // PHIFI_LOG=debug narrates the fabric drill
  const fi::CampaignConfig config = fabric_campaign(/*trials=*/12);
  const fi::JournalContents reference = reference_journal(
      config, &phifi::testing::make_toy_normal, temp_path("fab_kill_ref.jnl"));
  const std::uint64_t fingerprint = reference.header.fingerprint;

  const std::string socket_path = temp_path("fab_kill.sock");
  const std::string shard0 = temp_path("fab_kill_shard0.jnl");
  const std::string shard1 = temp_path("fab_kill_shard1.jnl");
  const std::string trace_path = temp_path("fab_kill_trace.ndjson");
  for (const auto& path : {socket_path, shard0, shard1, trace_path}) {
    fs::remove(path);
  }

  FabricOptions coordinator_options;
  coordinator_options.address = "unix:" + socket_path;
  coordinator_options.lease_size = 3;
  coordinator_options.heartbeat_seconds = 0.05;
  coordinator_options.lease_timeout_seconds = 0.6;

  // The doomed worker connects first (no startup delay) so it owns the
  // campaign's first lease when it dies; the survivor starts 300ms later
  // and must absorb the reclaimed range.
  const pid_t doomed = ::fork();
  ASSERT_GE(doomed, 0);
  if (doomed == 0) {
    child_doomed_worker(config, fingerprint, coordinator_options.address,
                        shard1, /*kill_after=*/2);
  }
  FabricOptions survivor_options = coordinator_options;
  survivor_options.shard_path = shard0;
  survivor_options.reconnect_initial_ms = 30.0;
  const pid_t survivor = ::fork();
  ASSERT_GE(survivor, 0);
  if (survivor == 0) {
    child_run_worker(config, &phifi::testing::make_toy_normal, fingerprint,
                     survivor_options, /*startup_delay_ms=*/300);
  }

  telemetry::MetricsRegistry metrics;
  std::ostringstream sink;
  CoordinatorResult result;
  {
    telemetry::TraceWriter trace(trace_path);
    result = run_coordinator(config, fingerprint, coordinator_options,
                             &metrics, &trace, nullptr, nullptr, sink);
  }
  EXPECT_TRUE(result.complete) << sink.str();
  EXPECT_GE(result.workers_seen, 2u);
  EXPECT_GE(result.leases_reclaimed, 1u);
  const telemetry::Counter* reclaimed =
      metrics.find_counter("fabric.leases_reclaimed");
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_GE(reclaimed->value(), 1u);

  int status = 0;
  ASSERT_EQ(::waitpid(doomed, &status, 0), doomed);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The coordinator's trace must show the lease lifecycle incl. reclaim.
  const telemetry::TraceContents trace_contents =
      telemetry::read_trace_file(trace_path);
  bool saw_grant = false, saw_reclaim = false;
  for (const auto& event : trace_contents.fabric) {
    const std::string& kind = event.find("kind")->as_string();
    saw_grant = saw_grant || kind == "lease_grant";
    saw_reclaim = saw_reclaim || kind == "lease_reclaim";
  }
  EXPECT_TRUE(saw_grant);
  EXPECT_TRUE(saw_reclaim);

  // Merge the survivor's shard with the dead worker's partial shard: the
  // overlap dedups and the result is bit-identical to --jobs 1.
  MergeOptions merge_options;
  merge_options.shards = {shard0, shard1};
  merge_options.out_path = temp_path("fab_kill_merged.jnl");
  merge_options.allow_torn_tail = true;
  const MergeSummary summary =
      merge_shards(config, "Toy", reference.header.time_windows,
                   merge_options);
  EXPECT_EQ(summary.duplicates, 2u);  // the doomed worker's two commits
  EXPECT_EQ(summary.injected, config.trials);
  const fi::JournalContents merged =
      fi::read_journal(merge_options.out_path);
  EXPECT_EQ(merged.header.fingerprint, fingerprint);
  expect_same_records(reference.records, merged.records);
}

TEST(FabricCampaign, UnverifiableLeaseDoneIsIgnoredAndReExecuted) {
  util::init_log_from_env();
  const fi::CampaignConfig config = fabric_campaign(/*trials=*/12);
  const fi::JournalContents reference =
      reference_journal(config, &phifi::testing::make_toy_normal,
                        temp_path("fab_bogus_ref.jnl"));
  const std::uint64_t fingerprint = reference.header.fingerprint;

  const std::string socket_path = temp_path("fab_bogus.sock");
  const std::string shard = temp_path("fab_bogus_shard.jnl");
  for (const auto& path : {socket_path, shard}) fs::remove(path);

  FabricOptions coordinator_options;
  coordinator_options.address = "unix:" + socket_path;
  coordinator_options.lease_size = 3;
  coordinator_options.heartbeat_seconds = 0.05;
  coordinator_options.lease_timeout_seconds = 0.6;

  // The unverifiable client takes the first lease; the real worker joins
  // 300ms later and must end up executing that range too.
  const pid_t bogus = ::fork();
  ASSERT_GE(bogus, 0);
  if (bogus == 0) {
    child_unverifiable_done(fingerprint, coordinator_options.address);
  }
  FabricOptions worker_options = coordinator_options;
  worker_options.shard_path = shard;
  worker_options.reconnect_initial_ms = 30.0;
  const pid_t worker = ::fork();
  ASSERT_GE(worker, 0);
  if (worker == 0) {
    child_run_worker(config, &phifi::testing::make_toy_normal, fingerprint,
                     worker_options, /*startup_delay_ms=*/300);
  }

  std::ostringstream sink;
  const CoordinatorResult result =
      run_coordinator(config, fingerprint, coordinator_options, nullptr,
                      nullptr, nullptr, nullptr, sink);
  EXPECT_TRUE(result.complete) << sink.str();
  EXPECT_TRUE(result.fleet_boundary);
  EXPECT_EQ(result.fleet_completed, config.trials);
  // Neither DONE retired the lease: it ran out its deadline.
  EXPECT_GE(result.leases_reclaimed, 1u);

  int status = 0;
  ASSERT_EQ(::waitpid(bogus, &status, 0), bogus);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ASSERT_EQ(::waitpid(worker, &status, 0), worker);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The real worker's shard alone covers the campaign, bogus range included.
  MergeOptions merge_options;
  merge_options.shards = {shard};
  merge_options.out_path = temp_path("fab_bogus_merged.jnl");
  const MergeSummary summary = merge_shards(
      config, "Toy", reference.header.time_windows, merge_options);
  EXPECT_EQ(summary.injected, config.trials);
  expect_same_records(reference.records,
                      fi::read_journal(merge_options.out_path).records);
}

// ------------------------------------------------- observability plane

/// Blocking-ish HTTP GET against the coordinator's scrape endpoint (unix
/// transport keeps the test port-collision-free). The server is serviced
/// by the coordinator's poll loop in another thread of this process; the
/// client side here is plain sockets. "" on any failure — the scraper
/// loop just retries.
std::string scrape(const std::string& socket_path,
                   const std::string& route) {
  int fd = -1;
  try {
    fd = connect_to(parse_address("unix:" + socket_path));
  } catch (const std::runtime_error&) {
    return "";
  }
  if (fd < 0) return "";
  const std::string request = "GET " + route + " HTTP/1.1\r\n\r\n";
  std::size_t sent = 0;
  std::string response;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    if (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      response.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;  // server closed: response complete
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      break;
    }
    ::usleep(1000);
  }
  ::close(fd);
  return response;
}

std::string http_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

TEST(FabricCampaign, ObservabilityPlaneServesLiveFleetState) {
  util::init_log_from_env();
  // Slow trials stretch the campaign so mid-flight scrapes are plentiful
  // and deterministic-ish: the survivor owns [0,2) (so the fleet frontier
  // advances early and publishes estimator gauges), the doomed worker owns
  // [2,4) and dies, leaving a dead row until the reclaim re-issues it.
  const fi::CampaignConfig config = fabric_campaign(/*trials=*/8);
  ToyWorkload::reset_run_counter();
  fi::TrialSupervisor supervisor(&phifi::testing::make_toy_slow,
                                 toy_supervisor_config());
  supervisor.prepare_golden();
  const std::uint64_t fingerprint = fi::campaign_fingerprint(
      config, supervisor.workload_name(), supervisor.time_windows());
  const unsigned time_windows = supervisor.time_windows();

  const std::string socket_path = temp_path("fab_obs.sock");
  const std::string scrape_path = temp_path("fab_obs_http.sock");
  const std::string shard_survivor = temp_path("fab_obs_shard0.jnl");
  const std::string shard_doomed = temp_path("fab_obs_shard1.jnl");
  const std::string trace_path = temp_path("fab_obs_trace.ndjson");
  for (const auto& path : {socket_path, scrape_path, shard_survivor,
                           shard_doomed, trace_path}) {
    fs::remove(path);
  }

  FabricOptions coordinator_options;
  coordinator_options.address = "unix:" + socket_path;
  coordinator_options.lease_size = 2;
  coordinator_options.heartbeat_seconds = 0.05;
  coordinator_options.lease_timeout_seconds = 0.6;
  coordinator_options.serve_metrics = "unix:" + scrape_path;
  coordinator_options.run_id = 0xfee1600dULL;

  FabricOptions survivor_options = coordinator_options;
  survivor_options.shard_path = shard_survivor;
  survivor_options.reconnect_initial_ms = 30.0;
  const pid_t survivor = ::fork();
  ASSERT_GE(survivor, 0);
  if (survivor == 0) {
    child_run_worker(config, &phifi::testing::make_toy_slow, fingerprint,
                     survivor_options, /*startup_delay_ms=*/0);
  }
  const pid_t doomed = ::fork();
  ASSERT_GE(doomed, 0);
  if (doomed == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    child_doomed_worker(config, fingerprint, coordinator_options.address,
                        shard_doomed, /*kill_after=*/1);
  }

  // Scraper thread: polls both routes while the campaign runs, keeping
  // evidence for the post-run assertions. Client-side sockets only — the
  // server side is serviced by run_coordinator's own poll loop.
  std::atomic<bool> stop_scraping{false};
  std::string est_metrics;       // /metrics once campaign.est.* appeared
  std::string dead_row_json;     // /campaign.json with a dead worker row
  std::string healthz;           // first successful /healthz body
  std::vector<std::uint64_t> scraped_sdc;  // every mid-flight fleet sdc
  std::thread scraper([&]() {
    while (!stop_scraping.load()) {
      const std::string metrics_response = scrape(scrape_path, "/metrics");
      if (est_metrics.empty() &&
          metrics_response.find("phifi_campaign_est_sdc_rate") !=
              std::string::npos) {
        est_metrics = metrics_response;
      }
      if (healthz.empty()) {
        healthz = http_body(scrape(scrape_path, "/healthz"));
      }
      const std::string body =
          http_body(scrape(scrape_path, "/campaign.json"));
      if (!body.empty()) {
        try {
          const util::json::Value doc = util::json::parse(body);
          scraped_sdc.push_back(
              static_cast<std::uint64_t>(doc.number_or("sdc", 0.0)));
          if (dead_row_json.empty() &&
              body.find(R"("status":"dead")") != std::string::npos) {
            dead_row_json = body;
          }
        } catch (const std::runtime_error&) {
          // Torn scrape (coordinator wound down mid-request): ignore.
        }
      }
      ::usleep(10000);
    }
  });

  telemetry::MetricsRegistry metrics;
  telemetry::CampaignEstimator estimator;
  std::ostringstream sink;
  CoordinatorResult result;
  {
    telemetry::TraceWriter trace(trace_path);
    result = run_coordinator(config, fingerprint, coordinator_options,
                             &metrics, &trace, &estimator, nullptr, sink);
  }
  stop_scraping.store(true);
  scraper.join();

  EXPECT_TRUE(result.complete) << sink.str();
  EXPECT_EQ(result.run_id, 0xfee1600dULL);
  EXPECT_GE(result.leases_reclaimed, 1u);

  int status = 0;
  ASSERT_EQ(::waitpid(doomed, &status, 0), doomed);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // --- scrape endpoint: OpenMetrics shape and live fleet state ---
  EXPECT_EQ(healthz, "ok\n");
  ASSERT_FALSE(est_metrics.empty())
      << "no mid-campaign scrape ever showed campaign.est.* gauges";
  EXPECT_NE(est_metrics.find("application/openmetrics-text"),
            std::string::npos);
  const std::string est_body = http_body(est_metrics);
  EXPECT_NE(est_body.find("# EOF"), std::string::npos);
  EXPECT_NE(est_body.find("phifi_campaign_completed_total"),
            std::string::npos);
  EXPECT_NE(est_body.find("phifi_fabric_worker_"), std::string::npos);
  ASSERT_FALSE(dead_row_json.empty())
      << "the SIGKILLed worker never appeared as a dead row";
  ASSERT_FALSE(scraped_sdc.empty());

  // --- exact fleet tally: bit-identical to the post-campaign merge ---
  MergeOptions merge_options;
  merge_options.shards = {shard_survivor, shard_doomed};
  merge_options.out_path = temp_path("fab_obs_merged.jnl");
  merge_options.allow_torn_tail = true;
  const MergeSummary summary = merge_shards(
      config, "Toy", time_windows, merge_options);
  EXPECT_TRUE(result.fleet_boundary);
  EXPECT_EQ(result.fleet_completed, summary.overall.total());
  EXPECT_EQ(result.fleet_masked, summary.overall.masked);
  EXPECT_EQ(result.fleet_sdc, summary.overall.sdc);
  EXPECT_EQ(result.fleet_due, summary.overall.due);
  // The estimator saw the same exact stream.
  EXPECT_EQ(estimator.counts().masked, summary.overall.masked);
  EXPECT_EQ(estimator.counts().sdc, summary.overall.sdc);
  EXPECT_EQ(estimator.counts().due, summary.overall.due);
  // Every mid-flight scrape is a fold prefix: never ahead of the final.
  for (const std::uint64_t sdc : scraped_sdc) {
    EXPECT_LE(sdc, result.fleet_sdc);
  }

  // --- correlation ids survive WELCOME → shard → merge → trace ---
  const std::string run_hex = telemetry::run_id_to_hex(result.run_id);
  EXPECT_EQ(fi::read_journal(shard_survivor).header.run_id, result.run_id);
  EXPECT_EQ(fi::read_journal(merge_options.out_path).header.run_id,
            result.run_id);
  const telemetry::TraceContents trace_contents =
      telemetry::read_trace_file(trace_path);
  ASSERT_FALSE(trace_contents.fabric.empty());
  bool saw_dead_worker_event = false;
  for (const auto& event : trace_contents.fabric) {
    EXPECT_EQ(event.string_or("run_id", ""), run_hex);
    EXPECT_NE(event.string_or("kind", ""), "");
    saw_dead_worker_event = saw_dead_worker_event ||
                            event.string_or("kind", "") == "lease_reclaim";
  }
  EXPECT_TRUE(saw_dead_worker_event);
  ASSERT_FALSE(trace_contents.end.is_null());
  EXPECT_EQ(trace_contents.end.string_or("run_id", ""), run_hex);
  // The trace end record carries the exact fleet tally too.
  EXPECT_EQ(static_cast<std::uint64_t>(
                trace_contents.end.number_or("sdc", 0.0)),
            result.fleet_sdc);
}

TEST(FabricCampaign, CoordinatorCountersAreTheFleetTally) {
  // One 16-attempt lease covers a 10-trial campaign, so the worker runs
  // past the finish line. The coordinator's counters and progress line must
  // stop where its fleet fold and the merge do.
  const fi::CampaignConfig config = fabric_campaign(/*trials=*/10);
  const fi::JournalContents reference =
      reference_journal(config, &phifi::testing::make_toy_normal,
                        temp_path("fab_count_ref.jnl"));
  const std::uint64_t fingerprint = reference.header.fingerprint;

  const std::string socket_path = temp_path("fab_count.sock");
  const std::string shard = temp_path("fab_count_shard.jnl");
  for (const auto& path : {socket_path, shard}) fs::remove(path);

  FabricOptions options;
  options.address = "unix:" + socket_path;
  options.lease_size = 16;
  options.heartbeat_seconds = 0.05;
  FabricOptions worker_options = options;
  worker_options.shard_path = shard;
  worker_options.reconnect_initial_ms = 30.0;
  const pid_t worker = ::fork();
  ASSERT_GE(worker, 0);
  if (worker == 0) {
    child_run_worker(config, &phifi::testing::make_toy_normal, fingerprint,
                     worker_options, /*startup_delay_ms=*/0);
  }

  telemetry::MetricsRegistry metrics;
  std::ostringstream progress_lines;
  telemetry::ProgressEmitter progress(metrics, progress_lines,
                                      /*interval_seconds=*/3600.0);
  std::ostringstream sink;
  const CoordinatorResult result = run_coordinator(
      config, fingerprint, options, &metrics, nullptr, nullptr, &progress,
      sink);
  int status = 0;
  ASSERT_EQ(::waitpid(worker, &status, 0), worker);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(result.complete) << sink.str();
  EXPECT_TRUE(result.fleet_boundary);

  MergeOptions merge_options;
  merge_options.shards = {shard};
  merge_options.out_path = temp_path("fab_count_merged.jnl");
  const MergeSummary summary = merge_shards(
      config, "Toy", reference.header.time_windows, merge_options);
  expect_same_records(reference.records,
                      fi::read_journal(merge_options.out_path).records);

  const auto counter = [&metrics](const std::string& name) {
    const telemetry::Counter* found = metrics.find_counter(name);
    return found == nullptr ? std::uint64_t{0} : found->value();
  };
  EXPECT_EQ(result.fleet_completed, config.trials);
  EXPECT_EQ(counter("campaign.completed"), result.fleet_completed);
  EXPECT_EQ(counter("campaign.masked"), result.fleet_masked);
  EXPECT_EQ(counter("campaign.sdc"), result.fleet_sdc);
  EXPECT_EQ(counter("campaign.due"), result.fleet_due);
  EXPECT_EQ(counter("campaign.not_injected"), result.fleet_not_injected);
  EXPECT_EQ(result.fleet_completed, summary.overall.total());
  EXPECT_EQ(result.fleet_masked, summary.overall.masked);
  EXPECT_EQ(result.fleet_sdc, summary.overall.sdc);
  EXPECT_EQ(result.fleet_due, summary.overall.due);

  // The final progress line is the fold too, not the lease's overshoot.
  std::string last_line;
  std::istringstream lines(progress_lines.str());
  for (std::string line; std::getline(lines, line);) last_line = line;
  EXPECT_EQ(last_line.rfind("[progress] 10/10 trials", 0), 0u)
      << progress_lines.str();
}

/// run_coordinator on a thread of this process, for drills whose clients
/// are hand-rolled on the test thread. Destruction stops and joins it.
class CoordinatorThread {
 public:
  CoordinatorThread(fi::CampaignConfig config, std::uint64_t fingerprint,
                    FabricOptions options)
      : config_(std::move(config)), options_(std::move(options)) {
    config_.stop_flag = &stop_;
    thread_ = std::thread([this, fingerprint] {
      result_ = run_coordinator(config_, fingerprint, options_, nullptr,
                                nullptr, nullptr, nullptr, sink_);
      finished_.store(true);
    });
  }
  ~CoordinatorThread() {
    stop_.store(true);
    thread_.join();
  }
  CoordinatorThread(const CoordinatorThread&) = delete;
  CoordinatorThread& operator=(const CoordinatorThread&) = delete;

  [[nodiscard]] bool finished() const { return finished_.load(); }
  /// The result once the loop has ended by itself within `timeout_ms`;
  /// nullptr otherwise.
  const CoordinatorResult* wait(int timeout_ms) {
    for (int i = 0; i < timeout_ms && !finished(); ++i) ::usleep(1000);
    return finished() ? &result_ : nullptr;
  }

 private:
  fi::CampaignConfig config_;
  FabricOptions options_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  CoordinatorResult result_;
  std::ostringstream sink_;
  std::thread thread_;
};

TEST(FabricCampaign, DoneBeyondAHoleWaitsForTheHole) {
  // Two hand-rolled clients hold [0,2) and [2,4) of a 4-trial campaign.
  // The second reports first: its range is folded — and the campaign can
  // end — only once the first range is in.
  const std::uint64_t fingerprint = 0x401eULL;
  const std::string socket_path = temp_path("fab_hole.sock");
  const std::string scrape_path = temp_path("fab_hole_http.sock");
  for (const auto& path : {socket_path, scrape_path}) fs::remove(path);
  FabricOptions options;
  options.address = "unix:" + socket_path;
  options.lease_size = 2;
  options.lease_timeout_seconds = 60.0;
  options.serve_metrics = "unix:" + scrape_path;
  CoordinatorThread coordinator(fabric_campaign(/*trials=*/4), fingerprint,
                                options);

  std::optional<LeasedClient> first = lease_one(options.address, fingerprint);
  ASSERT_TRUE(first.has_value());
  std::optional<LeasedClient> second =
      lease_one(options.address, fingerprint);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(first->grant.begin, 0u);
  ASSERT_EQ(second->grant.begin, 2u);

  // The DONE beyond the hole. The grant answering the next request on the
  // same stream proves the coordinator has handled it.
  ASSERT_TRUE(
      second->link->send(done_for(*second, uniform_detail(2, "Masked"))));
  Message request;
  request.type = MsgType::kLeaseRequest;
  request.worker = second->welcome.worker;
  ASSERT_TRUE(second->link->send(request));
  Message next_grant;
  ASSERT_TRUE(wait_for(*second->link, MsgType::kLeaseGrant, &next_grant,
                       5000));
  std::string body;
  for (int i = 0; i < 100 && body.empty(); ++i) {
    body = http_body(scrape(scrape_path, "/campaign.json"));
  }
  ASSERT_FALSE(body.empty());
  const util::json::Value held = util::json::parse(body);
  EXPECT_EQ(held.number_or("completed", -1.0), 0.0) << body;
  EXPECT_FALSE(held.bool_or("fleet_boundary", true)) << body;
  EXPECT_FALSE(coordinator.finished());

  // Filling the hole folds both ranges and ends the campaign on that DONE.
  ASSERT_TRUE(
      first->link->send(done_for(*first, uniform_detail(2, "Masked"))));
  Message shutdown;
  EXPECT_TRUE(wait_for(*first->link, MsgType::kShutdown, &shutdown, 5000));
  EXPECT_TRUE(wait_for(*second->link, MsgType::kShutdown, &shutdown, 5000));
  first->link->close();
  second->link->close();
  const CoordinatorResult* result = coordinator.wait(10000);
  ASSERT_NE(result, nullptr) << "filling the hole did not end the campaign";
  EXPECT_TRUE(result->complete);
  EXPECT_TRUE(result->fleet_boundary);
  EXPECT_EQ(result->fleet_completed, 4u);
  EXPECT_EQ(result->fleet_masked, 4u);
}

TEST(FabricCampaign, ExhaustedAttemptBudgetEndsTheCampaignIncomplete) {
  // Every attempt of a 2-trial campaign's budget (2 x (1 + 3 retries) = 8)
  // comes back NotInjected. Once the fold has walked the whole budget the
  // coordinator ends, short of the finish line, as a --jobs 1 run would.
  const std::uint64_t fingerprint = 0xb0d9e7ULL;
  const std::string socket_path = temp_path("fab_budget.sock");
  fs::remove(socket_path);
  FabricOptions options;
  options.address = "unix:" + socket_path;
  options.lease_size = 4;
  options.lease_timeout_seconds = 60.0;
  CoordinatorThread coordinator(fabric_campaign(/*trials=*/2), fingerprint,
                                options);

  std::optional<LeasedClient> client = lease_one(options.address, fingerprint);
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(client->link->send(
      done_for(*client, uniform_detail(4, "NotInjected"))));
  Message request;
  request.type = MsgType::kLeaseRequest;
  request.worker = client->welcome.worker;
  ASSERT_TRUE(client->link->send(request));
  ASSERT_TRUE(wait_for(*client->link, MsgType::kLeaseGrant, &client->grant,
                       5000));
  ASSERT_EQ(client->grant.begin, 4u);
  ASSERT_EQ(client->grant.end, 8u);
  ASSERT_TRUE(client->link->send(
      done_for(*client, uniform_detail(4, "NotInjected"))));
  Message shutdown;
  EXPECT_TRUE(wait_for(*client->link, MsgType::kShutdown, &shutdown, 5000));
  client->link->close();
  const CoordinatorResult* result = coordinator.wait(10000);
  ASSERT_NE(result, nullptr) << "an exhausted budget did not end the loop";
  EXPECT_FALSE(result->complete);
  EXPECT_FALSE(result->interrupted);
  EXPECT_EQ(result->fleet_completed, 0u);
  EXPECT_EQ(result->fleet_not_injected, 8u);
}

TEST(FabricCampaign, CoordinatorCrashResumesFromLedgerAndMatchesJobs1) {
  // The slow toy (~0.3s/trial) keeps the campaign alive long enough to
  // SIGKILL the coordinator mid-flight at a deterministic ledger point.
  const fi::CampaignConfig config = fabric_campaign(/*trials=*/6);
  const fi::JournalContents reference = reference_journal(
      config, &phifi::testing::make_toy_slow, temp_path("fab_res_ref.jnl"));
  const std::uint64_t fingerprint = reference.header.fingerprint;

  const std::string socket_path = temp_path("fab_res.sock");
  const std::string shard0 = temp_path("fab_res_shard0.jnl");
  const std::string ledger = temp_path("fab_res_ledger.bin");
  for (const auto& path : {socket_path, shard0, ledger}) {
    fs::remove(path);
  }

  FabricOptions coordinator_options;
  coordinator_options.address = "unix:" + socket_path;
  coordinator_options.ledger_path = ledger;
  coordinator_options.lease_size = 2;
  coordinator_options.heartbeat_seconds = 0.1;
  coordinator_options.lease_timeout_seconds = 5.0;

  const pid_t coordinator = ::fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) {
    std::ostringstream sink;
    run_coordinator(config, fingerprint, coordinator_options, nullptr,
                    nullptr, nullptr, nullptr, sink);
    ::_exit(0);  // should be SIGKILLed long before completing
  }
  FabricOptions worker_options = coordinator_options;
  worker_options.shard_path = shard0;
  worker_options.reconnect_initial_ms = 30.0;
  const pid_t worker = ::fork();
  ASSERT_GE(worker, 0);
  if (worker == 0) {
    child_run_worker(config, &phifi::testing::make_toy_slow, fingerprint,
                     worker_options, /*startup_delay_ms=*/0);
  }

  // Wait until the ledger shows real progress (>= 2 records: at least one
  // grant plus its completion or a second grant), then murder the
  // coordinator mid-campaign.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  bool progressed = false;
  while (!progressed && std::chrono::steady_clock::now() < deadline) {
    try {
      progressed = read_ledger(ledger).records.size() >= 2;
    } catch (const std::exception&) {
      // Ledger not created or header not yet durable — keep waiting.
    }
    if (!progressed) ::usleep(10000);
  }
  ASSERT_TRUE(progressed) << "coordinator never made ledger progress";
  ASSERT_EQ(::kill(coordinator, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(coordinator, &status, 0), coordinator);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Restart the coordinator in-process on the same ledger and address.
  // It must replay the ledger, re-adopt the worker's live lease when the
  // worker reconnects, and finish the campaign.
  telemetry::MetricsRegistry metrics;
  std::ostringstream sink;
  const CoordinatorResult result =
      run_coordinator(config, fingerprint, coordinator_options, &metrics,
                      nullptr, nullptr, nullptr, sink);
  EXPECT_TRUE(result.complete) << sink.str();
  // The fleet fold rebuilt from the ledger's DONE details and the live
  // ones after the restart lands exactly on the trial count.
  EXPECT_TRUE(result.fleet_boundary);
  EXPECT_EQ(result.fleet_completed, config.trials);

  ASSERT_EQ(::waitpid(worker, &status, 0), worker);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  MergeOptions merge_options;
  merge_options.shards = {shard0};
  merge_options.out_path = temp_path("fab_res_merged.jnl");
  const MergeSummary summary =
      merge_shards(config, "Toy", reference.header.time_windows,
                   merge_options);
  EXPECT_EQ(summary.injected, config.trials);
  const fi::JournalContents merged =
      fi::read_journal(merge_options.out_path);
  expect_same_records(reference.records, merged.records);
}

}  // namespace
}  // namespace phifi::fabric
