// Fabric building blocks: wire protocol framing, the lease table and its
// crash-durable ledger, run_range determinism, and the shard merge — all
// fork-free and socket-local (the process-level failure drills live in
// test_fabric_campaign.cpp).
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "fabric/lease.hpp"
#include "fabric/merge.hpp"
#include "fabric/protocol.hpp"
#include "fabric/stats.hpp"
#include "tests/toy_workload.hpp"

namespace phifi::fabric {
namespace {

namespace fs = std::filesystem;

using phifi::testing::ToyWorkload;
using phifi::testing::toy_supervisor_config;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

// ---------------------------------------------------------------- protocol

Message sample_message() {
  Message message;
  message.type = MsgType::kLeaseDone;
  message.worker = 7;
  message.fingerprint = 0xfeedfacecafebeefULL;
  message.lease = 42;
  message.begin = 128;
  message.end = 160;
  message.run = 0xfaceb00c12345678ULL;
  message.text = "diagnostics ride along";
  return message;
}

TEST(FabricProtocol, MessageRoundTripsThroughFrame) {
  const Message sent = sample_message();
  std::vector<std::uint8_t> buffer = encode_message(sent);
  Message got;
  ASSERT_TRUE(decode_message(buffer, &got));
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.worker, sent.worker);
  EXPECT_EQ(got.fingerprint, sent.fingerprint);
  EXPECT_EQ(got.lease, sent.lease);
  EXPECT_EQ(got.begin, sent.begin);
  EXPECT_EQ(got.end, sent.end);
  EXPECT_EQ(got.run, sent.run);
  EXPECT_EQ(got.text, sent.text);
}

TEST(FabricProtocol, HeartbeatCarriesSnapshotBetweenLeases) {
  Message beat;
  beat.type = MsgType::kHeartbeat;
  beat.worker = 3;  // lease 0: the worker holds no lease right now
  beat.text = R"({"executed":17,"uptime_seconds":4.5})";
  std::vector<std::uint8_t> buffer = encode_message(beat);
  Message got;
  ASSERT_TRUE(decode_message(buffer, &got));
  EXPECT_EQ(got.type, MsgType::kHeartbeat);
  EXPECT_EQ(got.worker, 3u);
  EXPECT_EQ(got.lease, 0u);
  EXPECT_EQ(got.text, beat.text);
}

TEST(FabricProtocol, PartialFrameIsNotAMessage) {
  std::vector<std::uint8_t> frame = encode_message(sample_message());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<std::uint8_t> partial(frame.begin(),
                                      frame.begin() + cut);
    Message out;
    EXPECT_FALSE(decode_message(partial, &out)) << "cut at " << cut;
    EXPECT_EQ(partial.size(), cut) << "partial frame must not be consumed";
  }
}

TEST(FabricProtocol, CorruptCrcThrows) {
  std::vector<std::uint8_t> frame = encode_message(sample_message());
  frame[frame.size() / 2] ^= 0x40;
  Message out;
  EXPECT_THROW(decode_message(frame, &out), std::runtime_error);
}

TEST(FabricProtocol, BackToBackFramesDecodeInOrder) {
  Message first = sample_message();
  first.type = MsgType::kHeartbeat;
  Message second = sample_message();
  second.type = MsgType::kLeaseRequest;
  second.text.clear();
  std::vector<std::uint8_t> buffer = encode_message(first);
  const std::vector<std::uint8_t> tail = encode_message(second);
  buffer.insert(buffer.end(), tail.begin(), tail.end());

  Message out;
  ASSERT_TRUE(decode_message(buffer, &out));
  EXPECT_EQ(out.type, MsgType::kHeartbeat);
  ASSERT_TRUE(decode_message(buffer, &out));
  EXPECT_EQ(out.type, MsgType::kLeaseRequest);
  EXPECT_TRUE(buffer.empty());
}

TEST(FabricProtocol, AddressParsing) {
  const Address unix_addr = parse_address("unix:/tmp/x.sock");
  EXPECT_TRUE(unix_addr.is_unix);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");

  const Address tcp = parse_address("tcp:127.0.0.1:9123");
  EXPECT_FALSE(tcp.is_unix);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9123);

  EXPECT_THROW(parse_address("quic:nope"), std::runtime_error);
  EXPECT_THROW(parse_address("tcp:nohost"), std::runtime_error);
  EXPECT_THROW(parse_address("tcp:host:notaport"), std::runtime_error);
  EXPECT_THROW(parse_address("unix:"), std::runtime_error);
}

TEST(FabricProtocol, ConnectionExchangesFramesOverUnixSocket) {
  const std::string path = temp_path("proto.sock");
  fs::remove(path);
  const Address address = parse_address("unix:" + path);
  const int listen_fd = listen_on(address);
  ASSERT_GE(listen_fd, 0);

  const int client_fd = connect_to(address);
  ASSERT_GE(client_fd, 0);
  int server_fd = -1;
  for (int i = 0; i < 100 && server_fd < 0; ++i) {
    server_fd = accept_on(listen_fd);
    if (server_fd < 0) ::usleep(1000);
  }
  ASSERT_GE(server_fd, 0);

  Connection client(client_fd);
  Connection server(server_fd);
  ASSERT_TRUE(client.send(sample_message()));

  Message got;
  bool received = false;
  for (int i = 0; i < 100 && !received; ++i) {
    server.pump();
    received = server.next(&got);
    if (!received) ::usleep(1000);
  }
  ASSERT_TRUE(received);
  EXPECT_EQ(got.type, MsgType::kLeaseDone);
  EXPECT_EQ(got.text, "diagnostics ride along");

  // Peer close: frames sent before the close are still poppable.
  got.type = MsgType::kShutdown;
  ASSERT_TRUE(server.send(got));
  server.close();
  Message final_msg;
  received = false;
  for (int i = 0; i < 100 && !received; ++i) {
    client.pump();
    received = client.next(&final_msg);
    if (!received) ::usleep(1000);
  }
  ASSERT_TRUE(received);
  EXPECT_EQ(final_msg.type, MsgType::kShutdown);
  ::close(listen_fd);
  fs::remove(path);
}

// -------------------------------------------------- observability codecs

TEST(FabricStats, AttemptDetailRoundTrips) {
  std::vector<AttemptOutcome> attempts(4);
  attempts[0].outcome = fi::Outcome::kMasked;
  attempts[0].model = "single";
  attempts[0].category = "compute";
  attempts[0].window = 1;
  attempts[0].injected = true;
  attempts[1].outcome = fi::Outcome::kDue;
  attempts[1].due_kind = "hang";
  attempts[1].model = "double";
  attempts[1].category = "control";
  attempts[1].window = 2;
  attempts[1].injected = true;
  attempts[2].outcome = fi::Outcome::kNotInjected;
  attempts[3].outcome = fi::Outcome::kSdc;
  attempts[3].injected = true;

  const std::vector<AttemptOutcome> got =
      decode_attempts(encode_attempts(attempts));
  ASSERT_EQ(got.size(), attempts.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].outcome, attempts[i].outcome) << i;
    EXPECT_EQ(got[i].due_kind, attempts[i].due_kind) << i;
    EXPECT_EQ(got[i].model, attempts[i].model) << i;
    EXPECT_EQ(got[i].category, attempts[i].category) << i;
    EXPECT_EQ(got[i].window, attempts[i].window) << i;
    EXPECT_EQ(got[i].injected, attempts[i].injected) << i;
  }
  EXPECT_TRUE(decode_attempts("").empty());
  EXPECT_THROW(decode_attempts("{}"), std::runtime_error);
  // An entry without an outcome, or with one that is not an fi::Outcome
  // name, is a torn or hostile detail: refused, never counted as anything.
  EXPECT_THROW(decode_attempts(R"([{"k":"hang"}])"), std::runtime_error);
  EXPECT_THROW(decode_attempts(R"([{"o":"Garbled"}])"), std::runtime_error);
}

TEST(FabricStats, WorkerStatsRoundTrip) {
  WorkerStats stats;
  stats.executed = 120;
  stats.leases_done = 4;
  stats.uptime_seconds = 9.6;

  const WorkerStats got = decode_stats(encode_stats(stats));
  EXPECT_EQ(got.executed, stats.executed);
  EXPECT_EQ(got.leases_done, stats.leases_done);
  EXPECT_DOUBLE_EQ(got.uptime_seconds, stats.uptime_seconds);
  // Throughput is derived from the snapshot, not carried in it.
  EXPECT_DOUBLE_EQ(got.trials_per_sec(), 12.5);
  EXPECT_DOUBLE_EQ(WorkerStats{}.trials_per_sec(), 0.0);
  EXPECT_THROW(decode_stats("[]"), std::runtime_error);
}

// -------------------------------------------------------------- lease table

using Clock = LeaseTable::Clock;

TEST(LeaseTable, GrantsContiguousRangesUpToBudget) {
  LeaseTable table(/*trials=*/10, /*budget=*/12, /*lease_size=*/4);
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  const auto a = table.grant(1, deadline);
  const auto b = table.grant(2, deadline);
  const auto c = table.grant(1, deadline);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->begin, 0u);
  EXPECT_EQ(a->end, 4u);
  EXPECT_EQ(b->begin, 4u);
  EXPECT_EQ(b->end, 8u);
  EXPECT_EQ(c->begin, 8u);
  EXPECT_EQ(c->end, 12u);  // clamped to the budget
  EXPECT_FALSE(table.grant(1, deadline).has_value());
  EXPECT_EQ(table.outstanding(), 3u);
}

TEST(LeaseTable, CompleteRequiresTheLeaseRange) {
  LeaseTable table(10, 40, 4);
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  const auto lease = table.grant(1, deadline);
  ASSERT_TRUE(lease.has_value());
  // A DONE naming a range that is not the lease's retires nothing.
  EXPECT_FALSE(table.complete(lease->id, lease->begin, lease->end + 1));
  EXPECT_EQ(table.outstanding(), 1u);
  EXPECT_TRUE(table.complete(lease->id, lease->begin, lease->end));
  EXPECT_EQ(table.outstanding(), 0u);
  // A second DONE for the same lease is stale.
  EXPECT_FALSE(table.complete(lease->id, lease->begin, lease->end));
}

TEST(LeaseTable, ExpiredLeaseIsReclaimedAndRegranted) {
  LeaseTable table(10, 40, 4);
  const auto now = Clock::now();
  const auto stale = table.grant(1, now - std::chrono::seconds(1));
  const auto live = table.grant(2, now + std::chrono::seconds(60));
  ASSERT_TRUE(stale && live);

  const std::vector<Lease> expired = table.expire(now);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, stale->id);
  EXPECT_EQ(table.outstanding(), 1u);

  // Stale completions and heartbeats for the reclaimed lease are refused.
  EXPECT_FALSE(table.heartbeat(stale->id, now + std::chrono::seconds(60)));
  EXPECT_FALSE(table.complete(stale->id, stale->begin, stale->end));

  // The reclaimed range is re-granted before fresh space.
  const auto regrant = table.grant(3, now + std::chrono::seconds(60));
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->begin, stale->begin);
  EXPECT_EQ(regrant->end, stale->end);
  EXPECT_NE(regrant->id, stale->id);
}

TEST(LeaseTable, AdoptReattachesOutstandingLease) {
  LeaseTable table(10, 40, 4);
  const auto now = Clock::now();
  const auto lease = table.grant(1, now + std::chrono::milliseconds(10));
  ASSERT_TRUE(lease.has_value());
  // A reconnecting worker (new id) adopts and refreshes the deadline.
  EXPECT_TRUE(table.adopt(lease->id, 9, now + std::chrono::seconds(60)));
  EXPECT_TRUE(table.expire(now + std::chrono::seconds(1)).empty());
  EXPECT_TRUE(table.complete(lease->id, lease->begin, lease->end));
  // Adopting a completed lease fails.
  EXPECT_FALSE(table.adopt(lease->id, 9, now + std::chrono::seconds(60)));
}

// ------------------------------------------------------------ lease ledger

TEST(LeaseLedger, RoundTripsRecords) {
  const std::string path = temp_path("ledger_rt.bin");
  fs::remove(path);
  {
    LeaseLedgerWriter writer(path, /*fingerprint=*/0xabcdULL,
                             /*trials=*/100, /*run_id=*/0x5eedULL);
    writer.append({LedgerKind::kGrant, 1, 0, 8, ""});
    writer.append({LedgerKind::kDone, 1, 0, 8, R"([{"o":"Masked"}])"});
    writer.append({LedgerKind::kGrant, 2, 8, 16, ""});
    writer.append({LedgerKind::kReclaim, 2, 8, 16, ""});
  }
  const LedgerContents contents = read_ledger(path);
  EXPECT_EQ(contents.fingerprint, 0xabcdULL);
  EXPECT_EQ(contents.trials, 100u);
  EXPECT_EQ(contents.run_id, 0x5eedULL);
  EXPECT_EQ(contents.dropped_bytes, 0u);
  ASSERT_EQ(contents.records.size(), 4u);
  EXPECT_EQ(contents.records[0].kind, LedgerKind::kGrant);
  EXPECT_EQ(contents.records[1].kind, LedgerKind::kDone);
  EXPECT_EQ(contents.records[1].end, 8u);
  // The per-attempt detail survives the round trip byte for byte — a
  // restarted coordinator rebuilds its fleet tally from exactly this.
  EXPECT_EQ(contents.records[1].detail, R"([{"o":"Masked"}])");
  EXPECT_EQ(contents.records[0].detail, "");
  EXPECT_EQ(contents.records[3].kind, LedgerKind::kReclaim);
  fs::remove(path);
}

TEST(LeaseLedger, TornTailIsDroppedAndResumable) {
  const std::string path = temp_path("ledger_torn.bin");
  fs::remove(path);
  {
    LeaseLedgerWriter writer(path, 0x1111ULL, 50, 0x2222ULL);
    writer.append({LedgerKind::kGrant, 1, 0, 8, ""});
    writer.append({LedgerKind::kGrant, 2, 8, 16, ""});
  }
  // Tear the final record mid-write, as a coordinator crash would.
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 7);

  const LedgerContents torn = read_ledger(path);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_GT(torn.dropped_bytes, 0u);

  // Resume appends after the torn tail is truncated away.
  {
    LeaseLedgerWriter writer(path, torn.valid_bytes);
    writer.append({LedgerKind::kGrant, 2, 8, 16, ""});
    writer.append({LedgerKind::kDone, 1, 0, 8, R"([{"o":"SDC"}])"});
  }
  const LedgerContents healed = read_ledger(path);
  EXPECT_EQ(healed.dropped_bytes, 0u);
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.records[2].kind, LedgerKind::kDone);
  EXPECT_EQ(healed.records[2].detail, R"([{"o":"SDC"}])");
  fs::remove(path);
}

TEST(LeaseLedger, Phifill1LedgerIsRefusedByName) {
  // A ledger from before DONE records had to carry their detail cannot
  // rebuild the fleet tally, so it must not be replayed as if it could.
  const std::string path = temp_path("ledger_v1.bin");
  fs::remove(path);
  {
    std::ofstream old(path, std::ios::binary);
    old << "PHIFILL1" << std::string(24, '\0');
  }
  try {
    read_ledger(path);
    FAIL() << "a PHIFILL1 ledger must be refused";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("PHIFILL1"), std::string::npos)
        << error.what();
  }
  fs::remove(path);
}

TEST(LeaseLedger, ReplayRebuildsTableState) {
  // grant 1 [0,8) done; grant 2 [8,16) reclaimed; grant 3 [8,16) open.
  LeaseTable table(20, 80, 8);
  const auto grace = Clock::now() + std::chrono::seconds(60);
  table.restore_grant(1, 0, 8, grace);
  EXPECT_TRUE(table.complete(1, 0, 8));
  table.restore_grant(2, 8, 16, grace);
  table.restore_reclaim(2);
  table.restore_grant(3, 8, 16, grace);

  EXPECT_EQ(table.outstanding(), 1u);
  // Restored leases are orphaned until a worker adopts them.
  EXPECT_TRUE(table.adopt(3, 5, grace));
  EXPECT_FALSE(table.adopt(2, 5, grace));  // reclaimed: gone
  EXPECT_FALSE(table.adopt(1, 5, grace));  // done: gone
  // Fresh grants continue past every range the ledger issued.
  const auto next = table.grant(5, grace);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->begin, 16u);
}

// ---------------------------------------------------- run_range + merge

fi::CampaignConfig toy_campaign(std::size_t trials) {
  fi::CampaignConfig config;
  config.trials = trials;
  config.seed = 0xfab41cULL;
  return config;
}

/// A jobs=1 reference journal for the toy workload, written once.
fi::JournalContents reference_journal(const fi::CampaignConfig& base,
                                      const std::string& path) {
  fs::remove(path);
  fi::CampaignConfig config = base;
  config.journal_path = path;
  ToyWorkload::reset_run_counter();
  fi::TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                                 toy_supervisor_config());
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
    EXPECT_EQ(a[i].trial.record.site_index, b[i].trial.record.site_index);
    EXPECT_EQ(a[i].trial.record.element_index,
              b[i].trial.record.element_index);
    EXPECT_EQ(a[i].trial.record.flipped_bits[0],
              b[i].trial.record.flipped_bits[0]);
  }
}

TEST(CampaignRunRange, CommitsExactlyTheJobsOneRecords) {
  const fi::CampaignConfig base = toy_campaign(8);
  const fi::JournalContents reference =
      reference_journal(base, temp_path("range_ref.jnl"));

  // Execute the same attempt space in two disjoint ranges with a fresh
  // supervisor each — any process may run any range.
  std::vector<fi::JournalRecord> collected;
  for (const auto& [begin, end] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {4, reference.records.size()}, {0, 4}}) {
    ToyWorkload::reset_run_counter();
    fi::TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                                   toy_supervisor_config());
    supervisor.prepare_golden();
    fi::Campaign campaign(supervisor, base);
    fi::RangeHooks hooks;
    hooks.on_commit = [&collected](const fi::JournalRecord& record) {
      collected.push_back(record);
    };
    const fi::RangeResult result = campaign.run_range(begin, end, hooks);
    EXPECT_EQ(result.committed, end - begin);
    EXPECT_FALSE(result.cancelled);
    EXPECT_FALSE(result.aborted);
  }
  std::sort(collected.begin(), collected.end(),
            [](const fi::JournalRecord& a, const fi::JournalRecord& b) {
              return a.attempt_index < b.attempt_index;
            });
  expect_same_records(reference.records, collected);
}

TEST(CampaignRunRange, OnTickCancelKeepsAJobsOnePrefix) {
  // A revoked lease: on_tick turns false after a few commits while four
  // trials are in flight. Those are killed uncommitted; what was committed
  // is a contiguous prefix of the range, identical to the jobs=1 records.
  const fi::CampaignConfig base = toy_campaign(24);
  const fi::JournalContents reference =
      reference_journal(base, temp_path("range_cancel_ref.jnl"));
  constexpr std::uint64_t kBegin = 2;
  constexpr std::size_t kCancelAfter = 3;
  ToyWorkload::reset_run_counter();
  fi::TrialSupervisor supervisor(&phifi::testing::make_toy_normal,
                                 toy_supervisor_config());
  supervisor.prepare_golden();
  fi::CampaignConfig config = base;
  config.jobs = 4;
  fi::Campaign campaign(supervisor, config);
  std::vector<fi::JournalRecord> collected;
  fi::RangeHooks hooks;
  hooks.on_commit = [&collected](const fi::JournalRecord& record) {
    collected.push_back(record);
  };
  hooks.on_tick = [&collected] { return collected.size() < kCancelAfter; };
  const fi::RangeResult result =
      campaign.run_range(kBegin, reference.records.size(), hooks);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.committed, collected.size());
  ASSERT_GE(collected.size(), kCancelAfter);
  ASSERT_LT(kBegin + collected.size(), reference.records.size());
  expect_same_records({reference.records.begin() + kBegin,
                       reference.records.begin() + kBegin + collected.size()},
                      collected);
  EXPECT_EQ(supervisor.active_slots(), 0u);
}

/// Writes `records` as a shard journal with the given header.
void write_shard(const std::string& path, const fi::JournalHeader& header,
                 const std::vector<fi::JournalRecord>& records) {
  fs::remove(path);
  fi::CampaignJournalWriter writer(path, header,
                                   fi::JournalFsync::kOnClose);
  for (const fi::JournalRecord& record : records) writer.append(record);
  writer.sync();
}

struct MergeFixture : ::testing::Test {
  void SetUp() override {
    base = toy_campaign(8);
    reference = reference_journal(base, temp_path("merge_ref.jnl"));
    ASSERT_GE(reference.records.size(), 6u);
    shard0 = temp_path("merge_shard0.jnl");
    shard1 = temp_path("merge_shard1.jnl");
    out = temp_path("merge_out.jnl");
    fs::remove(out);
  }

  MergeOptions options_for(std::vector<std::string> shards) {
    MergeOptions options;
    options.shards = std::move(shards);
    options.out_path = out;
    return options;
  }

  MergeSummary merge(const MergeOptions& options) {
    return merge_shards(base, "Toy", reference.header.time_windows,
                        options);
  }

  fi::CampaignConfig base;
  fi::JournalContents reference;
  std::string shard0, shard1, out;
};

TEST_F(MergeFixture, SplitShardsMergeBitIdentical) {
  const std::size_t half = reference.records.size() / 2;
  write_shard(shard0, reference.header,
              {reference.records.begin(), reference.records.begin() + half});
  write_shard(shard1, reference.header,
              {reference.records.begin() + half, reference.records.end()});

  const MergeSummary summary = merge(options_for({shard1, shard0}));
  EXPECT_EQ(summary.merged, reference.records.size());
  EXPECT_EQ(summary.duplicates, 0u);
  EXPECT_EQ(summary.injected, base.trials);

  const fi::JournalContents merged = fi::read_journal(out);
  EXPECT_EQ(merged.header.fingerprint, reference.header.fingerprint);
  expect_same_records(reference.records, merged.records);
}

TEST_F(MergeFixture, ReclaimOverlapIsDeduped) {
  // Shard 1 re-executed [0, 3) after a reclaim: same indices, same seeds,
  // so the merge keeps one copy and the result is unchanged.
  write_shard(shard0, reference.header, reference.records);
  write_shard(shard1, reference.header,
              {reference.records.begin(), reference.records.begin() + 3});

  const MergeSummary summary = merge(options_for({shard0, shard1}));
  EXPECT_EQ(summary.duplicates, 3u);
  const fi::JournalContents merged = fi::read_journal(out);
  expect_same_records(reference.records, merged.records);
}

TEST_F(MergeFixture, GapIsRefusedNamingTheMissingRange) {
  // Drop the third record: its attempt index is in no shard.
  std::vector<fi::JournalRecord> holey = reference.records;
  const std::uint64_t missing = holey[2].attempt_index;
  holey.erase(holey.begin() + 2);
  write_shard(shard0, reference.header, holey);
  const std::string range = "[" + std::to_string(missing) + ", " +
                            std::to_string(missing + 1) + ")";
  try {
    merge(options_for({shard0}));
    FAIL() << "gap must refuse the merge";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(range), std::string::npos)
        << error.what();
  }
}

TEST_F(MergeFixture, MismatchedFingerprintNamesTheShard) {
  write_shard(shard0, reference.header, reference.records);
  fi::JournalHeader foreign = reference.header;
  foreign.fingerprint ^= 0x1234ULL;
  write_shard(shard1, foreign, {});
  try {
    merge(options_for({shard0, shard1}));
    FAIL() << "fingerprint mismatch must refuse the merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(shard1), std::string::npos) << what;
    EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
  }
}

TEST_F(MergeFixture, TornShardRefusedUnlessAllowed) {
  const std::size_t half = reference.records.size() / 2;
  write_shard(shard0, reference.header, reference.records);
  write_shard(shard1, reference.header,
              {reference.records.begin(),
               reference.records.begin() + half});
  // Tear shard1's final record, as a SIGKILLed worker would.
  fs::resize_file(shard1, fs::file_size(shard1) - 5);

  try {
    merge(options_for({shard0, shard1}));
    FAIL() << "torn shard must refuse the merge by default";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(shard1), std::string::npos)
        << error.what();
  }

  // With --allow-torn-tail the torn record is dropped; shard0 still has
  // every attempt, so the merged output is bit-identical anyway.
  MergeOptions options = options_for({shard0, shard1});
  options.allow_torn_tail = true;
  const MergeSummary summary = merge(options);
  const fi::JournalContents merged = fi::read_journal(out);
  EXPECT_GT(summary.duplicates, 0u);
  expect_same_records(reference.records, merged.records);
}

TEST_F(MergeFixture, IncompleteCoverageIsRefused) {
  const std::size_t half = reference.records.size() / 2;
  write_shard(shard0, reference.header,
              {reference.records.begin(),
               reference.records.begin() + half});
  EXPECT_THROW(merge(options_for({shard0})), std::runtime_error);
}

}  // namespace
}  // namespace phifi::fabric
