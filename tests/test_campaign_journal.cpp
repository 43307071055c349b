#include "core/campaign_journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "radiation/beam.hpp"

namespace phifi::fi {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "phifi_" + name;
}

JournalHeader sample_header() {
  JournalHeader header;
  header.fingerprint = 0x1122334455667788ULL;
  header.time_windows = 4;
  header.workload = "Toy";
  header.golden_digest = 0xfeedfacecafef00dULL;
  header.golden_seconds = 0.375;
  header.golden_output_bytes = 512;
  return header;
}

/// A TrialResult with every serialized field set to a distinctive value.
TrialResult sample_trial(int i) {
  TrialResult trial;
  trial.outcome = i % 3 == 0   ? Outcome::kMasked
                  : i % 3 == 1 ? Outcome::kSdc
                               : Outcome::kDue;
  trial.due_kind = trial.outcome == Outcome::kDue ? DueKind::kRlimit
                                                  : DueKind::kNone;
  trial.window = static_cast<unsigned>(i % 4);
  trial.seconds = 0.125 * (i + 1);
  trial.heartbeats = 16u + static_cast<unsigned>(i);
  trial.escalated_kill = (i % 2) == 1;
  trial.record.injected = true;
  trial.record.changed = true;
  trial.record.model = FaultModel::kDouble;
  trial.record.frame = FrameKind::kWorker;
  trial.record.worker = i;
  trial.record.site_index = 3u + static_cast<unsigned>(i);
  trial.record.element_index = 40u + static_cast<unsigned>(i);
  trial.record.burst_elements = 2;
  trial.record.flipped_bits[0] = 0xdeadbeefULL + i;
  trial.record.flipped_bits[1] = 7;
  trial.record.flipped_count = 2;
  trial.record.progress_fraction = 0.25 + 0.01 * i;
  std::snprintf(trial.record.site_name, sizeof trial.record.site_name,
                "site_%d", i);
  std::snprintf(trial.record.category, sizeof trial.record.category, "data");
  return trial;
}

void expect_trial_eq(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.due_kind, b.due_kind);
  EXPECT_EQ(a.window, b.window);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.heartbeats, b.heartbeats);
  EXPECT_EQ(a.escalated_kill, b.escalated_kill);
  EXPECT_EQ(a.record.injected, b.record.injected);
  EXPECT_EQ(a.record.changed, b.record.changed);
  EXPECT_EQ(a.record.model, b.record.model);
  EXPECT_EQ(a.record.frame, b.record.frame);
  EXPECT_EQ(a.record.worker, b.record.worker);
  EXPECT_EQ(a.record.site_index, b.record.site_index);
  EXPECT_EQ(a.record.element_index, b.record.element_index);
  EXPECT_EQ(a.record.burst_elements, b.record.burst_elements);
  EXPECT_EQ(a.record.flipped_bits[0], b.record.flipped_bits[0]);
  EXPECT_EQ(a.record.flipped_bits[1], b.record.flipped_bits[1]);
  EXPECT_EQ(a.record.flipped_count, b.record.flipped_count);
  EXPECT_DOUBLE_EQ(a.record.progress_fraction, b.record.progress_fraction);
  EXPECT_STREQ(a.record.site_name, b.record.site_name);
  EXPECT_STREQ(a.record.category, b.record.category);
}

/// Writes a journal with `count` sample records and returns its path.
std::string write_sample_journal(const std::string& name, int count) {
  const std::string path = temp_path(name);
  fs::remove(path);
  CampaignJournalWriter writer(path, sample_header(),
                               JournalFsync::kOnClose);
  for (int i = 0; i < count; ++i) {
    JournalRecord record;
    record.attempt_index = static_cast<std::uint64_t>(i);
    record.trial = sample_trial(i);
    writer.append(record);
  }
  writer.sync();
  return path;
}

void flip_byte_at(const std::string& path, std::uint64_t offset) {
  std::fstream stream(path,
                      std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(stream);
  stream.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  stream.read(&byte, 1);
  byte ^= 0x40;
  stream.seekp(static_cast<std::streamoff>(offset));
  stream.write(&byte, 1);
}

TEST(CampaignJournal, Crc32MatchesKnownVector) {
  // The canonical CRC-32/IEEE check value for "123456789".
  EXPECT_EQ(journal_crc32("123456789", 9), 0xcbf43926u);
}

TEST(CampaignJournal, RoundTripsHeaderAndRecords) {
  const std::string path = write_sample_journal("roundtrip.jnl", 3);
  const JournalContents contents = read_journal(path);
  EXPECT_EQ(contents.header.fingerprint, sample_header().fingerprint);
  EXPECT_EQ(contents.header.time_windows, 4u);
  EXPECT_EQ(contents.header.workload, "Toy");
  EXPECT_EQ(contents.header.golden_digest, sample_header().golden_digest);
  EXPECT_DOUBLE_EQ(contents.header.golden_seconds,
                   sample_header().golden_seconds);
  EXPECT_EQ(contents.header.golden_output_bytes,
            sample_header().golden_output_bytes);
  EXPECT_EQ(contents.dropped_bytes, 0u);
  EXPECT_EQ(contents.valid_bytes, fs::file_size(path));
  ASSERT_EQ(contents.records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(contents.records[i].attempt_index,
              static_cast<std::uint64_t>(i));
    expect_trial_eq(contents.records[i].trial, sample_trial(i));
  }
}

TEST(CampaignJournal, BatchFsyncSyncsEveryKRecordsAndOnSync) {
  const std::string path = temp_path("batch.jnl");
  fs::remove(path);
  JournalBatchPolicy batch;
  batch.max_records = 3;
  batch.max_delay_ms = 1e9;  // count-triggered only in this test
  CampaignJournalWriter writer(path, sample_header(), JournalFsync::kBatch,
                               batch);
  JournalRecord record;
  record.trial = sample_trial(0);

  record.attempt_index = 0;
  writer.append(record);
  record.attempt_index = 1;
  writer.append(record);
  EXPECT_EQ(writer.unsynced(), 2u);  // below the batch size: not yet synced
  record.attempt_index = 2;
  writer.append(record);
  EXPECT_EQ(writer.unsynced(), 0u);  // third append triggered the fsync

  record.attempt_index = 3;
  writer.append(record);
  EXPECT_EQ(writer.unsynced(), 1u);
  writer.sync();  // the interrupt/stop path forces the partial batch out
  EXPECT_EQ(writer.unsynced(), 0u);

  // Whatever the fsync cadence, the byte stream is the same journal.
  const JournalContents contents = read_journal(path);
  ASSERT_EQ(contents.records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(contents.records[i].attempt_index, i);
  }
}

TEST(CampaignJournal, TruncatedTailIsDroppedNotFatal) {
  const std::string path = write_sample_journal("truncated.jnl", 3);
  // Chop mid-way into the last record: the torn write of a crash.
  fs::resize_file(path, fs::file_size(path) - 5);
  const JournalContents contents = read_journal(path);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_GT(contents.dropped_bytes, 0u);
  EXPECT_EQ(contents.valid_bytes + contents.dropped_bytes,
            fs::file_size(path));
  expect_trial_eq(contents.records[1].trial, sample_trial(1));
}

TEST(CampaignJournal, CorruptedChecksumTailIsDropped) {
  // Find the byte range of the last record by diffing valid_bytes before
  // and after appending it.
  const std::string path = write_sample_journal("corrupt.jnl", 2);
  const std::uint64_t two_records = read_journal(path).valid_bytes;
  {
    CampaignJournalWriter writer(path, two_records, JournalFsync::kOnClose);
    JournalRecord record;
    record.attempt_index = 2;
    record.trial = sample_trial(2);
    writer.append(record);
  }
  ASSERT_EQ(read_journal(path).records.size(), 3u);

  // Flip a payload byte of the last record; its CRC no longer matches.
  flip_byte_at(path, two_records + 4 + 8);
  const JournalContents contents = read_journal(path);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_GT(contents.dropped_bytes, 0u);
  EXPECT_EQ(contents.valid_bytes, two_records);
}

TEST(CampaignJournal, AppendAfterTornTailTruncatesIt) {
  const std::string path = write_sample_journal("reappend.jnl", 3);
  fs::resize_file(path, fs::file_size(path) - 5);
  const JournalContents before = read_journal(path);
  ASSERT_EQ(before.records.size(), 2u);

  // Reopen for append at the last valid offset, as a resume does.
  {
    CampaignJournalWriter writer(path, before.valid_bytes,
                                 JournalFsync::kEveryRecord);
    JournalRecord record;
    record.attempt_index = 7;
    record.trial = sample_trial(7);
    writer.append(record);
  }
  const JournalContents after = read_journal(path);
  EXPECT_EQ(after.dropped_bytes, 0u);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.records[2].attempt_index, 7u);
  expect_trial_eq(after.records[2].trial, sample_trial(7));
}

TEST(CampaignJournal, MissingFileThrows) {
  EXPECT_THROW(read_journal(temp_path("does_not_exist.jnl")),
               std::runtime_error);
}

TEST(CampaignJournal, BadMagicThrows) {
  const std::string path = temp_path("badmagic.jnl");
  {
    std::ofstream stream(path, std::ios::binary | std::ios::trunc);
    stream << "NOTAJRNL and then some bytes";
  }
  EXPECT_THROW(read_journal(path), std::runtime_error);
}

TEST(CampaignJournal, CorruptHeaderThrows) {
  const std::string path = write_sample_journal("badheader.jnl", 1);
  // Flip a byte inside the header payload (magic is 8 bytes, then the
  // u32 size, then the payload).
  flip_byte_at(path, 8 + 4 + 2);
  EXPECT_THROW(read_journal(path), std::runtime_error);
}

TEST(CampaignJournal, FingerprintCoversResumeCriticalFields) {
  CampaignConfig config;
  const std::uint64_t base = campaign_fingerprint(config, "Toy", 4);
  EXPECT_EQ(campaign_fingerprint(config, "Toy", 4), base);

  CampaignConfig other = config;
  other.seed ^= 1;
  EXPECT_NE(campaign_fingerprint(other, "Toy", 4), base);

  other = config;
  other.trials += 1;
  EXPECT_NE(campaign_fingerprint(other, "Toy", 4), base);

  other = config;
  other.models.pop_back();
  EXPECT_NE(campaign_fingerprint(other, "Toy", 4), base);

  other = config;
  other.latest_fraction = 0.5;
  EXPECT_NE(campaign_fingerprint(other, "Toy", 4), base);

  EXPECT_NE(campaign_fingerprint(config, "DGEMM", 4), base);
  EXPECT_NE(campaign_fingerprint(config, "Toy", 8), base);
}

TEST(CampaignJournal, InjectFingerprintIsUnchanged) {
  // Pinned values: journals written before beam campaigns joined the
  // executor must still resume.
  EXPECT_EQ(campaign_fingerprint(CampaignConfig{}, "Toy", 4),
            0xb0618c63c23b770eULL);
  EXPECT_EQ(campaign_fingerprint(CampaignConfig{}, "LUD", 10),
            0x29160e89ded28659ULL);
}

TEST(CampaignJournal, BeamAndInjectCampaignsHaveDifferentFingerprints) {
  const phi::ResourceMap map =
      phi::ResourceMap::for_spec(phi::DeviceSpec::knights_corner_3120a());
  const radiation::DeviceSensitivity sensitivity =
      radiation::DeviceSensitivity::knc_3120a(map);
  const radiation::BeamPlan plan(sensitivity);
  CampaignConfig inject;
  inject.seed = 11;
  CampaignConfig beam = inject;
  beam.plan = &plan;
  beam.min_sdc = 100;
  beam.min_due = 40;
  const std::uint64_t base = campaign_fingerprint(beam, "CLAMR", 4);
  EXPECT_NE(campaign_fingerprint(inject, "CLAMR", 4), base);

  // The beam's finish line and flux are part of its identity.
  CampaignConfig other = beam;
  other.min_sdc = 99;
  EXPECT_NE(campaign_fingerprint(other, "CLAMR", 4), base);
  other = beam;
  other.min_due = 41;
  EXPECT_NE(campaign_fingerprint(other, "CLAMR", 4), base);
  const radiation::BeamPlan slower(sensitivity, 1.0e5);
  other = beam;
  other.plan = &slower;
  EXPECT_NE(campaign_fingerprint(other, "CLAMR", 4), base);
}

}  // namespace
}  // namespace phifi::fi
