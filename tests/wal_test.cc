#include "service/wal.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "util/fault_injector.h"

namespace mbta {
namespace {

std::string TempWal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Delta MakeWorkerDelta(std::uint64_t id) {
  Delta d;
  d.kind = DeltaKind::kAddWorker;
  d.id = id;
  d.worker.capacity = 2;
  d.worker.unit_cost = 0.25;
  d.worker.skills = {0.5, 1.0};
  return d;
}

Delta MakeTaskDelta(std::uint64_t id) {
  Delta d;
  d.kind = DeltaKind::kAddTask;
  d.id = id;
  d.task.capacity = 1;
  d.task.payment = 1.5;
  d.task.value = 2.0;
  d.task.difficulty = 0.1;
  d.task.requester = 7;
  d.task.required_skills = {0.5, 0.25};
  return d;
}

std::uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::uint64_t>(in.tellg());
}

TEST(WalTest, RoundTripsDeltaAndEpochRecords) {
  const std::string path = TempWal("wal_roundtrip.wal");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, WalConfig{}, &error)) << error;
  ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(11), &error)) << error;
  ASSERT_TRUE(writer.AppendDelta(MakeTaskDelta(22), &error)) << error;
  EpochCommit commit;
  commit.epoch = 1;
  commit.mode = EpochMode::kDegraded;
  commit.num_deltas = 2;
  commit.value_bits = 0x3FF8000000000000ull;  // 1.5
  commit.state_crc = 0xDEADBEEFu;
  ASSERT_TRUE(writer.AppendEpoch(commit, &error)) << error;
  ASSERT_TRUE(writer.Sync(&error)) << error;
  writer.Close();

  const auto result = ReadWal(path, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_FALSE(result->tail_dropped);
  EXPECT_EQ(result->valid_bytes, FileSize(path));
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0].type, WalRecordType::kDelta);
  EXPECT_TRUE(result->records[0].delta == MakeWorkerDelta(11));
  EXPECT_TRUE(result->records[1].delta == MakeTaskDelta(22));
  EXPECT_EQ(result->records[2].type, WalRecordType::kEpoch);
  EXPECT_TRUE(result->records[2].epoch == commit);
}

TEST(WalTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = TempWal("wal_reopen.wal");
  std::string error;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalConfig{}, &error)) << error;
    ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(1), &error)) << error;
    ASSERT_TRUE(writer.Sync(&error)) << error;
  }
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalConfig{}, &error)) << error;
    ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(2), &error)) << error;
    ASSERT_TRUE(writer.Sync(&error)) << error;
  }
  const auto result = ReadWal(path, &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->records[0].delta.id, 1u);
  EXPECT_EQ(result->records[1].delta.id, 2u);
}

TEST(WalTest, EmptyFileReadsAsFreshLog) {
  const std::string path = TempWal("wal_empty.wal");
  std::ofstream(path, std::ios::binary).close();
  std::string error;
  const auto result = ReadWal(path, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(result->records.empty());
  EXPECT_FALSE(result->tail_dropped);
  EXPECT_EQ(result->valid_bytes, 0u);
}

TEST(WalTest, MissingFileIsAnError) {
  std::string error;
  EXPECT_FALSE(ReadWal(TempWal("wal_missing.wal"), &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(WalTest, ForeignMagicIsRejected) {
  const std::string path = TempWal("wal_foreign.wal");
  std::ofstream(path, std::ios::binary) << "NOTAWAL1 some garbage";
  std::string error;
  EXPECT_FALSE(ReadWal(path, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(WalTest, AppendFaultPointFiresBeforeWriting) {
  const std::string path = TempWal("wal_append_fault.wal");
  FaultInjector faults;
  faults.Arm("service/wal/append", 1, 1);  // second append dies
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, WalConfig{}, &error, &faults)) << error;
  ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(1), &error)) << error;
  EXPECT_THROW(writer.AppendDelta(MakeWorkerDelta(2), &error),
               FaultInjectedError);
  // Poisoned: every later call refuses.
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.AppendDelta(MakeWorkerDelta(3), &error));
  EXPECT_FALSE(writer.Sync(&error));
  writer.Close();
  // The failed record left no bytes behind; the first one survives.
  const auto result = ReadWal(path, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_FALSE(result->tail_dropped);
  ASSERT_EQ(result->records.size(), 1u);
}

TEST(WalTest, FsyncFaultPointPoisonsTheWriter) {
  const std::string path = TempWal("wal_fsync_fault.wal");
  FaultInjector faults;
  faults.Arm("service/wal/fsync");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, WalConfig{}, &error, &faults)) << error;
  ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(1), &error)) << error;
  EXPECT_THROW(writer.Sync(&error), FaultInjectedError);
  EXPECT_FALSE(writer.ok());
}

TEST(WalTest, TornWriteLeavesARecoverablePrefix) {
  const std::string path = TempWal("wal_torn.wal");
  FaultInjector faults;
  faults.Arm("service/wal/torn", 1, 1);  // second append tears
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, WalConfig{}, &error, &faults)) << error;
  ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(1), &error)) << error;
  EXPECT_THROW(writer.AppendDelta(MakeTaskDelta(2), &error),
               FaultInjectedError);
  writer.Close();

  auto result = ReadWal(path, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(result->tail_dropped);
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_LT(result->valid_bytes, FileSize(path));

  // Recovery amputates the tail; the log then reads clean and appends
  // continue from the amputation point.
  ASSERT_TRUE(TruncateWal(path, result->valid_bytes, &error)) << error;
  WalWriter writer2;
  ASSERT_TRUE(writer2.Open(path, WalConfig{}, &error)) << error;
  ASSERT_TRUE(writer2.AppendDelta(MakeTaskDelta(2), &error)) << error;
  ASSERT_TRUE(writer2.Sync(&error)) << error;
  writer2.Close();
  result = ReadWal(path, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_FALSE(result->tail_dropped);
  ASSERT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->records[1].delta.id, 2u);
}

TEST(WalTest, TruncationAtEveryByteYieldsAVerifiedPrefix) {
  // The crash-anywhere sweep: cut the file at every byte offset and
  // assert the reader returns exactly the records whose frames lie
  // fully within the cut, flagging the remainder as a dropped tail.
  const std::string path = TempWal("wal_everybyte.wal");
  std::string error;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalConfig{}, &error)) << error;
    ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(1), &error)) << error;
    ASSERT_TRUE(writer.AppendDelta(MakeTaskDelta(2), &error)) << error;
    EpochCommit commit;
    commit.epoch = 1;
    commit.num_deltas = 2;
    ASSERT_TRUE(writer.AppendEpoch(commit, &error)) << error;
    ASSERT_TRUE(writer.Sync(&error)) << error;
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const auto full = ReadWal(path, &error);
  ASSERT_TRUE(full.has_value()) << error;
  ASSERT_EQ(full->records.size(), 3u);

  // Frame boundaries: after the header, each record ends at a known
  // offset — reconstruct them from the full read.
  const std::string cut_path = TempWal("wal_everybyte_cut.wal");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    const auto result = ReadWal(cut_path, &error);
    if (cut == 0) {
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->records.empty());
      continue;
    }
    ASSERT_TRUE(result.has_value())
        << "cut at " << cut << " became a structural error: " << error;
    EXPECT_LE(result->valid_bytes, cut) << "cut at " << cut;
    // Every returned record must be one of the originally written ones,
    // in order.
    ASSERT_LE(result->records.size(), 3u) << "cut at " << cut;
    for (std::size_t i = 0; i < result->records.size(); ++i) {
      EXPECT_EQ(result->records[i].type, full->records[i].type);
    }
    // A cut strictly inside the byte stream always drops something.
    if (cut < bytes.size()) {
      EXPECT_TRUE(result->tail_dropped || result->valid_bytes == cut)
          << "cut at " << cut;
    } else {
      EXPECT_FALSE(result->tail_dropped);
      EXPECT_EQ(result->records.size(), 3u);
    }
  }
}

TEST(WalTest, BitFlipInvalidatesOnlyTheFlippedSuffix) {
  const std::string path = TempWal("wal_bitflip.wal");
  std::string error;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, WalConfig{}, &error)) << error;
    ASSERT_TRUE(writer.AppendDelta(MakeWorkerDelta(1), &error)) << error;
    ASSERT_TRUE(writer.AppendDelta(MakeTaskDelta(2), &error)) << error;
    ASSERT_TRUE(writer.Sync(&error)) << error;
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const auto full = ReadWal(path, &error);
  ASSERT_TRUE(full.has_value()) << error;
  // Flip the file's final byte (the tail of the second record's
  // payload): its checksum fails, the first record must still be served.
  std::string flipped = bytes;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x40);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
  const auto result = ReadWal(path, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(result->tail_dropped);
  ASSERT_GE(result->records.size(), 1u);
  EXPECT_EQ(result->records[0].delta.id, 1u);
}

}  // namespace
}  // namespace mbta
