#include "service/snapshot.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "service/delta.h"
#include "util/fault_injector.h"

namespace mbta {
namespace {

std::string TempSnap(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

ServiceState MakeState() {
  ServiceState state;
  StableWorker w1;
  w1.id = 10;
  w1.worker.capacity = 2;
  w1.worker.unit_cost = 0.125;
  w1.worker.skills = {0.1, 0.9};
  StableWorker w2;
  w2.id = 20;
  w2.worker.reliability = 0.9;
  state.workers = {w1, w2};
  StableTask t1;
  t1.id = 5;
  t1.task.payment = 1.0 / 3.0;  // exercises 17-digit round-tripping
  t1.task.value = 2.5;
  t1.task.required_skills = {0.2, 0.8};
  state.tasks = {t1};
  state.pairs = {{10, 5}, {20, 5}};
  Delta pending;
  pending.kind = DeltaKind::kTaskPayment;
  pending.id = 5;
  pending.amount = 0.7;
  state.pending.push_back(pending);
  state.epoch = 3;
  state.wal_records = 12;
  state.reference_bits = 0x4004000000000000ull;
  return state;
}

TEST(SnapshotTest, RoundTripsByteIdentically) {
  const std::string path = TempSnap("snapshot_roundtrip.snap");
  const ServiceState state = MakeState();
  std::string error;
  ASSERT_TRUE(WriteSnapshot(state, path, &error)) << error;
  const auto loaded = ReadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  // The recovery contract is byte identity of the canonical form.
  EXPECT_EQ(SerializeServiceState(*loaded), SerializeServiceState(state));
  EXPECT_EQ(StateChecksum(*loaded), StateChecksum(state));
}

TEST(SnapshotTest, OverwriteIsAtomic) {
  const std::string path = TempSnap("snapshot_overwrite.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(ServiceState{}, path, &error)) << error;
  ASSERT_TRUE(WriteSnapshot(MakeState(), path, &error)) << error;
  const auto loaded = ReadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->epoch, 3u);
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(SnapshotTest, WriteFaultPointLeavesOldSnapshotIntact) {
  const std::string path = TempSnap("snapshot_fault.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(ServiceState{}, path, &error)) << error;
  FaultInjector faults;
  faults.Arm("service/snapshot/write");
  EXPECT_THROW(WriteSnapshot(MakeState(), path, &error, &faults),
               FaultInjectedError);
  const auto loaded = ReadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->epoch, 0u);  // still the old state
}

TEST(SnapshotTest, ChecksumMismatchIsRejected) {
  const std::string path = TempSnap("snapshot_badsum.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(MakeState(), path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Corrupt one state byte, leaving the trailer in place.
  bytes[bytes.size() / 2] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(SnapshotTest, TruncatedFileIsRejected) {
  const std::string path = TempSnap("snapshot_truncated.snap");
  std::string error;
  ASSERT_TRUE(WriteSnapshot(MakeState(), path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (const double frac : {0.25, 0.5, 0.9}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(
                  static_cast<double>(bytes.size()) * frac));
    out.close();
    EXPECT_FALSE(ReadSnapshot(path, &error).has_value())
        << "truncation to " << frac << " accepted";
  }
}

TEST(SnapshotTest, MissingTrailerIsRejected) {
  const std::string path = TempSnap("snapshot_notrailer.snap");
  std::ofstream(path) << SerializeServiceState(MakeState());
  std::string error;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("trailer"), std::string::npos) << error;
}

TEST(SnapshotTest, DanglingPairIsRejected) {
  const std::string path = TempSnap("snapshot_dangling.snap");
  ServiceState state = MakeState();
  state.pairs.push_back({999, 5});  // worker 999 does not exist
  std::string error;
  ASSERT_TRUE(WriteSnapshot(state, path, &error)) << error;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("unknown entity"), std::string::npos) << error;
}

TEST(SnapshotTest, DuplicateWorkerIdIsRejected) {
  const std::string path = TempSnap("snapshot_dup_worker.snap");
  ServiceState state = MakeState();
  state.workers.push_back(state.workers.front());  // id 10 twice
  std::string error;
  ASSERT_TRUE(WriteSnapshot(state, path, &error)) << error;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("duplicate worker id: 10"), std::string::npos)
      << error;
}

TEST(SnapshotTest, DuplicateTaskIdIsRejected) {
  const std::string path = TempSnap("snapshot_dup_task.snap");
  ServiceState state = MakeState();
  StableTask again = state.tasks.front();  // id 5, after another task
  state.tasks.push_back(StableTask{7, again.task});
  state.tasks.push_back(again);
  std::string error;
  ASSERT_TRUE(WriteSnapshot(state, path, &error)) << error;
  EXPECT_FALSE(ReadSnapshot(path, &error).has_value());
  EXPECT_NE(error.find("duplicate task id: 5"), std::string::npos) << error;
}

TEST(SnapshotTest, SerializeParseRoundTripsPendingDeltas) {
  const ServiceState state = MakeState();
  std::istringstream in(SerializeServiceState(state));
  std::string error;
  const auto parsed = ParseServiceState(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->pending.size(), 1u);
  EXPECT_TRUE(parsed->pending.front() == state.pending.front());
}

}  // namespace
}  // namespace mbta
