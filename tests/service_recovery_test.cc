#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/market_service.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace mbta {
namespace {

// One step of a deterministic service driver: either a Submit or a
// RunEpoch. The same op list is replayed against an uninterrupted twin
// and a fault-injected victim, so both see byte-identical inputs.
struct Op {
  bool run_epoch = false;
  Delta delta;
};

std::vector<Op> MakeOps(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::vector<std::uint64_t> workers;
  std::vector<std::uint64_t> tasks;
  std::uint64_t next_worker = 1;
  std::uint64_t next_task = 1000;
  for (int i = 0; i < count; ++i) {
    Op op;
    const double roll = rng.NextDouble();
    if (roll < 0.2 && i > 0) {
      op.run_epoch = true;
      ops.push_back(op);
      continue;
    }
    Delta& d = op.delta;
    const double kind = rng.NextDouble();
    if (kind < 0.3 || (workers.empty() && tasks.empty())) {
      d.kind = DeltaKind::kAddWorker;
      d.id = next_worker++;
      d.worker.capacity = 1 + static_cast<int>(rng.NextBounded(3));
      d.worker.unit_cost = rng.NextDouble(0.0, 0.6);
      workers.push_back(d.id);
    } else if (kind < 0.6 || tasks.empty()) {
      d.kind = DeltaKind::kAddTask;
      d.id = next_task++;
      d.task.capacity = 1 + static_cast<int>(rng.NextBounded(2));
      d.task.payment = rng.NextDouble(0.2, 2.0);
      d.task.value = rng.NextDouble(0.5, 3.0);
      tasks.push_back(d.id);
    } else if (kind < 0.7 && !workers.empty()) {
      const std::size_t at = rng.NextBounded(workers.size());
      d.kind = DeltaKind::kRemoveWorker;
      d.id = workers[at];
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.8 && !tasks.empty()) {
      const std::size_t at = rng.NextBounded(tasks.size());
      d.kind = DeltaKind::kRemoveTask;
      d.id = tasks[at];
      tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.9 || workers.empty()) {
      d.kind = DeltaKind::kTaskPayment;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.amount = rng.NextDouble(0.1, 2.5);
    } else {
      d.kind = DeltaKind::kWorkerCapacity;
      d.id = workers[rng.NextBounded(workers.size())];
      d.capacity = 1 + static_cast<int>(rng.NextBounded(4));
    }
    ops.push_back(op);
  }
  Op flush;
  flush.run_epoch = true;
  ops.push_back(flush);
  return ops;
}

std::string CleanPaths(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());
  std::remove((path + ".snap.tmp").c_str());
  return path;
}

ServiceConfig BaseConfig() {
  ServiceConfig config;
  config.epoch_batch = 4;
  config.snapshot_every = 2;
  // Crash tests must not involve the wall clock: after a restart the
  // previous-epoch timing resets, so a time-based degrade decision could
  // diverge from the twin's. Degradation replay is tested separately.
  config.degrade_after_ms = 0.0;
  return config;
}

// Runs the op list start to finish with no faults, recording the
// canonical state bytes at every WAL-record boundary. The service's
// state is a deterministic function of the log prefix, so the record
// count uniquely keys each digest.
std::map<std::uint64_t, std::string> RunTwin(const std::vector<Op>& ops,
                                             const std::string& wal_path) {
  ServiceConfig config = BaseConfig();
  config.wal_path = wal_path;
  MarketService service(config);
  std::string error;
  EXPECT_TRUE(service.Start(&error)) << error;
  std::map<std::uint64_t, std::string> digests;
  digests[service.state().wal_records] =
      SerializeServiceState(service.state());
  for (const Op& op : ops) {
    if (op.run_epoch) {
      EXPECT_TRUE(service.RunEpoch(&error)) << error;
    } else {
      service.Submit(op.delta);
    }
    digests[service.state().wal_records] =
        SerializeServiceState(service.state());
  }
  return digests;
}

TEST(ServiceRecoveryTest, CrashAtEveryFaultPointRecoversByteIdentically) {
  const std::vector<std::string> points = {
      "service/wal/append",
      "service/wal/fsync",
      "service/wal/torn",
      "service/snapshot/write",
  };
  const std::vector<std::uint64_t> fire_at = {0, 1, 3, 7};
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    const std::vector<Op> ops = MakeOps(seed, 60);
    const std::map<std::uint64_t, std::string> digests =
        RunTwin(ops, CleanPaths("recovery_twin_" + std::to_string(seed)));
    for (const std::string& point : points) {
      for (const std::uint64_t hit : fire_at) {
        const std::string path = CleanPaths(
            "recovery_victim_" + std::to_string(seed) + "_" +
            std::to_string(hit) + "_" + point.substr(point.rfind('/') + 1));
        FaultInjector faults;
        faults.Arm(point, hit, 1);
        bool crashed = false;
        {
          ServiceConfig config = BaseConfig();
          config.wal_path = path;
          config.faults = &faults;
          MarketService victim(config);
          try {
            std::string error;
            if (!victim.Start(&error)) {
              crashed = true;
            }
            for (const Op& op : ops) {
              if (crashed) break;
              if (op.run_epoch) {
                victim.RunEpoch();
              } else {
                victim.Submit(op.delta);
              }
            }
          } catch (const FaultInjectedError&) {
            crashed = true;
            EXPECT_TRUE(victim.failed());
          }
        }
        // Whether or not the fault fired (high fire_at hits may never be
        // reached), restart-and-recover must land exactly on a state the
        // uninterrupted twin passed through.
        ServiceConfig config = BaseConfig();
        config.wal_path = path;
        MarketService recovered(config);
        std::string error;
        ASSERT_TRUE(recovered.Start(&error))
            << point << " fire_at=" << hit << " seed=" << seed << ": "
            << error;
        const std::uint64_t at = recovered.state().wal_records;
        const auto expected = digests.find(at);
        ASSERT_NE(expected, digests.end())
            << point << " fire_at=" << hit << " seed=" << seed
            << " recovered to unseen record count " << at
            << " (crashed=" << crashed << ")";
        EXPECT_EQ(SerializeServiceState(recovered.state()), expected->second)
            << point << " fire_at=" << hit << " seed=" << seed;
      }
    }
  }
}

TEST(ServiceRecoveryTest, WalTruncationSweepRecoversAPrefixState) {
  const std::vector<Op> ops = MakeOps(7, 40);
  const std::string twin_path = CleanPaths("recovery_sweep_twin.wal");
  // Pure-WAL twin: no snapshots, so every recovery below replays from
  // scratch and the digest map covers every record boundary.
  std::map<std::uint64_t, std::string> digests;
  {
    ServiceConfig config = BaseConfig();
    config.snapshot_every = 0;
    config.wal_path = twin_path;
    MarketService service(config);
    std::string error;
    ASSERT_TRUE(service.Start(&error)) << error;
    digests[0] = SerializeServiceState(service.state());
    for (const Op& op : ops) {
      if (op.run_epoch) {
        ASSERT_TRUE(service.RunEpoch(&error)) << error;
      } else {
        service.Submit(op.delta);
      }
      digests[service.state().wal_records] =
          SerializeServiceState(service.state());
    }
  }
  std::ifstream in(twin_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 8u);

  const std::string cut_path = CleanPaths("recovery_sweep_cut.wal");
  std::uint64_t prev_records = 0;
  for (std::size_t cut = 0; cut <= bytes.size();
       cut = (cut + 3 <= bytes.size() || cut == bytes.size())
                 ? cut + 3
                 : bytes.size()) {
    CleanPaths("recovery_sweep_cut.wal");
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    ServiceConfig config = BaseConfig();
    config.snapshot_every = 0;
    config.wal_path = cut_path;
    MarketService recovered(config);
    std::string error;
    ASSERT_TRUE(recovered.Start(&error)) << "cut at " << cut << ": " << error;
    const std::uint64_t at = recovered.state().wal_records;
    const auto expected = digests.find(at);
    ASSERT_NE(expected, digests.end()) << "cut at " << cut;
    EXPECT_EQ(SerializeServiceState(recovered.state()), expected->second)
        << "cut at " << cut;
    // More bytes can only mean more (or equally many) replayed records.
    EXPECT_GE(at, prev_records) << "cut at " << cut;
    prev_records = at;
  }
  // The full file recovers the full run.
  EXPECT_EQ(prev_records, digests.rbegin()->first);
}

TEST(ServiceRecoveryTest, DegradedEpochsReplayFromTheLog) {
  // The one wall-clock decision (degrade) is recorded in the epoch WAL
  // record, so a clock-free replay reproduces a run in which the clock
  // forced degraded epochs.
  const std::string path = CleanPaths("recovery_degraded.wal");
  std::string live_digest;
  {
    ServiceConfig config = BaseConfig();
    config.wal_path = path;
    config.snapshot_every = 0;  // force a full replay below
    config.degrade_after_ms = 10.0;
    FakeClock clock(0.0, 100.0);  // every epoch measures over-threshold
    config.clock = &clock;
    MarketService service(config);
    std::string error;
    ASSERT_TRUE(service.Start(&error)) << error;
    for (const Op& op : MakeOps(31, 50)) {
      if (op.run_epoch) {
        ASSERT_TRUE(service.RunEpoch(&error)) << error;
      } else {
        service.Submit(op.delta);
      }
    }
    EXPECT_GT(service.stats().counters.Value("service/epoch/degraded"), 0u);
    live_digest = SerializeServiceState(service.state());
  }
  ServiceConfig config = BaseConfig();
  config.wal_path = path;  // note: no clock, degrade_after_ms = 0
  config.snapshot_every = 0;
  MarketService recovered(config);
  std::string error;
  ASSERT_TRUE(recovered.Start(&error)) << error;
  EXPECT_EQ(SerializeServiceState(recovered.state()), live_digest);
  EXPECT_GT(
      recovered.stats().counters.Value("service/recovery/replayed_epochs"),
      0u);
}

TEST(ServiceRecoveryTest, SnapshotAndFullReplayAgreeByteForByte) {
  const std::string path = CleanPaths("recovery_snapshot.wal");
  std::string live_digest;
  {
    ServiceConfig config = BaseConfig();
    config.wal_path = path;
    MarketService service(config);
    std::string error;
    ASSERT_TRUE(service.Start(&error)) << error;
    for (const Op& op : MakeOps(5, 60)) {
      if (op.run_epoch) {
        ASSERT_TRUE(service.RunEpoch(&error)) << error;
      } else {
        service.Submit(op.delta);
      }
    }
    EXPECT_GT(service.stats().counters.Value("service/snapshot/written"), 0u);
    live_digest = SerializeServiceState(service.state());
  }
  std::uint64_t with_snapshot_replays = 0;
  {
    ServiceConfig config = BaseConfig();
    config.wal_path = path;
    MarketService recovered(config);
    std::string error;
    ASSERT_TRUE(recovered.Start(&error)) << error;
    EXPECT_EQ(SerializeServiceState(recovered.state()), live_digest);
    with_snapshot_replays = recovered.stats().counters.Value(
        "service/recovery/replayed_deltas");
  }
  // Delete the snapshot: recovery must replay more records yet land on
  // the same bytes.
  std::remove((path + ".snap").c_str());
  ServiceConfig config = BaseConfig();
  config.wal_path = path;
  MarketService recovered(config);
  std::string error;
  ASSERT_TRUE(recovered.Start(&error)) << error;
  EXPECT_EQ(SerializeServiceState(recovered.state()), live_digest);
  EXPECT_GT(
      recovered.stats().counters.Value("service/recovery/replayed_deltas"),
      with_snapshot_replays);
}

TEST(ServiceRecoveryTest, RepeatedCrashRecoverCyclesStayConsistent) {
  // Soak: crash the service at a rolling fault point, recover, continue
  // feeding the stream from where the victim left off, crash again.
  // After every recovery the state digest must match an uninterrupted
  // twin at the same record count.
  const std::vector<Op> ops = MakeOps(97, 120);
  const std::map<std::uint64_t, std::string> digests =
      RunTwin(ops, CleanPaths("recovery_soak_twin.wal"));
  const std::string path = CleanPaths("recovery_soak.wal");
  std::size_t next_op = 0;
  int crashes = 0;
  while (next_op < ops.size()) {
    FaultInjector faults;
    faults.Arm("service/wal/append", 9, 1);
    faults.Arm("service/wal/torn", 17, 1);
    ServiceConfig config = BaseConfig();
    config.wal_path = path;
    config.faults = &faults;
    MarketService service(config);
    std::string error;
    ASSERT_TRUE(service.Start(&error)) << error;
    const auto expected = digests.find(service.state().wal_records);
    ASSERT_NE(expected, digests.end()) << "after crash " << crashes;
    ASSERT_EQ(SerializeServiceState(service.state()), expected->second)
        << "after crash " << crashes;
    // The armed points (append, torn) both fire before a record commits,
    // so the crashed op left nothing in the log and the driver can simply
    // resume at the op that crashed. (An fsync fault would not qualify:
    // the buffered record survives the close, so the op IS committed.)
    try {
      for (; next_op < ops.size(); ++next_op) {
        if (ops[next_op].run_epoch) {
          service.RunEpoch();
        } else {
          service.Submit(ops[next_op].delta);
        }
      }
    } catch (const FaultInjectedError&) {
      ++crashes;
      // The op that crashed never committed; retry it after recovery.
    }
  }
  EXPECT_GT(crashes, 0) << "soak never exercised a crash";
}

TEST(ServiceRecoveryTest, RestartUnderADifferentConfigIsRefused) {
  // The WAL header records the config the log was written under; a
  // restart configured differently would replay into a diverged state,
  // so it is refused with the first differing field named.
  const std::vector<Op> ops = MakeOps(11, 30);
  const std::string path = CleanPaths("recovery_config.wal");
  ServiceConfig config = BaseConfig();
  config.wal_path = path;
  config.objective.alpha = 0.2;
  std::string live;
  {
    MarketService service(config);
    std::string error;
    ASSERT_TRUE(service.Start(&error)) << error;
    for (const Op& op : ops) {
      if (op.run_epoch) {
        ASSERT_TRUE(service.RunEpoch(&error)) << error;
      } else {
        service.Submit(op.delta);
      }
    }
    live = SerializeServiceState(service.state());
  }
  ServiceConfig other_alpha = config;
  other_alpha.objective.alpha = 0.5;
  ServiceConfig other_budget = config;
  other_budget.epoch_max_work = 1000;
  for (const auto& [changed, field] :
       {std::pair{other_alpha, "objective.alpha"},
        std::pair{other_budget, "epoch_max_work"}}) {
    MarketService service(changed);
    std::string error;
    EXPECT_FALSE(service.Start(&error)) << field;
    EXPECT_NE(error.find(field), std::string::npos) << error;
  }
  MarketService same(config);
  std::string error;
  ASSERT_TRUE(same.Start(&error)) << error;
  EXPECT_EQ(SerializeServiceState(same.state()), live);
}

}  // namespace
}  // namespace mbta
