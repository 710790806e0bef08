// Unit tests of the benchmark harness's own helpers: percentiles with
// their sample-count rule, the steady-state churn generator, the
// open-loop schedule's due-time and lateness accounting, and the
// service-churn digest.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/churn.h"
#include "harness/host_speed.h"
#include "harness/open_loop.h"
#include "harness/tail.h"
#include "harness/workloads.h"
#include "service/delta.h"
#include "util/clock.h"

namespace mbta::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> xs;
  for (int i = 1; i <= n; ++i) xs.push_back(i);
  return xs;
}

TEST(TailTest, PercentileCarriesItsSampleCounts) {
  const TailStat p90 = Tail(OneTo(100), 90.0);
  EXPECT_DOUBLE_EQ(p90.value, 90.1);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.above, 10u);
  const TailStat p50 = Tail(OneTo(100), 50.0);
  EXPECT_DOUBLE_EQ(p50.value, 50.5);
  EXPECT_EQ(p50.above, 50u);
}

TEST(TailTest, P90NeedsTenSamplesAboveIt) {
  // Linear interpolation puts p90 of n samples at rank 0.9 (n - 1), so
  // 92 samples are the first to leave ten strictly above it.
  EXPECT_FALSE(TailIsResolved(OneTo(91), 90.0));
  EXPECT_TRUE(TailIsResolved(OneTo(92), 90.0));
  EXPECT_FALSE(TailIsResolved({}, 90.0));
}

TEST(TailTest, TiesDoNotCountAsAbove) {
  const std::vector<double> flat(500, 3.0);
  EXPECT_EQ(Tail(flat, 90.0).above, 0u);
  EXPECT_FALSE(TailIsResolved(flat, 90.0));
}

TEST(TailTest, BestPerItemTakesEachItemsMinimumOverRepeats) {
  EXPECT_EQ(BestPerItem({5, 1, 7, 4, 3, 9, 6}, 3),
            (std::vector<double>{4, 1, 7}));
  EXPECT_EQ(BestPerItem({2, 8}, 3), (std::vector<double>{2, 8}));
  EXPECT_TRUE(BestPerItem({}, 3).empty());
}

TEST(HostSpeedTest, ScalesEachItemByTheProbesAroundIt) {
  const double ref = 6.0;
  // A host that slows to 2/3 of its speed halfway through: the items
  // well inside each half are scaled by that half's probe.
  const std::vector<double> probe{ref, ref, ref, ref, 1.5 * ref,
                                  1.5 * ref, 1.5 * ref, 1.5 * ref};
  const std::vector<double> scaled =
      AtReferenceSpeed({10, 10, 10, 10, 15, 15, 15, 15}, probe, ref);
  EXPECT_EQ(scaled[0], 10.0);
  EXPECT_EQ(scaled[1], 10.0);
  EXPECT_EQ(scaled[6], 10.0);
  EXPECT_EQ(scaled[7], 10.0);
  EXPECT_TRUE(AtReferenceSpeed({}, {}, ref).empty());
}

TEST(HostSpeedTest, OneDisturbedProbeDoesNotScaleItsItem) {
  const double ref = 6.0;
  const std::vector<double> scaled = AtReferenceSpeed(
      {10, 10, 10, 10, 10}, {ref, ref, 0.25 * ref, ref, ref}, ref);
  EXPECT_EQ(scaled, (std::vector<double>{10, 10, 10, 10, 10}));
}

TEST(HostSpeedTest, ProbeRepeatsTheSameWork) {
  for (const auto kind : {HostProbe::Kind::kArrays,
                          HostProbe::Kind::kArraysAndStreams}) {
    HostProbe a(kind), b(kind);
    EXPECT_GT(a.RunMs(), 0.0);
    EXPECT_GT(b.RunMs(), 0.0);
    a.RunMs();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.checksum()),
              std::bit_cast<std::uint64_t>(b.checksum()));
    EXPECT_NE(a.checksum(), 0.0);
  }
  HostProbe arrays(HostProbe::Kind::kArrays);
  HostProbe streams(HostProbe::Kind::kArraysAndStreams);
  arrays.RunMs();
  streams.RunMs();
  EXPECT_NE(arrays.checksum(), streams.checksum());
}

std::vector<std::string> ChurnStream(std::uint64_t seed, int steps) {
  SteadyChurn churn(SteadyChurn::Config{50, 40}, seed);
  std::vector<std::string> lines;
  for (const Delta& d : churn.Populate()) lines.push_back(FormatDelta(d));
  for (int i = 0; i < steps; ++i) lines.push_back(FormatDelta(churn.Next()));
  return lines;
}

TEST(SteadyChurnTest, SameSeedSameStream) {
  EXPECT_EQ(ChurnStream(7, 3000), ChurnStream(7, 3000));
  EXPECT_NE(ChurnStream(7, 3000), ChurnStream(8, 3000));
}

TEST(SteadyChurnTest, StaysInItsBandAndTouchesOnlyLiveEntities) {
  const SteadyChurn::Config config{200, 120, 0.05, 0.2};
  SteadyChurn churn(config, 11);
  std::set<std::uint64_t> workers, tasks;
  const auto apply = [&](const Delta& d) {
    switch (d.kind) {
      case DeltaKind::kAddWorker:
        EXPECT_TRUE(workers.insert(d.id).second);
        break;
      case DeltaKind::kAddTask:
        EXPECT_TRUE(tasks.insert(d.id).second);
        break;
      case DeltaKind::kRemoveWorker:
        EXPECT_EQ(workers.erase(d.id), 1u);
        break;
      case DeltaKind::kRemoveTask:
        EXPECT_EQ(tasks.erase(d.id), 1u);
        break;
      case DeltaKind::kWorkerCapacity:
        EXPECT_EQ(workers.count(d.id), 1u);
        break;
      default:
        EXPECT_EQ(tasks.count(d.id), 1u);
        break;
    }
    EXPECT_TRUE(ValidateDelta(d));
  };
  for (const Delta& d : churn.Populate()) apply(d);
  EXPECT_EQ(workers.size(), 200u);
  EXPECT_EQ(tasks.size(), 120u);
  const std::size_t worker_band = churn.band(200);
  const std::size_t task_band = churn.band(120);
  EXPECT_EQ(worker_band, 10u);
  EXPECT_EQ(task_band, 6u);
  int patches = 0, departures = 0;
  for (int i = 0; i < 20000; ++i) {
    const Delta d = churn.Next();
    apply(d);
    patches += d.kind >= DeltaKind::kWorkerCapacity;
    departures += d.kind == DeltaKind::kRemoveWorker ||
                  d.kind == DeltaKind::kRemoveTask;
    ASSERT_EQ(churn.live_workers(), workers.size());
    ASSERT_EQ(churn.live_tasks(), tasks.size());
    ASSERT_LE(workers.size(), 200u + worker_band);
    ASSERT_GE(workers.size(), 200u - worker_band);
    ASSERT_LE(tasks.size(), 120u + task_band);
    ASSERT_GE(tasks.size(), 120u - task_band);
  }
  // About a fifth patches; arrivals balance departures in the rest.
  EXPECT_NEAR(patches / 20000.0, 0.2, 0.02);
  EXPECT_NEAR(departures / 20000.0, 0.4, 0.02);
}

TEST(OpenLoopTest, DueTimesFollowTheOfferedRate) {
  const OpenLoopSchedule schedule(10.0, 1000.0);  // one delta per ms
  EXPECT_DOUBLE_EQ(schedule.DueMs(0), 10.0);
  EXPECT_DOUBLE_EQ(schedule.DueMs(5), 15.0);
  EXPECT_EQ(schedule.Backlog(9.0, 0), 0u);    // nothing due yet
  EXPECT_EQ(schedule.Backlog(10.0, 0), 1u);   // delta 0 just due
  EXPECT_EQ(schedule.Backlog(12.5, 1), 2u);   // deltas 1 and 2 due
  EXPECT_EQ(schedule.Backlog(12.5, 3), 0u);   // ahead of schedule
}

TEST(OpenLoopTest, LatenessIsMeasuredFromTheDueTime) {
  const OpenLoopSchedule schedule(10.0, 1000.0);
  FakeClock behind(12.5);
  EXPECT_DOUBLE_EQ(schedule.WaitUntilDue(behind, 1), 1.5);
  // Ahead of schedule the generator polls the clock until the delta is due.
  FakeClock ahead(12.5, 0.25);
  EXPECT_DOUBLE_EQ(schedule.WaitUntilDue(ahead, 5), 0.0);
  EXPECT_DOUBLE_EQ(ahead.NowMs(), 15.25);
}

TEST(OpenLoopTest, CommitLatencyCountsFromEachDeltasDueTime) {
  CommitTracker commits;
  commits.Submitted(1.0);
  commits.Submitted(2.0);
  EXPECT_EQ(commits.in_flight(), 2u);
  commits.Committed(5.0);
  commits.Submitted(6.0);
  commits.Committed(6.5);
  EXPECT_EQ(commits.in_flight(), 0u);
  EXPECT_EQ(commits.commit_ms(), (std::vector<double>{4.0, 3.0, 0.5}));
}

TEST(OpenLoopTest, BacklogGrowthSeparatesKeepingUpFromFallingBehind) {
  EXPECT_DOUBLE_EQ(BacklogGrowth(std::vector<double>(400, 0.0)), 0.0);
  std::vector<double> spiky(400, 0.0);
  spiky[390] = 50.0;  // one stall near the end is not a trend
  EXPECT_DOUBLE_EQ(BacklogGrowth(spiky), 0.0);
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(i);
  EXPECT_DOUBLE_EQ(BacklogGrowth(ramp), 75.0);
  EXPECT_DOUBLE_EQ(BacklogGrowth({3.0, 4.0}), 0.0);  // too short to judge
}

std::uint64_t BenefitBits(const Report& report) {
  for (const Metric& m : report.end_to_end) {
    if (m.name == "mutual_benefit") return std::bit_cast<std::uint64_t>(m.value);
  }
  ADD_FAILURE() << "no mutual_benefit";
  return 0;
}

TEST(ServiceChurnTest, DigestDoesNotDependOnTheRoundCount) {
  // How many rounds fit the measured time varies from run to run; what
  // a seed's run fingerprints and reports as its benefit must not.
  for (std::uint64_t seed : {1, 2, 3}) {
    RunOptions options;
    options.seed = seed;
    options.seconds = 1e-3;
    ChurnShape shape{/*target=*/60, /*deltas_per_round=*/100 * 64,
                     /*min_rounds=*/1};
    const Report one = RunServiceChurn(options, shape);
    shape.min_rounds = 3;
    const Report three = RunServiceChurn(options, shape);
    ASSERT_TRUE(one.correct());
    ASSERT_TRUE(three.correct());
    EXPECT_GT(three.attempted, one.attempted);
    EXPECT_EQ(one.digest, three.digest);
    EXPECT_EQ(BenefitBits(one), BenefitBits(three));
  }
}

}  // namespace
}  // namespace mbta::perfbench
