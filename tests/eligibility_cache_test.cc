// Differential test of the service's resident eligibility cache against
// the full rebuild it replaced. Over seeded, skill-bearing delta streams
// (arrivals, departures, re-adds of departed ids, payment patches that
// flip eligibility both ways, stale deltas, and a snapshot + WAL restart
// mid-stream):
//
//   * after every epoch, EligibilityCache::Assemble must equal
//     BuildMarket(state) edge for edge — same endpoints, same bits of
//     quality, worker benefit and task value;
//   * the durable MarketService, which epochs through the cache, must
//     commit exactly the state and objective bits of the old epoch path
//     (full BuildMarket scan, std::map id indexes, a linear edge scan per
//     carried pair), kept below as the oracle.
#include "service/eligibility_cache.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "core/repair.h"
#include "core/validate.h"
#include "service/market_service.h"
#include "util/rng.h"

namespace mbta {
namespace {

constexpr std::size_t kSkillDims = 4;
constexpr std::uint64_t kFirstTaskId = 100000;
constexpr std::size_t kEpochBatch = 5;

struct Op {
  enum class Kind { kSubmit, kEpoch, kRestart } kind = Kind::kSubmit;
  Delta delta;
};

/// A stream plus what it exercises, counted as it was generated.
struct Stream {
  std::vector<Op> ops;
  int flips_on = 0;   // (worker, task) pairs a payment patch made eligible
  int flips_off = 0;  // ... and made ineligible
  int readds = 0;
  int departures = 0;
  int stale = 0;
};

SkillVector RandomSkills(Rng& rng) {
  SkillVector s(kSkillDims, 0.0);
  s[rng.NextBounded(kSkillDims)] = rng.NextDouble(0.5, 1.0);
  if (rng.NextDouble() < 0.5) {
    s[rng.NextBounded(kSkillDims)] = rng.NextDouble(0.2, 1.0);
  }
  return s;
}

/// Picks and removes a random element of `ids`.
std::uint64_t TakeRandom(Rng& rng, std::vector<std::uint64_t>* ids) {
  const std::size_t at = rng.NextBounded(ids->size());
  const std::uint64_t id = (*ids)[at];
  ids->erase(ids->begin() + static_cast<std::ptrdiff_t>(at));
  return id;
}

/// A random key of `live`.
template <typename Entity>
std::uint64_t PickRandom(Rng& rng,
                         const std::map<std::uint64_t, Entity>& live) {
  auto it = live.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBounded(live.size())));
  return it->first;
}

/// The generator keeps the live entities as they will be when each delta
/// applies (deltas apply in submission order), so it knows which deltas
/// are stale and which pairs a payment patch flips.
Stream MakeStream(std::uint64_t seed) {
  Rng rng(seed);
  Stream stream;
  std::map<std::uint64_t, Worker> workers;
  std::map<std::uint64_t, Task> tasks;
  std::vector<std::uint64_t> departed_workers;
  std::vector<std::uint64_t> departed_tasks;
  std::uint64_t next_worker = 1;
  std::uint64_t next_task = kFirstTaskId;
  const EdgeModelParams edge_model;
  const int count = 80 + static_cast<int>(rng.NextBounded(80));
  const auto third = static_cast<std::uint64_t>(count / 3);
  const int restart_at = static_cast<int>(third + rng.NextBounded(third));
  for (int i = 0; i < count; ++i) {
    Op op;
    if (i == restart_at) {
      op.kind = Op::Kind::kRestart;
      stream.ops.push_back(op);
      continue;
    }
    if (i > 0 && rng.NextDouble() < 0.2) {
      op.kind = Op::Kind::kEpoch;
      stream.ops.push_back(op);
      continue;
    }
    Delta& d = op.delta;
    const double kind = rng.NextDouble();
    if (kind < 0.22 || (workers.empty() && tasks.empty())) {
      d.kind = DeltaKind::kAddWorker;
      if (!departed_workers.empty() && rng.NextDouble() < 0.3) {
        d.id = TakeRandom(rng, &departed_workers);
        ++stream.readds;
      } else {
        d.id = next_worker++;
      }
      d.worker.capacity = 1 + static_cast<int>(rng.NextBounded(3));
      d.worker.unit_cost = rng.NextDouble(0.0, 0.8);
      d.worker.reliability = rng.NextDouble(0.5, 1.0);
      d.worker.skills = RandomSkills(rng);
      workers[d.id] = d.worker;
    } else if (kind < 0.44 || tasks.empty()) {
      d.kind = DeltaKind::kAddTask;
      if (!departed_tasks.empty() && rng.NextDouble() < 0.3) {
        d.id = TakeRandom(rng, &departed_tasks);
        ++stream.readds;
      } else {
        d.id = next_task++;
      }
      d.task.capacity = 1 + static_cast<int>(rng.NextBounded(2));
      d.task.payment = rng.NextDouble(0.2, 1.5);
      d.task.value = rng.NextDouble(0.5, 3.0);
      d.task.difficulty = rng.NextDouble(0.0, 0.6);
      d.task.required_skills = RandomSkills(rng);
      tasks[d.id] = d.task;
    } else if (kind < 0.52 && !workers.empty()) {
      d.kind = DeltaKind::kRemoveWorker;
      d.id = PickRandom(rng, workers);
      workers.erase(d.id);
      departed_workers.push_back(d.id);
      ++stream.departures;
    } else if (kind < 0.60) {
      d.kind = DeltaKind::kRemoveTask;
      d.id = PickRandom(rng, tasks);
      tasks.erase(d.id);
      departed_tasks.push_back(d.id);
      ++stream.departures;
    } else if (kind < 0.78) {
      // Payments straddle the workers' costs, so a patch both makes and
      // breaks eligibility (payment >= unit cost).
      d.kind = DeltaKind::kTaskPayment;
      d.id = PickRandom(rng, tasks);
      d.amount = rng.NextDouble(0.0, 1.0);
      Task patched = tasks[d.id];
      patched.payment = d.amount;
      for (const auto& [id, w] : workers) {
        const bool before = IsEligible(w, tasks[d.id], edge_model);
        const bool after = IsEligible(w, patched, edge_model);
        stream.flips_on += !before && after;
        stream.flips_off += before && !after;
      }
      tasks[d.id] = patched;
    } else if (kind < 0.84) {
      d.kind = DeltaKind::kTaskValue;
      d.id = PickRandom(rng, tasks);
      d.amount = rng.NextDouble(0.0, 3.0);
      tasks[d.id].value = d.amount;
    } else if (kind < 0.88) {
      d.kind = DeltaKind::kTaskCapacity;
      d.id = PickRandom(rng, tasks);
      d.capacity = static_cast<int>(rng.NextBounded(3));
      tasks[d.id].capacity = d.capacity;
    } else if (kind < 0.92 && !workers.empty()) {
      d.kind = DeltaKind::kWorkerCapacity;
      d.id = PickRandom(rng, workers);
      d.capacity = static_cast<int>(rng.NextBounded(4));
      workers[d.id].capacity = d.capacity;
    } else {
      // Stale by construction: it names an entity that is gone by the
      // time it applies, or re-adds one that is still live.
      ++stream.stale;
      const double which = rng.NextDouble();
      if (which < 0.3 && !departed_tasks.empty()) {
        d.kind = DeltaKind::kTaskPayment;
        d.id = departed_tasks[rng.NextBounded(departed_tasks.size())];
        d.amount = 1.0;
      } else if (which < 0.6 && !departed_workers.empty()) {
        d.kind = rng.NextDouble() < 0.5 ? DeltaKind::kWorkerCapacity
                                        : DeltaKind::kRemoveWorker;
        d.id = departed_workers[rng.NextBounded(departed_workers.size())];
        d.capacity = 2;
      } else if (!tasks.empty()) {
        d.kind = DeltaKind::kAddTask;
        d.id = PickRandom(rng, tasks);
        d.task.required_skills = RandomSkills(rng);
      } else {
        d.kind = DeltaKind::kRemoveTask;
        d.id = next_task + 1000;  // never issued
      }
    }
    stream.ops.push_back(op);
  }
  // Enough epochs to drain the queue, so every delta gets applied.
  Op drain;
  drain.kind = Op::Kind::kEpoch;
  const auto deltas = std::count_if(
      stream.ops.begin(), stream.ops.end(),
      [](const Op& o) { return o.kind == Op::Kind::kSubmit; });
  stream.ops.insert(stream.ops.end(),
                    static_cast<std::size_t>(deltas) / kEpochBatch + 1, drain);
  return stream;
}

/// Writes without fsync: the test exercises recovery logic, not disks.
class NoSync : public FileSyncer {
 public:
  bool Sync(std::FILE* file) override { return std::fflush(file) == 0; }
};

ServiceConfig TestConfig(const std::string& wal_path, FileSyncer* syncer) {
  ServiceConfig config;
  config.wal_path = wal_path;
  config.epoch_batch = kEpochBatch;
  config.snapshot_every = 3;
  config.degrade_after_ms = 0.0;  // no wall-clock input
  config.syncer = syncer;
  return config;
}

std::string CleanPaths(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".snap").c_str());
  std::remove((path + ".snap.tmp").c_str());
  return path;
}

/// The epoch as it ran before the eligibility cache: a full BuildMarket
/// scan, std::map id indexes, and a scan of the worker's edges for each
/// carried pair. Returns the committed objective value.
double OldEpoch(ServiceState& state, const ServiceConfig& config,
                std::uint32_t num_deltas) {
  std::vector<std::uint64_t> touched_worker_ids;
  std::vector<std::uint64_t> touched_task_ids;
  for (std::uint32_t i = 0; i < num_deltas; ++i) {
    const Delta delta = state.pending.front();
    state.pending.pop_front();
    switch (delta.kind) {
      case DeltaKind::kAddWorker:
      case DeltaKind::kWorkerCapacity:
        touched_worker_ids.push_back(delta.id);
        break;
      case DeltaKind::kAddTask:
      case DeltaKind::kTaskCapacity:
      case DeltaKind::kTaskPayment:
      case DeltaKind::kTaskValue:
        touched_task_ids.push_back(delta.id);
        break;
      case DeltaKind::kRemoveWorker:
        for (const StablePair& p : state.pairs) {
          if (p.worker == delta.id) touched_task_ids.push_back(p.task);
        }
        break;
      case DeltaKind::kRemoveTask:
        for (const StablePair& p : state.pairs) {
          if (p.task == delta.id) touched_worker_ids.push_back(p.worker);
        }
        break;
    }
    if (!ApplyDelta(state, delta)) {
      if (delta.kind == DeltaKind::kAddWorker ||
          delta.kind == DeltaKind::kWorkerCapacity) {
        touched_worker_ids.pop_back();
      } else if (delta.kind != DeltaKind::kRemoveWorker &&
                 delta.kind != DeltaKind::kRemoveTask) {
        touched_task_ids.pop_back();
      }
    }
  }

  const LaborMarket market = BuildMarket(state, config.edge_model);
  const MutualBenefitObjective objective(&market, config.objective);
  std::map<std::uint64_t, WorkerId> worker_index;
  std::map<std::uint64_t, TaskId> task_index;
  for (std::size_t i = 0; i < state.workers.size(); ++i) {
    worker_index.emplace(state.workers[i].id, static_cast<WorkerId>(i));
  }
  for (std::size_t i = 0; i < state.tasks.size(); ++i) {
    task_index.emplace(state.tasks[i].id, static_cast<TaskId>(i));
  }

  ObjectiveState solution(&objective);
  RepairStats repair_stats;
  for (const StablePair& p : state.pairs) {
    const WorkerId w = worker_index.at(p.worker);
    const TaskId t = task_index.at(p.task);
    EdgeId e = kInvalidEdge;
    for (const Incidence& inc : market.WorkerEdges(w)) {
      if (market.EdgeTask(inc.edge) == t) e = inc.edge;
    }
    if (e != kInvalidEdge && solution.CanAdd(e)) {
      solution.Add(e);
    } else {
      touched_worker_ids.push_back(p.worker);
      touched_task_ids.push_back(p.task);
    }
  }
  std::sort(touched_worker_ids.begin(), touched_worker_ids.end());
  touched_worker_ids.erase(
      std::unique(touched_worker_ids.begin(), touched_worker_ids.end()),
      touched_worker_ids.end());
  std::sort(touched_task_ids.begin(), touched_task_ids.end());
  touched_task_ids.erase(
      std::unique(touched_task_ids.begin(), touched_task_ids.end()),
      touched_task_ids.end());
  std::vector<EdgeId> candidates;
  for (std::uint64_t id : touched_worker_ids) {
    const auto it = worker_index.find(id);
    if (it == worker_index.end()) continue;
    for (const Incidence& inc : market.WorkerEdges(it->second)) {
      candidates.push_back(inc.edge);
    }
  }
  for (std::uint64_t id : touched_task_ids) {
    const auto it = task_index.find(id);
    if (it == task_index.end()) continue;
    for (const Incidence& inc : market.TaskEdges(it->second)) {
      candidates.push_back(inc.edge);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  DeadlineBudget budget;
  budget.max_work = config.epoch_max_work;
  DeadlineGate gate(budget);
  GreedyRefill(solution, candidates, &repair_stats, &gate);
  Assignment repaired = solution.ToAssignment();
  double value = objective.Value(repaired);

  const double reference = std::bit_cast<double>(state.reference_bits);
  bool full_ran = false;
  if (config.resolve_ratio > 0.0 && state.reference_bits != 0 &&
      value < config.resolve_ratio * reference) {
    full_ran = true;
    SolveOptions options;
    options.budget.max_work = config.epoch_max_work;
    Assignment full =
        GreedySolver().Solve(MbtaProblem{&market, config.objective}, options);
    const double full_value = objective.Value(full);
    if (full_value > value) {
      repaired = std::move(full);
      value = full_value;
    }
  }
  EXPECT_TRUE(
      ValidateAssignment(MbtaProblem{&market, config.objective}, repaired)
          .ok());

  state.pairs.clear();
  for (EdgeId e : repaired.edges) {
    state.pairs.push_back(StablePair{state.workers[market.EdgeWorker(e)].id,
                                     state.tasks[market.EdgeTask(e)].id});
  }
  std::sort(state.pairs.begin(), state.pairs.end());
  state.reference_bits = std::bit_cast<std::uint64_t>(
      full_ran ? value : std::max(reference, value));
  state.epoch += 1;
  return value;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void ExpectSameMarket(const LaborMarket& assembled, const LaborMarket& built) {
  ASSERT_EQ(assembled.NumWorkers(), built.NumWorkers());
  ASSERT_EQ(assembled.NumTasks(), built.NumTasks());
  ASSERT_EQ(assembled.NumEdges(), built.NumEdges());
  for (EdgeId e = 0; e < built.NumEdges(); ++e) {
    ASSERT_EQ(assembled.EdgeWorker(e), built.EdgeWorker(e)) << "edge " << e;
    ASSERT_EQ(assembled.EdgeTask(e), built.EdgeTask(e)) << "edge " << e;
    ASSERT_EQ(Bits(assembled.Quality(e)), Bits(built.Quality(e)))
        << "edge " << e;
    ASSERT_EQ(Bits(assembled.WorkerBenefit(e)), Bits(built.WorkerBenefit(e)))
        << "edge " << e;
    ASSERT_EQ(Bits(assembled.EdgeTaskValues()[e]),
              Bits(built.EdgeTaskValues()[e]))
        << "edge " << e;
  }
}

/// Canonical bytes of `state` minus the WAL progress marker, which only
/// the durable service advances.
std::string Logical(ServiceState state) {
  state.wal_records = 0;
  return SerializeServiceState(state);
}

struct Totals {
  int epochs = 0;
  std::size_t edges = 0;
  int stale_skipped = 0;
};

void RunStream(std::uint64_t seed, const Stream& stream, Totals* totals) {
  NoSync syncer;
  const ServiceConfig config =
      TestConfig(CleanPaths("eligibility_cache_" + std::to_string(seed)),
                 &syncer);
  auto service = std::make_unique<MarketService>(config);
  std::string error;
  ASSERT_TRUE(service->Start(&error)) << error;

  ServiceState old_state;    // driven by the old epoch path
  ServiceState cache_state;  // the same deltas, applied through the cache
  auto cache = std::make_unique<EligibilityCache>(config.edge_model);
  for (const Op& op : stream.ops) {
    switch (op.kind) {
      case Op::Kind::kSubmit:
        ASSERT_EQ(service->Submit(op.delta, &error), SubmitResult::kAdmitted)
            << error;
        old_state.pending.push_back(op.delta);
        cache_state.pending.push_back(op.delta);
        break;
      case Op::Kind::kRestart: {
        // The service recovers from its snapshot + WAL; the cache side
        // restarts the same way, from its state's snapshot text and a
        // cache that has to build itself on the next epoch.
        service.reset();
        service = std::make_unique<MarketService>(config);
        ASSERT_TRUE(service->Start(&error)) << error;
        ASSERT_EQ(Logical(service->state()), Logical(old_state));
        std::istringstream text(SerializeServiceState(cache_state));
        std::optional<ServiceState> parsed = ParseServiceState(text, &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        cache_state = std::move(*parsed);
        cache = std::make_unique<EligibilityCache>(config.edge_model);
        break;
      }
      case Op::Kind::kEpoch: {
        const auto num_deltas = static_cast<std::uint32_t>(
            std::min(old_state.pending.size(), config.epoch_batch));
        for (std::uint32_t i = 0; i < num_deltas; ++i) {
          const Delta delta = cache_state.pending.front();
          cache_state.pending.pop_front();
          if (!cache->Apply(cache_state, delta)) ++totals->stale_skipped;
        }
        const LaborMarket assembled = cache->Assemble(cache_state);
        ExpectSameMarket(assembled,
                         BuildMarket(cache_state, config.edge_model));
        if (::testing::Test::HasFatalFailure()) return;
        totals->edges += assembled.NumEdges();
        ++totals->epochs;

        const double old_value = OldEpoch(old_state, config, num_deltas);
        ASSERT_TRUE(service->RunEpoch(&error)) << error;
        ASSERT_EQ(service->state().pairs, old_state.pairs)
            << "epoch " << old_state.epoch;
        ASSERT_EQ(Bits(service->objective_value()), Bits(old_value))
            << "epoch " << old_state.epoch;
        ASSERT_EQ(Logical(service->state()), Logical(old_state));
        break;
      }
    }
  }
}

TEST(EligibilityCacheTest, AssemblyAndEpochsMatchTheFullRebuild) {
  Totals totals;
  Stream coverage;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Stream stream = MakeStream(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunStream(seed, stream, &totals);
    if (HasFatalFailure()) return;
    // The generator's model of staleness is the service's.
    EXPECT_EQ(totals.stale_skipped - coverage.stale, stream.stale);
    coverage.flips_on += stream.flips_on;
    coverage.flips_off += stream.flips_off;
    coverage.readds += stream.readds;
    coverage.departures += stream.departures;
    coverage.stale += stream.stale;
  }
  // The sweep must reach every path of the cache it claims to cover.
  EXPECT_GT(coverage.flips_on, 0);
  EXPECT_GT(coverage.flips_off, 0);
  EXPECT_GT(coverage.readds, 0);
  EXPECT_GT(coverage.departures, 0);
  EXPECT_GT(coverage.stale, 0);
  EXPECT_GT(totals.edges, 0u);
  RecordProperty("epochs", totals.epochs);
  RecordProperty("edges_compared", static_cast<int>(totals.edges));
  RecordProperty("payment_flips_on", coverage.flips_on);
  RecordProperty("payment_flips_off", coverage.flips_off);
  RecordProperty("readds", coverage.readds);
  RecordProperty("stale", coverage.stale);
}

TEST(EligibilityCacheTest, DenseIndexesFollowTheLastAssembly) {
  ServiceState state;
  EligibilityCache cache{EdgeModelParams{}};
  Delta d;
  d.kind = DeltaKind::kAddWorker;
  for (std::uint64_t id : {30, 10, 20}) {
    d.id = id;
    ASSERT_TRUE(cache.Apply(state, d));
  }
  d.kind = DeltaKind::kAddTask;
  d.id = 7;
  ASSERT_TRUE(cache.Apply(state, d));
  const LaborMarket first = cache.Assemble(state);
  EXPECT_EQ(first.NumEdges(), 3u);
  EXPECT_EQ(cache.DenseWorker(30), 0u);
  EXPECT_EQ(cache.DenseWorker(10), 1u);
  EXPECT_EQ(cache.DenseWorker(20), 2u);
  EXPECT_EQ(cache.DenseTask(7), 0u);
  EXPECT_EQ(cache.DenseWorker(7), std::nullopt);

  d.kind = DeltaKind::kRemoveWorker;
  d.id = 30;
  ASSERT_TRUE(cache.Apply(state, d));
  EXPECT_FALSE(cache.Apply(state, d));  // stale: already gone
  // Until the next assembly the indexes describe the last market.
  EXPECT_EQ(cache.DenseWorker(30), 0u);
  const LaborMarket second = cache.Assemble(state);
  EXPECT_EQ(second.NumEdges(), 2u);
  EXPECT_EQ(cache.DenseWorker(30), std::nullopt);
  EXPECT_EQ(cache.DenseWorker(10), 0u);
  EXPECT_EQ(cache.DenseWorker(20), 1u);
}

}  // namespace
}  // namespace mbta
