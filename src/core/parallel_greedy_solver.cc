#include "core/parallel_greedy_solver.h"

#include <algorithm>
#include <span>
#include <vector>

#include "core/solve_options.h"
#include "obs/histogram.h"
#include "obs/phase_timer.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mbta {

namespace {

constexpr double kGainEpsilon = 1e-12;

/// Edges per batched kernel call. A fixed constant, never derived from
/// the thread count: batch composition is part of the deterministic
/// transcript (it decides where a work budget expires and how many
/// refresh evaluations the lazy variant spends), so it must be identical
/// whether the batch runs on one thread or eight.
constexpr std::size_t kBatchSize = 16;

/// Per-solve parallel context: the pool plus one kernel scratch per
/// participant, so concurrent slices never share buffers.
struct BatchEvaluator {
  BatchEvaluator(ThreadPool* pool, const LaborMarket& market)
      : pool(pool), scratches(pool->num_threads()) {
    // Pre-reserve every participant's kernel scratch to the largest
    // worker degree + 1 (the exact upper bound on the benefit lists), so
    // worker threads never allocate mid-batch. These stay std::vectors —
    // per-thread buffers must not share the solver's single arena.
    std::size_t max_degree = 0;
    for (WorkerId w = 0; w < market.NumWorkers(); ++w) {
      max_degree = std::max(max_degree, market.WorkerEdges(w).size());
    }
    for (ObjectiveState::GainScratch& scratch : scratches) {
      scratch.values.reserve(max_degree + 1);
      scratch.values_plus.reserve(max_degree + 1);
    }
  }

  /// Minimum edges per slice before another participant is engaged: a
  /// pool barrier costs microseconds, so small batches (the lazy
  /// refreshes) run inline on the caller instead. Slicing never affects
  /// results — each gains[i] depends only on (state, edges[i]) — so the
  /// slice count is a pure scheduling decision; batch *composition*
  /// stays thread-count-independent.
  static constexpr std::size_t kMinSliceSize = 64;

  /// gains[i] = state.MarginalGain(edges[i]), split across participants
  /// in contiguous slices with disjoint writes. Deterministic: each
  /// gains[i] depends only on (state, edges[i]).
  void Run(const ObjectiveState& state, std::span<const EdgeId> edges,
           std::span<double> gains) {
    const int parts = static_cast<int>(std::clamp(
        edges.size() / kMinSliceSize, std::size_t{1},
        static_cast<std::size_t>(pool->num_threads())));
    if (parts == 1) {
      state.BatchMarginalGains(edges, gains, &scratches[0]);
      return;
    }
    pool->ParallelFor(
        static_cast<std::size_t>(parts), [&](std::size_t p) {
          const auto [begin, end] =
              ThreadPool::SliceOf(edges.size(), parts, static_cast<int>(p));
          if (begin == end) return;
          state.BatchMarginalGains(edges.subspan(begin, end - begin),
                                   gains.subspan(begin, end - begin),
                                   &scratches[p]);
        });
  }

  ThreadPool* pool;
  std::vector<ObjectiveState::GainScratch> scratches;
};

/// Per-solve instrumentation bundle for the batched kernel path: the
/// batch-size and committed-gain histograms are deterministic (fixed
/// boundaries, thread-count-independent values), the per-batch latency
/// histogram is time-valued and therefore "latency/"-prefixed so the
/// determinism gates skip it.
struct BatchInstruments {
  explicit BatchInstruments(SolveStats* info)
      : enabled(info != nullptr),
        tracer(info != nullptr ? info->phases.tracer() : nullptr) {
    if (enabled) {
      batch_sizes = Histogram(BatchSizeBoundaries());
      batch_ms = Histogram(LatencyBoundariesMs());
      gain_hist = Histogram(GainBoundaries());
    }
  }

  /// Runs one batched kernel dispatch, wrapped in a "solve/parallel/batch"
  /// span carrying the batch size. The span count equals the published
  /// batches counter, which the determinism gates compare exactly.
  void RunBatch(BatchEvaluator* evaluator, const ObjectiveState& state,
                std::span<const EdgeId> edges, std::span<double> gains) {
    if (!enabled) {
      evaluator->Run(state, edges, gains);
      return;
    }
    ScopedSpan span(tracer, "solve/parallel/batch", "solver");
    span.Arg("edges", static_cast<std::int64_t>(edges.size()));
    WallTimer batch_timer;
    evaluator->Run(state, edges, gains);
    batch_ms.Record(batch_timer.ElapsedMs());
    batch_sizes.Record(static_cast<double>(edges.size()));
  }

  void Publish(SolveStats* info) const {
    if (!enabled) return;
    info->histograms.Add("solve/parallel/batch_size", batch_sizes);
    info->histograms.Add("latency/batch_ms", batch_ms);
    info->histograms.Add("greedy/gain", gain_hist);
  }

  bool enabled;
  Tracer* tracer;
  Histogram batch_sizes;
  Histogram batch_ms;
  Histogram gain_hist;
};

Assignment SolveLazy(const MutualBenefitObjective& objective, Arena* arena,
                     BatchEvaluator* evaluator, DeadlineGate* gate,
                     SolveStats* info) {
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective, arena);
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  BatchInstruments instruments(info);
  std::size_t evals = 0;
  std::size_t pushes = 0;
  std::size_t pops = 0;
  std::size_t commits = 0;
  std::size_t batches = 0;

  // `version` stamps the commit count at which `gain` was computed. With
  // a submodular (or modular) objective gains never increase as the
  // assignment grows, so an entry stamped with the current commit count
  // holds its *exact* marginal while every stale entry holds an upper
  // bound — a fresh entry on top of the heap is therefore the true
  // argmax and commits with no re-evaluation.
  struct Entry {
    double gain;
    EdgeId edge;
    std::size_t version;
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return edge > other.edge;  // equal gains: lowest edge id wins
    }
  };
  // Same pop order as the previous std::priority_queue<Entry>: ArenaHeap
  // runs std::push_heap/std::pop_heap with the same comparator.
  ArenaHeap<Entry> heap(arena);
  {
    ScopedPhase phase(phases, "build_heap");
    heap.reserve(market.NumEdges());
    for (EdgeId e = 0; e < market.NumEdges(); ++e) {
      // On the empty assignment the marginal equals the edge weight, so
      // the seeds are exact: version 0 is "fresh" until the first commit.
      heap.push({objective.EdgeWeight(e), e, 0});
      ++pushes;
    }
  }

  ArenaVector<EdgeId> batch(arena);
  batch.reserve(kBatchSize);
  ArenaVector<double> gains(arena);
  gains.resize_uninitialized(kBatchSize);

  {
    ScopedPhase phase(phases, "lazy_loop");
    while (!heap.empty()) {
      const Entry top = heap.top();
      if (top.gain <= kGainEpsilon) break;  // all remaining gains ~zero
      if (!state.CanAdd(top.edge)) {  // endpoint saturated: drop
        heap.pop();
        ++pops;
        continue;
      }
      if (top.version == commits) {  // exact and maximal: commit for free
        heap.pop();
        ++pops;
        state.Add(top.edge);
        ++commits;
        if (instruments.enabled) instruments.gain_hist.Record(top.gain);
        continue;
      }
      // Stale top: refresh the top stale entries in one batched kernel
      // call. Collection stops at a fresh entry or a ~zero bound — both
      // mean everything below is not worth refreshing yet.
      batch.clear();
      while (batch.size() < kBatchSize && !heap.empty()) {
        const Entry next = heap.top();
        if (next.gain <= kGainEpsilon || next.version == commits) break;
        heap.pop();
        ++pops;
        if (!state.CanAdd(next.edge)) continue;
        batch.push_back(next.edge);
      }
      // Budget checkpoint: one work unit per refresh evaluation, charged
      // for the batch up front. On expiry the popped batch is abandoned
      // unevaluated; the committed prefix is a feasible greedy prefix.
      if (gate->Charge(batch.size())) break;
      instruments.RunBatch(evaluator, state, batch.span(),
                           gains.span().first(batch.size()));
      ++batches;
      evals += batch.size();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        heap.push({gains[i], batch[i], commits});
        ++pushes;
      }
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = evals;
    info->counters.Add("greedy/heap_pushes", pushes);
    info->counters.Add("greedy/heap_pops", pops);
    info->counters.Add("greedy/lazy_reevals", evals);
    info->counters.Add("greedy/commits", commits);
    info->counters.Add("solve/parallel/batches", batches);
    instruments.Publish(info);
  }
  return state.ToAssignment();
}

Assignment SolvePlain(const MutualBenefitObjective& objective, Arena* arena,
                      BatchEvaluator* evaluator, DeadlineGate* gate,
                      SolveStats* info) {
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective, arena);
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  BatchInstruments instruments(info);
  std::size_t evals = 0;
  std::size_t rounds = 0;
  std::size_t commits = 0;
  std::size_t batches = 0;
  DenseBitset dead(market.NumEdges(), arena);
  ArenaVector<EdgeId> candidates(arena);
  ArenaVector<double> gains(arena);

  ScopedPhase phase(phases, "scan_rounds");
  // Each round evaluates every live candidate (the same set, in the same
  // edge order, as GreedySolver::Mode::kPlain) through the batched
  // kernel, then picks the argmax with the serial path's strict-greater
  // scan — so the commit sequence matches the serial plain solver
  // edge-for-edge on an unlimited budget.
  bool expired = false;
  for (;;) {
    ++rounds;
    candidates.clear();
    // NextClear skips runs of dead edges a whole 64-bit word at a time;
    // the surviving candidate sequence is unchanged.
    for (std::size_t e = dead.NextClear(0); e < dead.size();
         e = dead.NextClear(e + 1)) {
      const auto edge = static_cast<EdgeId>(e);
      if (!state.CanAdd(edge)) {
        if (state.Contains(edge)) dead.Set(e);
        continue;
      }
      candidates.push_back(edge);
    }
    gains.resize_uninitialized(candidates.size());
    // Budget checkpoint: one work unit per evaluation, charged in
    // kBatchSize slices so the expiry point lands exactly where the
    // serial plain scan's per-edge charging would stop. The charged
    // prefix is then evaluated in a single kernel dispatch — one pool
    // barrier over the whole round instead of one per slice. An expiry
    // abandons the incomplete round (no commit from a partial argmax
    // scan), keeping the result a pure greedy prefix.
    std::size_t charged = 0;
    while (charged < candidates.size()) {
      const std::size_t n =
          std::min(kBatchSize, candidates.size() - charged);
      if (gate->Charge(n)) {
        expired = true;
        break;
      }
      charged += n;
    }
    if (charged > 0) {
      instruments.RunBatch(evaluator, state, candidates.span().first(charged),
                           gains.span().first(charged));
      ++batches;
      evals += charged;
    }
    if (expired) break;
    double best_gain = kGainEpsilon;
    EdgeId best_edge = kInvalidEdge;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (gains[i] > best_gain) {
        best_gain = gains[i];
        best_edge = candidates[i];
      }
    }
    if (best_edge == kInvalidEdge) break;
    state.Add(best_edge);
    ++commits;
    if (instruments.enabled) instruments.gain_hist.Record(best_gain);
  }

  if (info != nullptr) {
    info->gain_evaluations = evals;
    info->counters.Add("greedy/scan_rounds", rounds);
    info->counters.Add("greedy/edge_scans", evals);
    info->counters.Add("greedy/commits", commits);
    info->counters.Add("solve/parallel/batches", batches);
    instruments.Publish(info);
  }
  return state.ToAssignment();
}

}  // namespace

Assignment ParallelGreedySolver::Solve(const MbtaProblem& problem,
                                       const SolveOptions& options,
                                       SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  ScopedPhase solve_phase(info != nullptr ? &info->phases : nullptr,
                          "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  ThreadPool pool(options.threads);
  if (info != nullptr) AttachPoolTracing(&pool, info->phases.tracer());
  Arena* arena = scratch_.Acquire();
  const MutualBenefitObjective objective = problem.MakeObjective();
  BatchEvaluator evaluator(&pool, objective.market());
  Assignment result =
      mode_ == Mode::kLazy
          ? SolveLazy(objective, arena, &evaluator, gate, info)
          : SolvePlain(objective, arena, &evaluator, gate, info);
  PublishBudgetOutcome(*gate, info);
  if (info != nullptr) {
    PublishArenaStats(*arena, info);
    // A gauge, not a counter: the thread count is an execution detail
    // that legitimately differs between otherwise-identical runs, and
    // the determinism gates compare the counter map exactly.
    info->counters.SetGauge("solve/parallel/threads",
                            static_cast<double>(pool.num_threads()));
    info->wall_ms = timer.ElapsedMs();
  }
  return result;
}

}  // namespace mbta
