#include "core/greedy_solver.h"

#include <optional>

#include "core/solve_options.h"
#include "obs/histogram.h"
#include "obs/phase_timer.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace mbta {

namespace {

constexpr double kGainEpsilon = 1e-12;

Assignment SolveLazy(const MutualBenefitObjective& objective, Arena* arena,
                     DeadlineGate* gate, SolveStats* info) {
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective, arena);
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  std::size_t evals = 0;
  std::size_t pushes = 0;
  std::size_t pops = 0;
  std::size_t commits = 0;
  // Committed-gain distribution: deterministic values over fixed
  // boundaries, so the bucket counts join the exact determinism diff.
  // optional so the uninstrumented path allocates nothing (the warm
  // Solve's zero-heap-allocation contract, see tests/solver_alloc_test.cc).
  std::optional<Histogram> gain_hist;
  if (info != nullptr) gain_hist.emplace(GainBoundaries());

  struct Entry {
    double gain;
    EdgeId edge;
    bool operator<(const Entry& other) const { return gain < other.gain; }
  };
  // Arena-backed max-heap driven by std::push_heap/std::pop_heap — the
  // algorithms std::priority_queue itself runs — so the pop order
  // (tie-breaks included) is identical to the previous
  // std::priority_queue<Entry> for the same push sequence.
  ArenaHeap<Entry> heap(arena);
  {
    ScopedPhase phase(phases, "build_heap");
    heap.reserve(market.NumEdges());
    for (EdgeId e = 0; e < market.NumEdges(); ++e) {
      // On the empty assignment the marginal equals the edge weight for
      // both objective kinds, so no state evaluation is needed to seed the
      // heap.
      heap.push({objective.EdgeWeight(e), e});
      ++pushes;
    }
  }

  {
    ScopedPhase phase(phases, "lazy_loop");
    // Budget checkpoint: one charge per heap pop. Stopping between pops
    // leaves the committed prefix — a feasible greedy assignment.
    while (!heap.empty()) {
      if (gate->Charge()) break;
      const Entry top = heap.top();
      heap.pop();
      ++pops;
      if (top.gain <= kGainEpsilon) break;  // all remaining gains ~zero
      if (!state.CanAdd(top.edge)) continue;  // endpoint saturated: drop
      const double fresh = state.MarginalGain(top.edge);
      ++evals;
      // Submodularity: `fresh` <= the stale key. If it still beats the
      // next best stale key it is the true argmax and we can commit.
      if (heap.empty() || fresh >= heap.top().gain - kGainEpsilon) {
        if (fresh > kGainEpsilon) {
          state.Add(top.edge);
          ++commits;
          if (info != nullptr) gain_hist->Record(fresh);
        }
      } else {
        heap.push({fresh, top.edge});
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
    info->histograms.Add("greedy/gain", *gain_hist);
  }
  return state.ToAssignment();
}

Assignment SolvePlain(const MutualBenefitObjective& objective, Arena* arena,
                      DeadlineGate* gate, SolveStats* info) {
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective, arena);
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  std::size_t evals = 0;
  std::size_t rounds = 0;
  std::size_t commits = 0;
  std::optional<Histogram> gain_hist;  // see SolveLazy: absent when !info
  if (info != nullptr) gain_hist.emplace(GainBoundaries());
  DenseBitset dead(market.NumEdges(), arena);

  ScopedPhase phase(phases, "scan_rounds");
  // Budget checkpoint: one charge per marginal-gain evaluation. An
  // expiry mid-scan abandons the incomplete round (no commit from a
  // partial argmax scan), keeping the result a pure greedy prefix.
  bool expired = false;
  for (;;) {
    ++rounds;
    double best_gain = kGainEpsilon;
    EdgeId best_edge = kInvalidEdge;
    // NextClear skips runs of dead edges a whole 64-bit word at a time —
    // the same candidate sequence as testing each edge, minus the
    // per-dead-edge branch.
    for (std::size_t e = dead.NextClear(0); e < dead.size();
         e = dead.NextClear(e + 1)) {
      const auto edge = static_cast<EdgeId>(e);
      if (!state.CanAdd(edge)) {
        if (state.Contains(edge)) dead.Set(e);
        continue;
      }
      if (gate->Charge()) {
        expired = true;
        break;
      }
      const double gain = state.MarginalGain(edge);
      ++evals;
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = edge;
      }
    }
    if (expired || best_edge == kInvalidEdge) break;
    state.Add(best_edge);
    ++commits;
    if (info != nullptr) gain_hist->Record(best_gain);
  }

  if (info != nullptr) {
    info->gain_evaluations = evals;
    info->counters.Add("greedy/scan_rounds", rounds);
    info->counters.Add("greedy/edge_scans", evals);
    info->counters.Add("greedy/commits", commits);
    info->histograms.Add("greedy/gain", *gain_hist);
  }
  return state.ToAssignment();
}

}  // namespace

Assignment GreedySolver::Solve(const MbtaProblem& problem,
                               const SolveOptions& options,
                               SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  ScopedPhase solve_phase(info != nullptr ? &info->phases : nullptr,
                          "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  Arena* arena = scratch_.Acquire();
  const MutualBenefitObjective objective = problem.MakeObjective();
  Assignment result = mode_ == Mode::kLazy
                          ? SolveLazy(objective, arena, gate, info)
                          : SolvePlain(objective, arena, gate, info);
  PublishBudgetOutcome(*gate, info);
  if (info != nullptr) {
    PublishArenaStats(*arena, info);
    info->wall_ms = timer.ElapsedMs();
  }
  return result;
}

}  // namespace mbta
