#include "core/budgeted_greedy_solver.h"

#include <queue>
#include <vector>

#include "core/solve_options.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace mbta {

namespace {

constexpr double kGainEpsilon = 1e-12;

/// Work tallies accumulated across both greedy passes.
struct PassTally {
  std::size_t evals = 0;
  std::size_t heap_pushes = 0;
  std::size_t budget_rejects = 0;
  std::size_t commits = 0;
};

/// Lazy greedy over `key(gain, payment)` with budget tracking. The key
/// must be monotone in gain for fixed payment so that submodularity keeps
/// stale heap keys valid upper bounds.
Assignment GreedyPass(const MutualBenefitObjective& objective,
                      const BudgetConstraint& budget, bool by_density,
                      DeadlineGate& gate, PassTally& tally) {
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);
  std::vector<double> remaining = budget.budgets;

  auto payment_of = [&](EdgeId e) {
    return market.task(market.EdgeTask(e)).payment;
  };
  auto requester_of = [&](EdgeId e) {
    return market.task(market.EdgeTask(e)).requester;
  };
  auto key = [&](double gain, EdgeId e) {
    if (!by_density) return gain;
    return gain / (payment_of(e) + 1e-9);
  };

  struct Entry {
    double key;
    double gain;
    EdgeId edge;
    bool operator<(const Entry& other) const { return key < other.key; }
  };
  std::priority_queue<Entry> heap;
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    const double gain = objective.EdgeWeight(e);
    heap.push({key(gain, e), gain, e});
    ++tally.heap_pushes;
  }

  // Budget checkpoint: one charge per heap pop (marginal re-evaluation).
  while (!heap.empty()) {
    if (gate.Charge()) break;
    const Entry top = heap.top();
    heap.pop();
    if (top.gain <= kGainEpsilon) break;
    if (!state.CanAdd(top.edge)) continue;
    if (payment_of(top.edge) > remaining[requester_of(top.edge)] + 1e-9) {
      ++tally.budget_rejects;
      continue;  // would blow the requester's budget: drop for good
    }
    const double fresh_gain = state.MarginalGain(top.edge);
    ++tally.evals;
    const double fresh_key = key(fresh_gain, top.edge);
    if (heap.empty() || fresh_key >= heap.top().key - kGainEpsilon) {
      if (fresh_gain > kGainEpsilon) {
        state.Add(top.edge);
        remaining[requester_of(top.edge)] -= payment_of(top.edge);
        ++tally.commits;
      }
    } else {
      heap.push({fresh_key, fresh_gain, top.edge});
      ++tally.heap_pushes;
    }
  }
  return state.ToAssignment();
}

}  // namespace

Assignment BudgetedGreedySolver::Solve(const MbtaProblem& problem,
                                       const SolveOptions& options,
                                       SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  MBTA_CHECK(budget_.budgets.size() >= NumRequesters(*problem.market));
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  PassTally tally;

  Assignment by_gain;
  {
    ScopedPhase phase(phases, "pass_gain");
    by_gain =
        GreedyPass(objective, budget_, /*by_density=*/false, *gate, tally);
  }
  Assignment by_density;
  if (!gate->expired()) {
    ScopedPhase phase(phases, "pass_density");
    by_density =
        GreedyPass(objective, budget_, /*by_density=*/true, *gate, tally);
  }

  const Assignment& better =
      objective.Value(by_gain) >= objective.Value(by_density) ? by_gain
                                                              : by_density;
  if (info != nullptr) {
    info->gain_evaluations = tally.evals;
    info->counters.Add("budgeted/heap_pushes", tally.heap_pushes);
    info->counters.Add("budgeted/budget_rejects", tally.budget_rejects);
    info->counters.Add("budgeted/commits", tally.commits);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return better;
}

}  // namespace mbta
