#include "core/brute_force_solver.h"

#include <vector>

#include "core/solve_options.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace mbta {

namespace {

struct SearchContext {
  const MutualBenefitObjective& objective;
  ObjectiveState state;
  DeadlineGate* gate;
  /// suffix_bound[i] = Σ_{e >= i} EdgeWeight(e): an additive upper bound on
  /// any gain obtainable from edges i.. (valid since per-edge marginal
  /// gains never exceed the empty-set marginal, i.e. the edge weight).
  std::vector<double> suffix_bound;
  double best_value = 0.0;
  Assignment best;
  std::size_t nodes = 0;
  std::size_t pruned = 0;
  bool stopped = false;

  SearchContext(const MutualBenefitObjective& obj, DeadlineGate* g)
      : objective(obj), state(&obj), gate(g) {}

  void Search(EdgeId e) {
    // Budget checkpoint: one charge per search-tree node. The incumbent
    // `best` is always a complete feasible subset, so an early stop just
    // returns the best answer proven so far.
    if (stopped || gate->Charge()) {
      stopped = true;
      return;
    }
    const std::size_t num_edges = objective.market().NumEdges();
    ++nodes;
    if (state.value() > best_value) {
      best_value = state.value();
      best = state.ToAssignment();
    }
    if (e >= num_edges) return;
    if (state.value() + suffix_bound[e] <= best_value) {
      ++pruned;
      return;
    }

    if (state.CanAdd(e)) {
      state.Add(e);
      Search(e + 1);
      state.Remove(e);
    }
    Search(e + 1);
  }
};

}  // namespace

Assignment BruteForceSolver::Solve(const MbtaProblem& problem,
                                   const SolveOptions& options,
                                   SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  MBTA_CHECK_MSG(problem.market->NumEdges() <= max_edges_,
                 "brute force limited to %zu edges, got %zu", max_edges_,
                 problem.market->NumEdges());
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  SearchContext ctx(objective, gate);

  const std::size_t num_edges = problem.market->NumEdges();
  ctx.suffix_bound.assign(num_edges + 1, 0.0);
  for (std::size_t i = num_edges; i-- > 0;) {
    ctx.suffix_bound[i] =
        ctx.suffix_bound[i + 1] + objective.EdgeWeight(static_cast<EdgeId>(i));
  }

  {
    ScopedPhase phase(phases, "search");
    ctx.Search(0);
  }
  if (info != nullptr) {
    info->gain_evaluations = ctx.nodes;
    info->counters.Add("brute_force/nodes", ctx.nodes);
    info->counters.Add("brute_force/pruned", ctx.pruned);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return ctx.best;
}

}  // namespace mbta
