#include "core/threshold_solver.h"

#include <algorithm>
#include <vector>

#include "core/solve_options.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace mbta {

Assignment ThresholdSolver::Solve(const MbtaProblem& problem,
                                  const SolveOptions& options,
                                  SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  MBTA_CHECK(epsilon_ > 0.0 && epsilon_ < 1.0);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);
  std::size_t evals = 0;
  std::size_t rounds = 0;
  std::size_t commits = 0;

  double max_weight = 0.0;
  {
    ScopedPhase phase(phases, "max_weight");
    for (EdgeId e = 0; e < market.NumEdges(); ++e) {
      max_weight = std::max(max_weight, objective.EdgeWeight(e));
    }
  }
  if (max_weight <= 0.0) {
    if (info != nullptr) {
      info->counters.Add("threshold/rounds", 0);
      info->counters.Add("threshold/edge_scans", 0);
      info->wall_ms = timer.ElapsedMs();
    }
    return Assignment{};
  }

  // `alive` edges: not yet chosen and not known to be saturated/worthless.
  std::vector<EdgeId> alive(market.NumEdges());
  for (EdgeId e = 0; e < market.NumEdges(); ++e) alive[e] = e;

  {
    ScopedPhase phase(phases, "sweep");
    const double floor =
        epsilon_ * max_weight / static_cast<double>(market.NumEdges() + 1);
    // Budget checkpoint: one charge per marginal-gain evaluation in the
    // sweep. Edges admitted before expiry stand; the rest of the sweep
    // is abandoned.
    bool expired = false;
    // Survivor list for the round in flight; hoisted so the swap at the
    // bottom recycles last round's capacity instead of reallocating (R9).
    std::vector<EdgeId> next_alive;
    for (double tau = max_weight; tau > floor && !alive.empty() && !expired;
         tau *= 1.0 - epsilon_) {
      ++rounds;
      next_alive.clear();
      next_alive.reserve(alive.size());
      for (EdgeId e : alive) {
        if (!state.CanAdd(e)) continue;  // saturated endpoint: edge is dead
        if (gate->Charge()) {
          expired = true;
          break;
        }
        const double gain = state.MarginalGain(e);
        ++evals;
        if (gain >= tau) {
          state.Add(e);
          ++commits;
        } else if (gain > 0.0) {
          next_alive.push_back(e);
        }
        // gain <= 0: drop for good (submodularity: it never recovers).
      }
      alive.swap(next_alive);
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = evals;
    info->counters.Add("threshold/rounds", rounds);
    info->counters.Add("threshold/edge_scans", evals);
    info->counters.Add("threshold/commits", commits);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

}  // namespace mbta
