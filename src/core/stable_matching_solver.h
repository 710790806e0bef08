#ifndef MBTA_CORE_STABLE_MATCHING_SOLVER_H_
#define MBTA_CORE_STABLE_MATCHING_SOLVER_H_

#include <cstddef>
#include <string>

#include "core/solver.h"

namespace mbta {

/// Capacitated deferred acceptance (Gale–Shapley / hospitals-residents):
/// workers propose to tasks in decreasing worker-benefit order; each task
/// tentatively keeps its cap(t) highest-quality proposers and rejects the
/// rest. The result is stable under the two sides' *own* preferences
/// (worker side: wb(w,t); task side: q(w,t)) — no worker/task pair would
/// jointly defect.
///
/// This is the market-design baseline: stability is its guarantee, total
/// mutual benefit is not, so it quantifies the efficiency cost of
/// stability against the optimizing solvers ("price of stability" in the
/// experiments).
class StableMatchingSolver : public Solver {
 public:
  StableMatchingSolver() = default;

  std::string name() const override { return "stable-da"; }

  /// Budget granularity: one work unit per proposal. The tentative
  /// held-sets are capacity-feasible after every proposal, so expiry
  /// returns a feasible (possibly not yet stable) assignment.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;
};

/// True iff `a` is stable in `market`: there is no blocking pair (w, t) ∈ E
/// where (i) w has spare capacity or prefers t (by wb) to one of its
/// current tasks, and (ii) t has spare capacity or prefers w (by q) to one
/// of its current workers. Exposed for tests and the stability experiment.
bool IsStableMatching(const LaborMarket& market, const Assignment& a);

/// Number of blocking pairs of a feasible assignment (0 iff stable).
/// Quantifies "how unstable" the optimizing solvers' outputs are in the
/// stability experiment.
std::size_t CountBlockingPairs(const LaborMarket& market,
                               const Assignment& a);

}  // namespace mbta

#endif  // MBTA_CORE_STABLE_MATCHING_SOLVER_H_
