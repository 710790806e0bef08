#ifndef MBTA_CORE_THRESHOLD_SOLVER_H_
#define MBTA_CORE_THRESHOLD_SOLVER_H_

#include <string>

#include "core/solver.h"

namespace mbta {

/// Threshold greedy (Badanidiyuru–Vondrák style): sweep a geometrically
/// decreasing gain threshold τ = d, d(1−ε), d(1−ε)², … and add any feasible
/// edge whose current marginal gain clears τ. Trades a (1−ε) factor of
/// greedy's quality for O(E · log(E)/ε) marginal evaluations independent of
/// the assignment size — the fast solver for large markets.
class ThresholdSolver : public Solver {
 public:
  explicit ThresholdSolver(double epsilon = 0.1) : epsilon_(epsilon) {}

  std::string name() const override { return "threshold"; }

  double epsilon() const { return epsilon_; }

  /// Budget granularity: one work unit per marginal-gain evaluation in
  /// the τ-sweep. On expiry the edges admitted so far are returned.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

 private:
  double epsilon_;
};

}  // namespace mbta

#endif  // MBTA_CORE_THRESHOLD_SOLVER_H_
