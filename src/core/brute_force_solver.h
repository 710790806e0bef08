#ifndef MBTA_CORE_BRUTE_FORCE_SOLVER_H_
#define MBTA_CORE_BRUTE_FORCE_SOLVER_H_

#include <cstddef>
#include <string>

#include "core/solver.h"

namespace mbta {

/// Exhaustive optimum by branch-and-bound over edge subsets (include /
/// exclude each edge, pruned by capacity and by an additive upper bound on
/// the remaining edges). Exponential — intended for instances with at most
/// ~24 edges, where it supplies ground truth for approximation-quality
/// tests and the small-instance experiment.
class BruteForceSolver : public Solver {
 public:
  /// Refuses instances with more edges than this (guard against runaway
  /// exponential work).
  explicit BruteForceSolver(std::size_t max_edges = 24)
      : max_edges_(max_edges) {}

  std::string name() const override { return "brute-force"; }

  /// Budget granularity: one work unit per search-tree node visited. On
  /// expiry the best complete subset found so far is returned (the
  /// search keeps the incumbent feasible at all times).
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

 private:
  std::size_t max_edges_;
};

}  // namespace mbta

#endif  // MBTA_CORE_BRUTE_FORCE_SOLVER_H_
