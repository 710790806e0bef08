#ifndef MBTA_CORE_LOCAL_SEARCH_SOLVER_H_
#define MBTA_CORE_LOCAL_SEARCH_SOLVER_H_

#include <string>

#include "core/solver.h"
#include "util/arena.h"

namespace mbta {

/// Local search on top of a greedy start: passes over all edges applying
/// improving *add* moves (an unchosen feasible edge with positive gain)
/// and improving *swap* moves (evict one blocking edge at a saturated
/// endpoint to admit a better one). Stops at a local optimum or after
/// `max_passes` full passes. For submodular maximization over matroid
/// intersections, add+swap local optima carry stronger guarantees than
/// plain greedy and in practice squeeze out a few extra percent.
class LocalSearchSolver : public Solver {
 public:
  struct Options {
    /// Full improvement passes over the edge set before giving up.
    int max_passes = 8;
    /// Relative improvement an accepted move must achieve (guards against
    /// cycling on floating-point noise).
    double min_relative_gain = 1e-9;
    /// Start from greedy (true) or from the empty assignment (false,
    /// used by the ablation to isolate local search's own power).
    bool greedy_init = true;
  };

  LocalSearchSolver() = default;
  explicit LocalSearchSolver(Options options) : options_(options) {}

  std::string name() const override { return "local-search"; }

  const Options& options() const { return options_; }

  /// Budget granularity: one work unit per attempted add/swap move, with
  /// the greedy initialization drawing from the same gate. Checked only
  /// *between* moves (each move commits or fully reverts), so an expired
  /// budget still leaves a consistent, feasible assignment.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

 private:
  Options options_{};
  // Reused scratch arena: the objective state plus the per-move journal,
  // candidate, and victim buffers live here (the seed GreedySolver has
  // its own pool). mutable: Solve is logically const; concurrent Solve
  // calls on the same object are not supported.
  mutable ScratchPool scratch_;
};

}  // namespace mbta

#endif  // MBTA_CORE_LOCAL_SEARCH_SOLVER_H_
