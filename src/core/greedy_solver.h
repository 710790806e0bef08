#ifndef MBTA_CORE_GREEDY_SOLVER_H_
#define MBTA_CORE_GREEDY_SOLVER_H_

#include <string>

#include "core/solver.h"
#include "util/arena.h"

namespace mbta {

/// Greedy maximization of the mutual-benefit objective: repeatedly add the
/// feasible edge with the largest marginal gain until no positive gain
/// remains. For the monotone submodular objective over the intersection of
/// the two capacity matroids this carries the classic 1/(1+k) = 1/3
/// worst-case guarantee (k = 2 matroids) and is near-optimal in practice;
/// on modular instances it is the natural strong heuristic the exact flow
/// solver is compared against.
///
/// kLazy (default) keeps a max-heap of stale gains and re-evaluates only
/// the top (valid because submodularity makes gains non-increasing);
/// kPlain rescans every candidate each round — kept for the ablation that
/// counts marginal-gain evaluations.
class GreedySolver : public Solver {
 public:
  enum class Mode { kLazy, kPlain };

  explicit GreedySolver(Mode mode = Mode::kLazy) : mode_(mode) {}

  std::string name() const override {
    return mode_ == Mode::kLazy ? "greedy" : "greedy-plain";
  }

  /// Budget granularity: one work unit per marginal-gain evaluation
  /// (kPlain) / per heap pop re-evaluation (kLazy). On expiry the
  /// current prefix of accepted edges is returned — always feasible.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

 private:
  Mode mode_;
  // Reused scratch arena: the objective state, heap, and dead-edge set
  // of every Solve live here, so a warm solver re-solves without heap
  // allocation (see CONTRIBUTING.md, "Memory & allocation"). mutable:
  // Solve is logically const; concurrent Solve calls on the same object
  // are not supported.
  mutable ScratchPool scratch_;
};

}  // namespace mbta

#endif  // MBTA_CORE_GREEDY_SOLVER_H_
