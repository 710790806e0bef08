#ifndef MBTA_CORE_PARALLEL_GREEDY_SOLVER_H_
#define MBTA_CORE_PARALLEL_GREEDY_SOLVER_H_

#include <string>

#include "core/solver.h"
#include "util/arena.h"

namespace mbta {

/// Greedy maximization with a data-parallel marginal-gain path: gains are
/// re-evaluated in fixed-size batches through the SoA kernel
/// (ObjectiveState::BatchMarginalGains), with the batch split across a
/// deterministic ThreadPool. All decisions — commits, heap pushes, argmax
/// scans — stay sequential, so the returned assignment and every published
/// counter are byte-identical at any SolveOptions::threads value
/// (enforced by the thread sweep in tests/differential_test.cc).
///
/// kPlain re-runs the full candidate scan each round, exactly like
/// GreedySolver::Mode::kPlain — same evaluation set, same tie-breaks, same
/// assignment, just through the batched kernel. kLazy keeps a max-heap of
/// version-stamped gains: an entry whose gain was computed after the
/// latest commit is exact (submodularity makes stale keys upper bounds),
/// so a fresh heap top commits with no re-evaluation at all, while a stale
/// top triggers a batched refresh of the top entries. The lazy variant
/// computes the same exact greedy sequence as kPlain (largest gain wins,
/// lowest edge id on ties) rather than GreedySolver::kLazy's
/// epsilon-tolerant commits, so its twin across thread counts is itself.
class ParallelGreedySolver : public Solver {
 public:
  enum class Mode { kLazy, kPlain };

  explicit ParallelGreedySolver(Mode mode = Mode::kLazy) : mode_(mode) {}

  std::string name() const override {
    return mode_ == Mode::kLazy ? "parallel-greedy" : "parallel-greedy-plain";
  }

  /// Budget granularity: one work unit per marginal-gain evaluation,
  /// charged per batch (so expiry lands on a batch boundary; the
  /// committed prefix is returned and is always feasible). The stopping
  /// point is deterministic for a given work budget regardless of the
  /// thread count, because batch composition never depends on it.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

 private:
  Mode mode_;
  // Reused scratch arena for the sequential side of the solve (objective
  // state, heap, batch/candidate/gain buffers, dead-edge set). Worker
  // threads never allocate from it — their kernel scratches are
  // per-participant and pre-reserved. mutable: Solve is logically const;
  // concurrent Solve calls on the same object are not supported.
  mutable ScratchPool scratch_;
};

}  // namespace mbta

#endif  // MBTA_CORE_PARALLEL_GREEDY_SOLVER_H_
