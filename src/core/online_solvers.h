#ifndef MBTA_CORE_ONLINE_SOLVERS_H_
#define MBTA_CORE_ONLINE_SOLVERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/solver.h"

namespace mbta {

/// Uniformly random worker arrival order (the online random-order model:
/// workers show up one at a time; assignments to an arrived worker are
/// irrevocable and later workers are invisible).
std::vector<WorkerId> RandomArrivalOrder(std::size_t num_workers,
                                         std::uint64_t seed);

/// Online greedy: each arriving worker immediately takes its best
/// positive-marginal feasible edges until its capacity is filled.
class OnlineGreedySolver : public Solver {
 public:
  explicit OnlineGreedySolver(std::uint64_t seed = 1) : seed_(seed) {}

  std::string name() const override { return "online-greedy"; }

  /// Budget granularity: one work unit per marginal-gain evaluation.
  /// Expiry stops admitting arrivals; matches already committed stand.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

  /// Deterministic variant driven by an explicit arrival order, so
  /// experiments can hold the order fixed across algorithms.
  Assignment SolveWithOrder(const MbtaProblem& problem,
                            const std::vector<WorkerId>& order,
                            const SolveOptions& options = {},
                            SolveStats* info = nullptr) const;

 private:
  std::uint64_t seed_;
};

/// Uniformly random task arrival order — the symmetric online model where
/// requesters post tasks one at a time against a standing worker pool.
std::vector<TaskId> RandomTaskArrivalOrder(std::size_t num_tasks,
                                           std::uint64_t seed);

/// Online greedy for task arrivals: each posted task immediately recruits
/// its best positive-marginal feasible workers up to its capacity.
class TaskArrivalGreedySolver : public Solver {
 public:
  explicit TaskArrivalGreedySolver(std::uint64_t seed = 1) : seed_(seed) {}

  std::string name() const override { return "online-task-greedy"; }

  /// Budget granularity: one work unit per marginal-gain evaluation.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

  Assignment SolveWithOrder(const MbtaProblem& problem,
                            const std::vector<TaskId>& order,
                            const SolveOptions& options = {},
                            SolveStats* info = nullptr) const;

 private:
  std::uint64_t seed_;
};

/// Two-phase online algorithm in the spirit of the sample-then-price
/// random-order framework (cf. TGOA for spatial crowdsourcing): the first
/// `sample_fraction` of arrivals is assigned greedily while calibrating a
/// gain threshold (a percentile of the gains the sample accepted), and
/// subsequent workers only take edges clearing the threshold — reserving
/// contested task capacity for later high-value arrivals — except in the
/// final stretch, where any positive gain is accepted so capacity is not
/// stranded.
class TwoPhaseOnlineSolver : public Solver {
 public:
  struct Options {
    double sample_fraction = 0.25;    // observed, unassigned prefix
    double threshold_percentile = 60; // of sampled edge weights
    double endgame_fraction = 0.9;    // after this, accept any gain
  };

  explicit TwoPhaseOnlineSolver(std::uint64_t seed = 1) : seed_(seed) {}
  TwoPhaseOnlineSolver(std::uint64_t seed, Options options)
      : seed_(seed), options_(options) {}

  std::string name() const override { return "online-two-phase"; }

  const Options& options() const { return options_; }

  /// Budget granularity: one work unit per marginal-gain evaluation,
  /// across both the sampling and the thresholded phase.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

  Assignment SolveWithOrder(const MbtaProblem& problem,
                            const std::vector<WorkerId>& order,
                            const SolveOptions& solve_options = {},
                            SolveStats* info = nullptr) const;

 private:
  std::uint64_t seed_;
  Options options_{};
};

}  // namespace mbta

#endif  // MBTA_CORE_ONLINE_SOLVERS_H_
