#ifndef MBTA_CORE_SOLVER_H_
#define MBTA_CORE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/problem.h"
#include "core/solve_options.h"
#include "market/assignment.h"

namespace mbta {

/// Common interface of all task-assignment algorithms. Implementations are
/// stateless with respect to the problem (configuration lives in the
/// constructor), so one solver object can be reused across instances.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Short stable identifier used in experiment tables, e.g. "greedy".
  virtual std::string name() const = 0;

  /// Computes a feasible assignment for the problem. `info`, when
  /// non-null, receives timing and work counters. `options` carries the
  /// robustness knobs (DeadlineBudget, fault injection, cancellation);
  /// the default value reproduces the unbudgeted solve byte-for-byte.
  /// On budget expiry the solver returns its best-so-far *feasible*
  /// assignment and marks `info->deadline_hit` — never a partial or
  /// invalid one.
  virtual Assignment Solve(const MbtaProblem& problem,
                           const SolveOptions& options = {},
                           SolveStats* info = nullptr) const = 0;
};

/// One user-selectable solver of the registry.
struct SolverEntry {
  /// Equal to the built solver's name().
  std::string_view name;
  /// `seed` feeds the randomized solvers; `market` configures the ones
  /// that derive parameters from it (budgeted-greedy's budgets).
  std::unique_ptr<Solver> (*make)(std::uint64_t seed,
                                  const LaborMarket& market);
  /// Rejects submodular objectives (exact flow).
  bool modular_only = false;
};

/// Every user-selectable solver, in display order: exact flow (modular
/// only), greedy, threshold, local search, the matching and one-sided
/// baselines, then plain greedy, the online and budgeted families. The CLI, the benches and the cross-solver test suites all
/// iterate this list; BruteForceSolver (the tests' oracle) and
/// FallbackSolver (a composite) are not in it.
std::span<const SolverEntry> SolverRegistry();

/// The registry's names, in the same order.
std::span<const std::string_view> SolverNames();

/// Builds the named registry solver, or returns nullptr for an unknown
/// name.
std::unique_ptr<Solver> MakeSolver(std::string_view name, std::uint64_t seed,
                                   const LaborMarket& market);

}  // namespace mbta

#endif  // MBTA_CORE_SOLVER_H_
