#ifndef MBTA_CORE_BUDGETED_GREEDY_SOLVER_H_
#define MBTA_CORE_BUDGETED_GREEDY_SOLVER_H_

#include <string>

#include "core/budget.h"
#include "core/solver.h"

namespace mbta {

/// Greedy for the budget-constrained MBTA variant. Runs two passes and
/// keeps the better result — the classic recipe for submodular
/// maximization under knapsack constraints, where neither rule alone has
/// a constant guarantee but their maximum does:
///
///  * gain pass: plain greedy by marginal gain, skipping edges whose
///    payment would blow their requester's remaining budget;
///  * density pass: greedy by marginal gain per payment unit
///    (cost-effectiveness), which protects cheap high-value edges from
///    being crowded out by expensive ones.
class BudgetedGreedySolver : public Solver {
 public:
  explicit BudgetedGreedySolver(BudgetConstraint budget)
      : budget_(std::move(budget)) {}

  std::string name() const override { return "budgeted-greedy"; }

  const BudgetConstraint& budget() const { return budget_; }

  /// Budget granularity: one work unit per marginal-gain evaluation,
  /// shared across both passes; the density pass is skipped entirely
  /// when the gate expires during the gain pass.
  Assignment Solve(const MbtaProblem& problem,
                   const SolveOptions& options = {},
                   SolveStats* info = nullptr) const override;

 private:
  BudgetConstraint budget_;
};

}  // namespace mbta

#endif  // MBTA_CORE_BUDGETED_GREEDY_SOLVER_H_
