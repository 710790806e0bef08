/// Dedicated unit tests for BudgetedGreedySolver (the knapsack-constrained
/// greedy). Complements tests/budget_test.cc, which covers the budget
/// *constraint* helpers; here the solver itself is pinned across the three
/// budget regimes: binding, slack, and zero.

#include "core/budgeted_greedy_solver.h"

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "core/validate.h"
#include "tests/test_markets.h"

namespace mbta {
namespace {

/// One requester owning every task, unit capacities, edge w*1+t... built
/// explicitly: `payments[t]` priced per task, all edges carry the given
/// worker-side weight via alpha = 0.
LaborMarket PricedMarket(const std::vector<double>& payments,
                         const std::vector<double>& weights) {
  LaborMarketBuilder b;
  for (std::size_t i = 0; i < payments.size(); ++i) {
    Worker w;
    w.capacity = 1;
    b.AddWorker(w);
  }
  for (std::size_t i = 0; i < payments.size(); ++i) {
    Task t;
    t.capacity = 1;
    t.payment = payments[i];
    t.value = 0.0;
    t.requester = 0;
    b.AddTask(t);
  }
  for (std::size_t i = 0; i < payments.size(); ++i) {
    b.AddEdge(static_cast<WorkerId>(i), static_cast<TaskId>(i),
              {0.8, weights[i]});
  }
  return b.Build();
}

MbtaProblem WorkerSideProblem(const LaborMarket& m) {
  return MbtaProblem{&m, {.alpha = 0.0, .kind = ObjectiveKind::kModular}};
}

TEST(BudgetedGreedySolverTest, BudgetBindingDropsCheapestGain) {
  // Three disjoint edges with weights 5, 3, 1 and pay 2 each; budget 4
  // affords exactly two tasks — the solver must keep the 5 and the 3.
  const LaborMarket m = PricedMarket({2.0, 2.0, 2.0}, {5.0, 3.0, 1.0});
  const MbtaProblem p = WorkerSideProblem(m);
  const BudgetConstraint budget{{4.0}};
  const Assignment a = BudgetedGreedySolver(budget).Solve(p);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_NEAR(p.MakeObjective().Value(a), 8.0, 1e-9);

  ValidationOptions options;
  options.reported_value = 8.0;
  options.budget = &budget;
  const ValidationResult r = ValidateAssignment(p, a, options);
  EXPECT_TRUE(r.ok()) << r.Message();
}

TEST(BudgetedGreedySolverTest, ExactlyBindingBudgetIsSpendable) {
  // Budget equal to the total price of all tasks: everything is taken,
  // and the strict feasibility check still passes (spend == budget).
  const LaborMarket m = PricedMarket({2.0, 2.0, 2.0}, {5.0, 3.0, 1.0});
  const MbtaProblem p = WorkerSideProblem(m);
  const BudgetConstraint budget{{6.0}};
  const Assignment a = BudgetedGreedySolver(budget).Solve(p);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(IsBudgetFeasible(m, a, budget));
}

TEST(BudgetedGreedySolverTest, BudgetSlackMatchesUnbudgetedGreedy) {
  // A budget far above total demand must not change greedy's outcome.
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    LaborMarket m = RandomTestMarket(rng, 8, 8, 0.5);
    const MbtaProblem p{&m,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    BudgetConstraint slack;
    slack.budgets.assign(NumRequesters(m), 1e12);
    const MutualBenefitObjective obj = p.MakeObjective();
    const double budgeted =
        obj.Value(BudgetedGreedySolver(slack).Solve(p));
    const double plain = obj.Value(GreedySolver().Solve(p));
    // Better-of-two-passes can only match or improve on plain greedy.
    EXPECT_GE(budgeted + 1e-9, plain) << "trial " << trial;
  }
}

TEST(BudgetedGreedySolverTest, ZeroBudgetYieldsEmptyAssignment) {
  const LaborMarket m = PricedMarket({2.0, 2.0}, {5.0, 3.0});
  const MbtaProblem p = WorkerSideProblem(m);
  const Assignment a =
      BudgetedGreedySolver(BudgetConstraint{{0.0}}).Solve(p);
  EXPECT_TRUE(a.empty());
}

TEST(BudgetedGreedySolverTest, ZeroBudgetStillAdmitsFreeTasks) {
  // A zero-budget requester can still take edges whose tasks pay nothing:
  // the knapsack constraint caps spend, not participation.
  const LaborMarket m = PricedMarket({0.0, 2.0}, {5.0, 3.0});
  const MbtaProblem p = WorkerSideProblem(m);
  const Assignment a =
      BudgetedGreedySolver(BudgetConstraint{{0.0}}).Solve(p);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(m.EdgeTask(a.edges[0]), 0u);
}

TEST(BudgetedGreedySolverTest, PerRequesterBudgetsAreIndependent) {
  // Two requesters, one rich and one broke: only the rich one's tasks are
  // assigned, regardless of the broke one's higher weights.
  LaborMarketBuilder b;
  for (int i = 0; i < 2; ++i) {
    Worker w;
    w.capacity = 1;
    b.AddWorker(w);
  }
  for (int i = 0; i < 2; ++i) {
    Task t;
    t.capacity = 1;
    t.payment = 1.0;
    t.value = 0.0;
    t.requester = static_cast<std::uint32_t>(i);
    b.AddTask(t);
  }
  b.AddEdge(0, 0, {0.8, 1.0});  // requester 0, modest weight
  b.AddEdge(1, 1, {0.8, 9.0});  // requester 1, great weight, no budget
  const LaborMarket m = b.Build();
  const MbtaProblem p = WorkerSideProblem(m);
  const Assignment a =
      BudgetedGreedySolver(BudgetConstraint{{1.0, 0.0}}).Solve(p);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(m.EdgeTask(a.edges[0]), 0u);
}

TEST(BudgetedGreedySolverTest, InfoPopulated) {
  Rng rng(23);
  const LaborMarket m = RandomTestMarket(rng, 8, 8, 0.5);
  const MbtaProblem p{&m,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  BudgetConstraint budget = ProportionalBudgets(m, 0.5);
  SolveStats info;
  BudgetedGreedySolver(budget).Solve(p, {}, &info);
  EXPECT_GE(info.wall_ms, 0.0);
  if (m.NumEdges() > 0) {
    EXPECT_GT(info.gain_evaluations, 0u);
  }
}

}  // namespace
}  // namespace mbta
