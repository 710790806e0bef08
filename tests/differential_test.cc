/// Differential property-test harness: every solver's output on seeded
/// random markets is cross-checked against the independent oracle in
/// core/validate.h and against the other solvers.
///
/// Per generated instance the harness asserts:
///  * every registry solver produces a ValidateAssignment-clean assignment
///    whose reported objective matches the oracle's recomputation;
///  * repeated solves are byte-identical (determinism under the harness,
///    not just inside one solver's own test);
///  * an explicit default SolveOptions (unlimited budget) is a perfect
///    no-op: byte-identical output, no deadline flags;
///  * an exhausted work budget still yields a feasible, validator-clean
///    assignment with SolveStats::deadline_hit set (anytime contract);
///  * local search never falls below its greedy seed;
///  * budgeted greedy respects requester budgets.
/// On tiny instances (brute force tractable) it additionally asserts:
///  * no heuristic beats the brute-force optimum;
///  * greedy clears its approximation floor of the optimum;
///  * exact flow matches brute force on modular objectives to within the
///    documented fixed-point grid.
///
/// Reproduction: every assertion is wrapped in a SCOPED_TRACE carrying the
/// full instance description (preset, seed, alpha, capacity and budget
/// knobs). Re-run a failure with
///   ctest -R Differential --output-on-failure
/// or feed the printed seed straight back to the named preset.

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_solver.h"
#include "core/budget.h"
#include "core/budgeted_greedy_solver.h"
#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/local_search_solver.h"
#include "core/solver.h"
#include "core/validate.h"
#include "gen/market_generator.h"
#include "tests/test_markets.h"

namespace mbta {
namespace {

constexpr double kEps = 1e-9;

/// One point of the size / alpha / capacity / budget regime grid, derived
/// deterministically from the instance index so the whole sweep is
/// reproducible from a single integer.
struct Regime {
  GeneratorConfig config;
  double alpha = 0.5;
  double budget_fraction = 1.0;

  std::string Describe() const {
    std::ostringstream os;
    os << "instance{preset=" << config.name << ", seed=" << config.seed
       << ", workers=" << config.num_workers
       << ", tasks=" << config.num_tasks << ", alpha=" << alpha
       << ", worker_cap_max=" << config.worker_capacity_max
       << ", task_cap_max=" << config.task_capacity_max
       << ", budget_fraction=" << budget_fraction << "}";
    return os.str();
  }
};

Regime MakeRegime(int i) {
  const std::uint64_t seed = 0xD1FF0000ULL + static_cast<std::uint64_t>(i);
  const std::size_t workers = 30 + 15 * (i % 5);
  const std::size_t tasks = 30 + 10 * ((i / 5) % 5);
  Regime regime;
  switch (i % 4) {
    case 0:
      regime.config = UniformConfig(workers, tasks, seed);
      break;
    case 1:
      regime.config = ZipfConfig(workers, tasks, seed);
      break;
    case 2:
      regime.config = MTurkLikeConfig(workers, seed);
      regime.config.num_tasks = tasks;
      break;
    default:
      regime.config = UpworkLikeConfig(workers, seed);
      regime.config.num_tasks = tasks;
      break;
  }
  // Capacity regimes: from unit-capacity matching markets to wide tasks.
  // Mins are pinned to 1 because some presets set them above the narrow
  // maxima this sweep explores.
  regime.config.worker_capacity_min = 1;
  regime.config.worker_capacity_max = 1 + (i % 4);
  regime.config.task_capacity_min = 1;
  regime.config.task_capacity_max = 1 + ((i / 4) % 4);
  // Group tasks under a few requesters so budgets bind across tasks.
  regime.config.num_requesters = 1 + (i % 5);
  const double alphas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  regime.alpha = alphas[i % 5];
  const double fractions[] = {0.3, 0.6, 1.0};
  regime.budget_fraction = fractions[i % 3];
  return regime;
}

/// Validates `a` (with reported objective) and checks determinism by
/// re-solving — once bare and once with default SolveOptions and a
/// SolveStats sink attached, so the suite also proves instrumentation
/// never perturbs the result.
/// Returns the objective value for cross-solver comparisons.
double CheckSolver(const Solver& solver, const MbtaProblem& problem,
                   const BudgetConstraint* budget = nullptr) {
  SCOPED_TRACE("solver=" + solver.name());
  const Assignment a = solver.Solve(problem);

  ValidationOptions options;
  options.reported_value = problem.MakeObjective().Value(a);
  options.budget = budget;
  const ValidationResult r = ValidateAssignment(problem, a, options);
  EXPECT_TRUE(r.ok()) << r.Message();

  const Assignment again = solver.Solve(problem);
  EXPECT_EQ(a.edges, again.edges) << "non-deterministic resolve";

  // Robustness invariant #1: an explicitly-unlimited SolveOptions with a
  // SolveStats sink attached must not change a single byte of output
  // relative to the default arguments.
  SolveStats unlimited_stats;
  const Assignment with_options =
      solver.Solve(problem, SolveOptions{}, &unlimited_stats);
  EXPECT_EQ(a.edges, with_options.edges)
      << "instrumented, unlimited SolveOptions perturbed the assignment";
  EXPECT_FALSE(unlimited_stats.deadline_hit);
  EXPECT_EQ(unlimited_stats.stop_reason, StopReason::kNone);

  // Robustness invariant #2 (anytime contract): a solve stopped by an
  // exhausted work budget still returns a feasible, validator-clean
  // assignment and flags the degradation. A solver with no work to do
  // (degenerate regime) may instead complete identically.
  SolveOptions exhausted;
  exhausted.budget.max_work = 0;
  SolveStats degraded_stats;
  const Assignment degraded =
      solver.Solve(problem, exhausted, &degraded_stats);
  const ValidationResult degraded_result =
      ValidateAssignment(problem, degraded, {});
  EXPECT_TRUE(degraded_result.ok()) << degraded_result.Message();
  EXPECT_TRUE(degraded_stats.deadline_hit || degraded.edges == a.edges)
      << "budget-0 solve neither flagged the deadline nor completed";
  if (degraded_stats.deadline_hit) {
    EXPECT_EQ(degraded_stats.stop_reason, StopReason::kWorkBudget);
  }
  return r.recomputed_value;
}

/// Registry completeness: every registered solver passes the oracle on
/// every instance — submodular objective, or the modular twin of the same
/// market for modular-only entries — so no solver escapes validation.
class RegistryDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RegistryDifferentialTest, EveryEntryPassesTheOracle) {
  const Regime regime = MakeRegime(GetParam());
  SCOPED_TRACE(regime.Describe());
  const LaborMarket market = GenerateMarket(regime.config);
  ASSERT_GT(market.NumEdges(), 0u) << "degenerate regime: no edges";
  for (const SolverEntry& entry : SolverRegistry()) {
    const ObjectiveKind kind = entry.modular_only
                                   ? ObjectiveKind::kModular
                                   : ObjectiveKind::kSubmodular;
    CheckSolver(*entry.make(regime.config.seed, market),
                {&market, {.alpha = regime.alpha, .kind = kind}});
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, RegistryDifferentialTest,
                         ::testing::Range(0, 100));

/// Cross-solver orderings on the same grid.
class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, AllSolversValidDeterministicAndOrdered) {
  const Regime regime = MakeRegime(GetParam());
  SCOPED_TRACE(regime.Describe());
  const LaborMarket market = GenerateMarket(regime.config);
  ASSERT_GT(market.NumEdges(), 0u) << "degenerate regime: no edges";

  const MbtaProblem submodular{
      &market, {.alpha = regime.alpha, .kind = ObjectiveKind::kSubmodular}};
  const MbtaProblem modular{
      &market, {.alpha = regime.alpha, .kind = ObjectiveKind::kModular}};

  // Exact flow and greedy on the modular twin of the same market.
  const double flow_value = CheckSolver(ExactFlowSolver(), modular);
  const double modular_greedy = CheckSolver(GreedySolver(), modular);
  // Exact flow solves modular MBTA optimally (up to its fixed-point
  // grid), so greedy can never land meaningfully above it.
  EXPECT_LE(modular_greedy,
            flow_value +
                static_cast<double>(market.NumEdges()) / ExactFlowSolver::kScale +
                kEps);

  // Local search is seeded with greedy and only applies improving moves.
  const double greedy_value = CheckSolver(GreedySolver(), submodular);
  const double local_value = CheckSolver(LocalSearchSolver(), submodular);
  EXPECT_GE(local_value, greedy_value - kEps)
      << "local search fell below its greedy seed";

  // Budgeted greedy under a binding budget stays budget-feasible.
  const BudgetConstraint budget =
      ProportionalBudgets(market, regime.budget_fraction);
  CheckSolver(BudgetedGreedySolver(budget), submodular, &budget);
}

// 100 seeded instances spanning the preset × size × alpha × capacity ×
// budget grid.
INSTANTIATE_TEST_SUITE_P(Instances, DifferentialTest,
                         ::testing::Range(0, 100));

/// Tiny instances where brute force supplies ground truth.
class TinyOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(TinyOracleTest, HeuristicsBoundedByBruteForce) {
  const int i = GetParam();
  Rng rng(0xBEEF + static_cast<std::uint64_t>(i) * 7919);
  const LaborMarket market = RandomTestMarket(rng, 4, 4, 0.55);
  if (market.NumEdges() == 0 || market.NumEdges() > 16) {
    GTEST_SKIP() << "instance outside brute-force budget";
  }
  const double alphas[] = {0.0, 0.5, 1.0};
  const double alpha = alphas[i % 3];
  SCOPED_TRACE("tiny instance " + std::to_string(i) + " seed " +
               std::to_string(0xBEEF + i * 7919) + " alpha " +
               std::to_string(alpha));

  const MbtaProblem submodular{
      &market, {.alpha = alpha, .kind = ObjectiveKind::kSubmodular}};
  const double opt = CheckSolver(BruteForceSolver(), submodular);

  // No heuristic beats the optimum; greedy additionally clears its
  // provable 1/(1+k) = 1/3 floor for k = 2 matroids. (Empirically greedy
  // sits far above (1−1/e)·OPT here, but only 1/3 is a theorem for
  // matroid-intersection constraints, so only 1/3 is a hard assert.)
  const double greedy = CheckSolver(GreedySolver(), submodular);
  EXPECT_LE(greedy, opt + kEps);
  EXPECT_GE(greedy, opt / 3.0 - kEps);
  for (const SolverEntry& entry : SolverRegistry()) {
    if (entry.modular_only) continue;
    const double value = CheckSolver(
        *entry.make(static_cast<std::uint64_t>(i), market), submodular);
    EXPECT_LE(value, opt + kEps) << entry.name << " beat brute force";
  }

  // Modular: exact flow is optimal, so it matches brute force to within
  // the documented fixed-point grid |E|·1e-6.
  const MbtaProblem modular{&market,
                            {.alpha = alpha, .kind = ObjectiveKind::kModular}};
  const double modular_opt = CheckSolver(BruteForceSolver(), modular);
  const double flow = CheckSolver(ExactFlowSolver(), modular);
  const double grid =
      static_cast<double>(market.NumEdges()) / ExactFlowSolver::kScale;
  EXPECT_NEAR(flow, modular_opt, grid + 1e-6);
}

TEST_P(TinyOracleTest, GreedyEmpiricallyNearOptimal) {
  // The (1−1/e) ratio the submodular-maximization literature promises for
  // cardinality constraints is not a theorem under two matroids, but on
  // this instance distribution greedy clears it comfortably — pinned here
  // as a canary: a solver regression that drags greedy below 63% of OPT
  // on *any* of these seeds is a real bug, not noise.
  const int i = GetParam();
  Rng rng(0xCAFE + static_cast<std::uint64_t>(i) * 104729);
  const LaborMarket market = RandomTestMarket(rng, 4, 4, 0.5);
  if (market.NumEdges() == 0 || market.NumEdges() > 16) {
    GTEST_SKIP() << "instance outside brute-force budget";
  }
  SCOPED_TRACE("tiny instance " + std::to_string(i));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const MutualBenefitObjective obj = p.MakeObjective();
  const double opt = obj.Value(BruteForceSolver().Solve(p));
  const double greedy = obj.Value(GreedySolver().Solve(p));
  EXPECT_GE(greedy, (1.0 - 1.0 / M_E) * opt - kEps);
}

INSTANTIATE_TEST_SUITE_P(Instances, TinyOracleTest, ::testing::Range(0, 48));

}  // namespace
}  // namespace mbta
