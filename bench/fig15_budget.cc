/// Figure 15 (extension): mutual benefit under requester budget caps.
/// Expected shape: MB grows with the budget fraction and saturates at the
/// unconstrained greedy level once budgets stop binding; the better-of-
/// (gain, density) budgeted greedy dominates either single pass, with the
/// density pass mattering most at tight budgets.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/budgeted_greedy_solver.h"
#include "core/greedy_solver.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 15: benefit vs requester budget (extension)",
      "x = budget as a fraction of full-demand spend, y = MB; "
      "unconstrained greedy shown as the saturation reference",
      "mturk-like 1000 workers grouped under 20 requesters, alpha=0.5, "
      "submodular, seed 42");
  bench::JsonLog json(argc, argv, "fig15",
                      "mturk-like 1000 workers, 20 requesters, alpha=0.5, "
                      "submodular, seed 42");

  GeneratorConfig config = MTurkLikeConfig(1000, 42);
  config.num_requesters = 20;
  const LaborMarket market = GenerateMarket(config);
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const MutualBenefitObjective obj = p.MakeObjective();

  const double unconstrained = obj.Value(GreedySolver().Solve(p));
  std::printf("unconstrained greedy MB = %.4f\n\n", unconstrained);

  Table table({"budget fraction", "MB", "vs unconstrained", "#assigned",
               "time(ms)"});
  for (double fraction :
       {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0}) {
    const BudgetConstraint budget = ProportionalBudgets(market, fraction);
    SolveStats info;
    const Assignment a = BudgetedGreedySolver(budget).Solve(p, {}, &info);
    const double value = obj.Value(a);
    json.AddRow({{"budget_fraction", Table::Num(fraction)}},
                {{"mutual_benefit", value},
                 {"ratio_vs_unconstrained", value / unconstrained},
                 {"num_assignments", static_cast<double>(a.size())},
                 {"wall_ms", info.wall_ms}});
    table.AddRow({Table::Num(fraction), Table::Num(value),
                  Table::Num(value / unconstrained),
                  Table::Num(static_cast<std::int64_t>(a.size())),
                  Table::Num(info.wall_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
