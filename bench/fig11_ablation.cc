/// Figure 11: ablations of the design choices DESIGN.md calls out.
///  (a) lazy vs plain greedy — same output value, far fewer marginal-gain
///      evaluations;
///  (b) local-search pass budget — diminishing improvement over greedy;
///  (c) threshold-greedy epsilon — the speed/quality dial.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/greedy_solver.h"
#include "core/local_search_solver.h"
#include "core/threshold_solver.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 11: ablations (lazy greedy, local-search passes, "
      "threshold epsilon)",
      "three panels; see per-panel tables below",
      "mturk-like 1000 workers, alpha=0.5, submodular, seed 42");
  bench::JsonLog json(argc, argv, "fig11",
                      "mturk-like 1000 workers, alpha=0.5, submodular, "
                      "seed 42");

  const LaborMarket market = GenerateMarket(MTurkLikeConfig(1000, 42));
  const MbtaProblem p{&market,
                      {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
  const MutualBenefitObjective obj = p.MakeObjective();

  {
    std::printf("(a) lazy vs plain greedy\n");
    Table table({"mode", "MB", "gain evals", "time(ms)"});
    for (GreedySolver::Mode mode :
         {GreedySolver::Mode::kLazy, GreedySolver::Mode::kPlain}) {
      const GreedySolver solver(mode);
      SolveStats info;
      const Assignment a = solver.Solve(p, {}, &info);
      json.AddRow({{"panel", "a"}, {"mode", solver.name()}},
                  {{"mutual_benefit", obj.Value(a)},
                   {"gain_evaluations",
                    static_cast<double>(info.gain_evaluations)},
                   {"wall_ms", info.wall_ms}});
      table.AddRow({solver.name(), Table::Num(obj.Value(a)),
                    Table::Num(static_cast<std::int64_t>(
                        info.gain_evaluations)),
                    Table::Num(info.wall_ms)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  {
    std::printf("(b) local-search pass budget (0 passes = greedy)\n");
    Table table({"passes", "MB", "improvement vs greedy %", "time(ms)"});
    const double greedy_value = obj.Value(GreedySolver().Solve(p));
    for (int passes : {0, 1, 2, 4, 8}) {
      LocalSearchSolver::Options opts;
      opts.max_passes = passes;
      SolveStats info;
      const Assignment a = LocalSearchSolver(opts).Solve(p, {}, &info);
      const double value = obj.Value(a);
      json.AddRow({{"panel", "b"}, {"passes", std::to_string(passes)}},
                  {{"mutual_benefit", value},
                   {"improvement_pct",
                    100.0 * (value - greedy_value) / greedy_value},
                   {"wall_ms", info.wall_ms}});
      table.AddRow({Table::Num(static_cast<std::int64_t>(passes)),
                    Table::Num(value),
                    Table::Num(100.0 * (value - greedy_value) /
                               greedy_value),
                    Table::Num(info.wall_ms)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  {
    std::printf("(c) threshold-greedy epsilon\n");
    Table table({"epsilon", "MB", "gain evals", "time(ms)"});
    for (double eps : {0.5, 0.2, 0.1, 0.05, 0.02}) {
      SolveStats info;
      const Assignment a = ThresholdSolver(eps).Solve(p, {}, &info);
      json.AddRow({{"panel", "c"}, {"epsilon", Table::Num(eps)}},
                  {{"mutual_benefit", obj.Value(a)},
                   {"gain_evaluations",
                    static_cast<double>(info.gain_evaluations)},
                   {"wall_ms", info.wall_ms}});
      table.AddRow({Table::Num(eps), Table::Num(obj.Value(a)),
                    Table::Num(static_cast<std::int64_t>(
                        info.gain_evaluations)),
                    Table::Num(info.wall_ms)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  return 0;
}
