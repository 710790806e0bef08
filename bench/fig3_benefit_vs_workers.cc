/// Figure 3: total mutual benefit vs market size (number of workers) on
/// the MTurk-like dataset. Expected shape: all curves grow with supply;
/// the mutual-benefit-aware solvers (greedy / threshold / local-search)
/// dominate the one-sided and random baselines at every size.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 3: mutual benefit vs |W|",
      "series = solver, x = number of workers, y = MB(A)",
      "mturk-like, |T| = 2|W|, alpha=0.5, submodular, seed 42");
  bench::JsonLog json(argc, argv, "fig3",
                      "mturk-like, |T| = 2|W|, alpha=0.5, submodular, seed 42");

  Table table({"|W|", "solver", "MB", "RB", "WB", "time(ms)"});
  for (std::size_t workers : {250u, 500u, 1000u, 2000u, 4000u}) {
    const LaborMarket market =
        GenerateMarket(MTurkLikeConfig(workers, 42));
    const MbtaProblem p{&market,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    for (const auto& solver : bench::SweepSolvers(7, market)) {
      const bench::SolverRun run = bench::RunSolver(*solver, p);
      json.AddRun({{"workers", std::to_string(workers)}}, run);
      table.AddRow({Table::Num(static_cast<std::int64_t>(workers)),
                    run.solver, Table::Num(run.metrics.mutual_benefit),
                    Table::Num(run.metrics.requester_benefit),
                    Table::Num(run.metrics.worker_benefit),
                    Table::Num(run.info.wall_ms)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
