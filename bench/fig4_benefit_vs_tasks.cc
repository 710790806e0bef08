/// Figure 4: total mutual benefit vs number of tasks with the worker pool
/// held fixed. Expected shape: benefit saturates once worker capacity is
/// exhausted — adding tasks beyond what the crowd can serve stops helping;
/// mutual-benefit-aware solvers saturate at a higher level.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 4: mutual benefit vs |T|",
      "series = solver, x = number of tasks, y = MB(A); fixed 1000 workers",
      "mturk-like base config with task count overridden, alpha=0.5");
  bench::JsonLog json(
      argc, argv, "fig4",
      "mturk-like base config with task count overridden, alpha=0.5");

  Table table({"|T|", "solver", "MB", "#assigned", "tasks covered"});
  for (std::size_t tasks : {500u, 1000u, 2000u, 4000u, 8000u}) {
    GeneratorConfig config = MTurkLikeConfig(1000, 42);
    config.num_tasks = tasks;
    const LaborMarket market = GenerateMarket(config);
    const MbtaProblem p{&market,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    for (const auto& solver : bench::SweepSolvers(7, market)) {
      const bench::SolverRun run = bench::RunSolver(*solver, p);
      json.AddRun({{"tasks", std::to_string(tasks)}}, run);
      table.AddRow(
          {Table::Num(static_cast<std::int64_t>(tasks)), run.solver,
           Table::Num(run.metrics.mutual_benefit),
           Table::Num(static_cast<std::int64_t>(run.metrics.num_assignments)),
           Table::Num(static_cast<std::int64_t>(run.metrics.tasks_covered))});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
