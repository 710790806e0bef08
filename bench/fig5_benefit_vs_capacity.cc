/// Figure 5: mutual benefit vs worker capacity. Expected shape: benefit
/// rises with capacity then flattens as task supply (and fatigue
/// discounting) binds; the gap between mutual-benefit-aware solvers and
/// one-sided baselines widens with capacity because capacity gives the
/// optimizer room the myopic policies squander.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Figure 5: mutual benefit vs worker capacity",
      "series = solver, x = uniform worker capacity, y = MB(A)",
      "synth-uniform 1000x1000, cap(w)=c for c in 1..10, alpha=0.5");
  bench::JsonLog json(
      argc, argv, "fig5",
      "synth-uniform 1000x1000, cap(w)=c for c in 1..10, alpha=0.5");

  Table table({"cap(w)", "solver", "MB", "#assigned"});
  for (int cap : {1, 2, 4, 6, 8, 10}) {
    GeneratorConfig config = UniformConfig(1000, 1000, 42);
    config.worker_capacity_min = cap;
    config.worker_capacity_max = cap;
    const LaborMarket market = GenerateMarket(config);
    const MbtaProblem p{&market,
                        {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    for (const auto& solver : bench::SweepSolvers(7, market)) {
      const bench::SolverRun run = bench::RunSolver(*solver, p);
      json.AddRun({{"worker_capacity", std::to_string(cap)}}, run);
      table.AddRow(
          {Table::Num(static_cast<std::int64_t>(cap)), run.solver,
           Table::Num(run.metrics.mutual_benefit),
           Table::Num(static_cast<std::int64_t>(run.metrics.num_assignments))});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
