/// Table 2: headline comparison of all solvers on all four datasets —
/// mutual benefit (α = 0.5, submodular), unweighted per-side benefits,
/// assignment size, and solve time. The exact-flow row (modular objective)
/// of each dataset is the modular optimum reference.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace mbta;
  bench::PrintBanner(
      "Table 2: solver summary",
      "MB / requester / worker benefit and runtime per solver x dataset; "
      "mutual-benefit-aware solvers should lead on MB everywhere",
      "four datasets at 500 workers, alpha=0.5, submodular objective");
  bench::JsonLog json(
      argc, argv, "table2",
      "four datasets at 500 workers, alpha=0.5, submodular objective");

  Table table({"dataset", "solver", "objective", "MB", "RB", "WB",
               "#assigned", "time(ms)"});
  for (const GeneratorConfig& config : bench::StandardDatasets(500, 42)) {
    const LaborMarket market = GenerateMarket(config);

    for (const SolverEntry& entry : SolverRegistry()) {
      // Modular reference: the flow solver is provably optimal there, so
      // its row bounds what any algorithm could reach on that variant.
      const ObjectiveKind kind = entry.modular_only
                                     ? ObjectiveKind::kModular
                                     : ObjectiveKind::kSubmodular;
      const MbtaProblem problem{&market, {.alpha = 0.5, .kind = kind}};
      const bench::SolverRun run =
          bench::RunSolver(*entry.make(7, market), problem);
      json.AddRun({{"dataset", market.name()}, {"objective", ToString(kind)}},
                  run);
      table.AddRow(
          {market.name(), run.solver, ToString(kind),
           Table::Num(run.metrics.mutual_benefit),
           Table::Num(run.metrics.requester_benefit),
           Table::Num(run.metrics.worker_benefit),
           Table::Num(static_cast<std::int64_t>(run.metrics.num_assignments)),
           Table::Num(run.info.wall_ms)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
