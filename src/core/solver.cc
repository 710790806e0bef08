#include "core/solver.h"

#include <array>

#include "core/baseline_solvers.h"
#include "core/budget.h"
#include "core/budgeted_greedy_solver.h"
#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/local_search_solver.h"
#include "core/online_solvers.h"
#include "core/stable_matching_solver.h"
#include "core/threshold_solver.h"

namespace mbta {

namespace {

/// Adapts a solver constructor to the SolverEntry factory signature.
template <typename S, auto... kArgs>
std::unique_ptr<Solver> Make(std::uint64_t, const LaborMarket&) {
  return std::make_unique<S>(kArgs...);
}

template <typename S>
std::unique_ptr<Solver> MakeSeeded(std::uint64_t seed, const LaborMarket&) {
  return std::make_unique<S>(seed);
}

std::unique_ptr<Solver> MakeBudgetedGreedy(std::uint64_t,
                                           const LaborMarket& market) {
  return std::make_unique<BudgetedGreedySolver>(
      ProportionalBudgets(market, 0.5));
}

constexpr SolverEntry kRegistry[] = {
    {.name = "exact-flow",
     .make = Make<ExactFlowSolver>,
     .modular_only = true},
    {"greedy", Make<GreedySolver>},
    {"threshold", Make<ThresholdSolver>},
    {"local-search", Make<LocalSearchSolver>},
    {"matching", Make<MatchingSolver>},
    {"stable-da", Make<StableMatchingSolver>},
    {"worker-centric", Make<WorkerCentricSolver>},
    {"requester-centric", Make<RequesterCentricSolver>},
    {"random", MakeSeeded<RandomSolver>},
    {"greedy-plain", Make<GreedySolver, GreedySolver::Mode::kPlain>},
    {"online-greedy", MakeSeeded<OnlineGreedySolver>},
    {"online-task-greedy", MakeSeeded<TaskArrivalGreedySolver>},
    {"online-two-phase", MakeSeeded<TwoPhaseOnlineSolver>},
    {"budgeted-greedy", MakeBudgetedGreedy},
};

constexpr auto kNames = [] {
  std::array<std::string_view, std::size(kRegistry)> names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    names[i] = kRegistry[i].name;
  }
  return names;
}();

}  // namespace

std::span<const SolverEntry> SolverRegistry() { return kRegistry; }

std::span<const std::string_view> SolverNames() { return kNames; }

std::unique_ptr<Solver> MakeSolver(std::string_view name, std::uint64_t seed,
                                   const LaborMarket& market) {
  for (const SolverEntry& entry : kRegistry) {
    if (entry.name == name) return entry.make(seed, market);
  }
  return nullptr;
}

}  // namespace mbta
