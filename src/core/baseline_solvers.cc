#include "core/baseline_solvers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/solve_options.h"
#include "flow/min_cost_flow.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/distribution.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mbta {

Assignment RandomSolver::Solve(const MbtaProblem& problem,
                               const SolveOptions& options,
                               SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);

  Rng rng(seed_);
  std::vector<EdgeId> order(market.NumEdges());
  {
    ScopedPhase phase(phases, "shuffle");
    for (EdgeId e = 0; e < market.NumEdges(); ++e) order[e] = e;
    Shuffle(rng, order);
  }
  std::size_t scanned = 0;
  std::size_t accepted = 0;
  {
    ScopedPhase phase(phases, "fill");
    // Budget checkpoint: one charge per candidate edge scanned.
    for (EdgeId e : order) {
      if (gate->Charge()) break;
      ++scanned;
      if (state.CanAdd(e)) {
        state.Add(e);
        ++accepted;
      }
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = scanned;
    info->counters.Add("random/edges_scanned", scanned);
    info->counters.Add("random/edges_accepted", accepted);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

Assignment WorkerCentricSolver::Solve(const MbtaProblem& problem,
                                      const SolveOptions& options,
                                      SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);

  std::size_t scanned = 0;
  std::size_t accepted = 0;
  bool expired = false;
  {
    ScopedPhase phase(phases, "assign_workers");
    // Hoisted out of the per-worker loop: clear()+reserve() reuses the
    // capacity, so only the first few workers ever grow it (R9).
    std::vector<EdgeId> sorted;
    // Budget checkpoint: one charge per candidate edge scanned.
    for (WorkerId w = 0; w < market.NumWorkers() && !expired; ++w) {
      auto edges = market.WorkerEdges(w);
      sorted.clear();
      sorted.reserve(edges.size());
      for (const Incidence& inc : edges) sorted.push_back(inc.edge);
      std::sort(sorted.begin(), sorted.end(), [&](EdgeId a, EdgeId b) {
        return market.WorkerBenefit(a) > market.WorkerBenefit(b);
      });
      for (EdgeId e : sorted) {
        if (state.WorkerLoad(w) >= market.worker(w).capacity) break;
        if (gate->Charge()) {
          expired = true;
          break;
        }
        ++scanned;
        if (state.CanAdd(e)) {
          state.Add(e);
          ++accepted;
        }
      }
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = scanned;
    info->counters.Add("baseline/edges_scanned", scanned);
    info->counters.Add("baseline/edges_accepted", accepted);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

Assignment RequesterCentricSolver::Solve(const MbtaProblem& problem,
                                         const SolveOptions& options,
                                         SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();
  ObjectiveState state(&objective);

  std::size_t scanned = 0;
  std::size_t accepted = 0;
  bool expired = false;
  {
    ScopedPhase phase(phases, "assign_tasks");
    // Hoisted out of the per-task loop: clear()+reserve() reuses the
    // capacity, so only the first few tasks ever grow it (R9).
    std::vector<EdgeId> sorted;
    // Budget checkpoint: one charge per candidate edge scanned.
    for (TaskId t = 0; t < market.NumTasks() && !expired; ++t) {
      auto edges = market.TaskEdges(t);
      sorted.clear();
      sorted.reserve(edges.size());
      for (const Incidence& inc : edges) sorted.push_back(inc.edge);
      std::sort(sorted.begin(), sorted.end(), [&](EdgeId a, EdgeId b) {
        return market.Quality(a) > market.Quality(b);
      });
      for (EdgeId e : sorted) {
        if (state.TaskLoad(t) >= market.task(t).capacity) break;
        if (gate->Charge()) {
          expired = true;
          break;
        }
        ++scanned;
        if (state.CanAdd(e)) {
          state.Add(e);
          ++accepted;
        }
      }
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = scanned;
    info->counters.Add("baseline/edges_scanned", scanned);
    info->counters.Add("baseline/edges_accepted", accepted);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

Assignment MatchingSolver::Solve(const MbtaProblem& problem,
                                 const SolveOptions& options,
                                 SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase flow_phase(phases, "flow");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const MutualBenefitObjective objective = problem.MakeObjective();
  const LaborMarket& market = objective.market();

  constexpr double kScale = 1e6;
  const std::size_t num_workers = market.NumWorkers();
  const std::size_t num_tasks = market.NumTasks();
  MinCostFlow mcf(num_workers + num_tasks + 2);
  mcf.SetDeadlineGate(gate);
  if (phases != nullptr) mcf.SetTracer(phases->tracer());
  const std::size_t source = 0;
  const std::size_t sink = num_workers + num_tasks + 1;
  std::vector<MinCostFlow::ArcId> edge_arcs(market.NumEdges());
  {
    ScopedPhase phase(phases, "build_graph");
    for (WorkerId w = 0; w < num_workers; ++w) {
      mcf.AddArc(source, 1 + w, 1, 0);  // unit capacity: it's a matching
    }
    for (TaskId t = 0; t < num_tasks; ++t) {
      mcf.AddArc(1 + num_workers + t, sink, 1, 0);
    }
    for (EdgeId e = 0; e < market.NumEdges(); ++e) {
      const std::int64_t cost = -static_cast<std::int64_t>(
          std::llround(objective.EdgeWeight(e) * kScale));
      edge_arcs[e] = mcf.AddArc(1 + market.EdgeWorker(e),
                                1 + num_workers + market.EdgeTask(e), 1,
                                cost);
    }
  }
  {
    ScopedPhase phase(phases, "augment");
    mcf.SolveNegativeOnly(source, sink);
  }

  Assignment result;
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    if (mcf.Flow(edge_arcs[e]) > 0) result.edges.push_back(e);
  }
  if (info != nullptr) {
    const MinCostFlow::Stats& fs = mcf.stats();
    info->gain_evaluations =
        static_cast<std::size_t>(fs.augmenting_paths);
    info->counters.Add("flow/augmenting_paths", fs.augmenting_paths);
    info->counters.Add("flow/dijkstra_runs", fs.dijkstra_runs);
    info->counters.Add("flow/arcs_scanned", fs.arcs_scanned);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return result;
}

}  // namespace mbta
