#include "core/repair.h"

#include <vector>

#include "util/check.h"

namespace mbta {

namespace {

constexpr WorkerId kNoWorkerBan = static_cast<WorkerId>(-1);
constexpr TaskId kNoTaskBan = static_cast<TaskId>(-1);

/// GreedyRefill with an endpoint ban: edges touching the banned
/// worker/task are skipped (kInvalid* = no ban). The removal paths use
/// the ban to keep a departed entity out of its own backfill.
void RefillBanned(ObjectiveState& state, const std::vector<EdgeId>& candidates,
                  WorkerId banned_worker, TaskId banned_task,
                  RepairStats* stats, DeadlineGate* gate) {
  const LaborMarket& market = state.objective().market();
  for (;;) {
    double best_gain = 1e-12;
    EdgeId best_edge = kInvalidEdge;
    for (EdgeId e : candidates) {
      if (market.EdgeWorker(e) == banned_worker) continue;
      if (market.EdgeTask(e) == banned_task) continue;
      if (!state.CanAdd(e)) continue;
      if (gate != nullptr && gate->Charge()) return;
      const double gain = state.MarginalGain(e);
      if (stats != nullptr) ++stats->gain_evaluations;
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = e;
      }
    }
    if (best_edge == kInvalidEdge) break;
    state.Add(best_edge);
    if (stats != nullptr) ++stats->edges_added;
  }
}

}  // namespace

void GreedyRefill(ObjectiveState& state, const std::vector<EdgeId>& candidates,
                  RepairStats* stats, DeadlineGate* gate) {
  RefillBanned(state, candidates, kNoWorkerBan, kNoTaskBan, stats, gate);
}

Assignment RemoveWorkerAndRepair(const MutualBenefitObjective& objective,
                                 const Assignment& current, WorkerId w,
                                 RepairStats* stats) {
  const LaborMarket& market = objective.market();
  MBTA_CHECK(w < market.NumWorkers());
  ObjectiveState state(&objective);
  std::vector<TaskId> freed_tasks;
  for (EdgeId e : current.edges) {
    if (market.EdgeWorker(e) == w) {
      freed_tasks.push_back(market.EdgeTask(e));
      if (stats != nullptr) ++stats->edges_dropped;
    } else {
      state.Add(e);
    }
  }
  // Candidates: every edge of every task the departed worker served.
  std::vector<EdgeId> candidates;
  for (TaskId t : freed_tasks) {
    for (const Incidence& inc : market.TaskEdges(t)) {
      candidates.push_back(inc.edge);
    }
  }
  RefillBanned(state, candidates, /*banned_worker=*/w, kNoTaskBan, stats,
               nullptr);
  return state.ToAssignment();
}

Assignment RemoveTaskAndRepair(const MutualBenefitObjective& objective,
                               const Assignment& current, TaskId t,
                               RepairStats* stats) {
  const LaborMarket& market = objective.market();
  MBTA_CHECK(t < market.NumTasks());
  ObjectiveState state(&objective);
  std::vector<WorkerId> freed_workers;
  for (EdgeId e : current.edges) {
    if (market.EdgeTask(e) == t) {
      freed_workers.push_back(market.EdgeWorker(e));
      if (stats != nullptr) ++stats->edges_dropped;
    } else {
      state.Add(e);
    }
  }
  std::vector<EdgeId> candidates;
  for (WorkerId w : freed_workers) {
    for (const Incidence& inc : market.WorkerEdges(w)) {
      candidates.push_back(inc.edge);
    }
  }
  RefillBanned(state, candidates, kNoWorkerBan, /*banned_task=*/t, stats,
               nullptr);
  return state.ToAssignment();
}

}  // namespace mbta
