#include "core/stable_matching_solver.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "core/solve_options.h"
#include "obs/phase_timer.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace mbta {

namespace {

/// Min-heap entry for a task's tentatively held workers, ordered by
/// quality so the weakest held proposal is evicted first.
struct Held {
  double quality;
  EdgeId edge;
  bool operator>(const Held& other) const {
    return quality > other.quality;
  }
};

}  // namespace

Assignment StableMatchingSolver::Solve(const MbtaProblem& problem,
                                       const SolveOptions& options,
                                       SolveStats* info) const {
  MBTA_CHECK(problem.market != nullptr);
  WallTimer timer;
  PhaseTimings* phases = info != nullptr ? &info->phases : nullptr;
  ScopedPhase solve_phase(phases, "solve");
  DeadlineGate local_gate = MakeGate(options);
  DeadlineGate* gate =
      options.shared_gate != nullptr ? options.shared_gate : &local_gate;
  const LaborMarket& market = *problem.market;

  // Each worker's proposal list: its edges sorted by worker benefit,
  // best first; `next_proposal[w]` tracks progress down the list.
  std::vector<std::vector<EdgeId>> preference(market.NumWorkers());
  {
    ScopedPhase phase(phases, "build_preferences");
    for (WorkerId w = 0; w < market.NumWorkers(); ++w) {
      for (const Incidence& inc : market.WorkerEdges(w)) {
        preference[w].push_back(inc.edge);
      }
      std::sort(preference[w].begin(), preference[w].end(),
                [&](EdgeId a, EdgeId b) {
                  return market.WorkerBenefit(a) > market.WorkerBenefit(b);
                });
    }
  }
  std::vector<std::size_t> next_proposal(market.NumWorkers(), 0);
  std::vector<int> worker_held(market.NumWorkers(), 0);

  // Tasks keep their held proposals in a min-heap by quality.
  std::vector<std::priority_queue<Held, std::vector<Held>, std::greater<>>>
      held(market.NumTasks());

  // Workers with spare capacity and untried tasks keep proposing.
  std::queue<WorkerId> active;
  for (WorkerId w = 0; w < market.NumWorkers(); ++w) {
    if (market.worker(w).capacity > 0 && !preference[w].empty()) {
      active.push(w);
    }
  }

  std::size_t proposals = 0;
  std::size_t evictions = 0;
  bool expired = false;
  {
    ScopedPhase phase(phases, "propose");
    // Budget checkpoint: one charge per proposal. The held-sets respect
    // both sides' capacities after every proposal, so stopping here
    // extracts a feasible (possibly not yet stable) assignment.
    while (!active.empty() && !expired) {
      const WorkerId w = active.front();
      active.pop();
      while (worker_held[w] < market.worker(w).capacity &&
             next_proposal[w] < preference[w].size()) {
        if (gate->Charge()) {
          expired = true;
          break;
        }
        const EdgeId e = preference[w][next_proposal[w]++];
        ++proposals;
        const TaskId t = market.EdgeTask(e);
        const int cap = market.task(t).capacity;
        if (cap == 0) continue;
        if (static_cast<int>(held[t].size()) < cap) {
          held[t].push({market.Quality(e), e});
          ++worker_held[w];
        } else if (held[t].top().quality < market.Quality(e)) {
          const EdgeId evicted = held[t].top().edge;
          held[t].pop();
          held[t].push({market.Quality(e), e});
          ++worker_held[w];
          ++evictions;
          const WorkerId loser = market.EdgeWorker(evicted);
          --worker_held[loser];
          active.push(loser);  // the evicted worker resumes proposing
        }
        // else: rejected outright; try the next task on the list.
      }
    }
  }

  Assignment result;
  {
    ScopedPhase phase(phases, "extract");
    for (TaskId t = 0; t < market.NumTasks(); ++t) {
      auto& heap = held[t];
      while (!heap.empty()) {
        result.edges.push_back(heap.top().edge);
        heap.pop();
      }
    }
    std::sort(result.edges.begin(), result.edges.end());
  }
  if (info != nullptr) {
    info->gain_evaluations = proposals;
    info->counters.Add("stable/proposals", proposals);
    info->counters.Add("stable/evictions", evictions);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return result;
}

bool IsStableMatching(const LaborMarket& market, const Assignment& a) {
  return IsFeasible(market, a) && CountBlockingPairs(market, a) == 0;
}

std::size_t CountBlockingPairs(const LaborMarket& market,
                               const Assignment& a) {
  MBTA_CHECK(IsFeasible(market, a));
  std::vector<bool> chosen(market.NumEdges(), false);
  for (EdgeId e : a.edges) chosen[e] = true;

  // Per-worker: lowest benefit currently held; per-task: lowest quality.
  constexpr double kInf = 1e300;
  std::vector<int> worker_load(market.NumWorkers(), 0);
  std::vector<int> task_load(market.NumTasks(), 0);
  std::vector<double> worker_worst(market.NumWorkers(), kInf);
  std::vector<double> task_worst(market.NumTasks(), kInf);
  for (EdgeId e : a.edges) {
    const WorkerId w = market.EdgeWorker(e);
    const TaskId t = market.EdgeTask(e);
    ++worker_load[w];
    ++task_load[t];
    worker_worst[w] = std::min(worker_worst[w], market.WorkerBenefit(e));
    task_worst[t] = std::min(task_worst[t], market.Quality(e));
  }

  std::size_t blocking = 0;
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    if (chosen[e]) continue;
    const WorkerId w = market.EdgeWorker(e);
    const TaskId t = market.EdgeTask(e);
    const bool worker_wants =
        worker_load[w] < market.worker(w).capacity ||
        market.WorkerBenefit(e) > worker_worst[w];
    const bool task_wants = task_load[t] < market.task(t).capacity ||
                            market.Quality(e) > task_worst[t];
    if (worker_wants && task_wants) ++blocking;
  }
  return blocking;
}

}  // namespace mbta
