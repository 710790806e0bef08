#include "core/local_search_solver.h"

#include <span>

#include "core/greedy_solver.h"
#include "core/solve_options.h"
#include "obs/phase_timer.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/timer.h"

namespace mbta {

namespace {

/// One undo-journal entry (see AttemptSwap).
struct Op {
  bool added;
  EdgeId edge;
};

/// Per-solve move buffers, arena-backed and reused across every
/// attempted move (cleared, never reallocated once warm).
struct MoveScratch {
  explicit MoveScratch(Arena* arena)
      : journal(arena),
        candidates(arena),
        worker_victims(arena),
        task_victims(arena) {}
  ArenaVector<Op> journal;
  ArenaVector<EdgeId> candidates;
  ArenaVector<EdgeId> worker_victims;
  ArenaVector<EdgeId> task_victims;
};

/// One tentative move: evict `victims`, admit `e`, then greedily refill
/// the slack the eviction opened (candidate edges incident to any touched
/// worker/task). Keeps the move iff the state value improves by more than
/// `min_gain`; otherwise replays the undo journal. The refill step is what
/// lets a swap pay off even when the admitted edge alone is lighter than
/// its victim (the classic greedy trap: drop the 10-edge, gain two 9s).
bool AttemptSwap(ObjectiveState& state, EdgeId e,
                 std::span<const EdgeId> victims, double min_gain,
                 std::size_t* evals, MoveScratch* scratch) {
  const LaborMarket& market = state.objective().market();
  const double before = state.value();

  ArenaVector<Op>& journal = scratch->journal;
  journal.clear();
  auto revert = [&]() {
    for (std::size_t i = journal.size(); i-- > 0;) {
      if (journal[i].added) {
        state.Remove(journal[i].edge);
      } else {
        state.Add(journal[i].edge);
      }
    }
  };

  for (EdgeId v : victims) {
    state.Remove(v);
    journal.push_back({false, v});
  }
  if (!state.CanAdd(e)) {
    revert();
    return false;
  }
  {
    const double gain = state.MarginalGain(e);
    ++*evals;
    if (gain <= 0.0) {
      revert();
      return false;
    }
  }
  state.Add(e);
  journal.push_back({true, e});

  // Refill candidates: edges incident to every endpoint the move touched.
  ArenaVector<EdgeId>& candidates = scratch->candidates;
  candidates.clear();
  auto collect = [&](WorkerId w, TaskId t) {
    for (const Incidence& inc : market.WorkerEdges(w)) {
      candidates.push_back(inc.edge);
    }
    for (const Incidence& inc : market.TaskEdges(t)) {
      candidates.push_back(inc.edge);
    }
  };
  for (EdgeId v : victims) collect(market.EdgeWorker(v), market.EdgeTask(v));
  for (;;) {
    double best_gain = 1e-12;
    EdgeId best_edge = kInvalidEdge;
    for (EdgeId c : candidates) {
      if (!state.CanAdd(c)) continue;
      const double gain = state.MarginalGain(c);
      ++*evals;
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = c;
      }
    }
    if (best_edge == kInvalidEdge) break;
    state.Add(best_edge);
    journal.push_back({true, best_edge});
  }

  if (state.value() > before + min_gain) return true;
  revert();
  return false;
}

/// Tries to improve the assignment by admitting edge `e`: directly when
/// both endpoints have slack, otherwise by evicting one chosen edge at
/// each saturated endpoint (with refill — see AttemptSwap). Returns true
/// if the state value strictly improved by more than `min_gain`.
bool TryAdmit(ObjectiveState& state, EdgeId e, double min_gain,
              std::size_t* evals, MoveScratch* scratch) {
  const LaborMarket& market = state.objective().market();
  if (state.Contains(e)) return false;

  const WorkerId w = market.EdgeWorker(e);
  const TaskId t = market.EdgeTask(e);
  const bool worker_full =
      state.WorkerLoad(w) >= market.worker(w).capacity;
  const bool task_full = state.TaskLoad(t) >= market.task(t).capacity;

  if (!worker_full && !task_full) {
    const double gain = state.MarginalGain(e);
    ++*evals;
    if (gain > min_gain) {
      state.Add(e);
      return true;
    }
    return false;
  }

  ArenaVector<EdgeId>& worker_victims = scratch->worker_victims;
  worker_victims.clear();
  if (worker_full) {
    for (const Incidence& inc : market.WorkerEdges(w)) {
      if (state.Contains(inc.edge)) worker_victims.push_back(inc.edge);
    }
  }
  ArenaVector<EdgeId>& task_victims = scratch->task_victims;
  task_victims.clear();
  if (task_full) {
    for (const Incidence& inc : market.TaskEdges(t)) {
      if (state.Contains(inc.edge) && market.EdgeWorker(inc.edge) != w) {
        task_victims.push_back(inc.edge);
      }
    }
  }

  // Victim tuples live on the stack: no per-attempt heap (or arena)
  // traffic in this doubly-nested hot loop.
  if (worker_full && task_full) {
    for (EdgeId vw : worker_victims) {
      for (EdgeId vt : task_victims) {
        const EdgeId pair[2] = {vw, vt};
        if (AttemptSwap(state, e, pair, min_gain, evals, scratch)) {
          return true;
        }
      }
    }
  } else if (worker_full) {
    for (EdgeId vw : worker_victims) {
      const EdgeId single[1] = {vw};
      if (AttemptSwap(state, e, single, min_gain, evals, scratch)) {
        return true;
      }
    }
  } else {
    for (EdgeId vt : task_victims) {
      const EdgeId single[1] = {vt};
      if (AttemptSwap(state, e, single, min_gain, evals, scratch)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Assignment LocalSearchSolver::Solve(const MbtaProblem& problem,
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

  Arena* arena = scratch_.Acquire();
  ObjectiveState state(&objective, arena);
  MoveScratch move_scratch(arena);
  std::size_t evals = 0;
  std::size_t passes = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;

  if (options_.greedy_init) {
    ScopedPhase phase(phases, "greedy_init");
    SolveStats greedy_info;
    // The seed solve draws from *this* solve's gate, so the overall
    // budget covers initialization + improvement together.
    SolveOptions seed_options = options;
    seed_options.shared_gate = gate;
    const Assignment start = GreedySolver(GreedySolver::Mode::kLazy)
                                 .Solve(problem, seed_options, &greedy_info);
    evals += greedy_info.gain_evaluations;
    for (EdgeId e : start.edges) state.Add(e);
  }

  {
    ScopedPhase phase(phases, "improve_passes");
    // Budget checkpoint: one charge per attempted move, placed *between*
    // TryAdmit calls — every move either commits or fully reverts, so
    // stopping here always leaves a consistent feasible assignment.
    bool expired = false;
    for (int pass = 0; pass < options_.max_passes && !expired; ++pass) {
      ++passes;
      bool improved = false;
      const double scale = std::max(state.value(), 1.0);
      const double min_gain = options_.min_relative_gain * scale;
      for (EdgeId e = 0; e < market.NumEdges(); ++e) {
        if (gate->Charge()) {
          expired = true;
          break;
        }
        if (TryAdmit(state, e, min_gain, &evals, &move_scratch)) {
          improved = true;
          ++accepted;
        } else {
          ++rejected;
        }
      }
      if (!improved) break;
    }
  }

  if (info != nullptr) {
    info->gain_evaluations = evals;
    info->counters.Add("local_search/passes", passes);
    info->counters.Add("local_search/moves_accepted", accepted);
    info->counters.Add("local_search/moves_rejected", rejected);
    PublishArenaStats(*arena, info);
    info->wall_ms = timer.ElapsedMs();
  }
  PublishBudgetOutcome(*gate, info);
  return state.ToAssignment();
}

}  // namespace mbta
