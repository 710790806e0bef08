#ifndef MBTA_CORE_REPAIR_H_
#define MBTA_CORE_REPAIR_H_

#include <cstddef>
#include <vector>

#include "market/objective.h"
#include "util/deadline.h"

namespace mbta {

/// Incremental repair for dynamic markets: instead of re-solving from
/// scratch when the market changes slightly, patch the existing
/// assignment locally. All functions return a feasible (validator-clean)
/// assignment. The resident MarketService (src/service) calls only
/// GreedyRefill: each epoch it re-anchors the carried pairs, then refills
/// from the sorted, deduplicated incident edges of every entity a delta
/// or a dropped pair touched, and escalates to a full re-solve when repair
/// quality degrades (see CONTRIBUTING.md, "Serving & durability"). The
/// two removal functions repair a single departure on a fixed market.

/// Work accounting for one repair call, in the same units the greedy
/// family reports (marginal-gain evaluations). Aggregated by the service
/// into SolveStats::gain_evaluations.
struct RepairStats {
  std::size_t gain_evaluations = 0;  ///< MarginalGain calls made
  std::size_t edges_added = 0;       ///< edges the refill committed
  std::size_t edges_dropped = 0;     ///< previously-assigned edges shed
};

/// Greedily adds the best positive-marginal feasible edge from
/// `candidates` until none improves. Candidates may contain duplicates
/// and already-chosen edges (both are skipped); scan order is the order
/// given, so callers sort for determinism. Charges `gate` one work unit
/// per gain evaluation when non-null and stops early once the gate
/// trips — the state is feasible at every step, so an interrupted refill
/// is still a valid (if less repaired) answer.
void GreedyRefill(ObjectiveState& state, const std::vector<EdgeId>& candidates,
                  RepairStats* stats = nullptr, DeadlineGate* gate = nullptr);

/// Worker `w` leaves the platform: drop all of its assignments, then
/// greedily refill the capacity slack this opened on the affected tasks
/// (best positive-marginal feasible edges, other workers only).
Assignment RemoveWorkerAndRepair(const MutualBenefitObjective& objective,
                                 const Assignment& current, WorkerId w,
                                 RepairStats* stats = nullptr);

/// Task `t` is withdrawn by its requester: drop its assignments, then let
/// each freed worker greedily pick replacement tasks.
Assignment RemoveTaskAndRepair(const MutualBenefitObjective& objective,
                               const Assignment& current, TaskId t,
                               RepairStats* stats = nullptr);

}  // namespace mbta

#endif  // MBTA_CORE_REPAIR_H_
