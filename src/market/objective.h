#ifndef MBTA_MARKET_OBJECTIVE_H_
#define MBTA_MARKET_OBJECTIVE_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "market/assignment.h"
#include "market/labor_market.h"
#include "util/arena.h"
#include "util/bitset.h"

namespace mbta {

/// Which benefit structure the objective uses.
///
/// kModular: requester benefit is additive, Σ_t Σ_{w∈A(t)} V(t)·q(w,t), and
///   worker fatigue is ignored. The resulting objective is an edge-weight
///   sum and the MBTA problem is solvable exactly by min-cost flow.
///
/// kSubmodular: requester benefit per task is the coverage form
///   V(t)·(1 − Π_{w∈A(t)} (1 − q(w,t))) — redundant workers hit diminishing
///   returns — and each worker's k-th best task is discounted by fatigue^k.
///   Monotone submodular over the intersection of the two capacity
///   (partition) matroids; NP-hard in general.
enum class ObjectiveKind { kModular, kSubmodular };

const char* ToString(ObjectiveKind kind);

struct ObjectiveParams {
  /// Trade-off between requester (α) and worker (1−α) sides, in [0, 1].
  double alpha = 0.5;
  ObjectiveKind kind = ObjectiveKind::kSubmodular;
};

/// The mutual-benefit objective MB(A) = α·RB(A) + (1−α)·WB(A) over a fixed
/// market. Cheap to copy (borrows the market).
class MutualBenefitObjective {
 public:
  MutualBenefitObjective(const LaborMarket* market, ObjectiveParams params);

  const LaborMarket& market() const { return *market_; }
  const ObjectiveParams& params() const { return params_; }
  double alpha() const { return params_.alpha; }
  ObjectiveKind kind() const { return params_.kind; }

  /// Objective value of a (feasible) assignment, computed from scratch.
  double Value(const Assignment& a) const;

  /// Unweighted requester-side benefit RB(A).
  double RequesterBenefit(const Assignment& a) const;

  /// Unweighted worker-side benefit WB(A).
  double WorkerBenefit(const Assignment& a) const;

  /// The α-weighted value an edge contributes when added to an empty
  /// assignment (its largest possible marginal). Used by matching-style
  /// baselines and as the greedy priority seed.
  double EdgeWeight(EdgeId e) const;

  /// Requester-side benefit of a single task given its assigned edges.
  double TaskBenefit(TaskId t, std::span<const EdgeId> edges) const;

  /// Worker-side benefit of a single worker given its assigned edges.
  double WorkerUtility(WorkerId w, std::span<const EdgeId> edges) const;

 private:
  const LaborMarket* market_;
  ObjectiveParams params_;
};

/// Incremental evaluation of the objective while an assignment is being
/// grown and locally edited. All mutators keep the running value exact
/// (removals recompute only the touched worker/task, so there is no
/// floating-point drift from divisions).
///
/// Storage layout: the chosen-edge lists live in two flat slot arrays —
/// per worker (and per task) a fixed slot range of min(capacity, degree)
/// entries at a prefix-sum offset, filled in insertion order — plus a
/// dense bitset for membership. Everything is bump-allocated from an
/// Arena: pass a solver's scratch arena to make repeated construction
/// allocation-free after warm-up, or pass nothing to use a private
/// owned arena. Not copyable (the storage is arena-tied).
class ObjectiveState {
 public:
  explicit ObjectiveState(const MutualBenefitObjective* objective,
                          Arena* arena = nullptr);
  ObjectiveState(const ObjectiveState&) = delete;
  ObjectiveState& operator=(const ObjectiveState&) = delete;

  const MutualBenefitObjective& objective() const { return *objective_; }

  /// True iff `e` is not chosen yet and both endpoints have spare capacity.
  bool CanAdd(EdgeId e) const;

  /// Marginal gain of adding `e` to the current assignment. Defined for
  /// any unchosen edge (capacity is CanAdd's business). Non-negative.
  /// Allocation-free: the fold scratch lives in this state's arena.
  double MarginalGain(EdgeId e) const;

  /// Adds edge `e`. Requires CanAdd(e).
  void Add(EdgeId e);

  /// Removes edge `e`. Requires the edge to be chosen.
  void Remove(EdgeId e);

  bool Contains(EdgeId e) const { return chosen_.Test(e); }

  double value() const { return value_; }
  int WorkerLoad(WorkerId w) const { return worker_count_[w]; }
  int TaskLoad(TaskId t) const { return task_count_[t]; }

  /// Chosen edges of one worker/task, in insertion order.
  std::span<const EdgeId> WorkerEdges(WorkerId w) const {
    return worker_slots_.subspan(worker_offset_[w],
                                 static_cast<std::size_t>(worker_count_[w]));
  }
  std::span<const EdgeId> TaskEdges(TaskId t) const {
    return task_slots_.subspan(task_offset_[t],
                               static_cast<std::size_t>(task_count_[t]));
  }

  /// Snapshot of the current assignment.
  Assignment ToAssignment() const;

  std::size_t NumChosen() const { return num_chosen_; }

 private:
  double TaskContribution(TaskId t) const;
  double WorkerContribution(WorkerId w) const;

  const MutualBenefitObjective* objective_;
  const LaborMarket* market_;

  Arena owned_arena_;  // pages only materialize when no arena is injected
  Arena* arena_;

  DenseBitset chosen_;
  // Flat slot storage (see class comment). offsets have N+1 entries so a
  // slot range is [offset_[i], offset_[i+1]); count_[i] is the filled
  // prefix of that range.
  std::span<std::uint32_t> worker_offset_;
  std::span<std::uint32_t> task_offset_;
  std::span<std::int32_t> worker_count_;
  std::span<std::int32_t> task_count_;
  std::span<EdgeId> worker_slots_;
  std::span<EdgeId> task_slots_;

  // MarginalGain's fold scratch (mutable: MarginalGain is logically
  // const).
  mutable ArenaVector<double> gain_values_;
  mutable ArenaVector<double> gain_values_plus_;

  double value_ = 0.0;
  std::size_t num_chosen_ = 0;
};

}  // namespace mbta

#endif  // MBTA_MARKET_OBJECTIVE_H_
