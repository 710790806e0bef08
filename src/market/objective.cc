#include "market/objective.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/check.h"

namespace mbta {

const char* ToString(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kModular:
      return "modular";
    case ObjectiveKind::kSubmodular:
      return "submodular";
  }
  return "unknown";
}

MutualBenefitObjective::MutualBenefitObjective(const LaborMarket* market,
                                               ObjectiveParams params)
    : market_(market), params_(params) {
  MBTA_CHECK(market != nullptr);
  MBTA_CHECK(params.alpha >= 0.0 && params.alpha <= 1.0);
}

double MutualBenefitObjective::TaskBenefit(
    TaskId t, std::span<const EdgeId> edges) const {
  const Task& task = market_->task(t);
  if (params_.kind == ObjectiveKind::kModular) {
    double sum = 0.0;
    for (EdgeId e : edges) sum += task.value * market_->Quality(e);
    return sum;
  }
  double miss = 1.0;
  for (EdgeId e : edges) miss *= 1.0 - market_->Quality(e);
  return task.value * (1.0 - miss);
}

double MutualBenefitObjective::WorkerUtility(
    WorkerId w, std::span<const EdgeId> edges) const {
  if (params_.kind == ObjectiveKind::kModular) {
    double sum = 0.0;
    for (EdgeId e : edges) sum += market_->WorkerBenefit(e);
    return sum;
  }
  const double fatigue = market_->worker(w).fatigue;
  std::vector<double> values;
  values.reserve(edges.size());
  for (EdgeId e : edges) values.push_back(market_->WorkerBenefit(e));
  std::sort(values.begin(), values.end(), std::greater<>());
  double utility = 0.0;
  double weight = 1.0;
  for (double v : values) {
    utility += weight * v;
    weight *= fatigue;
  }
  return utility;
}

double MutualBenefitObjective::RequesterBenefit(const Assignment& a) const {
  const auto by_task = EdgesByTask(*market_, a);
  double total = 0.0;
  for (TaskId t = 0; t < market_->NumTasks(); ++t) {
    if (!by_task[t].empty()) total += TaskBenefit(t, by_task[t]);
  }
  return total;
}

double MutualBenefitObjective::WorkerBenefit(const Assignment& a) const {
  const auto by_worker = EdgesByWorker(*market_, a);
  double total = 0.0;
  for (WorkerId w = 0; w < market_->NumWorkers(); ++w) {
    if (!by_worker[w].empty()) total += WorkerUtility(w, by_worker[w]);
  }
  return total;
}

double MutualBenefitObjective::Value(const Assignment& a) const {
  return params_.alpha * RequesterBenefit(a) +
         (1.0 - params_.alpha) * WorkerBenefit(a);
}

double MutualBenefitObjective::EdgeWeight(EdgeId e) const {
  const Task& task = market_->task(market_->EdgeTask(e));
  return params_.alpha * task.value * market_->Quality(e) +
         (1.0 - params_.alpha) * market_->WorkerBenefit(e);
}

namespace {

/// The single-edge marginal-gain computation behind MarginalGain. Every
/// arithmetic step mirrors the expression shape of the from-scratch
/// TaskBenefit / WorkerUtility folds in the same operand order, so the
/// results match those bit-for-bit (the incremental form buys speed from
/// the SoA columns and the reused scratch, never from reassociating
/// floating point).
// always_inline: the call sits in the innermost solver loops and the
// argument list (several by-value spans) is expensive to materialize.
[[gnu::always_inline]] inline double EdgeGainAt(
    const LaborMarket& market, double alpha, bool modular,
    std::span<const double> quality, std::span<const double> benefit,
    std::span<const double> task_value, EdgeId e, WorkerId w,
    std::span<const EdgeId> t_edges, std::span<const EdgeId> w_edges,
    ArenaVector<double>& values, ArenaVector<double>& values_plus) {
  double task_old;
  double task_plus;
  if (modular) {
    double sum = 0.0;
    // task_value[te] == task_value[e] == V(t) for every chosen edge of
    // t; kept per-edge so the load stays a single column read.
    for (EdgeId te : t_edges) sum += task_value[te] * quality[te];
    task_old = sum;
    task_plus = sum + task_value[e] * quality[e];
  } else {
    double miss = 1.0;
    for (EdgeId te : t_edges) miss *= 1.0 - quality[te];
    task_old = task_value[e] * (1.0 - miss);
    task_plus = task_value[e] * (1.0 - miss * (1.0 - quality[e]));
  }

  double worker_old;
  double worker_plus;
  if (modular) {
    double sum = 0.0;
    for (EdgeId we : w_edges) sum += benefit[we];
    worker_old = sum;
    worker_plus = sum + benefit[e];
  } else {
    const double fatigue = market.worker(w).fatigue;
    // Build both benefit lists in the from-scratch path's input order
    // (incumbents in edge order, candidate appended) before sorting, so
    // even ties land exactly where std::sort puts them there.
    values.clear();
    values_plus.clear();
    for (EdgeId we : w_edges) values.push_back(benefit[we]);
    values_plus = values;
    values_plus.push_back(benefit[e]);
    std::sort(values.begin(), values.end(), std::greater<>());
    std::sort(values_plus.begin(), values_plus.end(), std::greater<>());
    const auto fold = [fatigue](const ArenaVector<double>& vals) {
      double utility = 0.0;
      double weight = 1.0;
      for (double v : vals) {
        utility += weight * v;
        weight *= fatigue;
      }
      return utility;
    };
    worker_old = fold(values);
    worker_plus = fold(values_plus);
  }

  return alpha * (task_plus - task_old) +
         (1.0 - alpha) * (worker_plus - worker_old);
}

}  // namespace

ObjectiveState::ObjectiveState(const MutualBenefitObjective* objective,
                               Arena* arena)
    : objective_(objective),
      market_(&objective->market()),
      arena_(arena != nullptr ? arena : &owned_arena_),
      gain_values_(arena_),
      gain_values_plus_(arena_) {
  MBTA_CHECK(objective != nullptr);
  const std::size_t num_workers = market_->NumWorkers();
  const std::size_t num_tasks = market_->NumTasks();
  chosen_.Reset(market_->NumEdges(), arena_);
  worker_offset_ = arena_->AllocateSpan<std::uint32_t>(num_workers + 1);
  task_offset_ = arena_->AllocateSpan<std::uint32_t>(num_tasks + 1);
  worker_count_ = arena_->AllocateSpan<std::int32_t>(num_workers);
  task_count_ = arena_->AllocateSpan<std::int32_t>(num_tasks);
  // Slot ranges: a worker/task can never hold more chosen edges than
  // min(capacity, degree), so that bound sizes its slot exactly.
  worker_offset_[0] = 0;
  for (WorkerId w = 0; w < num_workers; ++w) {
    const auto cap = static_cast<std::size_t>(
        std::max(0, market_->worker(w).capacity));
    const std::size_t slots = std::min(cap, market_->WorkerEdges(w).size());
    worker_offset_[w + 1] =
        worker_offset_[w] + static_cast<std::uint32_t>(slots);
    worker_count_[w] = 0;
  }
  task_offset_[0] = 0;
  for (TaskId t = 0; t < num_tasks; ++t) {
    const auto cap =
        static_cast<std::size_t>(std::max(0, market_->task(t).capacity));
    const std::size_t slots = std::min(cap, market_->TaskEdges(t).size());
    task_offset_[t + 1] = task_offset_[t] + static_cast<std::uint32_t>(slots);
    task_count_[t] = 0;
  }
  worker_slots_ = arena_->AllocateSpan<EdgeId>(worker_offset_[num_workers]);
  task_slots_ = arena_->AllocateSpan<EdgeId>(task_offset_[num_tasks]);
}

double ObjectiveState::TaskContribution(TaskId t) const {
  return objective_->alpha() * objective_->TaskBenefit(t, TaskEdges(t));
}

double ObjectiveState::WorkerContribution(WorkerId w) const {
  // WorkerUtility's fold replayed over arena scratch: the public method
  // fills a fresh std::vector for the sorted fatigue ladder, which would
  // put a heap allocation inside every Add/Remove and break the warm
  // solve's zero-allocation contract (tests/solver_alloc_test.cc). Same
  // values, same sort, same operand order — bit-identical results.
  const std::span<const EdgeId> edges = WorkerEdges(w);
  if (objective_->kind() == ObjectiveKind::kModular) {
    double sum = 0.0;
    for (EdgeId e : edges) sum += market_->WorkerBenefit(e);
    return (1.0 - objective_->alpha()) * sum;
  }
  const double fatigue = market_->worker(w).fatigue;
  gain_values_.clear();
  for (EdgeId e : edges) gain_values_.push_back(market_->WorkerBenefit(e));
  std::sort(gain_values_.begin(), gain_values_.end(), std::greater<>());
  double utility = 0.0;
  double weight = 1.0;
  for (double v : gain_values_) {
    utility += weight * v;
    weight *= fatigue;
  }
  return (1.0 - objective_->alpha()) * utility;
}

bool ObjectiveState::CanAdd(EdgeId e) const {
  MBTA_CHECK(e < market_->NumEdges());
  if (chosen_.Test(e)) return false;
  const WorkerId w = market_->EdgeWorker(e);
  const TaskId t = market_->EdgeTask(e);
  return WorkerLoad(w) < market_->worker(w).capacity &&
         TaskLoad(t) < market_->task(t).capacity;
}

double ObjectiveState::MarginalGain(EdgeId e) const {
  MBTA_CHECK(e < market_->NumEdges());
  MBTA_CHECK(!chosen_.Test(e));
  const WorkerId w = market_->EdgeWorker(e);
  const TaskId t = market_->EdgeTask(e);
  return EdgeGainAt(*market_, objective_->alpha(),
                    objective_->kind() == ObjectiveKind::kModular,
                    market_->Qualities(), market_->WorkerBenefits(),
                    market_->EdgeTaskValues(), e, w, TaskEdges(t),
                    WorkerEdges(w), gain_values_, gain_values_plus_);
}

void ObjectiveState::Add(EdgeId e) {
  MBTA_CHECK(CanAdd(e));
  const WorkerId w = market_->EdgeWorker(e);
  const TaskId t = market_->EdgeTask(e);
  const double before = TaskContribution(t) + WorkerContribution(w);
  chosen_.Set(e);
  task_slots_[task_offset_[t] + static_cast<std::uint32_t>(task_count_[t])] =
      e;
  ++task_count_[t];
  worker_slots_[worker_offset_[w] +
                static_cast<std::uint32_t>(worker_count_[w])] = e;
  ++worker_count_[w];
  ++num_chosen_;
  value_ += TaskContribution(t) + WorkerContribution(w) - before;
}

namespace {

/// Removes `e` from the filled prefix of a slot range, shifting the tail
/// left — the same relative order std::erase left behind when the lists
/// were std::vectors.
void EraseFromSlots(std::span<EdgeId> slots, std::int32_t* count, EdgeId e) {
  const auto n = static_cast<std::size_t>(*count);
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i] == e) {
      for (std::size_t j = i + 1; j < n; ++j) slots[j - 1] = slots[j];
      --*count;
      return;
    }
  }
  MBTA_CHECK(false);  // the edge must be present
}

}  // namespace

void ObjectiveState::Remove(EdgeId e) {
  MBTA_CHECK(e < market_->NumEdges());
  MBTA_CHECK(chosen_.Test(e));
  const WorkerId w = market_->EdgeWorker(e);
  const TaskId t = market_->EdgeTask(e);
  const double before = TaskContribution(t) + WorkerContribution(w);
  chosen_.Clear(e);
  EraseFromSlots(task_slots_.subspan(task_offset_[t]), &task_count_[t], e);
  EraseFromSlots(worker_slots_.subspan(worker_offset_[w]), &worker_count_[w],
                 e);
  --num_chosen_;
  value_ += TaskContribution(t) + WorkerContribution(w) - before;
}

Assignment ObjectiveState::ToAssignment() const {
  Assignment a;
  a.edges.reserve(num_chosen_);
  for (std::size_t e = chosen_.NextSet(0); e < chosen_.size();
       e = chosen_.NextSet(e + 1)) {
    a.edges.push_back(static_cast<EdgeId>(e));
  }
  return a;
}

}  // namespace mbta
