#include "harness/churn.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mbta::perfbench {

SteadyChurn::SteadyChurn(const Config& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  MBTA_CHECK(config_.target_workers > 0 && config_.target_tasks > 0);
  MBTA_CHECK(config_.skill_dims != 1);
}

std::size_t SteadyChurn::band(std::size_t target) const {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(config_.band_fraction * static_cast<double>(target))));
}

std::vector<Delta> SteadyChurn::Populate() {
  std::vector<Delta> out;
  while (workers_.size() < config_.target_workers ||
         tasks_.size() < config_.target_tasks) {
    if (workers_.size() < config_.target_workers) out.push_back(AddWorker());
    if (tasks_.size() < config_.target_tasks) out.push_back(AddTask());
  }
  return out;
}

Delta SteadyChurn::Next() {
  if (rng_.NextDouble() < config_.patch_fraction && !workers_.empty() &&
      !tasks_.empty()) {
    return Patch();
  }
  const bool worker_side = rng_.NextBool(0.5);
  const std::size_t target =
      worker_side ? config_.target_workers : config_.target_tasks;
  const std::size_t live = worker_side ? workers_.size() : tasks_.size();
  // Mean-reverting walk: certain arrival at the low edge of the band,
  // certain departure at the high edge, a fair coin at the target.
  const double b = static_cast<double>(band(target));
  const double p_arrive = std::clamp(
      0.5 + (static_cast<double>(target) - static_cast<double>(live)) /
                (2.0 * b),
      0.0, 1.0);
  const bool arrive = rng_.NextBool(p_arrive);
  if (worker_side) {
    return arrive ? AddWorker()
                  : RemoveFrom(&workers_, DeltaKind::kRemoveWorker);
  }
  return arrive ? AddTask() : RemoveFrom(&tasks_, DeltaKind::kRemoveTask);
}

Delta SteadyChurn::AddWorker() {
  Delta d;
  d.kind = DeltaKind::kAddWorker;
  d.id = next_worker_++;
  d.worker.capacity = 1 + static_cast<int>(rng_.NextBounded(3));
  d.worker.unit_cost = rng_.NextDouble(0.0, 0.5);
  d.worker.reliability = rng_.NextDouble(0.5, 1.0);
  const std::size_t dims = config_.skill_dims;
  if (dims > 0) {
    const std::size_t primary = rng_.NextBounded(dims);
    std::size_t secondary = rng_.NextBounded(dims - 1);
    if (secondary >= primary) ++secondary;
    d.worker.skills.assign(dims, 0.0);
    d.worker.skills[primary] = 1.0;
    d.worker.skills[secondary] = 0.5;
  }
  workers_.push_back(d.id);
  return d;
}

Delta SteadyChurn::AddTask() {
  Delta d;
  d.kind = DeltaKind::kAddTask;
  d.id = next_task_++;
  d.task.capacity = 1 + static_cast<int>(rng_.NextBounded(2));
  d.task.payment = rng_.NextDouble(0.3, 2.0);
  d.task.value = rng_.NextDouble(0.5, 3.0);
  d.task.difficulty = rng_.NextDouble(0.0, 0.6);
  if (config_.skill_dims > 0) {
    d.task.required_skills.assign(config_.skill_dims, 0.0);
    d.task.required_skills[rng_.NextBounded(config_.skill_dims)] = 1.0;
  }
  tasks_.push_back(d.id);
  return d;
}

Delta SteadyChurn::RemoveFrom(std::vector<std::uint64_t>* ids,
                              DeltaKind kind) {
  MBTA_CHECK(!ids->empty());
  const std::size_t at = rng_.NextBounded(ids->size());
  Delta d;
  d.kind = kind;
  d.id = (*ids)[at];
  ids->erase(ids->begin() + static_cast<std::ptrdiff_t>(at));
  return d;
}

Delta SteadyChurn::Patch() {
  Delta d;
  const double kind = rng_.NextDouble();
  if (kind < 0.4) {
    d.kind = DeltaKind::kTaskPayment;
    d.id = tasks_[rng_.NextBounded(tasks_.size())];
    d.amount = rng_.NextDouble(0.2, 2.5);
  } else if (kind < 0.6) {
    d.kind = DeltaKind::kTaskValue;
    d.id = tasks_[rng_.NextBounded(tasks_.size())];
    d.amount = rng_.NextDouble(0.5, 3.0);
  } else if (kind < 0.8) {
    d.kind = DeltaKind::kWorkerCapacity;
    d.id = workers_[rng_.NextBounded(workers_.size())];
    d.capacity = 1 + static_cast<int>(rng_.NextBounded(4));
  } else {
    d.kind = DeltaKind::kTaskCapacity;
    d.id = tasks_[rng_.NextBounded(tasks_.size())];
    d.capacity = 1 + static_cast<int>(rng_.NextBounded(3));
  }
  return d;
}

}  // namespace mbta::perfbench
