#include "market/labor_market.h"

#include <utility>

#include "util/check.h"

namespace mbta {

WorkerId LaborMarketBuilder::AddWorker(Worker w) {
  const WorkerId id = static_cast<WorkerId>(workers_.size());
  w.id = id;
  MBTA_CHECK(w.capacity >= 0);
  MBTA_CHECK(w.fatigue > 0.0 && w.fatigue <= 1.0);
  MBTA_CHECK(w.reliability >= 0.0 && w.reliability <= 1.0);
  workers_.push_back(std::move(w));
  return id;
}

TaskId LaborMarketBuilder::AddTask(Task t) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  t.id = id;
  MBTA_CHECK(t.capacity >= 0);
  MBTA_CHECK(t.value >= 0.0);
  MBTA_CHECK(t.difficulty >= 0.0 && t.difficulty <= 1.0);
  tasks_.push_back(std::move(t));
  return id;
}

void LaborMarketBuilder::AddEdge(WorkerId w, TaskId t, EdgeAttributes attr) {
  MBTA_CHECK(w < workers_.size());
  MBTA_CHECK(t < tasks_.size());
  MBTA_CHECK(attr.quality >= 0.0 && attr.quality <= 1.0);
  MBTA_CHECK(attr.worker_benefit >= 0.0);
  edge_worker_.push_back(w);
  edge_task_.push_back(t);
  quality_.push_back(attr.quality);
  worker_benefit_.push_back(attr.worker_benefit);
}

void LaborMarketBuilder::ReserveEdges(std::size_t n) {
  const std::size_t total = edge_worker_.size() + n;
  edge_worker_.reserve(total);
  edge_task_.reserve(total);
  quality_.reserve(total);
  worker_benefit_.reserve(total);
}

void LaborMarketBuilder::ConnectEligiblePairs(const EdgeModelParams& params) {
  for (const Worker& w : workers_) {
    for (const Task& t : tasks_) {
      if (IsEligible(w, t, params)) {
        AddEdge(w.id, t.id, ComputeEdgeAttributes(w, t, params));
      }
    }
  }
}

LaborMarket LaborMarketBuilder::Build() {
  LaborMarket market;
  market.workers_ = std::move(workers_);
  market.tasks_ = std::move(tasks_);
  market.name_ = std::move(name_);

  market.task_value_.reserve(edge_task_.size());
  for (TaskId t : edge_task_) {
    market.task_value_.push_back(market.tasks_[t].value);
  }
  market.quality_ = std::move(quality_);
  market.worker_benefit_ = std::move(worker_benefit_);
  market.graph_ =
      BipartiteGraphBuilder(market.workers_.size(), market.tasks_.size(),
                            std::move(edge_worker_), std::move(edge_task_))
          .Build();
  return market;
}

}  // namespace mbta
