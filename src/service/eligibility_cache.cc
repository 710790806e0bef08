#include "service/eligibility_cache.h"

#include <algorithm>

#include "util/check.h"

namespace mbta {

namespace {

constexpr std::uint32_t kDeadKey = static_cast<std::uint32_t>(-1);

std::optional<VertexId> Lookup(
    const std::vector<std::pair<std::uint64_t, VertexId>>& index,
    std::uint64_t id) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), id,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  if (it == index.end() || it->first != id) return std::nullopt;
  return it->second;
}

}  // namespace

bool EligibilityCache::Apply(ServiceState& state, const Delta& delta,
                             std::string* error) {
  if (!ApplyDelta(state, delta, error)) return false;
  if (!built_) return true;  // Assemble() builds from the state as it is
  switch (delta.kind) {
    case DeltaKind::kAddWorker:
      AddRow(state, state.workers.size() - 1);
      break;
    case DeltaKind::kAddTask:
      AddColumn(state, state.tasks.size() - 1);
      break;
    case DeltaKind::kRemoveWorker:
      std::erase_if(rows_,
                    [&](const Row& row) { return row.worker_id == delta.id; });
      break;
    case DeltaKind::kRemoveTask:
      // Its entries stay in the rows until Assemble() drops them.
      tasks_.erase(tasks_.begin() +
                   static_cast<std::ptrdiff_t>(SlotOf(delta.id)));
      break;
    case DeltaKind::kTaskPayment:
      // Payment decides eligibility (payment >= unit cost) and moves
      // every worker benefit of the task.
      PatchColumn(state, SlotOf(delta.id));
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
    case DeltaKind::kTaskValue:
      break;  // no edge depends on them; Assemble() reads them from state
  }
  return true;
}

void EligibilityCache::AddRow(const ServiceState& state, std::size_t worker) {
  const Worker& w = state.workers[worker].worker;
  Row row{state.workers[worker].id, {}};
  for (std::size_t j = 0; j < state.tasks.size(); ++j) {
    const Task& t = state.tasks[j].task;
    if (IsEligible(w, t, edge_model_)) {
      row.entries.push_back(
          {tasks_[j].key, ComputeEdgeAttributes(w, t, edge_model_)});
    }
  }
  rows_.push_back(std::move(row));
}

void EligibilityCache::AddColumn(const ServiceState& state, std::size_t task) {
  const std::uint32_t key = next_key_++;
  tasks_.push_back({state.tasks[task].id, key});
  const Task& t = state.tasks[task].task;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Worker& w = state.workers[i].worker;
    if (IsEligible(w, t, edge_model_)) {
      // The newest key is the largest, so appending keeps rows sorted.
      rows_[i].entries.push_back(
          {key, ComputeEdgeAttributes(w, t, edge_model_)});
    }
  }
}

void EligibilityCache::PatchColumn(const ServiceState& state,
                                   std::size_t task) {
  const std::uint32_t key = tasks_[task].key;
  const Task& t = state.tasks[task].task;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Worker& w = state.workers[i].worker;
    std::vector<Entry>& entries = rows_[i].entries;
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const Entry& e, std::uint32_t k) { return e.task_key < k; });
    const bool cached = it != entries.end() && it->task_key == key;
    if (IsEligible(w, t, edge_model_)) {
      const EdgeAttributes attr = ComputeEdgeAttributes(w, t, edge_model_);
      if (cached) {
        it->attr = attr;
      } else {
        entries.insert(it, {key, attr});
      }
    } else if (cached) {
      entries.erase(it);
    }
  }
}

std::size_t EligibilityCache::SlotOf(std::uint64_t task_id) const {
  const auto it = std::find_if(
      tasks_.begin(), tasks_.end(),
      [&](const TaskSlot& slot) { return slot.task_id == task_id; });
  MBTA_CHECK_MSG(it != tasks_.end(), "live task %llu is not cached",
                 static_cast<unsigned long long>(task_id));
  return static_cast<std::size_t>(it - tasks_.begin());
}

LaborMarket EligibilityCache::Assemble(const ServiceState& state) {
  if (!built_) {
    rows_.clear();
    tasks_.clear();
    for (std::size_t j = 0; j < state.tasks.size(); ++j) {
      tasks_.push_back({state.tasks[j].id, static_cast<std::uint32_t>(j)});
    }
    next_key_ = static_cast<std::uint32_t>(state.tasks.size());
    for (std::size_t i = 0; i < state.workers.size(); ++i) AddRow(state, i);
    built_ = true;
  }
  MBTA_CHECK(rows_.size() == state.workers.size());
  MBTA_CHECK(tasks_.size() == state.tasks.size());

  // Renumber task keys to today's dense indices; keys of tasks that
  // departed since the last call map to kDeadKey.
  std::vector<std::uint32_t> dense(next_key_, kDeadKey);
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    MBTA_CHECK(tasks_[j].task_id == state.tasks[j].id);
    dense[tasks_[j].key] = static_cast<std::uint32_t>(j);
    tasks_[j].key = static_cast<std::uint32_t>(j);
  }
  next_key_ = static_cast<std::uint32_t>(tasks_.size());

  LaborMarketBuilder builder;
  for (const StableWorker& w : state.workers) builder.AddWorker(w.worker);
  for (const StableTask& t : state.tasks) builder.AddTask(t.task);
  std::size_t cached = 0;
  for (const Row& row : rows_) cached += row.entries.size();
  builder.ReserveEdges(cached);
  // Worker-major, tasks in state order within a worker: BuildMarket's
  // edge order. Dead entries are compacted away on the same pass.
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    Row& row = rows_[i];
    MBTA_CHECK(row.worker_id == state.workers[i].id);
    std::size_t kept = 0;
    for (Entry e : row.entries) {
      e.task_key = dense[e.task_key];
      if (e.task_key == kDeadKey) continue;
      row.entries[kept++] = e;
      builder.AddEdge(static_cast<WorkerId>(i), e.task_key, e.attr);
    }
    row.entries.resize(kept);
  }

  worker_index_.clear();
  for (std::size_t i = 0; i < state.workers.size(); ++i) {
    worker_index_.emplace_back(state.workers[i].id,
                               static_cast<WorkerId>(i));
  }
  std::sort(worker_index_.begin(), worker_index_.end());
  task_index_.clear();
  for (std::size_t j = 0; j < state.tasks.size(); ++j) {
    task_index_.emplace_back(state.tasks[j].id, static_cast<TaskId>(j));
  }
  std::sort(task_index_.begin(), task_index_.end());

  builder.SetName("service(epoch=" + std::to_string(state.epoch) + ")");
  return builder.Build();
}

std::optional<WorkerId> EligibilityCache::DenseWorker(std::uint64_t id) const {
  return Lookup(worker_index_, id);
}

std::optional<TaskId> EligibilityCache::DenseTask(std::uint64_t id) const {
  return Lookup(task_index_, id);
}

}  // namespace mbta
