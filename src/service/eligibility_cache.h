#ifndef MBTA_SERVICE_ELIGIBILITY_CACHE_H_
#define MBTA_SERVICE_ELIGIBILITY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "market/labor_market.h"
#include "service/delta.h"
#include "service/state.h"

namespace mbta {

/// The eligible (worker, task) pairs of a ServiceState, kept resident
/// across epochs so an epoch pays only for what its deltas touch.
///
/// An edge's eligibility and attributes depend only on its worker and its
/// task, so each delta changes only the edges of the entity it names:
/// an arrival computes one row (O(T)) or one column (O(W)), a payment
/// patch recomputes one column, a departure drops a row or marks a column
/// dead, and capacity/value patches change no edge. Assemble() then lays
/// the cached rows out as a LaborMarket whose edge order is exactly
/// BuildMarket's — worker-major, tasks in state order — so edge ids, and
/// everything a solver derives from them, are the same as a full rebuild
/// (tests/eligibility_cache_test.cc holds the two equal after every
/// epoch).
///
/// Memory is bounded by the live entities: one row per live worker, one
/// slot per live task, plus the entries of tasks that departed since the
/// last Assemble(). Nothing is indexed by stable id.
class EligibilityCache {
 public:
  explicit EligibilityCache(const EdgeModelParams& edge_model)
      : edge_model_(edge_model) {}

  /// ApplyDelta(state, delta, error), then — when it succeeded and the
  /// cache is built — brings the cache in step with the changed state.
  /// A stale delta (ApplyDelta fails) leaves both untouched.
  bool Apply(ServiceState& state, const Delta& delta,
             std::string* error = nullptr);

  /// The dense market of `state`, equal edge for edge to
  /// BuildMarket(state, edge_model). The first call scans every pair of
  /// `state` to build the cache; later calls cost O(W + T + E) as long as
  /// every change to `state` since went through Apply().
  LaborMarket Assemble(const ServiceState& state);

  /// Dense index, in the market of the last Assemble(), of the worker /
  /// task with stable id `id`; nullopt when it was not live then.
  std::optional<WorkerId> DenseWorker(std::uint64_t id) const;
  std::optional<TaskId> DenseTask(std::uint64_t id) const;

 private:
  /// One cached edge: the task's key and the pair's attributes.
  struct Entry {
    std::uint32_t task_key;
    EdgeAttributes attr;
  };
  /// The eligible tasks of one live worker, sorted by task key.
  struct Row {
    std::uint64_t worker_id;
    std::vector<Entry> entries;
  };
  /// A live task: its stable id and its key. Keys increase along
  /// `tasks_` (state order); Assemble() renumbers them to the dense
  /// indices, arrivals take the next unused one.
  struct TaskSlot {
    std::uint64_t task_id;
    std::uint32_t key;
  };

  void AddRow(const ServiceState& state, std::size_t worker);
  void AddColumn(const ServiceState& state, std::size_t task);
  void PatchColumn(const ServiceState& state, std::size_t task);
  std::size_t SlotOf(std::uint64_t task_id) const;

  EdgeModelParams edge_model_;
  bool built_ = false;
  std::vector<Row> rows_;          // parallel to state.workers
  std::vector<TaskSlot> tasks_;    // parallel to state.tasks
  std::uint32_t next_key_ = 0;
  // (stable id, dense index) as of the last Assemble(), sorted by id.
  std::vector<std::pair<std::uint64_t, VertexId>> worker_index_;
  std::vector<std::pair<std::uint64_t, VertexId>> task_index_;
};

}  // namespace mbta

#endif  // MBTA_SERVICE_ELIGIBILITY_CACHE_H_
