#ifndef PERFBENCH_HARNESS_CHURN_H_
#define PERFBENCH_HARNESS_CHURN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/delta.h"
#include "util/rng.h"

namespace mbta::perfbench {

/// Seeded delta stream for a resident MarketService held at a steady
/// size. `Populate` brings an empty market up to the target size; after
/// that every `Next` delta is either a patch (payment, value or capacity
/// change of a live entity) or an arrival/departure on one side, with
/// the arrival probability pulled back towards the target so each side's
/// live count never leaves [target - band, target + band]. With
/// `skill_dims` 0 entities carry no skills, as in the smoke suite's churn
/// stream, so every rational worker/task pair is an edge and the market
/// is dense; otherwise skills make it sparse (see Config::skill_dims).
///
/// Live counts are those of the stream itself: they include deltas the
/// caller has generated but the service has not applied yet.
class SteadyChurn {
 public:
  struct Config {
    std::size_t target_workers = 1000;
    std::size_t target_tasks = 1000;
    /// Half-width of the live-count band, as a fraction of the target.
    double band_fraction = 0.05;
    /// Share of steady-state deltas that patch a live entity.
    double patch_fraction = 0.2;
    /// Skill categories. Each worker masters a primary and a secondary
    /// category, each task requires one; a pair is eligible only when
    /// the worker has the task's category, so about 2 / skill_dims of
    /// all pairs are edges. 0: no skills, every pair may be an edge.
    std::size_t skill_dims = 0;
  };

  SteadyChurn(const Config& config, std::uint64_t seed);

  /// target_workers + target_tasks arrivals, interleaved by side.
  std::vector<Delta> Populate();
  /// The next steady-state delta.
  Delta Next();

  std::size_t live_workers() const { return workers_.size(); }
  std::size_t live_tasks() const { return tasks_.size(); }
  std::size_t band(std::size_t target) const;

 private:
  Delta AddWorker();
  Delta AddTask();
  Delta RemoveFrom(std::vector<std::uint64_t>* ids, DeltaKind kind);
  Delta Patch();

  Config config_;
  Rng rng_;
  std::vector<std::uint64_t> workers_;
  std::vector<std::uint64_t> tasks_;
  std::uint64_t next_worker_ = 1;
  std::uint64_t next_task_ = std::uint64_t{1} << 40;
};

}  // namespace mbta::perfbench

#endif  // PERFBENCH_HARNESS_CHURN_H_
