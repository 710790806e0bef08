#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness/report.h"

namespace mbta::perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of one measured pass.
  double seconds = 10.0;
  /// Scratch directory for market pools, assignments, WAL and snapshots.
  std::string work_dir;
  /// Non-empty: traced run. An untraced pass runs first (the baseline of
  /// obs.trace_overhead_frac), then a traced pass whose spans are written
  /// here and whose numbers become the per-layer metrics.
  std::string trace_path;
  /// service-durable only: offered rate in deltas/s (0 = the default).
  double rate = 0.0;
};

/// Offline `mbta_cli solve` loop: read market file, solve, validate,
/// evaluate, write assignment, one client. `flow` selects exact-flow on
/// a modular objective over smaller markets instead of default greedy.
Report RunSolveWorkload(const RunOptions& options, bool flow);

/// Size of the service-churn workload; the defaults are the benchmark's.
struct ChurnShape {
  /// Live workers and live tasks at steady state.
  std::size_t target = 1000;
  /// Steady-state deltas per round, after the set-up.
  std::size_t deltas_per_round = 40 * 64;  // 40 epoch batches
  /// Rounds run even when fewer fill `RunOptions::seconds`.
  int min_rounds = 3;
};

/// Closed-loop in-memory MarketService at steady state: rounds of a fresh
/// service populated to the target, then a fixed churn stream.
Report RunServiceChurn(const RunOptions& options,
                       const ChurnShape& shape = ChurnShape{});

/// Open-loop durable MarketService (WAL + snapshots, real fsync).
Report RunServiceDurable(const RunOptions& options);

}  // namespace mbta::perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
