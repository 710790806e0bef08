#ifndef PERFBENCH_HARNESS_OPEN_LOOP_H_
#define PERFBENCH_HARNESS_OPEN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/clock.h"

namespace mbta::perfbench {

/// Fixed-rate arrival schedule of an open-loop generator: delta i is due at
/// start + i / rate, whether or not the system under test has kept up.
/// Latency is measured from the due time, so a stall also charges the
/// wait it imposes on every delta queued behind it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_ms, double rate_per_s);

  double DueMs(std::uint64_t i) const;
  /// Deltas due by `now_ms` but not yet sent, when `next` is the index
  /// of the next delta to send.
  std::uint64_t Backlog(double now_ms, std::uint64_t next) const;
  /// Polls `clock` until delta i is due and returns how late (ms) the
  /// generator got to it: 0 up to polling granularity when it had to wait,
  /// the full delay when it was already behind.
  double WaitUntilDue(const Clock& clock, std::uint64_t i) const;

 private:
  double start_ms_;
  double interval_ms_;
};

/// Commit-latency accounting: every submitted delta waits for the end of
/// the epoch that commits it.
class CommitTracker {
 public:
  void Submitted(double due_ms) { in_flight_.push_back(due_ms); }
  /// Records end_ms - due for every delta submitted since the last
  /// commit.
  void Committed(double end_ms);

  const std::vector<double>& commit_ms() const { return commit_ms_; }
  std::size_t in_flight() const { return in_flight_.size(); }

 private:
  std::vector<double> in_flight_;
  std::vector<double> commit_ms_;
};

/// How much the backlog grew over a run: the median backlog of the last
/// quarter of `backlog` (one sample per sent delta) minus that of the
/// first quarter. A generator that keeps up reads about 0; one that falls
/// steadily behind reads a positive number of deltas.
double BacklogGrowth(const std::vector<double>& backlog);

}  // namespace mbta::perfbench

#endif  // PERFBENCH_HARNESS_OPEN_LOOP_H_
