#include "harness/open_loop.h"

#include <cmath>

#include "harness/tail.h"
#include "util/check.h"

namespace mbta::perfbench {

OpenLoopSchedule::OpenLoopSchedule(double start_ms, double rate_per_s)
    : start_ms_(start_ms), interval_ms_(1000.0 / rate_per_s) {
  MBTA_CHECK(rate_per_s > 0.0);
}

double OpenLoopSchedule::DueMs(std::uint64_t i) const {
  return start_ms_ + static_cast<double>(i) * interval_ms_;
}

std::uint64_t OpenLoopSchedule::Backlog(double now_ms,
                                        std::uint64_t next) const {
  if (now_ms < start_ms_) return 0;
  const auto due = static_cast<std::uint64_t>(
                       std::floor((now_ms - start_ms_) / interval_ms_)) +
                   1;
  return due > next ? due - next : 0;
}

double OpenLoopSchedule::WaitUntilDue(const Clock& clock,
                                      std::uint64_t i) const {
  const double due = DueMs(i);
  double now = clock.NowMs();
  while (now < due) now = clock.NowMs();
  return now - due;
}

void CommitTracker::Committed(double end_ms) {
  for (double due : in_flight_) commit_ms_.push_back(end_ms - due);
  in_flight_.clear();
}

double BacklogGrowth(const std::vector<double>& backlog) {
  const std::size_t quarter = backlog.size() / 4;
  if (quarter == 0) return 0.0;
  const std::vector<double> first(backlog.begin(),
                                  backlog.begin() +
                                      static_cast<std::ptrdiff_t>(quarter));
  const std::vector<double> last(
      backlog.end() - static_cast<std::ptrdiff_t>(quarter), backlog.end());
  return Median(last) - Median(first);
}

}  // namespace mbta::perfbench
