#ifndef PERFBENCH_HARNESS_TAIL_H_
#define PERFBENCH_HARNESS_TAIL_H_

#include <cstddef>
#include <vector>

namespace mbta::perfbench {

/// A latency percentile together with the evidence behind it: how many
/// samples it was taken over and how many lie strictly above it. A tail
/// percentile is only reported when at least `kMinAbove` samples lie
/// beyond it; with fewer, one outlier decides the number.
struct TailStat {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t above = 0;
};

inline constexpr std::size_t kMinAbove = 10;

/// p-th percentile (p in [0,100], linear interpolation between closest
/// ranks, as util/stats.h) plus the sample counts above.
TailStat Tail(const std::vector<double>& xs, double p);

/// True when the p-th percentile of `xs` has at least `min_above`
/// samples strictly above it, i.e. the loop collecting `xs` may stop.
bool TailIsResolved(const std::vector<double>& xs, double p,
                    std::size_t min_above = kMinAbove);

/// Best of repeated identical work. `samples` holds `items` timings per
/// repeat, repeat after repeat (sample k times item k % items; the last
/// repeat may be partial). Returns each item's minimum over its repeats.
/// Noise from a shared host only ever adds time, and it comes in bursts
/// of seconds, so the minimum over repeats spread across a run is the
/// steadiest estimate of what the work itself costs.
std::vector<double> BestPerItem(const std::vector<double>& samples,
                                std::size_t items);

double Median(const std::vector<double>& xs);
double Sum(const std::vector<double>& xs);

}  // namespace mbta::perfbench

#endif  // PERFBENCH_HARNESS_TAIL_H_
