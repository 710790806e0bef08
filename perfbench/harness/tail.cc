#include "harness/tail.h"

#include <algorithm>

#include "util/stats.h"

namespace mbta::perfbench {

TailStat Tail(const std::vector<double>& xs, double p) {
  TailStat t;
  t.samples = xs.size();
  t.value = Percentile(xs, p);
  t.above = static_cast<std::size_t>(std::count_if(
      xs.begin(), xs.end(), [&](double x) { return x > t.value; }));
  return t;
}

bool TailIsResolved(const std::vector<double>& xs, double p,
                    std::size_t min_above) {
  return Tail(xs, p).above >= min_above;
}

std::vector<double> BestPerItem(const std::vector<double>& samples,
                                std::size_t items) {
  std::vector<double> best(std::min(items, samples.size()));
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const std::size_t i = k % items;
    best[i] = k < items ? samples[k] : std::min(best[i], samples[k]);
  }
  return best;
}

double Median(const std::vector<double>& xs) { return Percentile(xs, 50.0); }

double Sum(const std::vector<double>& xs) { return Summarize(xs).sum; }

}  // namespace mbta::perfbench
