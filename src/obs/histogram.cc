#include "obs/histogram.h"

#include <algorithm>

#include "util/check.h"

namespace mbta {

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)) {
  for (std::size_t i = 1; i < boundaries_.size(); ++i) {
    MBTA_CHECK(boundaries_[i - 1] < boundaries_[i]);
  }
  counts_.assign(boundaries_.size() + 1, 0);
}

void Histogram::Record(double value) {
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), value);
  ++counts_[static_cast<std::size_t>(it - boundaries_.begin())];
  ++total_count_;
  sum_ += value;
  if (total_count_ == 1) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

void Histogram::Merge(const Histogram& other) {
  if (other.total_count_ == 0 && other.boundaries_.empty()) return;
  if (total_count_ == 0 && boundaries_.empty()) {
    *this = other;
    return;
  }
  MBTA_CHECK(boundaries_ == other.boundaries_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.total_count_ > 0) {
    min_ = total_count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = total_count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  total_count_ += other.total_count_;
  sum_ += other.sum_;
}

void Histogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::vector<double> ExponentialBoundaries(double first, double factor,
                                          std::size_t count) {
  MBTA_CHECK(first > 0.0 && factor > 1.0);
  std::vector<double> boundaries;
  boundaries.reserve(count);
  double b = first;
  for (std::size_t i = 0; i < count; ++i) {
    boundaries.push_back(b);
    b *= factor;
  }
  return boundaries;
}

std::vector<double> LinearBoundaries(double first, double step,
                                     std::size_t count) {
  MBTA_CHECK(step > 0.0);
  std::vector<double> boundaries;
  boundaries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    boundaries.push_back(first + step * static_cast<double>(i));
  }
  return boundaries;
}

std::vector<double> GainBoundaries() {
  return ExponentialBoundaries(1e-4, 4.0, 16);
}

std::vector<double> LatencyBoundariesMs() {
  return ExponentialBoundaries(1e-3, 2.0, 24);
}

#if MBTA_OBS_THREADSAFE

HistogramRegistry::HistogramRegistry(const HistogramRegistry& other) {
  MutexLock lock(&other.mu_);
  histograms_ = other.histograms_;
}

HistogramRegistry& HistogramRegistry::operator=(
    const HistogramRegistry& other) MBTA_OBS_NO_TSA {
  if (this == &other) return *this;
  Mutex* first = this < &other ? &mu_ : &other.mu_;
  Mutex* second = this < &other ? &other.mu_ : &mu_;
  MutexLock lock_first(first);
  MutexLock lock_second(second);
  histograms_ = other.histograms_;
  return *this;
}

#endif  // MBTA_OBS_THREADSAFE

void HistogramRegistry::Add(std::string_view key,
                            const Histogram& histogram) {
  MBTA_OBS_LOCK(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(key), histogram);
  } else {
    it->second.Merge(histogram);
  }
}

const Histogram* HistogramRegistry::Find(std::string_view key) const {
  MBTA_OBS_LOCK(mu_);
  const auto it = histograms_.find(key);
  return it == histograms_.end() ? nullptr : &it->second;
}

void HistogramRegistry::Clear() {
  MBTA_OBS_LOCK(mu_);
  histograms_.clear();
}

// Address-ordered double lock; the annotations cannot express it.
void HistogramRegistry::Merge(const HistogramRegistry& other)
    MBTA_OBS_NO_TSA {
  if (this == &other) return;
#if MBTA_OBS_THREADSAFE
  Mutex* first = this < &other ? &mu_ : &other.mu_;
  Mutex* second = this < &other ? &other.mu_ : &mu_;
  MutexLock lock_first(first);
  MutexLock lock_second(second);
#endif
  for (const auto& [key, histogram] : other.histograms_) {
    auto it = histograms_.find(key);
    if (it == histograms_.end()) {
      histograms_.emplace(key, histogram);
    } else {
      it->second.Merge(histogram);
    }
  }
}

}  // namespace mbta
