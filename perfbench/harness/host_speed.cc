#include "harness/host_speed.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstddef>
#include <sstream>
#include <string>

#include "harness/tail.h"
#include "util/clock.h"
#include "util/rng.h"

namespace mbta::perfbench {
namespace {

constexpr int kNumbers = 30000;
constexpr std::size_t kKeys = 60000;
// Lines shaped like a market file's edge lines.
constexpr int kLines = 4000;
// Typical probe times on the 4-vCPU host the benchmark was tuned on.
constexpr double kArraysReferenceMs = 6.0;
constexpr double kArraysAndStreamsReferenceMs = 11.0;

}  // namespace

HostProbe::HostProbe(Kind kind) : kind_(kind) {
  Rng rng(0x5eedULL);
  char buf[32];
  for (int i = 0; i < kNumbers; ++i) {
    const auto r = std::to_chars(buf, buf + sizeof buf,
                                 rng.NextDouble() * 1000.0,
                                 std::chars_format::fixed, 6);
    numbers_.append(buf, r.ptr);
    numbers_.push_back(' ');
  }
  keys_.resize(kKeys);
  for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(rng.Next());
  sorted_.resize(kKeys);
  if (kind_ == Kind::kArrays) return;
  for (int i = 0; i < kLines; ++i) {
    lines_ += "e " + std::to_string(rng.NextBounded(2000)) + " " +
              std::to_string(rng.NextBounded(4000)) + " " +
              std::to_string(rng.NextDouble()) + " " +
              std::to_string(rng.NextDouble() * 100.0) + "\n";
  }
}

double HostProbe::RunMs() {
  const SteadyClock& clock = SteadyClock::Instance();
  const double t0 = clock.NowMs();
  double sum = 0.0;
  const char* p = numbers_.data();
  const char* const end = p + numbers_.size();
  while (p < end) {
    double v = 0.0;
    p = std::from_chars(p, end, v).ptr + 1;
    sum += v;
  }
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  if (kind_ == Kind::kArraysAndStreams) {
    std::istringstream in(lines_);
    std::string line, tag;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      long w = 0, t = 0;
      double quality = 0.0, benefit = 0.0;
      ls >> tag >> w >> t >> quality >> benefit;
      sum += static_cast<double>(w + t) + quality + benefit;
    }
  }
  checksum_ = sum + sorted_[kKeys / 2];
  return clock.NowMs() - t0;
}

double HostProbe::reference_ms() const {
  return kind_ == Kind::kArrays ? kArraysReferenceMs
                               : kArraysAndStreamsReferenceMs;
}

std::vector<double> AtReferenceSpeed(const std::vector<double>& item_ms,
                                     const std::vector<double>& probe_ms,
                                     double reference_ms) {
  assert(item_ms.size() == probe_ms.size());
  const std::size_t n = item_ms.size();
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i < kProbeWindow ? 0 : i - kProbeWindow;
    const std::size_t hi = std::min(n, i + kProbeWindow + 1);
    scaled[i] = item_ms[i] * reference_ms /
                Median(std::vector<double>(probe_ms.begin() + lo,
                                           probe_ms.begin() + hi));
  }
  return scaled;
}

}  // namespace mbta::perfbench
