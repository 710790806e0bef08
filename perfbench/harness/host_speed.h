#ifndef PERFBENCH_HARNESS_HOST_SPEED_H_
#define PERFBENCH_HARNESS_HOST_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mbta::perfbench {

/// A fixed piece of benchmark-owned work that tracks the host's speed.
///
/// A shared host changes speed by 25-50 % in steps that last from
/// seconds to minutes, and every workload follows them: a run that falls
/// into a slow period reads slow whatever it measures, and the minimum
/// over repeats within a run cannot take out a step that spans the run.
/// Timed right before each measured item, the probe gives the host's
/// speed at that moment; see AtReferenceSpeed. A probe tracks a workload
/// only when it does the same kind of work, because a slow period slows
/// kinds of work by different amounts, so there are two kinds.
class HostProbe {
 public:
  enum class Kind {
    /// Parse decimal numbers with std::from_chars and sort integers: the
    /// array and heap work of the exact-flow solver.
    kArrays,
    /// kArrays plus parsing text lines through std::istringstream, the
    /// way the market reader does: the work of a greedy solve, which
    /// mostly reads its market file. It also tracks the service's
    /// per-epoch rebuild, which slows more than kArrays does.
    kArraysAndStreams,
  };

  explicit HostProbe(Kind kind);

  /// Runs the probe once and returns its wall time in ms.
  double RunMs();

  /// The probe's typical time on the 4-vCPU host the benchmark was tuned
  /// on: the speed that scaled times refer to.
  double reference_ms() const;

  /// Folds the probe's results; repeats exactly from run to run.
  double checksum() const { return checksum_; }

 private:
  Kind kind_;
  std::string numbers_;
  std::string lines_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> sorted_;
  double checksum_ = 0.0;
};

/// Probes on each side of an item that AtReferenceSpeed takes the median
/// of: one probe run can be disturbed on its own (an interrupt, a page
/// fault), and a tail percentile of the scaled times would pick out the
/// items whose probe was.
inline constexpr std::size_t kProbeWindow = 2;

/// Each item's time at the reference speed,
/// item_ms[i] * reference_ms / (median of probe_ms[i - kProbeWindow] ..
/// probe_ms[i + kProbeWindow], clipped to the run), where probe_ms[j] is
/// the probe timed right before item j. Requires equal sizes.
std::vector<double> AtReferenceSpeed(const std::vector<double>& item_ms,
                                     const std::vector<double>& probe_ms,
                                     double reference_ms);

}  // namespace mbta::perfbench

#endif  // PERFBENCH_HARNESS_HOST_SPEED_H_
