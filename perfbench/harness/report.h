#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/tail.h"

namespace mbta::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to perfbench/run.py: operation
/// counts, failed output checks, the end-to-end and per-layer metrics,
/// and a fingerprint of every deterministic output (objective bits,
/// serialized states) so repeated runs of one seed can be compared.
///
/// Every metric is also printed as a human-readable line the moment it
/// is recorded, under the name the workload's documentation uses.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint32_t digest = 0;

  /// A failed output check: the run is not correct.
  void Error(const std::string& what);
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Prints a percentile with its sample count under `name`.
  void PrintTail(const std::string& name, const TailStat& t,
                 const std::string& unit) const;
  /// Folds deterministic output bytes into `digest`.
  void Fingerprint(const std::string& bytes);
  void FingerprintDouble(double value);

  bool correct() const { return errors.empty(); }
  /// The report as a JSON document (the harness's --result file).
  std::string ToJson() const;
};

}  // namespace mbta::perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
