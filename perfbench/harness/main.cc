// mbta_perfbench: runs one benchmark workload and writes its report.
//
//   mbta_perfbench --workload solve-greedy --seed 1 --seconds 10
//                  --work-dir DIR --result report.json
//                  [--trace-out trace.json] [--rate DELTAS_PER_S]
//
// Workloads: solve-greedy, solve-flow, service-churn, service-durable.
// Human-readable metric lines go to stdout; the machine-readable report
// (see harness/report.h) goes to --result. Exit status: 0 when every
// output check passed, 1 when one failed, 2 on usage errors.
// perfbench/run.py builds this binary and is the intended entry point.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "harness/workloads.h"
#include "util/mem.h"

namespace mbta::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mbta_perfbench --workload NAME --seed N --seconds S "
               "--work-dir DIR --result FILE [--trace-out FILE] "
               "[--rate R]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage();
  for (const char* required : {"workload", "seed", "seconds", "work-dir",
                               "result"}) {
    if (flags.count(required) == 0) return Usage();
  }
  RunOptions options;
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(flags["seconds"].c_str());
  options.work_dir = flags["work-dir"];
  options.trace_path = flags["trace-out"];
  options.rate = std::atof(flags["rate"].c_str());
  if (options.seconds <= 0.0) return Usage();

  const std::string& workload = flags["workload"];
  std::printf("workload %s, seed %llu, %g s per pass%s\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace_path.empty() ? "" : ", traced");
  Report report;
  if (workload == "solve-greedy") {
    report = RunSolveWorkload(options, /*flow=*/false);
  } else if (workload == "solve-flow") {
    report = RunSolveWorkload(options, /*flow=*/true);
  } else if (workload == "service-churn") {
    report = RunServiceChurn(options);
  } else if (workload == "service-durable") {
    report = RunServiceDurable(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return Usage();
  }

  const double failed_frac =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("  %-28s %.6g (%llu of %llu operations)\n", "failed_frac",
              failed_frac, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (options.trace_path.empty()) {
    // The gated form of failed_frac: a benchmark metric may never be 0.
    report.EndToEnd("ok_frac", 1.0 - failed_frac, "frac");
    report.EndToEnd("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0,
                    "MB");
  }
  if (report.failed > 0) report.Error("failed operations");

  std::ofstream out(flags["result"]);
  out << report.ToJson() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", flags["result"].c_str());
    return 2;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace mbta::perfbench

int main(int argc, char** argv) { return mbta::perfbench::Main(argc, argv); }
