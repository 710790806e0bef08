// solve-greedy / solve-flow: one client runs `mbta_cli solve` in process,
// back to back, over a seeded pool of market files.

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/exact_flow_solver.h"
#include "core/greedy_solver.h"
#include "core/validate.h"
#include "gen/market_generator.h"
#include "harness/host_speed.h"
#include "harness/tail.h"
#include "harness/workloads.h"
#include "io/market_io.h"
#include "market/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace mbta::perfbench {
namespace {

struct PoolSpec {
  std::size_t files;
  std::size_t min_workers;
  std::size_t max_workers;
  ObjectiveKind objective;
  bool exact_flow;
  const char* prefix;
};

constexpr int kSetupRepeats = 3;

// mturk-like markets have two tasks per worker; 1200-2000 workers give
// 38k-64k edges; 180-260 workers keep one exact-flow solve at 0.15-0.35 s.
// Exact-flow work varies more from market to market, so its pool is
// larger: over ten seeds, op_ms_p50 spread 0.11 with 16 files, 0.05 with 32.
constexpr PoolSpec kGreedyPool{16, 1200, 2000, ObjectiveKind::kSubmodular,
                               false, "greedy"};
constexpr PoolSpec kFlowPool{32, 180, 260, ObjectiveKind::kModular, true,
                             "flow"};

struct PoolFile {
  std::string market_path;
  std::string assignment_path;
  std::size_t workers = 0;
  std::uint64_t seed = 0;
  std::uint32_t crc = 0;
  double bytes = 0;
  std::optional<std::uint64_t> objective_bits;  // first solve's MB
};

std::optional<std::string> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<PoolFile> PlanPool(const PoolSpec& spec, const RunOptions& o) {
  Rng rng(o.seed);
  std::vector<PoolFile> pool(spec.files);
  for (std::size_t i = 0; i < spec.files; ++i) {
    PoolFile& f = pool[i];
    f.workers = spec.min_workers +
                (spec.max_workers - spec.min_workers) * i / (spec.files - 1);
    f.seed = rng.Next();
    const std::string stem = o.work_dir + "/" + spec.prefix + "_" +
                             std::to_string(i);
    f.market_path = stem + ".market";
    f.assignment_path = stem + ".assignment";
  }
  return pool;
}

/// Generates and writes the pool; returns the wall time in seconds.
/// Every repeat must write byte-identical files.
double WritePool(std::vector<PoolFile>* pool, bool first, Report* report) {
  const SteadyClock& clock = SteadyClock::Instance();
  const double t0 = clock.NowMs();
  for (PoolFile& f : *pool) {
    std::string error;
    if (!WriteMarketToFile(GenerateMarket(MTurkLikeConfig(f.workers, f.seed)),
                           f.market_path, &error)) {
      report->Error("writing " + f.market_path + ": " + error);
    }
  }
  const double seconds = (clock.NowMs() - t0) / 1000.0;
  for (PoolFile& f : *pool) {
    const auto bytes = Slurp(f.market_path);
    const std::uint32_t crc = bytes ? Crc32(*bytes) : 0;
    if (first) {
      f.crc = crc;
      f.bytes = bytes ? static_cast<double>(bytes->size()) : 0.0;
    } else if (crc != f.crc) {
      report->Error("market pool not reproducible: " + f.market_path);
    }
  }
  return seconds;
}

/// Sums over the ops of one pass, taken from outside each call plus the
/// SolveStats counters and phases the solvers publish.
struct SolvePass {
  std::vector<double> op_ms;
  std::vector<double> probe_ms;  // the host probe before each op
  double read_ms = 0, solve_ms = 0, validate_ms = 0, evaluate_ms = 0,
         write_ms = 0, bytes_read = 0;
  double gain_evals = 0, lazy_reevals = 0, heap_pops = 0;
  double augment_ms = 0, augmenting_paths = 0, dijkstra_runs = 0,
         arcs_scanned = 0;
};

/// One in-process `mbta_cli solve`: read, solve, validate, evaluate,
/// write. Returns false when an output check failed.
bool SolveOnce(const PoolSpec& spec, PoolFile* f, Tracer* tracer,
               SolvePass* pass, Report* report) {
  const SteadyClock& clock = SteadyClock::Instance();
  std::string error;
  ScopedSpan op_span(tracer, "bench/op", "bench");
  const double t0 = clock.NowMs();
  std::optional<LaborMarket> market;
  {
    ScopedSpan span(tracer, "io/read_market", "io");
    market = ReadMarketFromFile(f->market_path, &error);
  }
  const double t1 = clock.NowMs();
  if (!market) {
    report->Error("read " + f->market_path + ": " + error);
    return false;
  }
  const MbtaProblem problem{&*market, ObjectiveParams{0.5, spec.objective}};
  SolveOptions options;
  options.threads = spec.exact_flow ? 1 : 4;
  SolveStats info;
  info.phases.set_tracer(tracer);
  Assignment a;
  {
    ScopedSpan span(tracer, "core/solve", "core");
    if (spec.exact_flow) {
      a = ExactFlowSolver().Solve(problem, options, &info);
    } else {
      a = GreedySolver().Solve(problem, options, &info);
    }
  }
  const double t2 = clock.NowMs();
  ValidationResult check;
  {
    ScopedSpan span(tracer, "core/validate", "core");
    check = ValidateAssignment(problem, a);
  }
  const double t3 = clock.NowMs();
  AssignmentMetrics metrics;
  {
    ScopedSpan span(tracer, "market/evaluate", "market");
    metrics = Evaluate(problem.MakeObjective(), a);
  }
  const double t4 = clock.NowMs();
  bool written = false;
  {
    ScopedSpan span(tracer, "io/write_assignment", "io");
    written = WriteAssignmentToFile(*market, a, f->assignment_path, &error);
  }
  const double t5 = clock.NowMs();

  pass->op_ms.push_back(t5 - t0);
  pass->read_ms += t1 - t0;
  pass->bytes_read += f->bytes;
  pass->solve_ms += t2 - t1;
  pass->validate_ms += t3 - t2;
  pass->evaluate_ms += t4 - t3;
  pass->write_ms += t5 - t4;
  pass->gain_evals += static_cast<double>(info.gain_evaluations);
  pass->lazy_reevals +=
      static_cast<double>(info.counters.Value("greedy/lazy_reevals"));
  pass->heap_pops +=
      static_cast<double>(info.counters.Value("greedy/heap_pops"));
  pass->augment_ms += info.phases.TotalMs("flow/augment");
  pass->augmenting_paths +=
      static_cast<double>(info.counters.Value("flow/augmenting_paths"));
  pass->dijkstra_runs +=
      static_cast<double>(info.counters.Value("flow/dijkstra_runs"));
  pass->arcs_scanned +=
      static_cast<double>(info.counters.Value("flow/arcs_scanned"));

  bool ok = true;
  if (!check.ok()) {
    report->Error(f->market_path + ": invalid assignment: " + check.Message());
    ok = false;
  }
  if (info.deadline_hit) {
    report->Error(f->market_path + ": solver stopped early");
    ok = false;
  }
  if (!written) {
    report->Error("write " + f->assignment_path + ": " + error);
    ok = false;
  }
  const auto bits = std::bit_cast<std::uint64_t>(metrics.mutual_benefit);
  if (!f->objective_bits) {
    f->objective_bits = bits;
  } else if (*f->objective_bits != bits) {
    report->Error(f->market_path + ": mutual benefit differs between solves");
    ok = false;
  }
  return ok;
}

/// Solves the pool round-robin for at least `seconds`, in whole passes
/// over the pool, until op_ms_p90 has kMinAbove samples above it.
SolvePass RunPass(const PoolSpec& spec, std::vector<PoolFile>* pool,
                  double seconds, HostProbe* probe, Tracer* tracer,
                  Report* report) {
  const SteadyClock& clock = SteadyClock::Instance();
  SolvePass pass;
  const double start = clock.NowMs();
  std::size_t op = 0;
  while (report->correct() &&
         (op % pool->size() != 0 || clock.NowMs() - start < seconds * 1000.0 ||
          !TailIsResolved(pass.op_ms, 90.0))) {
    PoolFile& f = (*pool)[op % pool->size()];
    pass.probe_ms.push_back(probe->RunMs());
    ++report->attempted;
    if (!SolveOnce(spec, &f, tracer, &pass, report)) ++report->failed;
    ++op;
  }
  return pass;
}

/// Reads every written assignment back against its market: the files a
/// user would keep must parse, validate, and score what the solve did.
void VerifyWrittenAssignments(const PoolSpec& spec,
                              const std::vector<PoolFile>& pool,
                              Report* report) {
  for (const PoolFile& f : pool) {
    std::string error;
    const auto market = ReadMarketFromFile(f.market_path, &error);
    const auto a = market ? ReadAssignmentFromFile(*market, f.assignment_path,
                                                   &error)
                          : std::nullopt;
    if (!a) {
      report->Error("reading back " + f.assignment_path + ": " + error);
      continue;
    }
    const MbtaProblem problem{&*market, ObjectiveParams{0.5, spec.objective}};
    const double mb = Evaluate(problem.MakeObjective(), *a).mutual_benefit;
    if (!ValidateAssignment(problem, *a).ok() || !f.objective_bits ||
        std::bit_cast<std::uint64_t>(mb) != *f.objective_bits) {
      report->Error(f.assignment_path + " does not match its solve");
    }
  }
}

double PerOp(double total, const SolvePass& pass) {
  return total / static_cast<double>(pass.op_ms.size());
}

/// Mean op time at the reference speed of the host.
double MeanOpMs(const SolvePass& pass, const HostProbe& probe) {
  return PerOp(
      Sum(AtReferenceSpeed(pass.op_ms, pass.probe_ms, probe.reference_ms())),
      pass);
}

}  // namespace

Report RunSolveWorkload(const RunOptions& options, bool flow) {
  const PoolSpec& spec = flow ? kFlowPool : kGreedyPool;
  Report report;
  std::vector<PoolFile> pool = PlanPool(spec, options);
  // Greedy ops spend about 3/4 of their time parsing the market file.
  HostProbe probe(flow ? HostProbe::Kind::kArrays
                       : HostProbe::Kind::kArraysAndStreams);
  std::vector<double> setup_s, setup_probe_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup_probe_ms.push_back(probe.RunMs());
    setup_s.push_back(WritePool(&pool, r == 0, &report));
  }

  const SteadyClock& clock = SteadyClock::Instance();
  const double start = clock.NowMs();
  const SolvePass pass =
      RunPass(spec, &pool, options.seconds, &probe, nullptr, &report);
  const double elapsed_s = (clock.NowMs() - start) / 1000.0;
  VerifyWrittenAssignments(spec, pool, &report);

  double mb_sum = 0.0;
  for (const PoolFile& f : pool) {
    const double mb = std::bit_cast<double>(f.objective_bits.value_or(0));
    report.FingerprintDouble(mb);
    mb_sum += mb;
  }
  const double mutual_benefit = mb_sum / static_cast<double>(pool.size());

  if (options.trace_path.empty()) {
    report.PrintTail("op_ms_p50", Tail(pass.op_ms, 50.0), "ms");
    report.PrintTail("op_ms_p90", Tail(pass.op_ms, 90.0), "ms");
    std::printf("  %-28s %.6g 1/s\n", "ops_per_s",
                static_cast<double>(pass.op_ms.size()) / elapsed_s);
    std::printf("  %-28s %.6g ms\n", "host.probe_ms_p50",
                Median(pass.probe_ms));
    // Gated: every op and set-up at the reference speed of the host.
    const double ref = probe.reference_ms();
    const std::vector<double> op_ms =
        AtReferenceSpeed(pass.op_ms, pass.probe_ms, ref);
    report.EndToEnd("setup_s",
                    Median(AtReferenceSpeed(setup_s, setup_probe_ms, ref)),
                    "s");
    report.EndToEnd("latency_ms_p50", Median(op_ms), "ms");
    report.EndToEnd("latency_ms_tail", Tail(op_ms, 90.0).value, "ms");
    report.EndToEnd("throughput_per_s",
                    static_cast<double>(op_ms.size()) / (Sum(op_ms) / 1000.0),
                    "1/s");
    report.EndToEnd("mutual_benefit", mutual_benefit, "benefit");
    return report;
  }

  Tracer tracer(1u << 20);
  const SolvePass traced =
      RunPass(spec, &pool, options.seconds, &probe, &tracer, &report);
  std::string error;
  if (!tracer.WriteFile(options.trace_path, &error)) report.Error(error);
  report.Layer("io.read_market_ms", PerOp(traced.read_ms, traced), "ms");
  report.Layer("io.read_mb_per_s",
               traced.bytes_read / 1e6 / (traced.read_ms / 1000.0), "MB/s");
  report.Layer("io.read_share", traced.read_ms / Sum(traced.op_ms), "frac");
  report.Layer("io.write_assignment_ms", PerOp(traced.write_ms, traced), "ms");
  report.Layer("core.solve_ms", PerOp(traced.solve_ms, traced), "ms");
  report.Layer("core.gain_evals", PerOp(traced.gain_evals, traced), "count");
  report.Layer("core.lazy_reeval_ratio",
               traced.heap_pops > 0 ? traced.lazy_reevals / traced.heap_pops
                                    : 0.0,
               "frac");
  report.Layer("core.validate_ms", PerOp(traced.validate_ms, traced), "ms");
  report.Layer("market.evaluate_ms", PerOp(traced.evaluate_ms, traced), "ms");
  report.Layer("flow.augment_ms", PerOp(traced.augment_ms, traced), "ms");
  report.Layer("flow.augment_share", traced.augment_ms / Sum(traced.op_ms),
               "frac");
  report.Layer("flow.augmenting_paths",
               PerOp(traced.augmenting_paths, traced), "count");
  report.Layer("flow.dijkstra_runs", PerOp(traced.dijkstra_runs, traced),
               "count");
  report.Layer("flow.arcs_scanned", PerOp(traced.arcs_scanned, traced),
               "count");
  report.Layer("flow.arcs_per_path",
               traced.augmenting_paths > 0
                   ? traced.arcs_scanned / traced.augmenting_paths
                   : 0.0,
               "count");
  report.Layer("obs.trace_overhead_frac",
               MeanOpMs(traced, probe) / MeanOpMs(pass, probe) - 1.0,
               "frac");
  return report;
}

}  // namespace mbta::perfbench
