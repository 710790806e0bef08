/// Microbenchmark for the marginal-gain kernel (src/market/objective.cc):
///
///   per_edge        one MarginalGain call per edge (arena fold scratch) —
///                   the kernel every solver calls
///   per_edge_churn  the pre-overhaul pattern: the same fold with fresh
///                   std::vectors allocated per edge
///
/// Both compute the same gains; the bench cross-checks them (to 1e-12) so
/// a timing row can never come from a kernel that silently diverged. Wall times are min-of-R on
/// a warm scratch; on noisy hosts compare ratios within one run, not
/// times across runs.
///
/// `--json <path>` emits schema-v2 rows (solver field empty; metrics
/// carry wall_ms/ns_per_edge/checksum) for bench_compare-style tooling.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "gen/market_generator.h"
#include "market/labor_market.h"
#include "market/objective.h"
#include "util/check.h"
#include "util/timer.h"

namespace {

using namespace mbta;

struct Fixture {
  std::unique_ptr<LaborMarket> market;  // the objective borrows it
  std::unique_ptr<MutualBenefitObjective> objective;
  std::unique_ptr<ObjectiveState> state;
  std::vector<EdgeId> candidates;             // unchosen, CanAdd, ascending
  std::vector<std::vector<EdgeId>> by_worker;  // chosen edges per worker
  std::vector<std::vector<EdgeId>> by_task;    // chosen edges per task
};

/// Seeds the state with every 7th addable edge (ascending EdgeId, so the
/// incumbent lists match the state's internal order) and collects the
/// remaining addable edges as the candidate batch.
Fixture MakeFixture(LaborMarket market, double alpha, ObjectiveKind kind) {
  Fixture f;
  f.market = std::make_unique<LaborMarket>(std::move(market));
  f.objective = std::make_unique<MutualBenefitObjective>(
      f.market.get(), ObjectiveParams{alpha, kind});
  f.state = std::make_unique<ObjectiveState>(f.objective.get());
  const LaborMarket& m = f.objective->market();
  f.by_worker.resize(m.NumWorkers());
  f.by_task.resize(m.NumTasks());
  std::size_t seen = 0;
  for (EdgeId e = 0; e < m.NumEdges(); ++e) {
    if (!f.state->CanAdd(e)) continue;
    if (++seen % 7 == 0) {
      f.state->Add(e);
      f.by_worker[m.EdgeWorker(e)].push_back(e);
      f.by_task[m.EdgeTask(e)].push_back(e);
    }
  }
  for (EdgeId e = 0; e < m.NumEdges(); ++e) {
    if (f.state->CanAdd(e)) f.candidates.push_back(e);
  }
  return f;
}

/// The pre-overhaul gain: EdgeGainAt's arithmetic with fresh vectors per
/// call. Kept in lockstep with src/market/objective.cc so the cross-check
/// below stays meaningful.
double ChurnGain(const Fixture& f, EdgeId e) {
  const LaborMarket& m = f.objective->market();
  const std::span<const double> quality = m.Qualities();
  const std::span<const double> benefit = m.WorkerBenefits();
  const std::span<const double> task_value = m.EdgeTaskValues();
  const double alpha = f.objective->alpha();
  const bool modular = f.objective->kind() == ObjectiveKind::kModular;
  const WorkerId w = m.EdgeWorker(e);
  const TaskId t = m.EdgeTask(e);

  double task_old;
  double task_plus;
  if (modular) {
    double sum = 0.0;
    for (EdgeId te : f.by_task[t]) sum += task_value[te] * quality[te];
    task_old = sum;
    task_plus = sum + task_value[e] * quality[e];
  } else {
    double miss = 1.0;
    for (EdgeId te : f.by_task[t]) miss *= 1.0 - quality[te];
    task_old = task_value[e] * (1.0 - miss);
    task_plus = task_value[e] * (1.0 - miss * (1.0 - quality[e]));
  }

  double worker_old;
  double worker_plus;
  if (modular) {
    double sum = 0.0;
    for (EdgeId we : f.by_worker[w]) sum += benefit[we];
    worker_old = sum;
    worker_plus = sum + benefit[e];
  } else {
    const double fatigue = m.worker(w).fatigue;
    std::vector<double> values;
    for (EdgeId we : f.by_worker[w]) values.push_back(benefit[we]);
    std::vector<double> values_plus = values;
    values_plus.push_back(benefit[e]);
    std::sort(values.begin(), values.end(), std::greater<>());
    std::sort(values_plus.begin(), values_plus.end(), std::greater<>());
    const auto fold = [fatigue](const std::vector<double>& vals) {
      double utility = 0.0;
      double weight = 1.0;
      for (double v : vals) {
        utility += weight * v;
        weight *= fatigue;
      }
      return utility;
    };
    worker_old = fold(values);
    worker_plus = fold(values_plus);
  }

  return alpha * (task_plus - task_old) +
         (1.0 - alpha) * (worker_plus - worker_old);
}

struct KernelResult {
  double wall_ms = 0.0;
  double checksum = 0.0;
};

/// Min-of-`repeats` timing of `body`, which must fill `out` with one gain
/// per candidate. The first (untimed) run warms scratch and caches.
KernelResult TimeKernel(std::size_t repeats, std::span<double> out,
                        const std::function<void()>& body) {
  body();  // warm-up: grows scratch so the timed runs are steady-state
  KernelResult result;
  result.wall_ms = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    WallTimer timer;
    body();
    result.wall_ms = std::min(result.wall_ms, timer.ElapsedMs());
  }
  for (double g : out) result.checksum += g;
  return result;
}

void RunCase(bench::JsonLog& json, std::size_t workers, double alpha,
             ObjectiveKind kind, std::size_t repeats) {
  const char* kind_name = kind == ObjectiveKind::kModular ? "modular"
                                                          : "submodular";
  Fixture f = MakeFixture(GenerateMarket(MTurkLikeConfig(workers, 7)), alpha,
                          kind);
  const std::size_t n = f.candidates.size();
  std::vector<double> per_edge_out(n);
  std::vector<double> churn_out(n);

  struct NamedKernel {
    const char* name;
    std::span<double> out;
    std::function<void()> body;
  };
  const std::vector<NamedKernel> kernels = {
      {"per_edge", per_edge_out,
       [&] {
         for (std::size_t i = 0; i < n; ++i) {
           per_edge_out[i] = f.state->MarginalGain(f.candidates[i]);
         }
       }},
      {"per_edge_churn", churn_out,
       [&] {
         for (std::size_t i = 0; i < n; ++i) {
           churn_out[i] = ChurnGain(f, f.candidates[i]);
         }
       }},
  };

  std::printf("mturk_like workers=%zu %s alpha=%.2f (%zu candidate edges)\n",
              workers, kind_name, alpha, n);
  for (const NamedKernel& kernel : kernels) {
    const KernelResult r = TimeKernel(repeats, kernel.out, kernel.body);
    const double ns_per_edge = n == 0 ? 0.0 : r.wall_ms * 1e6 / double(n);
    std::printf("  %-16s %10.3f ms  %8.1f ns/edge\n", kernel.name, r.wall_ms,
                ns_per_edge);
    json.AddRow({{"workers", std::to_string(workers)},
                 {"objective", kind_name},
                 {"alpha", std::to_string(alpha)},
                 {"kernel", kernel.name}},
                {{"wall_ms", r.wall_ms},
                 {"ns_per_edge", ns_per_edge},
                 {"edges", double(n)},
                 {"checksum", r.checksum}});
  }

  // Cross-check: a fast kernel that computes different gains is a bug,
  // not a result. The churn replica is held to near-exact (it shares
  // every operand).
  for (std::size_t i = 0; i < n; ++i) {
    MBTA_CHECK(std::abs(churn_out[i] - per_edge_out[i]) <= 1e-12);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonLog json(argc, argv, "kernel_microbench", "mturk_like");
  const std::size_t kRepeats = 5;
  for (std::size_t workers : {1000, 4000}) {
    for (ObjectiveKind kind :
         {ObjectiveKind::kSubmodular, ObjectiveKind::kModular}) {
      RunCase(json, workers, /*alpha=*/0.5, kind, kRepeats);
    }
  }
  return json.Write() ? 0 : 1;
}
