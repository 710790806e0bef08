// service-churn / service-durable: a resident MarketService fed by the
// steady-state churn stream, closed loop in memory or open loop on disk.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/churn.h"
#include "harness/host_speed.h"
#include "harness/open_loop.h"
#include "harness/tail.h"
#include "harness/workloads.h"
#include "obs/trace.h"
#include "service/market_service.h"
#include "util/clock.h"
#include "util/rng.h"

namespace mbta::perfbench {
namespace {

constexpr std::size_t kEpochBatch = 64;
// service-churn's skill categories: a sparse market, whose epochs are
// bound by the W x T eligibility scan of the rebuild, not page faults.
constexpr std::size_t kChurnSkillDims = 16;

// service-durable: ~64 live entities per side, an epoch every 1-2
// deltas, deltas offered at a fixed rate. The rate is about an eighth of
// the seed's saturation throughput (1440-1810 deltas/s on a 4-vCPU
// host): at half of it, fsync stalls of a shared disk queue up deltas,
// and commit latency of identical runs varied up to 6x.
constexpr std::size_t kDurableTarget = 64;
constexpr double kDurableRate = 200.0;
// Set-ups (setup_s is their median); the last kDurablePasses of them
// each run the same script.
constexpr int kDurableSetups = 5;
constexpr int kDurablePasses = 2;
// Deltas per pass: enough for commit_ms_p99 to have kMinAbove samples
// above it.
constexpr std::size_t kMinDurableDeltas = 1100;
constexpr double kMaxBacklogGrowth = 2.0;

ServiceConfig BaseConfig() {
  ServiceConfig config;
  config.epoch_batch = kEpochBatch;
  config.queue_capacity = 1024;
  // Degraded mode reads the wall clock and would make results vary.
  config.degrade_after_ms = 0.0;
  return config;
}

/// Phase totals (ms) and counters of a service's stats at one instant,
/// by name; the difference of two readings is what a measured window did.
using StatsReading = std::map<std::string, double, std::less<>>;

constexpr const char* kPhasePaths[] = {
    "service/epoch/apply", "service/epoch/rebuild",
    "service/epoch/repair", "service/epoch/full_resolve",
    "service/epoch/validate", "wal", "snapshot"};
constexpr const char* kCounters[] = {
    "service/repair/gain_evaluations", "service/epoch/full_resolve",
    "service/repair/dropped_pairs", "service/delta/stale"};

StatsReading Read(const SolveStats& s) {
  StatsReading r;
  for (const char* path : kPhasePaths) r[path] = s.phases.TotalMs(path);
  for (const char* key : kCounters) {
    r[key] = static_cast<double>(s.counters.Value(key));
  }
  return r;
}

/// Adds what happened between readings `start` and `end` to `window`
/// (a key missing from `start` counts from 0).
void Accumulate(StatsReading* window, const StatsReading& start,
                const StatsReading& end) {
  for (const auto& [key, value] : end) {
    const auto it = start.find(key);
    (*window)[key] += value - (it == start.end() ? 0.0 : it->second);
  }
}

/// What the measured part of a service run did.
struct ServicePass {
  std::vector<double> epoch_ms;
  std::vector<double> probe_ms;    // the host probe before each batch
  std::vector<double> submit_us;
  std::vector<double> commit_ms;   // open loop only
  std::vector<double> lateness_ms; // open loop only
  std::vector<double> backlog;     // open loop only
  double wall_ms = 0;
  double deltas = 0;
  double objective_sum = 0;
  /// Mean committed objective per epoch. A total over rounds carries
  /// that of one round (every round must give the same bits), so it does
  /// not depend on how many rounds fit the measured time.
  double benefit = 0;
  double live_workers_sum = 0, live_tasks_sum = 0, pending_max = 0;
  StatsReading stats;
  std::string final_state;
  int rounds = 0;

  double epochs() const { return static_cast<double>(epoch_ms.size()); }
  /// Busy time per delta: what tracing slows down. Epochs count at the
  /// reference speed when the host probe ran before each.
  double busy_ms_per_delta(double probe_reference_ms) const {
    const double epochs_ms =
        probe_ms.empty()
            ? Sum(epoch_ms)
            : Sum(AtReferenceSpeed(epoch_ms, probe_ms, probe_reference_ms));
    return (epochs_ms + Sum(submit_us) / 1000.0) / deltas;
  }
};

/// Adds one round of identical work to `total`. Every round of a seed
/// must end in the same state, with the same benefit and epoch count.
void AddRound(const ServicePass& p, ServicePass* total, Report* report) {
  if (total->rounds == 0) {
    total->final_state = p.final_state;
    total->benefit = p.benefit;
  } else if (p.final_state != total->final_state ||
             std::bit_cast<std::uint64_t>(p.benefit) !=
                 std::bit_cast<std::uint64_t>(total->benefit) ||
             p.epoch_ms.size() * static_cast<std::size_t>(total->rounds) !=
                 total->epoch_ms.size()) {
    report->Error("rounds of one seed ended in different states");
  }
  ++total->rounds;
  for (auto [to, from] : {std::pair{&total->epoch_ms, &p.epoch_ms},
                          std::pair{&total->probe_ms, &p.probe_ms},
                          std::pair{&total->submit_us, &p.submit_us},
                          std::pair{&total->commit_ms, &p.commit_ms},
                          std::pair{&total->lateness_ms, &p.lateness_ms},
                          std::pair{&total->backlog, &p.backlog}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  total->wall_ms += p.wall_ms;
  total->deltas += p.deltas;
  total->live_workers_sum += p.live_workers_sum;
  total->live_tasks_sum += p.live_tasks_sum;
  total->pending_max = std::max(total->pending_max, p.pending_max);
  Accumulate(&total->stats, StatsReading{}, p.stats);
}

/// Submits one delta, timed; a shed or rejected delta is a failed op.
void TimedSubmit(MarketService& service, const Delta& delta, Tracer* tracer,
                 ServicePass* pass, Report* report) {
  const SteadyClock& clock = SteadyClock::Instance();
  std::string error;
  const double t0 = clock.NowMs();
  SubmitResult result = SubmitResult::kRejected;
  {
    ScopedSpan span(tracer, "service/submit", "service");
    result = service.Submit(delta, &error);
  }
  pass->submit_us.push_back((clock.NowMs() - t0) * 1000.0);
  ++report->attempted;
  if (result != SubmitResult::kAdmitted) {
    ++report->failed;
    report->Error("delta not admitted: " + error);
  }
}

/// Runs one epoch, timed, and records what it committed. Returns the
/// wall-clock time at its end.
double TimedEpoch(MarketService& service, Tracer* tracer, ServicePass* pass,
                  Report* report) {
  const SteadyClock& clock = SteadyClock::Instance();
  const double pending = static_cast<double>(service.state().pending.size());
  pass->pending_max = std::max(pass->pending_max, pending);
  std::string error;
  const double t0 = clock.NowMs();
  bool ok = false;
  {
    ScopedSpan span(tracer, "service/run_epoch", "service");
    ok = service.RunEpoch(&error);
  }
  const double t1 = clock.NowMs();
  pass->epoch_ms.push_back(t1 - t0);
  ++report->attempted;
  if (!ok) {
    ++report->failed;
    report->Error("epoch failed: " + error);
  }
  pass->deltas +=
      pending - static_cast<double>(service.state().pending.size());
  pass->objective_sum += service.objective_value();
  pass->live_workers_sum += static_cast<double>(service.state().workers.size());
  pass->live_tasks_sum += static_cast<double>(service.state().tasks.size());
  return t1;
}

/// Brings `service` from empty to the churn target: every arrival is
/// submitted, and an epoch runs whenever `epoch_due` says so for the
/// delta just submitted. Returns the wall time in seconds.
template <typename EpochDue>
double Populate(MarketService& service, SteadyChurn& churn,
                EpochDue epoch_due, Report* report) {
  const SteadyClock& clock = SteadyClock::Instance();
  const double t0 = clock.NowMs();
  std::string error;
  const std::vector<Delta> arrivals = churn.Populate();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (service.Submit(arrivals[i], &error) != SubmitResult::kAdmitted) {
      report->Error("setup delta not admitted: " + error);
    }
    if (epoch_due(i, service) && !service.RunEpoch(&error)) {
      report->Error("setup epoch failed: " + error);
    }
  }
  while (!service.state().pending.empty()) {
    if (!service.RunEpoch(&error)) {
      report->Error("setup epoch failed: " + error);
      break;
    }
  }
  return (clock.NowMs() - t0) / 1000.0;
}

/// Live counts must stay in the churn band; the slack covers deltas
/// generated but not yet applied.
void CheckBand(const MarketService& service, const SteadyChurn& churn,
               std::size_t target, std::size_t slack, Report* report) {
  const std::size_t band = churn.band(target) + slack;
  for (std::size_t live :
       {service.state().workers.size(), service.state().tasks.size()}) {
    if (live + band < target || live > target + band) {
      report->Error("live entities left the steady-state band: " +
                    std::to_string(live));
    }
  }
}

/// Per-layer metrics of a service pass (the traced one), per epoch.
void ReportServiceLayers(const ServicePass& p, const ServicePass& untraced,
                         double probe_reference_ms, Report* report) {
  const double n = p.epochs();
  const double run_epoch = Sum(p.epoch_ms);
  double phases = 0;
  for (const char* path : kPhasePaths) phases += p.stats.at(path);
  const auto per_epoch = [&](const char* name, const char* key,
                             const char* unit) {
    report->Layer(name, p.stats.at(key) / n, unit);
  };
  report->Layer("service.run_epoch_ms", run_epoch / n, "ms");
  per_epoch("service.apply_ms", "service/epoch/apply", "ms");
  per_epoch("service.rebuild_ms", "service/epoch/rebuild", "ms");
  report->Layer("service.rebuild_share",
                p.stats.at("service/epoch/rebuild") / run_epoch, "frac");
  per_epoch("service.repair_ms", "service/epoch/repair", "ms");
  per_epoch("service.full_resolve_ms", "service/epoch/full_resolve", "ms");
  per_epoch("service.validate_ms", "service/epoch/validate", "ms");
  per_epoch("service.wal_ms", "wal", "ms");
  per_epoch("service.snapshot_ms", "snapshot", "ms");
  report->Layer("service.other_ms", (run_epoch - phases) / n, "ms");
  report->Layer("service.submit_us_p50", Median(p.submit_us), "us");
  per_epoch("service.repair_gain_evals", "service/repair/gain_evaluations",
            "count");
  per_epoch("service.full_resolves", "service/epoch/full_resolve", "count");
  per_epoch("service.dropped_pairs", "service/repair/dropped_pairs", "count");
  report->Layer("service.live_workers", p.live_workers_sum / n, "count");
  report->Layer("service.live_tasks", p.live_tasks_sum / n, "count");
  report->Layer("service.pending_max", p.pending_max, "count");
  report->Layer("obs.trace_overhead_frac",
                p.busy_ms_per_delta(probe_reference_ms) /
                        untraced.busy_ms_per_delta(probe_reference_ms) -
                    1.0,
                "frac");
}

// --- service-churn ---------------------------------------------------------

/// Set-up times with the host probe timed right before each.
struct SetupTimes {
  std::vector<double> seconds;
  std::vector<double> probe_ms;

  double AtReferenceSpeed(double probe_reference_ms) const {
    return Median(
        perfbench::AtReferenceSpeed(seconds, probe_ms, probe_reference_ms));
  }
};

/// One round: a fresh in-memory service populated to the target, then
/// the round's fixed churn stream, closed loop, keeping at least one
/// batch pending after every epoch. The host probe runs before the
/// set-up and before every epoch, outside the round's wall time.
ServicePass ChurnRound(const RunOptions& options, const ChurnShape& shape,
                       HostProbe* probe, Tracer* tracer, SetupTimes* setup,
                       Report* report) {
  MarketService service(BaseConfig());
  std::string error;
  if (!service.Start(&error)) report->Error("start: " + error);
  SteadyChurn churn(SteadyChurn::Config{shape.target, shape.target, 0.05, 0.2,
                                        kChurnSkillDims},
                    options.seed);
  setup->probe_ms.push_back(probe->RunMs());
  setup->seconds.push_back(Populate(
      service, churn,
      [](std::size_t, const MarketService& s) {
        return s.state().pending.size() >= kEpochBatch;
      },
      report));
  CheckBand(service, churn, shape.target, 0, report);

  ServicePass pass;
  const StatsReading before = Read(service.stats());
  service.stats().phases.set_tracer(tracer);
  const SteadyClock& clock = SteadyClock::Instance();
  const double t0 = clock.NowMs();
  std::size_t generated = 0;
  while (generated < shape.deltas_per_round ||
         !service.state().pending.empty()) {
    pass.probe_ms.push_back(probe->RunMs());
    ScopedSpan op(tracer, "bench/op", "bench");
    while (generated < shape.deltas_per_round &&
           service.state().pending.size() < 2 * kEpochBatch) {
      TimedSubmit(service, churn.Next(), tracer, &pass, report);
      ++generated;
    }
    const std::size_t pending = service.state().pending.size();
    TimedEpoch(service, tracer, &pass, report);
    CheckBand(service, churn, shape.target, pending, report);
  }
  pass.wall_ms = clock.NowMs() - t0 - Sum(pass.probe_ms);
  service.stats().phases.set_tracer(nullptr);
  Accumulate(&pass.stats, before, Read(service.stats()));
  if (pass.stats["service/delta/stale"] > 0) {
    report->Error("stale deltas in the churn stream");
  }
  pass.final_state = SerializeServiceState(service.state());
  pass.benefit = pass.objective_sum / pass.epochs();
  return pass;
}

/// Rounds until the measured streams add up to `options.seconds` and
/// epoch_ms_p90 has kMinAbove samples above it.
ServicePass ChurnPass(const RunOptions& options, const ChurnShape& shape,
                      HostProbe* probe, Tracer* tracer, SetupTimes* setup,
                      Report* report) {
  ServicePass total;
  while (report->correct() &&
         (total.rounds < shape.min_rounds ||
          total.wall_ms < options.seconds * 1000.0 ||
          !TailIsResolved(total.epoch_ms, 90.0))) {
    AddRound(ChurnRound(options, shape, probe, tracer, setup, report),
             &total, report);
  }
  return total;
}

// --- service-durable -------------------------------------------------------

/// The durable stream: deltas plus, per delta, whether an epoch follows
/// it. Epochs fall every 1-2 deltas by sequence number, never by time.
struct DurableScript {
  std::vector<Delta> deltas;
  std::vector<bool> epoch_after;
};

class EpochEvery1To2 {
 public:
  explicit EpochEvery1To2(std::uint64_t seed) : rng_(seed ^ 0xe90c4ULL) {
    Draw();
  }
  bool operator()() {
    if (--left_ > 0) return false;
    Draw();
    return true;
  }

 private:
  void Draw() { left_ = 1 + static_cast<int>(rng_.NextBounded(2)); }
  Rng rng_;
  int left_ = 0;
};

ServiceConfig DurableConfig(const std::string& dir) {
  ServiceConfig config = BaseConfig();
  config.wal_path = dir + "/service.wal";
  config.snapshot_every = 16;
  config.syncer = FileSyncer::Real();
  return config;
}

void FreshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// A durable service populated to the target in `dir`, plus the churn
/// generator and epoch schedule positioned after the set-up.
struct DurableSetup {
  std::unique_ptr<MarketService> service;
  std::unique_ptr<SteadyChurn> churn;
  std::unique_ptr<EpochEvery1To2> epochs;
  double seconds = 0;
};

DurableSetup SetUpDurable(const RunOptions& options, const std::string& dir,
                          Report* report) {
  FreshDir(dir);
  DurableSetup s;
  s.service = std::make_unique<MarketService>(DurableConfig(dir));
  s.churn = std::make_unique<SteadyChurn>(
      SteadyChurn::Config{kDurableTarget, kDurableTarget, 0.1}, options.seed);
  s.epochs = std::make_unique<EpochEvery1To2>(options.seed);
  const SteadyClock& clock = SteadyClock::Instance();
  const double t0 = clock.NowMs();
  std::string error;
  if (!s.service->Start(&error)) report->Error("start: " + error);
  s.seconds = (clock.NowMs() - t0) / 1000.0 +
              Populate(
                  *s.service, *s.churn,
                  [&](std::size_t, const MarketService&) {
                    return (*s.epochs)();
                  },
                  report);
  return s;
}

DurableScript MakeScript(DurableSetup& s, std::size_t n) {
  DurableScript script;
  for (std::size_t i = 0; i < n; ++i) {
    script.deltas.push_back(s.churn->Next());
    script.epoch_after.push_back((*s.epochs)() || i + 1 == n);
  }
  return script;
}

/// Offers the script at `rate` deltas/s, open loop, timing every commit
/// from its delta's due time.
ServicePass OpenLoop(MarketService& service, const DurableScript& script,
                     double rate, Tracer* tracer, Report* report) {
  const SteadyClock& clock = SteadyClock::Instance();
  ServicePass pass;
  const StatsReading before = Read(service.stats());
  service.stats().phases.set_tracer(tracer);
  const OpenLoopSchedule schedule(clock.NowMs() + 1.0, rate);
  CommitTracker commits;
  double last_commit = schedule.DueMs(0);
  for (std::size_t i = 0; i < script.deltas.size(); ++i) {
    const double late = schedule.WaitUntilDue(clock, i);
    pass.lateness_ms.push_back(late);
    pass.backlog.push_back(static_cast<double>(
        schedule.Backlog(schedule.DueMs(i) + late, i)));
    ScopedSpan op(tracer, "bench/op", "bench");
    TimedSubmit(service, script.deltas[i], tracer, &pass, report);
    commits.Submitted(schedule.DueMs(i));
    if (script.epoch_after[i]) {
      last_commit = TimedEpoch(service, tracer, &pass, report);
      commits.Committed(last_commit);
    }
  }
  pass.wall_ms = last_commit - schedule.DueMs(0);
  pass.commit_ms = commits.commit_ms();
  service.stats().phases.set_tracer(nullptr);
  Accumulate(&pass.stats, before, Read(service.stats()));
  pass.final_state = SerializeServiceState(service.state());
  pass.benefit = pass.objective_sum / pass.epochs();
  return pass;
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace

Report RunServiceChurn(const RunOptions& options, const ChurnShape& shape) {
  Report report;
  // Churn epochs slow about 1.4 times as much as the kArrays probe when
  // the host does; this kind moves about 1.5 times as much as kArrays.
  HostProbe probe(HostProbe::Kind::kArraysAndStreams);
  SetupTimes setup;
  const ServicePass pass =
      ChurnPass(options, shape, &probe, nullptr, &setup, &report);
  report.Fingerprint(pass.final_state);
  report.FingerprintDouble(pass.benefit);
  if (options.trace_path.empty()) {
    report.PrintTail("epoch_ms_p50", Tail(pass.epoch_ms, 50.0), "ms");
    report.PrintTail("epoch_ms_p90", Tail(pass.epoch_ms, 90.0), "ms");
    std::printf("  %-28s %.6g 1/s\n", "deltas_per_s",
                pass.deltas / (pass.wall_ms / 1000.0));
    std::printf("  %-28s %.6g ms\n", "host.probe_ms_p50",
                Median(pass.probe_ms));
    // Gated: every epoch and set-up at the reference speed of the host.
    const std::vector<double> epoch_ms =
        AtReferenceSpeed(pass.epoch_ms, pass.probe_ms, probe.reference_ms());
    report.EndToEnd("setup_s", setup.AtReferenceSpeed(probe.reference_ms()),
                    "s");
    report.EndToEnd("latency_ms_p50", Median(epoch_ms), "ms");
    report.EndToEnd("latency_ms_tail", Tail(epoch_ms, 90.0).value, "ms");
    report.EndToEnd("throughput_per_s",
                    pass.deltas / (Sum(epoch_ms) / 1000.0), "1/s");
    report.EndToEnd("mutual_benefit", pass.benefit, "benefit");
    return report;
  }
  Tracer tracer(1u << 20);
  SetupTimes traced_setup;
  const ServicePass traced =
      ChurnPass(options, shape, &probe, &tracer, &traced_setup, &report);
  std::string error;
  if (!tracer.WriteFile(options.trace_path, &error)) report.Error(error);
  if (traced.final_state != pass.final_state) {
    report.Error("tracing changed the churn result");
  }
  ReportServiceLayers(traced, pass, probe.reference_ms(), &report);
  return report;
}

Report RunServiceDurable(const RunOptions& options) {
  Report report;
  const double rate = options.rate > 0.0 ? options.rate : kDurableRate;
  const auto n = std::max(
      kMinDurableDeltas,
      static_cast<std::size_t>(rate * options.seconds / kDurablePasses));
  const std::string dir = options.work_dir + "/durable";

  // Every pass sets up a fresh durable service and offers it the same
  // script; the set-ups, like the passes, must agree byte for byte.
  std::vector<double> setup_s;
  std::string setup_state;
  DurableScript script;
  ServicePass pass;
  double backlog_growth = 0;
  for (int r = 0; r < kDurableSetups; ++r) {
    DurableSetup live = SetUpDurable(options, dir, &report);
    setup_s.push_back(live.seconds);
    const std::string state = SerializeServiceState(live.service->state());
    if (r == 0) {
      setup_state = state;
      script = MakeScript(live, n);
    } else if (state != setup_state) {
      report.Error("durable set-up is not reproducible");
    }
    if (r < kDurableSetups - kDurablePasses) continue;
    const ServicePass p =
        OpenLoop(*live.service, script, rate, nullptr, &report);
    backlog_growth = std::max(backlog_growth, BacklogGrowth(p.backlog));
    AddRound(p, &pass, &report);
  }

  // Recovery from the last pass's WAL + snapshot must give its state.
  {
    const SteadyClock& clock = SteadyClock::Instance();
    MarketService recovered(DurableConfig(dir));
    std::string error;
    const double t0 = clock.NowMs();
    const bool ok = recovered.Start(&error);
    const double recover_ms = clock.NowMs() - t0;
    if (!ok || SerializeServiceState(recovered.state()) != pass.final_state) {
      report.Error("recovery from WAL + snapshot differs: " + error);
    }
    if (options.trace_path.empty()) {
      std::printf("  %-28s %.6g ms\n", "service.recover_ms", recover_ms);
    } else {
      report.Layer("service.recover_ms", recover_ms, "ms");
    }
  }
  const double wal_bytes = FileBytes(dir + "/service.wal");
  const double snapshot_bytes = FileBytes(dir + "/service.wal.snap");
  report.Fingerprint(pass.final_state);
  report.FingerprintDouble(pass.benefit);

  std::printf("  %-28s %.6g deltas\n", "driver.backlog_growth",
              backlog_growth);
  if (backlog_growth >= kMaxBacklogGrowth) {
    report.Error("backlog grew: the service did not keep up with " +
                 std::to_string(rate) + " deltas/s");
  }
  if (options.trace_path.empty()) {
    report.PrintTail("commit_ms_p50", Tail(pass.commit_ms, 50.0), "ms");
    report.PrintTail("commit_ms_p90", Tail(pass.commit_ms, 90.0), "ms");
    report.PrintTail("commit_ms_p99", Tail(pass.commit_ms, 99.0), "ms");
    report.PrintTail("epoch_ms_p50", Tail(pass.epoch_ms, 50.0), "ms");
    report.PrintTail("epoch_ms_p90", Tail(pass.epoch_ms, 90.0), "ms");
    report.PrintTail("driver.lateness_ms_p99", Tail(pass.lateness_ms, 99.0),
                     "ms");
    const double deltas_per_s = pass.deltas / (pass.wall_ms / 1000.0);
    std::printf("  %-28s %.6g 1/s (offered %.6g)\n", "deltas_per_s",
                deltas_per_s, rate);
    // Gated: each delta's best commit latency over the passes.
    const std::vector<double> best = BestPerItem(pass.commit_ms, n);
    report.EndToEnd("setup_s", Median(setup_s), "s");
    report.EndToEnd("latency_ms_p50", Median(best), "ms");
    report.EndToEnd("latency_ms_tail", Tail(best, 99.0).value, "ms");
    report.EndToEnd("throughput_per_s", deltas_per_s, "1/s");
    report.EndToEnd("mutual_benefit", pass.benefit, "benefit");
    return report;
  }
  Tracer tracer(1u << 20);
  DurableSetup traced_setup =
      SetUpDurable(options, options.work_dir + "/traced", &report);
  const ServicePass traced =
      OpenLoop(*traced_setup.service, script, rate, &tracer, &report);
  std::string error;
  if (!tracer.WriteFile(options.trace_path, &error)) report.Error(error);
  if (traced.final_state != pass.final_state) {
    report.Error("tracing changed the durable result");
  }
  // No host probe runs on this workload.
  ReportServiceLayers(traced, pass, 0.0, &report);
  report.Layer("service.wal_bytes", wal_bytes, "bytes");
  report.Layer("service.snapshot_bytes", snapshot_bytes, "bytes");
  report.Layer("driver.lateness_ms_p99", Tail(traced.lateness_ms, 99.0).value,
               "ms");
  return report;
}

}  // namespace mbta::perfbench
