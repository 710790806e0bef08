#include "io/market_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "util/fault_injector.h"

namespace mbta {

namespace {

constexpr char kMarketHeader[] = "mbta-market v1";
constexpr char kAssignmentHeader[] = "mbta-assignment v1";

/// Hard ceilings on untrusted section counts. A hostile header like
/// "workers 99999999999999999999" must fail validation, not drive a
/// pre-allocation: strtoll-style extraction already rejects values that
/// overflow long long, and these caps reject absurd-but-representable
/// counts before any loop trusts them. The limits are far above every
/// dataset in ROADMAP.md yet small enough that count * sizeof(entity)
/// stays comfortably addressable.
constexpr long long kMaxEntities = 50'000'000;     // workers, tasks
constexpr long long kMaxEdgeCount = 500'000'000;   // edges, pairs
constexpr std::size_t kMaxSkillDims = 4096;        // per-line skill vector

/// IEEE quirk guard: NaN compares false against every bound, so a plain
/// `x < 0.0 || x > 1.0` range check silently accepts it. Every double
/// parsed from a file goes through here.
bool AllFinite(std::initializer_list<double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// Reads one non-empty, non-comment line. Returns false at EOF.
bool NextLine(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    if (!line->empty() && (*line)[0] != '#') return true;
  }
  return false;
}

bool ExpectCount(std::istream& in, const std::string& keyword,
                 long long max_count, std::size_t* count,
                 std::string* error) {
  std::string line;
  if (!NextLine(in, &line)) {
    Fail(error, "unexpected end of file before '" + keyword + "'");
    return false;
  }
  std::istringstream ls(line);
  std::string word;
  long long n = -1;
  // Extraction fails (and the count is rejected) when the digits overflow
  // long long, so "99999999999999999999" never wraps into a small value.
  if (!(ls >> word >> n) || word != keyword || n < 0) {
    Fail(error, "expected '" + keyword + " <count>', got: " + line);
    return false;
  }
  if (n > max_count) {
    Fail(error, "implausible " + keyword + " count " + std::to_string(n) +
                    " (limit " + std::to_string(max_count) + ")");
    return false;
  }
  *count = static_cast<std::size_t>(n);
  return true;
}

void WriteSkills(const SkillVector& skills, std::ostream& out) {
  for (double s : skills) out << ' ' << s;
}

bool ReadSkills(std::istringstream& ls, SkillVector* skills) {
  double v = 0.0;
  while (ls >> v) {
    if (!std::isfinite(v) || v < 0.0) return false;
    if (skills->size() >= kMaxSkillDims) return false;
    skills->push_back(v);
  }
  // The loop must have stopped at end-of-line, not at an unparseable
  // token: num_get rejects "nan"/"inf" spellings without consuming them,
  // and silently dropping trailing garbage would mask corrupt files.
  return ls.eof();
}

}  // namespace

void WriteMarket(const LaborMarket& market, std::ostream& out) {
  out << kMarketHeader << '\n';
  out << "name " << market.name() << '\n';
  out << std::setprecision(17);
  out << "workers " << market.NumWorkers() << '\n';
  for (const Worker& w : market.workers()) {
    out << "w " << w.capacity << ' ' << w.unit_cost << ' ' << w.fatigue
        << ' ' << w.reliability;
    WriteSkills(w.skills, out);
    out << '\n';
  }
  out << "tasks " << market.NumTasks() << '\n';
  for (const Task& t : market.tasks()) {
    out << "t " << t.capacity << ' ' << t.payment << ' ' << t.value << ' '
        << t.difficulty << ' ' << t.requester;
    WriteSkills(t.required_skills, out);
    out << '\n';
  }
  out << "edges " << market.NumEdges() << '\n';
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    out << "e " << market.EdgeWorker(e) << ' ' << market.EdgeTask(e) << ' '
        << market.Quality(e) << ' ' << market.WorkerBenefit(e) << '\n';
  }
}

std::optional<LaborMarket> ReadMarket(std::istream& in, std::string* error,
                                      FaultInjector* faults) {
  std::string line;
  if (!NextLine(in, &line) || line != kMarketHeader) {
    Fail(error, "missing or bad header (want '" +
                    std::string(kMarketHeader) + "')");
    return std::nullopt;
  }
  if (!NextLine(in, &line) || line.rfind("name ", 0) != 0) {
    Fail(error, "expected 'name <name>'");
    return std::nullopt;
  }
  LaborMarketBuilder builder;
  builder.SetName(line.substr(5));

  std::size_t num_workers = 0;
  if (!ExpectCount(in, "workers", kMaxEntities, &num_workers, error)) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < num_workers; ++i) {
    MaybeFail(faults, "io/read");
    if (!NextLine(in, &line)) {
      Fail(error, "truncated worker section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    Worker w;
    if (!(ls >> tag >> w.capacity >> w.unit_cost >> w.fatigue >>
          w.reliability) ||
        tag != "w" || !ReadSkills(ls, &w.skills) ||
        !AllFinite({w.unit_cost, w.fatigue, w.reliability}) ||
        w.capacity < 0 || w.unit_cost < 0.0 || w.fatigue <= 0.0 ||
        w.fatigue > 1.0 || w.reliability < 0.0 || w.reliability > 1.0) {
      Fail(error, "bad worker line: " + line);
      return std::nullopt;
    }
    builder.AddWorker(std::move(w));
  }

  std::size_t num_tasks = 0;
  if (!ExpectCount(in, "tasks", kMaxEntities, &num_tasks, error)) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < num_tasks; ++i) {
    MaybeFail(faults, "io/read");
    if (!NextLine(in, &line)) {
      Fail(error, "truncated task section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    Task t;
    if (!(ls >> tag >> t.capacity >> t.payment >> t.value >>
          t.difficulty >> t.requester) ||
        tag != "t" || !ReadSkills(ls, &t.required_skills) ||
        !AllFinite({t.payment, t.value, t.difficulty}) ||
        t.capacity < 0 || t.payment < 0.0 || t.value < 0.0 ||
        t.difficulty < 0.0 || t.difficulty > 1.0) {
      Fail(error, "bad task line: " + line);
      return std::nullopt;
    }
    builder.AddTask(std::move(t));
  }

  std::size_t num_edges = 0;
  if (!ExpectCount(in, "edges", kMaxEdgeCount, &num_edges, error)) {
    return std::nullopt;
  }
  // Duplicate edges are rejected below, so any count beyond the complete
  // bipartite graph is a lie about the file that follows.
  if (num_edges > num_workers * num_tasks) {
    Fail(error, "edge count exceeds workers * tasks");
    return std::nullopt;
  }
  // mbta-lint: unordered-ok(membership-only duplicate probe, never iterated)
  std::unordered_set<std::uint64_t> seen_pairs;
  // Cap the speculative reservation: the declared count is untrusted
  // input and parsing fails fast on the first missing line anyway.
  seen_pairs.reserve(
      std::min<std::size_t>(num_edges, 1u << 20) * 2);
  builder.ReserveEdges(std::min<std::size_t>(num_edges, 1u << 20));
  for (std::size_t i = 0; i < num_edges; ++i) {
    MaybeFail(faults, "io/read");
    if (!NextLine(in, &line)) {
      Fail(error, "truncated edge section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    std::uint64_t w = 0, t = 0;
    EdgeAttributes attr;
    if (!(ls >> tag >> w >> t >> attr.quality >> attr.worker_benefit) ||
        tag != "e" || w >= num_workers || t >= num_tasks ||
        !AllFinite({attr.quality, attr.worker_benefit}) ||
        attr.quality < 0.0 || attr.quality > 1.0 ||
        attr.worker_benefit < 0.0) {
      Fail(error, "bad edge line: " + line);
      return std::nullopt;
    }
    if (!seen_pairs.insert((w << 32) | t).second) {
      Fail(error, "duplicate edge: " + line);
      return std::nullopt;
    }
    builder.AddEdge(static_cast<WorkerId>(w), static_cast<TaskId>(t), attr);
  }
  return builder.Build();
}

bool WriteMarketToFile(const LaborMarket& market, const std::string& path,
                       std::string* error) {
  std::ofstream out(path);
  if (!out) {
    Fail(error, "cannot open for writing: " + path);
    return false;
  }
  WriteMarket(market, out);
  return static_cast<bool>(out);
}

std::optional<LaborMarket> ReadMarketFromFile(const std::string& path,
                                              std::string* error,
                                              FaultInjector* faults) {
  std::ifstream in(path);
  if (!in) {
    Fail(error, "cannot open for reading: " + path);
    return std::nullopt;
  }
  return ReadMarket(in, error, faults);
}

void WriteAssignment(const LaborMarket& market, const Assignment& a,
                     std::ostream& out) {
  out << kAssignmentHeader << '\n';
  out << "pairs " << a.edges.size() << '\n';
  for (EdgeId e : a.edges) {
    out << "a " << market.EdgeWorker(e) << ' ' << market.EdgeTask(e)
        << '\n';
  }
}

std::optional<Assignment> ReadAssignment(const LaborMarket& market,
                                         std::istream& in,
                                         std::string* error,
                                         FaultInjector* faults) {
  std::string line;
  if (!NextLine(in, &line) || line != kAssignmentHeader) {
    Fail(error, "missing or bad header (want '" +
                    std::string(kAssignmentHeader) + "')");
    return std::nullopt;
  }
  std::size_t pairs = 0;
  if (!ExpectCount(in, "pairs", kMaxEdgeCount, &pairs, error)) {
    return std::nullopt;
  }
  Assignment a;
  for (std::size_t i = 0; i < pairs; ++i) {
    MaybeFail(faults, "io/read");
    if (!NextLine(in, &line)) {
      Fail(error, "truncated pair section");
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string tag;
    std::uint64_t w = 0, t = 0;
    if (!(ls >> tag >> w >> t) || tag != "a" || w >= market.NumWorkers() ||
        t >= market.NumTasks()) {
      Fail(error, "bad pair line: " + line);
      return std::nullopt;
    }
    const EdgeId e = market.graph().FindEdge(static_cast<VertexId>(w),
                                             static_cast<VertexId>(t));
    if (e == kInvalidEdge) {
      Fail(error, "pair is not an eligible edge: " + line);
      return std::nullopt;
    }
    a.edges.push_back(e);
  }
  if (!IsFeasible(market, a)) {
    Fail(error, "assignment violates capacities or repeats a pair");
    return std::nullopt;
  }
  return a;
}

bool WriteAssignmentToFile(const LaborMarket& market, const Assignment& a,
                           const std::string& path, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    Fail(error, "cannot open for writing: " + path);
    return false;
  }
  WriteAssignment(market, a, out);
  return static_cast<bool>(out);
}

std::optional<Assignment> ReadAssignmentFromFile(const LaborMarket& market,
                                                 const std::string& path,
                                                 std::string* error,
                                                 FaultInjector* faults) {
  std::ifstream in(path);
  if (!in) {
    Fail(error, "cannot open for reading: " + path);
    return std::nullopt;
  }
  return ReadAssignment(market, in, error, faults);
}

}  // namespace mbta
