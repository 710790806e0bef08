// Exercises the mbta_lint rule engine (tools/lint_engine.h) on embedded
// snippets: every rule R1-R9 must fire on a violating snippet with the
// right rule id and line, stay silent on a conforming one, and honor the
// waiver syntax. A final test walks the real tree under MBTA_SOURCE_DIR
// and asserts the repository itself is clean at head — the same gate
// `build/tools/mbta_lint` enforces in CI.

#include "tools/lint_engine.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace mbta::lint {
namespace {

std::vector<Violation> LintAs(const std::string& path,
                              const std::string& code) {
  return LintFile(path, code);
}

/// True iff exactly one violation of `rule` exists, at `line`.
testing::AssertionResult FiresOnce(const std::vector<Violation>& vs,
                                   const std::string& rule, int line) {
  int hits = 0;
  for (const Violation& v : vs) {
    if (v.rule == rule && v.line == line) ++hits;
  }
  if (hits == 1) return testing::AssertionSuccess();
  auto result = testing::AssertionFailure();
  result << "wanted exactly one " << rule << " at line " << line << ", got "
         << hits << "; all violations:";
  for (const Violation& v : vs) {
    result << "\n  " << v.file << ":" << v.line << ": " << v.rule << ": "
           << v.message;
  }
  return result;
}

testing::AssertionResult Clean(const std::vector<Violation>& vs) {
  if (vs.empty()) return testing::AssertionSuccess();
  auto result = testing::AssertionFailure();
  result << vs.size() << " unexpected violation(s):";
  for (const Violation& v : vs) {
    result << "\n  " << v.file << ":" << v.line << ": " << v.rule << ": "
           << v.message;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Scoping.
// ---------------------------------------------------------------------------

TEST(ClassifyPath, RecognizesLibraryAndSubsystem) {
  EXPECT_TRUE(ClassifyPath("src/core/solver.cc").library);
  EXPECT_EQ(ClassifyPath("src/core/solver.cc").subsystem, "core");
  EXPECT_EQ(ClassifyPath("/abs/repo/src/flow/max_flow.h").subsystem, "flow");
  EXPECT_TRUE(ClassifyPath("src/flow/max_flow.h").header);
  EXPECT_FALSE(ClassifyPath("tools/mbta_cli.cc").library);
  EXPECT_FALSE(ClassifyPath("bench/fig9.cc").library);
  EXPECT_FALSE(ClassifyPath("tests/foo_test.cc").library);
}

TEST(Scoping, NonLibraryFilesAreExempt) {
  const std::string bad =
      "#include <unordered_map>\n"
      "void f() { std::unordered_map<int, int> m; std::cout << 1; }\n";
  EXPECT_TRUE(Clean(LintAs("tools/scratch.cc", bad)));
  EXPECT_TRUE(Clean(LintAs("tests/scratch_test.cc", bad)));
  EXPECT_TRUE(Clean(LintAs("bench/scratch.cc", bad)));
}

// ---------------------------------------------------------------------------
// R1 — unordered containers.
// ---------------------------------------------------------------------------

TEST(R1Unordered, FiresOnDeclaration) {
  const auto vs = LintAs("src/core/x.cc",
                         "void f() {\n"
                         "  std::unordered_map<int, int> m;\n"
                         "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R1", 2));
}

TEST(R1Unordered, FiresOnRangeForEvenWhenDeclIsWaived) {
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f() {\n"
      "  // mbta-lint: unordered-ok(membership probe only)\n"
      "  std::unordered_set<int> seen;\n"
      "  for (int v : seen) { (void)v; }\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R1", 4));
}

TEST(R1Unordered, FiresOnExplicitIterators) {
  const auto vs = LintAs(
      "src/market/x.cc",
      "void f() {\n"
      "  // mbta-lint: unordered-ok(lookup table)\n"
      "  std::unordered_map<int, int> m;\n"
      "  auto it = m.begin();\n"
      "  (void)it;\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R1", 4));
}

TEST(R1Unordered, WaiverSilencesDeclaration) {
  EXPECT_TRUE(Clean(LintAs(
      "src/gen/x.cc",
      "void f() {\n"
      "  // mbta-lint: unordered-ok(membership-only, never iterated)\n"
      "  std::unordered_set<int> seen;\n"
      "  seen.insert(3);\n"
      "  if (seen.count(3)) { }\n"
      "}\n")));
}

TEST(R1Unordered, SameLineWaiverWorks) {
  EXPECT_TRUE(Clean(LintAs(
      "src/flow/x.cc",
      "void f() {\n"
      "  std::unordered_set<int> s;  // mbta-lint: unordered-ok(probe)\n"
      "}\n")));
}

TEST(R1Unordered, WaiverWithoutReasonDoesNotCount) {
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f() {\n"
      "  // mbta-lint: unordered-ok()\n"
      "  std::unordered_set<int> s;\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R1", 3));
}

TEST(R1Unordered, OrderedContainersAreFine) {
  EXPECT_TRUE(Clean(LintAs("src/core/x.cc",
                           "void f() {\n"
                           "  std::map<int, int> m;\n"
                           "  for (const auto& [k, v] : m) { (void)k; }\n"
                           "}\n")));
}

// ---------------------------------------------------------------------------
// R2 — nondeterminism sources.
// ---------------------------------------------------------------------------

TEST(R2Nondeterminism, FiresOnRandAndRandomDevice) {
  const auto vs = LintAs("src/core/x.cc",
                         "int f() {\n"
                         "  std::random_device rd;\n"
                         "  return rand() + static_cast<int>(rd());\n"
                         "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R2", 2));
  EXPECT_TRUE(FiresOnce(vs, "R2", 3));
}

TEST(R2Nondeterminism, FiresOnWallClock) {
  const auto vs = LintAs("src/gen/x.cc",
                         "long f() { return time(nullptr); }\n");
  EXPECT_TRUE(FiresOnce(vs, "R2", 1));
  const auto vs2 = LintAs(
      "src/market/x.cc",
      "auto f() { return std::chrono::system_clock::now(); }\n");
  EXPECT_TRUE(FiresOnce(vs2, "R2", 1));
}

TEST(R2Nondeterminism, SeededRngAndMemberTimeAreFine) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "double f(mbta::Rng& rng, const Row& row) {\n"
      "  return rng.NextDouble() + row.time();\n"  // member, not ::time
      "}\n")));
}

TEST(R2Nondeterminism, UtilAndObsAreExempt) {
  EXPECT_TRUE(Clean(LintAs(
      "src/util/x.cc", "unsigned f() { std::random_device rd; "
                       "return rd(); }\n")));
  EXPECT_TRUE(Clean(LintAs(
      "src/obs/x.cc",
      "auto f() { return std::chrono::system_clock::now(); }\n")));
}

TEST(R2Nondeterminism, WaiverSilences) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "// mbta-lint: nondet-ok(one-shot seed pickup behind a flag)\n"
      "unsigned f() { std::random_device rd; return rd(); }\n")));
}

// ---------------------------------------------------------------------------
// R3 — float equality.
// ---------------------------------------------------------------------------

TEST(R3FloatEq, FiresOnLiteralComparisons) {
  const auto vs = LintAs("src/core/x.cc",
                         "bool f(double x) { return x == 1.0; }\n");
  EXPECT_TRUE(FiresOnce(vs, "R3", 1));
  const auto vs2 = LintAs("src/market/x.cc",
                          "bool g(double x) { return 0.5f != x; }\n");
  EXPECT_TRUE(FiresOnce(vs2, "R3", 1));
  const auto vs3 = LintAs("src/market/x.cc",
                          "bool h(double x) { return x == 1e-6; }\n");
  EXPECT_TRUE(FiresOnce(vs3, "R3", 1));
}

TEST(R3FloatEq, IntegerComparisonsAreFine) {
  EXPECT_TRUE(Clean(LintAs("src/core/x.cc",
                           "bool f(int x) { return x == 10; }\n")));
}

TEST(R3FloatEq, ToleranceComparisonsAreFine) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "bool f(double a, double b) { return std::abs(a - b) <= 1e-9; }\n")));
}

TEST(R3FloatEq, UtilIsExemptAndWaiverSilences) {
  EXPECT_TRUE(Clean(LintAs("src/util/x.cc",
                           "bool f(double x) { return x == 0.0; }\n")));
  EXPECT_TRUE(Clean(LintAs(
      "src/market/x.cc",
      "bool f(double x) {\n"
      "  return x == 0.0;  // mbta-lint: float-eq-ok(exact zero guard)\n"
      "}\n")));
}

// ---------------------------------------------------------------------------
// R4 — stdout in library code.
// ---------------------------------------------------------------------------

TEST(R4Stdout, FiresOnCoutAndPrintfFamily) {
  EXPECT_TRUE(FiresOnce(
      LintAs("src/core/x.cc", "void f() { std::cout << 1; }\n"), "R4", 1));
  EXPECT_TRUE(FiresOnce(
      LintAs("src/io/x.cc", "void f() { printf(\"%d\", 1); }\n"), "R4", 1));
  EXPECT_TRUE(FiresOnce(
      LintAs("src/io/x.cc", "void f() { fprintf(stdout, \"x\"); }\n"),
      "R4", 1));
}

TEST(R4Stdout, StderrAndSnprintfAreFine) {
  EXPECT_TRUE(Clean(LintAs(
      "src/util/x.cc",
      "void f() {\n"
      "  std::fprintf(stderr, \"oops\\n\");\n"
      "  char buf[8];\n"
      "  std::snprintf(buf, sizeof(buf), \"%d\", 1);\n"
      "}\n")));
}

TEST(R4Stdout, CommentsAndStringsDoNotTrip) {
  EXPECT_TRUE(Clean(LintAs(
      "src/util/x.h",
      "#ifndef X_H_\n#define X_H_\n"
      "/// Usage: std::cout << t.ToString();  (caller's choice of stream)\n"
      "const char* kHelp = \"printf(fmt) like\";\n"
      "#endif\n")));
}

// ---------------------------------------------------------------------------
// R5 — observability name grammar.
// ---------------------------------------------------------------------------

TEST(R5Names, FiresOnBadCounterKey) {
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f(CounterRegistry& c) { c.Add(\"Greedy/HeapPushes\"); }\n");
  EXPECT_TRUE(FiresOnce(vs, "R5", 1));
  const auto vs2 = LintAs(
      "src/core/x.cc",
      "void f(CounterRegistry& c) { c.Set(\"greedy//pushes\", 1); }\n");
  EXPECT_TRUE(FiresOnce(vs2, "R5", 1));
}

TEST(R5Names, FiresOnSlashInScopedPhaseLabel) {
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f(PhaseTimings* t) { ScopedPhase p(t, \"solve/inner\"); }\n");
  EXPECT_TRUE(FiresOnce(vs, "R5", 1));
}

TEST(R5Names, ConformingKeysAreFine) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f(CounterRegistry& c, PhaseTimings* t) {\n"
      "  c.Add(\"greedy/heap_pushes\", 3);\n"
      "  c.SetGauge(\"threshold/calibrated_tau\", 0.5);\n"
      "  ScopedPhase p(t, \"lazy_loop\");\n"
      "}\n")));
}

TEST(R5Names, GrammarHelpers) {
  EXPECT_TRUE(IsValidCounterKey("greedy/heap_pushes"));
  EXPECT_TRUE(IsValidCounterKey("a/b2/c_d"));
  EXPECT_FALSE(IsValidCounterKey(""));
  EXPECT_FALSE(IsValidCounterKey("/lead"));
  EXPECT_FALSE(IsValidCounterKey("trail/"));
  EXPECT_FALSE(IsValidCounterKey("UpperCase"));
  EXPECT_FALSE(IsValidCounterKey("dot.path"));
  EXPECT_TRUE(IsValidPhaseLabel("build_heap"));
  EXPECT_FALSE(IsValidPhaseLabel("a/b"));
}

TEST(R5Names, FiresOnBadFaultPointName) {
  // Fault-point names share the counter slash-path grammar; both the
  // member APIs and the free-function MaybeFail are checked.
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f(FaultInjector* fi) { fi->Arm(\"Flow/BuildArc\", 3); }\n");
  EXPECT_TRUE(FiresOnce(vs, "R5", 1));
  const auto vs2 = LintAs(
      "src/io/x.cc",
      "void f(FaultInjector* fi) { MaybeFail(fi, \"io..read\"); }\n");
  EXPECT_TRUE(FiresOnce(vs2, "R5", 1));
}

TEST(R5Names, ConformingFaultPointsAreFine) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f(FaultInjector* fi, FaultInjector& fr) {\n"
      "  fi->Arm(\"flow/build_arc\", 3);\n"
      "  fr.ArmProbabilistic(\"solver/step\", 0.5, 7);\n"
      "  MaybeFail(fi, \"io/read\");\n"
      "}\n")));
}

TEST(R5Names, FiresOnUnregisteredFaultNamespace) {
  // Grammatically valid but outside the registered namespace set: a
  // typo'd namespace would otherwise create a point no test ever arms.
  const auto vs = LintAs(
      "src/service/x.cc",
      "void f(FaultInjector* fi) { MaybeFail(fi, \"serivce/wal/append\"); "
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R5", 1));
  const auto vs2 = LintAs(
      "src/core/x.cc",
      "void f(FaultInjector* fi) { fi->Arm(\"gremlin/step\", 1); }\n");
  EXPECT_TRUE(FiresOnce(vs2, "R5", 1));
}

TEST(R5Names, ServiceFaultNamespaceIsRegistered) {
  EXPECT_TRUE(Clean(LintAs(
      "src/service/x.cc",
      "void f(FaultInjector* fi, FaultInjector& fr) {\n"
      "  MaybeFail(fi, \"service/snapshot/write\");\n"
      "  fr.Arm(\"service/wal/torn\", 2, 1);\n"
      "  if (fi->ShouldFail(\"service/wal/append\")) return;\n"
      "}\n")));
}

TEST(R5Names, FaultNamespaceHelper) {
  EXPECT_TRUE(IsRegisteredFaultNamespace("flow/build_arc"));
  EXPECT_TRUE(IsRegisteredFaultNamespace("io/read"));
  EXPECT_TRUE(IsRegisteredFaultNamespace("solver/step"));
  EXPECT_TRUE(IsRegisteredFaultNamespace("service/wal/fsync"));
  EXPECT_TRUE(IsRegisteredFaultNamespace("service"));
  EXPECT_FALSE(IsRegisteredFaultNamespace("serivce/wal/fsync"));
  EXPECT_FALSE(IsRegisteredFaultNamespace("wal/append"));
  EXPECT_FALSE(IsRegisteredFaultNamespace(""));
}

TEST(R5Names, FiresOnBadSpanName) {
  // Span names are full slash paths (unlike ScopedPhase labels, which
  // are single segments — the tracer does not nest names, only depths).
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f(Tracer* t) { ScopedSpan s(t, \"Solve Batch\"); }\n");
  EXPECT_TRUE(FiresOnce(vs, "R5", 1));
  const auto vs2 = LintAs(
      "src/core/x.cc",
      "void f(Tracer* t) { t->BeginSpan(\"hk/BFS\", \"flow\"); }\n");
  EXPECT_TRUE(FiresOnce(vs2, "R5", 1));
  const auto vs3 = LintAs(
      "src/core/x.cc",
      "void f(Tracer* t) { t->Instant(\"fallback retry\", \"fb\"); }\n");
  EXPECT_TRUE(FiresOnce(vs3, "R5", 1));
}

TEST(R5Names, ConformingSpansAreFine) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f(Tracer* t) {\n"
      "  ScopedSpan span(t, \"solve/parallel/batch\", \"solver\");\n"
      "  span.Arg(\"edges\", 12);\n"
      "  t->Instant(\"fallback/retry\", \"fallback\");\n"
      "  t->RegisterThread(\"pool/worker_3\");\n"
      "}\n")));
}

// ---------------------------------------------------------------------------
// R6 — header hygiene.
// ---------------------------------------------------------------------------

TEST(R6Headers, FiresOnMissingGuard) {
  const auto vs = LintAs("src/core/x.h", "inline int f() { return 1; }\n");
  EXPECT_TRUE(FiresOnce(vs, "R6", 1));
}

TEST(R6Headers, GuardOrPragmaOnceIsFine) {
  EXPECT_TRUE(Clean(LintAs("src/core/x.h",
                           "#ifndef MBTA_CORE_X_H_\n"
                           "#define MBTA_CORE_X_H_\n"
                           "inline int f() { return 1; }\n"
                           "#endif  // MBTA_CORE_X_H_\n")));
  EXPECT_TRUE(Clean(LintAs("src/core/x.h",
                           "#pragma once\n"
                           "inline int f() { return 1; }\n")));
}

TEST(R6Headers, FiresOnMissingStdInclude) {
  const auto vs = LintAs("src/core/x.h",
                         "#ifndef X_H_\n"
                         "#define X_H_\n"
                         "#include <string>\n"
                         "std::vector<int> f(std::string s);\n"
                         "#endif\n");
  EXPECT_TRUE(FiresOnce(vs, "R6", 4));  // <vector> missing, <string> not
}

TEST(R6Headers, SelfContainedHeaderIsClean) {
  EXPECT_TRUE(Clean(LintAs("src/core/x.h",
                           "#ifndef X_H_\n"
                           "#define X_H_\n"
                           "#include <cstdint>\n"
                           "#include <string>\n"
                           "#include <vector>\n"
                           "std::vector<std::uint64_t> f(std::string s);\n"
                           "#endif\n")));
}

TEST(R6Headers, SourceFilesAreNotChecked) {
  EXPECT_TRUE(Clean(LintAs("src/core/x.cc",
                           "std::vector<int> f() { return {}; }\n")));
}

// ---------------------------------------------------------------------------
// R7 — raw monotonic clocks / sleeps outside the Clock seam.
// ---------------------------------------------------------------------------

TEST(R7RawClock, FiresOnSteadyClockNow) {
  const auto vs = LintAs(
      "src/core/x.cc",
      "double f() {\n"
      "  const auto t0 = std::chrono::steady_clock::now();\n"
      "  (void)t0;\n"
      "  return 0.0;\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R7", 2));
}

TEST(R7RawClock, FiresOnHighResolutionClock) {
  const auto vs = LintAs(
      "src/market/x.cc",
      "auto f() { return std::chrono::high_resolution_clock::now(); }\n");
  EXPECT_TRUE(FiresOnce(vs, "R7", 1));
}

TEST(R7RawClock, FiresOnSleepCalls) {
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f() {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R7", 2));
  const auto vs2 = LintAs(
      "src/flow/x.cc",
      "void g(std::chrono::steady_clock::time_point tp) {\n"
      "  std::this_thread::sleep_until(tp);\n"
      "}\n");
  // sleep_until fires; the steady_clock mention in the signature fires
  // separately on line 1 — budgeted code should take a Clock&, not a
  // raw time_point.
  EXPECT_TRUE(FiresOnce(vs2, "R7", 1));
  EXPECT_TRUE(FiresOnce(vs2, "R7", 2));
}

TEST(R7RawClock, UtilAndObsAreExempt) {
  // The Clock seam itself (src/util/clock.h) and the obs timers are the
  // two places allowed to touch the real monotonic clock.
  const std::string raw =
      "auto f() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(Clean(LintAs("src/util/x.cc", raw)));
  EXPECT_TRUE(Clean(LintAs("src/obs/x.cc", raw)));
}

TEST(R7RawClock, NonLibraryFilesAreExempt) {
  // Tests drive watchdog threads with real sleeps; tools/bench measure
  // real wall time. Only library code must go through the seam.
  const std::string raw =
      "void f() {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "  (void)std::chrono::steady_clock::now();\n"
      "}\n";
  EXPECT_TRUE(Clean(LintAs("tests/x_test.cc", raw)));
  EXPECT_TRUE(Clean(LintAs("tools/x.cc", raw)));
  EXPECT_TRUE(Clean(LintAs("bench/x.cc", raw)));
}

TEST(R7RawClock, WaiverSilences) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "double f() {\n"
      "  // mbta-lint: clock-ok(one-shot calibration, not on a solve path)\n"
      "  const auto t0 = std::chrono::steady_clock::now();\n"
      "  (void)t0;\n"
      "  return 0.0;\n"
      "}\n")));
}

TEST(R7RawClock, MemberNamedSleepForIsFine) {
  // A member or unrelated identifier that merely *contains* the banned
  // spelling must not trip the rule.
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f(Scheduler& s) { s.sleep_for(3); }\n")));
}

// ---------------------------------------------------------------------------
// R8 — raw threading primitives in library code outside src/util.
// ---------------------------------------------------------------------------

TEST(R8RawThreads, FiresOnStdThread) {
  const auto vs = LintAs(
      "src/core/x.cc",
      "void f() {\n"
      "  std::thread t([] {});\n"
      "  t.join();\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R8", 2));
}

TEST(R8RawThreads, FiresOnJthreadAndAsync) {
  const auto vs = LintAs(
      "src/market/x.cc",
      "void f() {\n"
      "  std::jthread t([] {});\n"
      "  auto fut = std::async([] { return 1; });\n"
      "  (void)fut;\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R8", 2));
  EXPECT_TRUE(FiresOnce(vs, "R8", 3));
}

TEST(R8RawThreads, UtilIsExemptButObsIsNot) {
  // src/util is the exempt directory; src/obs gets no exemption —
  // its thread-safe registries guard shared state, they don't spawn.
  const std::string raw = "void f() { std::thread t([] {}); t.join(); }\n";
  EXPECT_TRUE(Clean(LintAs("src/util/thread_pool.cc", raw)));
  EXPECT_TRUE(FiresOnce(LintAs("src/obs/x.cc", raw), "R8", 1));
}

TEST(R8RawThreads, NonLibraryFilesAreExempt) {
  // Tests spawn watchdog and contention threads freely; tools and bench
  // own their own parallelism.
  const std::string raw =
      "void f() {\n"
      "  std::thread t([] {});\n"
      "  t.join();\n"
      "  auto fut = std::async([] { return 1; });\n"
      "  (void)fut;\n"
      "}\n";
  EXPECT_TRUE(Clean(LintAs("tests/x_test.cc", raw)));
  EXPECT_TRUE(Clean(LintAs("tools/x.cc", raw)));
  EXPECT_TRUE(Clean(LintAs("bench/x.cc", raw)));
}

TEST(R8RawThreads, UnqualifiedAndUnrelatedNamesAreFine) {
  // `std::this_thread` is a different identifier; members and plain
  // idents named thread/async never carry the std:: prefix.
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f(Pool& pool) {\n"
      "  auto id = std::this_thread::get_id();\n"
      "  (void)id;\n"
      "  pool.async(3);\n"
      "  int thread = 0;\n"
      "  (void)thread;\n"
      "}\n")));
}

TEST(R8RawThreads, WaiverSilences) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f() {\n"
      "  // mbta-lint: thread-ok(detached watchdog, joins before return)\n"
      "  std::thread t([] {});\n"
      "  t.join();\n"
      "}\n")));
}

// ---------------------------------------------------------------------------
// R9 — heap allocation in solver inner loops (src/core + src/flow).
// ---------------------------------------------------------------------------

TEST(R9LoopAlloc, FiresOnContainerConstructionInForBody) {
  const auto vs = LintAs("src/core/x.cc",
                         "void f(int n) {\n"
                         "  for (int i = 0; i < n; ++i) {\n"
                         "    std::vector<int> scratch;\n"
                         "    scratch.push_back(i);\n"
                         "  }\n"
                         "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R9", 3));
}

TEST(R9LoopAlloc, FiresOnNewAndMakeUniqueInWhileBody) {
  const auto vs = LintAs("src/flow/x.cc",
                         "void f(int n) {\n"
                         "  while (n > 0) {\n"
                         "    auto p = std::make_unique<int>(n);\n"
                         "    int* raw = new int(n);\n"
                         "    (void)p;\n"
                         "    delete raw;\n"
                         "    --n;\n"
                         "  }\n"
                         "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R9", 3));
  EXPECT_TRUE(FiresOnce(vs, "R9", 4));
}

TEST(R9LoopAlloc, FiresInSingleStatementLoopBody) {
  const auto vs = LintAs(
      "src/flow/x.cc",
      "void f(Node** slots, int n) {\n"
      "  while (n-- > 0) slots[n] = new Node();\n"
      "}\n");
  EXPECT_TRUE(FiresOnce(vs, "R9", 2));
}

TEST(R9LoopAlloc, HoistedAndReusedContainersAreFine) {
  // The sanctioned pattern: declare once, clear()/assign() per iteration.
  EXPECT_TRUE(Clean(LintAs("src/core/x.cc",
                           "void f(int n) {\n"
                           "  std::vector<int> scratch;\n"
                           "  for (int i = 0; i < n; ++i) {\n"
                           "    scratch.clear();\n"
                           "    scratch.push_back(i);\n"
                           "  }\n"
                           "}\n")));
}

TEST(R9LoopAlloc, ReferencesAndTypeMentionsAreFine) {
  // Binding a reference or naming a pointer type is not a construction.
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f(const std::vector<std::vector<int>>& rows) {\n"
      "  for (std::size_t i = 0; i < rows.size(); ++i) {\n"
      "    const std::vector<int>& row = rows[i];\n"
      "    const std::string* label = nullptr;\n"
      "    (void)row;\n"
      "    (void)label;\n"
      "  }\n"
      "}\n")));
}

TEST(R9LoopAlloc, OnlyCoreAndFlowAreChecked) {
  // The rule polices solver hot paths; market/io/gen build containers in
  // loops as a matter of course (construction, parsing).
  const std::string alloc_in_loop =
      "void f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    std::vector<int> v;\n"
      "    v.push_back(i);\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(Clean(LintAs("src/market/x.cc", alloc_in_loop)));
  EXPECT_TRUE(Clean(LintAs("src/io/x.cc", alloc_in_loop)));
  EXPECT_TRUE(Clean(LintAs("tests/x_test.cc", alloc_in_loop)));
}

TEST(R9LoopAlloc, WaiverSilences) {
  EXPECT_TRUE(Clean(LintAs(
      "src/core/x.cc",
      "void f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    // mbta-lint: alloc-ok(cold diagnostics snapshot, once per run)\n"
      "    std::vector<int> snapshot;\n"
      "    (void)snapshot;\n"
      "  }\n"
      "}\n")));
}

// ---------------------------------------------------------------------------
// The repository itself must be clean at head.
// ---------------------------------------------------------------------------

TEST(Repository, SrcToolsBenchTestsAreCleanAtHead) {
  const std::vector<std::string> roots = {
      std::string(MBTA_SOURCE_DIR) + "/src",
      std::string(MBTA_SOURCE_DIR) + "/tools",
      std::string(MBTA_SOURCE_DIR) + "/bench",
      std::string(MBTA_SOURCE_DIR) + "/tests"};
  std::vector<std::string> errors;
  const std::vector<std::string> files = CollectFiles(roots, &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_GT(files.size(), 100u);  // sanity: the walker found the tree
  std::vector<Violation> all;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in) << file;
    std::ostringstream buf;
    buf << in.rdbuf();
    // Report violations relative to the repo root for readable output.
    std::string rel = file;
    const std::string prefix = std::string(MBTA_SOURCE_DIR) + "/";
    if (rel.rfind(prefix, 0) == 0) rel = rel.substr(prefix.size());
    std::vector<Violation> vs = LintFile(rel, buf.str());
    all.insert(all.end(), vs.begin(), vs.end());
  }
  EXPECT_TRUE(Clean(all));
}

}  // namespace
}  // namespace mbta::lint
