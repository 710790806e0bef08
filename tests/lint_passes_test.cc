// Exercises the whole-program passes of mbta_lint (tools/lint_passes.h)
// on embedded multi-file fixtures: the determinism-taint pass (R10) must
// report complete entry-to-sink call chains across translation units, the
// call-graph-aware R9 must see through one or more calls from a hot loop
// to the allocation, and waiver hygiene (R12) must reject unknown,
// reasonless, and unused waivers. The ledger and SARIF serializations
// round-trip, --fix is idempotent, and a final test runs the full stack
// over the real tree (MBTA_SOURCE_DIR), asserting the repository is
// clean at head and that the committed LINT_LEDGER.json matches the
// waivers in the source.

#include "tools/lint_passes.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/json_value.h"
#include "tools/lint_engine.h"

namespace mbta::lint {
namespace {

AnalyzeResult Analyze(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& [path, content] : files) {
    sources.push_back({path, content});
  }
  return AnalyzeRepo(sources);
}

/// True iff exactly one violation of `rule` exists in `file` at `line`.
testing::AssertionResult FiresOnce(const AnalyzeResult& r,
                                   const std::string& rule,
                                   const std::string& file, int line) {
  int hits = 0;
  for (const Violation& v : r.violations) {
    if (v.rule == rule && v.file == file && v.line == line) ++hits;
  }
  if (hits == 1) return testing::AssertionSuccess();
  auto result = testing::AssertionFailure();
  result << "wanted exactly one " << rule << " at " << file << ":" << line
         << ", got " << hits << "; all violations:";
  for (const Violation& v : r.violations) {
    result << "\n  " << v.file << ":" << v.line << ": " << v.rule << ": "
           << v.message;
  }
  return result;
}

testing::AssertionResult Clean(const AnalyzeResult& r) {
  if (r.violations.empty()) return testing::AssertionSuccess();
  auto result = testing::AssertionFailure();
  result << r.violations.size() << " unexpected violation(s):";
  for (const Violation& v : r.violations) {
    result << "\n  " << v.file << ":" << v.line << ": " << v.rule << ": "
           << v.message;
  }
  return result;
}

/// The message of the single violation matching `rule` in `file`, or ""
/// when it is absent (asserted by the caller via FiresOnce first).
std::string MessageOf(const AnalyzeResult& r, const std::string& rule,
                      const std::string& file) {
  for (const Violation& v : r.violations) {
    if (v.rule == rule && v.file == file) return v.message;
  }
  return "";
}

// ---------------------------------------------------------------------------
// R10 — determinism taint across translation units.
// ---------------------------------------------------------------------------

// The sink lives in src/util (exempt from the per-file R7/R2 rules — the
// seam is allowed to touch the raw clock) but the taint pass still sees
// it when a solver entry point can reach it.
constexpr const char* kRawNow =
    "namespace mbta {\n"
    "double RawNow() {\n"
    "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
    "}\n"
    "}  // namespace mbta\n";

TEST(R10Taint, FiresAcrossFilesWithFullChain) {
  const auto r = Analyze({
      {"src/util/rawtime.cc", kRawNow},
      {"src/core/stepper.cc",
       "namespace mbta {\n"
       "double Step() { return RawNow(); }\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(FiresOnce(r, "R10", "src/util/rawtime.cc", 3));
  const std::string msg = MessageOf(r, "R10", "src/util/rawtime.cc");
  // The finding prints the complete entry-to-sink chain with locations.
  EXPECT_NE(msg.find("Step (src/core/stepper.cc:2)"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("RawNow (src/util/rawtime.cc:2)"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("'std::steady_clock' (src/util/rawtime.cc:3)"),
            std::string::npos)
      << msg;
}

TEST(R10Taint, TwoHopChainThroughMiddleSubsystem) {
  const auto r = Analyze({
      {"src/util/rawtime.cc", kRawNow},
      {"src/graph/relay.cc",
       "namespace mbta {\n"
       "double Relay() { return RawNow() * 2.0; }\n"
       "}  // namespace mbta\n"},
      {"src/core/stepper.cc",
       "namespace mbta {\n"
       "double Step() { return Relay(); }\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(FiresOnce(r, "R10", "src/util/rawtime.cc", 3));
  const std::string msg = MessageOf(r, "R10", "src/util/rawtime.cc");
  EXPECT_NE(msg.find("Step (src/core/stepper.cc:2) -> "
                     "Relay (src/graph/relay.cc:2) -> "
                     "RawNow (src/util/rawtime.cc:2)"),
            std::string::npos)
      << msg;
}

TEST(R10Taint, SilentWhenSinkIsUnreachableFromEntries) {
  // No core/flow function calls RawNow, so the sink never taints a
  // solver path; the pass stays silent (and there is no waiver to rot).
  EXPECT_TRUE(Clean(Analyze({
      {"src/util/rawtime.cc", kRawNow},
      {"src/core/stepper.cc",
       "namespace mbta {\n"
       "double Step(double x) { return x + 1.0; }\n"
       "}  // namespace mbta\n"},
  })));
}

TEST(R10Taint, SinkWaiverSilencesAndCountsAsUsed) {
  const auto r = Analyze({
      {"src/util/rawtime.cc",
       "namespace mbta {\n"
       "double RawNow() {\n"
       "  // mbta-lint: taint-ok(the clock seam itself)\n"
       "  return std::chrono::steady_clock::now().time_since_epoch()\n"
       "      .count();\n"
       "}\n"
       "}  // namespace mbta\n"},
      {"src/core/stepper.cc",
       "namespace mbta {\n"
       "double Step() { return RawNow(); }\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(Clean(r));  // no R10, and no R12 unused-waiver either
  ASSERT_EQ(r.waivers.size(), 1u);
  EXPECT_EQ(r.waivers[0].rule, "R10");
  EXPECT_EQ(r.waivers[0].file, "src/util/rawtime.cc");
  EXPECT_TRUE(r.waivers[0].used);
}

TEST(R10Taint, BarrierWaiverOnDefinitionTrustsTheFrame) {
  // taint-ok on the *definition line* removes the function from the
  // graph: everything below it is audited, so paths through it are
  // trusted and the waiver counts as used.
  EXPECT_TRUE(Clean(Analyze({
      {"src/util/rawtime.cc", kRawNow},
      {"src/core/stepper.cc",
       "namespace mbta {\n"
       "// mbta-lint: taint-ok(audited: result feeds logging only)\n"
       "double Step() { return RawNow(); }\n"
       "}  // namespace mbta\n"},
  })));
}

TEST(R10Taint, IterationOverWaivedUnorderedContainerIsASink) {
  // R1 waivers promise "membership only"; iterating the container in a
  // solver-reachable function re-introduces order nondeterminism, which
  // the taint pass reports even though R1 itself is silenced.
  const auto r = Analyze({
      {"src/core/iter.cc",
       "namespace mbta {\n"
       "int Sum() {\n"
       "  // mbta-lint: unordered-ok(dedupe probe)\n"
       "  std::unordered_set<int> seen;\n"
       "  int total = 0;\n"
       "  for (int v : seen) total += v;\n"
       "  return total;\n"
       "}\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(FiresOnce(r, "R10", "src/core/iter.cc", 6));
}

// ---------------------------------------------------------------------------
// Call-graph-aware R9 — allocation reachable from a hot loop.
// ---------------------------------------------------------------------------

TEST(R9CallGraph, FiresWhenLoopCallsAllocatingFunction) {
  // The allocation is not in a loop in its own file (per-file R9 is
  // silent there); the call-graph pass sees it through the call.
  const auto r = Analyze({
      {"src/core/hot.cc",
       "namespace mbta {\n"
       "void Hot(int n) {\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    Helper();\n"
       "  }\n"
       "}\n"
       "}  // namespace mbta\n"},
      {"src/core/helper.cc",
       "namespace mbta {\n"
       "void Helper() {\n"
       "  std::vector<int> scratch;\n"
       "  scratch.push_back(1);\n"
       "}\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(FiresOnce(r, "R9", "src/core/hot.cc", 4));
  const std::string msg = MessageOf(r, "R9", "src/core/hot.cc");
  EXPECT_NE(msg.find("Helper (src/core/helper.cc:2)"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("std::vector (src/core/helper.cc:3)"),
            std::string::npos)
      << msg;
}

TEST(R9CallGraph, SilentWhenCalleeReusesScratch) {
  EXPECT_TRUE(Clean(Analyze({
      {"src/core/hot.cc",
       "namespace mbta {\n"
       "void Hot(int n) {\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    Helper(i);\n"
       "  }\n"
       "}\n"
       "}  // namespace mbta\n"},
      {"src/core/helper.cc",
       "namespace mbta {\n"
       "void Helper(int i) {\n"
       "  scratch_.clear();\n"
       "  scratch_.push_back(i);\n"
       "}\n"
       "}  // namespace mbta\n"},
  })));
}

TEST(R9CallGraph, WaiverOnCalleeAllocationSilencesTheChain) {
  // An alloc-ok on the allocation line deep in the chain covers every
  // caller, and the cross-pass usage accounting marks it used even
  // though per-file R9 never looks at it (no loop in helper.cc).
  const auto r = Analyze({
      {"src/core/hot.cc",
       "namespace mbta {\n"
       "void Hot(int n) {\n"
       "  for (int i = 0; i < n; ++i) {\n"
       "    Helper();\n"
       "  }\n"
       "}\n"
       "}  // namespace mbta\n"},
      {"src/core/helper.cc",
       "namespace mbta {\n"
       "void Helper() {\n"
       "  // mbta-lint: alloc-ok(cold path, called once per rebuild)\n"
       "  std::vector<int> scratch;\n"
       "  scratch.push_back(1);\n"
       "}\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(Clean(r));
  ASSERT_EQ(r.waivers.size(), 1u);
  EXPECT_TRUE(r.waivers[0].used);
}

// ---------------------------------------------------------------------------
// R12 — waiver hygiene.
// ---------------------------------------------------------------------------

TEST(R12Hygiene, FiresOnUnknownTag) {
  // lock-ok belonged to a lock-discipline rule that no longer exists; a
  // leftover comment is an unknown tag, not a silently accepted waiver.
  for (const std::string tag : {"bogus-ok", "lock-ok"}) {
    SCOPED_TRACE(tag);
    const auto r = Analyze({
        {"src/core/x.cc",
         "namespace mbta {\n"
         "// mbta-lint: " + tag + "(no such tag)\n"
         "int F() { return 1; }\n"
         "}  // namespace mbta\n"},
    });
    EXPECT_TRUE(FiresOnce(r, "R12", "src/core/x.cc", 2));
    EXPECT_NE(MessageOf(r, "R12", "src/core/x.cc").find("unknown waiver tag"),
              std::string::npos);
  }
}

TEST(R12Hygiene, FiresOnMissingReason) {
  const auto r = Analyze({
      {"src/core/x.cc",
       "namespace mbta {\n"
       "// mbta-lint: unordered-ok()\n"
       "int F() { return 1; }\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(FiresOnce(r, "R12", "src/core/x.cc", 2));
  EXPECT_NE(MessageOf(r, "R12", "src/core/x.cc").find("has no reason"),
            std::string::npos);
}

TEST(R12Hygiene, FiresOnUnusedWaiver) {
  const auto r = Analyze({
      {"src/core/x.cc",
       "namespace mbta {\n"
       "// mbta-lint: alloc-ok(nothing here allocates)\n"
       "int F() { return 1; }\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(FiresOnce(r, "R12", "src/core/x.cc", 2));
  EXPECT_NE(MessageOf(r, "R12", "src/core/x.cc").find("unused waiver"),
            std::string::npos);
  // The rotten waiver still appears in the ledger, flagged unused, so
  // the budget and the violation agree on what must be deleted.
  ASSERT_EQ(r.waivers.size(), 1u);
  EXPECT_FALSE(r.waivers[0].used);
}

TEST(R12Hygiene, UsedWaiverBuildsALedgerEntry) {
  const auto r = Analyze({
      {"src/core/x.cc",
       "namespace mbta {\n"
       "int F() {\n"
       "  // mbta-lint: unordered-ok(membership probe only)\n"
       "  std::unordered_set<int> seen;\n"
       "  seen.insert(3);\n"
       "  return static_cast<int>(seen.count(3));\n"
       "}\n"
       "}  // namespace mbta\n"},
  });
  EXPECT_TRUE(Clean(r));
  ASSERT_EQ(r.waivers.size(), 1u);
  EXPECT_EQ(r.waivers[0].rule, "R1");
  EXPECT_EQ(r.waivers[0].tag, "unordered-ok");
  EXPECT_EQ(r.waivers[0].file, "src/core/x.cc");
  EXPECT_EQ(r.waivers[0].reason, "membership probe only");
  EXPECT_TRUE(r.waivers[0].used);
}

TEST(R12Hygiene, RuleForTagCoversTheCatalog) {
  EXPECT_EQ(RuleForTag("unordered-ok"), "R1");
  EXPECT_EQ(RuleForTag("taint-ok"), "R10");
  EXPECT_EQ(RuleForTag("alloc-ok"), "R9");
  EXPECT_EQ(RuleForTag("lock-ok"), "");
  EXPECT_EQ(RuleForTag("bogus-ok"), "");
}

// ---------------------------------------------------------------------------
// Ledger serialization.
// ---------------------------------------------------------------------------

std::vector<LedgerEntry> SampleLedger() {
  LedgerEntry a;
  a.rule = "R1";
  a.tag = "unordered-ok";
  a.file = "src/core/x.cc";
  a.reason = "membership probe";
  LedgerEntry b;
  b.rule = "R10";
  b.tag = "taint-ok";
  b.file = "src/util/clock.cc";
  b.reason = "the seam itself";
  return {a, b};
}

TEST(Ledger, RoundTripsThroughJson) {
  const std::vector<LedgerEntry> head = SampleLedger();
  const std::string json = LedgerToJson(head);
  std::vector<LedgerEntry> parsed;
  std::string error;
  ASSERT_TRUE(ParseLedgerJson(json, &parsed, &error)) << error;
  EXPECT_TRUE(DiffLedger(parsed, head).empty());
}

TEST(Ledger, DiffReportsAddedAndRemovedEntries) {
  std::vector<LedgerEntry> committed = SampleLedger();
  std::vector<LedgerEntry> head = SampleLedger();
  head.pop_back();  // taint-ok waiver deleted from source
  LedgerEntry fresh;
  fresh.rule = "R9";
  fresh.tag = "alloc-ok";
  fresh.file = "src/flow/new.cc";
  fresh.reason = "cold path";
  head.push_back(fresh);  // new waiver not yet in the ledger
  const std::vector<std::string> drift = DiffLedger(committed, head);
  ASSERT_EQ(drift.size(), 2u);
  bool saw_added = false;
  bool saw_removed = false;
  for (const std::string& d : drift) {
    if (d.find("src/flow/new.cc") != std::string::npos) saw_added = true;
    if (d.find("src/util/clock.cc") != std::string::npos) saw_removed = true;
  }
  EXPECT_TRUE(saw_added);
  EXPECT_TRUE(saw_removed);
}

TEST(Ledger, ParseRejectsEntriesMissingRequiredFields) {
  std::vector<LedgerEntry> parsed;
  std::string error;
  EXPECT_FALSE(ParseLedgerJson(
      "{\"schema_version\": 1, \"waivers\": [{\"tag\": \"x\"}]}", &parsed,
      &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// SARIF report.
// ---------------------------------------------------------------------------

TEST(Sarif, ReportIsWellFormedSarif210) {
  std::vector<Violation> vs;
  vs.push_back({"src/core/x.cc", 7, "R10", "sink reachable"});
  vs.push_back({"src/obs/y.h", 3, "R8", "raw std::thread"});
  const std::string text = SarifReport(vs);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(text, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("version")->StringOr(""), "2.1.0");
  const JsonValue* runs = doc.Find("runs");
  ASSERT_TRUE(runs != nullptr && runs->is_array());
  ASSERT_EQ(runs->array_items.size(), 1u);
  const JsonValue& run = runs->array_items[0];
  const JsonValue* driver = run.Find("tool")->Find("driver");
  ASSERT_TRUE(driver != nullptr);
  EXPECT_EQ(driver->Find("name")->StringOr(""), "mbta_lint");
  // The full rule catalog ships with the report (R1..R10, R12).
  const JsonValue* rules = driver->Find("rules");
  ASSERT_TRUE(rules != nullptr && rules->is_array());
  EXPECT_EQ(rules->array_items.size(), 11u);
  const JsonValue* results = run.Find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->array_items.size(), 2u);
  const JsonValue& first = results->array_items[0];
  EXPECT_EQ(first.Find("ruleId")->StringOr(""), "R10");
  EXPECT_EQ(first.Find("level")->StringOr(""), "error");
  const JsonValue* loc =
      first.Find("locations")->array_items[0].Find("physicalLocation");
  ASSERT_TRUE(loc != nullptr);
  EXPECT_EQ(loc->Find("artifactLocation")->Find("uri")->StringOr(""),
            "src/core/x.cc");
  EXPECT_EQ(loc->Find("region")->Find("startLine")->NumberOr(0), 7.0);
}

// ---------------------------------------------------------------------------
// Mechanical fixes (mbta_lint --fix).
// ---------------------------------------------------------------------------

TEST(Fix, AddsIncludeGuardDerivedFromPath) {
  const std::string before = "inline int F() { return 1; }\n";
  const std::string after =
      ApplyMechanicalFixes("src/core/my_header.h", before);
  EXPECT_NE(after.find("#ifndef MBTA_CORE_MY_HEADER_H_"),
            std::string::npos)
      << after;
  EXPECT_NE(after.find("#define MBTA_CORE_MY_HEADER_H_"),
            std::string::npos);
  EXPECT_NE(after.find("#endif  // MBTA_CORE_MY_HEADER_H_"),
            std::string::npos);
  EXPECT_NE(after.find("inline int F()"), std::string::npos);
}

TEST(Fix, InsertsMissingStdIncludesSorted) {
  const std::string before =
      "#ifndef MBTA_CORE_X_H_\n"
      "#define MBTA_CORE_X_H_\n"
      "#include <string>\n"
      "std::vector<int> F(std::string s);\n"
      "#endif  // MBTA_CORE_X_H_\n";
  const std::string after = ApplyMechanicalFixes("src/core/x.h", before);
  EXPECT_NE(after.find("#include <vector>"), std::string::npos) << after;
  // Sorted into the existing block: <string> before <vector>.
  EXPECT_LT(after.find("#include <string>"), after.find("#include <vector>"));
}

TEST(Fix, IsIdentityOnCleanFilesAndIdempotent) {
  const std::string clean =
      "#ifndef MBTA_CORE_X_H_\n"
      "#define MBTA_CORE_X_H_\n"
      "#include <vector>\n"
      "std::vector<int> F();\n"
      "#endif  // MBTA_CORE_X_H_\n";
  EXPECT_EQ(ApplyMechanicalFixes("src/core/x.h", clean), clean);
  const std::string broken = "std::vector<int> F();\n";
  const std::string once = ApplyMechanicalFixes("src/core/x.h", broken);
  EXPECT_EQ(ApplyMechanicalFixes("src/core/x.h", once), once);
}

TEST(Fix, LeavesSourceFilesAndNonLibraryHeadersAlone) {
  const std::string no_guard = "inline int F() { return 1; }\n";
  EXPECT_EQ(ApplyMechanicalFixes("src/core/x.cc", no_guard), no_guard);
  EXPECT_EQ(ApplyMechanicalFixes("tools/x.h", no_guard), no_guard);
}

// ---------------------------------------------------------------------------
// The repository itself: full pass stack clean at head, ledger in sync.
// ---------------------------------------------------------------------------

TEST(Repository, FullPassStackIsCleanAtHeadAndLedgerMatches) {
  const std::string prefix = std::string(MBTA_SOURCE_DIR) + "/";
  const std::vector<std::string> roots = {
      prefix + "src", prefix + "tools", prefix + "bench", prefix + "tests"};
  std::vector<std::string> errors;
  const std::vector<std::string> files = CollectFiles(roots, &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_GT(files.size(), 100u);  // sanity: the walker found the tree
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in) << file;
    std::ostringstream buf;
    buf << in.rdbuf();
    SourceFile sf;
    // Repo-relative paths, matching the committed ledger.
    sf.path = file.rfind(prefix, 0) == 0 ? file.substr(prefix.size()) : file;
    sf.content = buf.str();
    sources.push_back(std::move(sf));
  }
  const AnalyzeResult r = AnalyzeRepo(sources);
  EXPECT_TRUE(Clean(r));

  // Every waiver in the tree is enumerated in LINT_LEDGER.json, and the
  // ledger holds nothing the tree no longer carries.
  std::ifstream ledger_in(prefix + "LINT_LEDGER.json", std::ios::binary);
  ASSERT_TRUE(ledger_in) << "LINT_LEDGER.json missing at repo root";
  std::ostringstream ledger_buf;
  ledger_buf << ledger_in.rdbuf();
  std::vector<LedgerEntry> committed;
  std::string error;
  ASSERT_TRUE(ParseLedgerJson(ledger_buf.str(), &committed, &error))
      << error;
  const std::vector<std::string> drift = DiffLedger(committed, r.waivers);
  EXPECT_TRUE(drift.empty()) << drift.front();
}

}  // namespace
}  // namespace mbta::lint
