#ifndef MBTA_TOOLS_LINT_PASSES_H_
#define MBTA_TOOLS_LINT_PASSES_H_

#include <string>
#include <string_view>
#include <vector>

#include "tools/lint_engine.h"
#include "tools/lint_index.h"

/// The whole-program passes of mbta_lint, layered on the repo index
/// (tools/lint_index.h): the determinism-taint pass (R10), the
/// call-graph-aware extension of R9, and waiver hygiene (R12) with the
/// committed LINT_LEDGER.json budget.
/// Semantics and approximations are documented per pass in
/// CONTRIBUTING.md, "Static analysis".
namespace mbta::lint {

/// One waiver comment found in library code, as enumerated in the
/// committed ledger. `line` and `used` are head-state diagnostics and
/// are not serialized: the ledger is keyed by (rule, tag, file, reason)
/// so ordinary edits that shift lines do not churn it.
struct LedgerEntry {
  std::string rule;    // "R1" .. "R10" (the rule the tag suppresses)
  std::string tag;     // "unordered-ok", "taint-ok", ...
  std::string file;    // repo-relative path
  int line = 0;        // head position (diagnostic only)
  std::string reason;  // text inside (...)
  bool used = false;   // did the waiver suppress anything this run?
};

/// The waiver tag a rule accepts, or "" for unknown tags. R12 itself is
/// unwaivable.
std::string RuleForTag(std::string_view tag);

struct AnalyzeResult {
  std::vector<Violation> violations;  // per-file rules + all passes
  std::vector<LedgerEntry> waivers;   // every waiver in library code
};

/// Runs the full stack over `files` (paths + contents; no filesystem
/// access): per-file rules R1–R9 on every file, then the repo index and
/// the whole-program passes R10/call-graph-R9 over the library
/// subset, then R12 over the collected waivers. Violations come back
/// sorted by (file, line, rule, message); waivers by (file, line, tag).
AnalyzeResult AnalyzeRepo(const std::vector<SourceFile>& files);

// ---------------------------------------------------------------------------
// Waiver ledger (LINT_LEDGER.json).
// ---------------------------------------------------------------------------

/// Serializes the waiver set as the committed ledger document: entries
/// sorted by (file, rule, tag, reason), schema_version 1.
std::string LedgerToJson(const std::vector<LedgerEntry>& waivers);

/// Parses a ledger document written by LedgerToJson. Lines are not part
/// of the format; parsed entries carry line 0.
bool ParseLedgerJson(std::string_view text, std::vector<LedgerEntry>* out,
                     std::string* error);

/// Compares the committed ledger against head state. Returns one
/// human-readable message per discrepancy (entry added at head, entry in
/// the ledger no longer present); empty means in sync.
std::vector<std::string> DiffLedger(const std::vector<LedgerEntry>& committed,
                                    const std::vector<LedgerEntry>& head);

// ---------------------------------------------------------------------------
// SARIF (GitHub code-scanning schema 2.1.0).
// ---------------------------------------------------------------------------

/// Renders violations as a SARIF 2.1.0 document with one run, the full
/// rule catalog in tool.driver.rules, and one error-level result per
/// violation.
std::string SarifReport(const std::vector<Violation>& violations);

// ---------------------------------------------------------------------------
// Mechanical fixes (mbta_lint --fix).
// ---------------------------------------------------------------------------

/// Applies the mechanical fix subset to one library header: a missing
/// include guard is added (MBTA_<PATH>_H_ from the repo-relative path)
/// and std includes missing per R6's curated IWYU table are inserted
/// into the existing <...> include block in sorted order. Returns the
/// fixed content (identical to the input when nothing applies); running
/// it twice is the identity on the second run.
std::string ApplyMechanicalFixes(std::string_view path,
                                 std::string_view content);

}  // namespace mbta::lint

#endif  // MBTA_TOOLS_LINT_PASSES_H_
