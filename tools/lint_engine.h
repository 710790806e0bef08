#ifndef MBTA_TOOLS_LINT_ENGINE_H_
#define MBTA_TOOLS_LINT_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/lint_index.h"

namespace mbta::lint {

/// One rule violation, formatted by the driver as
/// `file:line: rule-id: message`.
struct Violation {
  std::string file;
  int line = 0;
  std::string rule;     // "R1" .. "R12"
  std::string message;  // human-readable, names the waiver tag
};

/// Rule catalog (see CONTRIBUTING.md, "Static analysis"):
///
///   R1  no std::unordered_map / std::unordered_set in library code (and no
///       range-for / .begin() iteration over one) — iteration order is
///       nondeterministic and silently changes tie-breaking-sensitive
///       greedy results. Waiver: unordered-ok.
///   R2  no nondeterminism sources in solver code: rand/srand/drand48,
///       std::random_device, time()/clock()/gettimeofday/localtime/gmtime,
///       std::chrono::system_clock. All randomness flows through seeded
///       mbta::Rng (src/util/rng.h); src/util and src/obs are exempt
///       (that is where the RNG and the timers live). Waiver: nondet-ok.
///   R3  no ==/!= against floating-point literals outside src/util's
///       tolerance helpers. Waiver: float-eq-ok.
///   R4  no std::cout / printf / puts / fprintf(stdout, ...) in library
///       code (src/); CLI, bench, tools and tests are exempt.
///       Waiver: stdout-ok.
///   R5  counter/gauge keys and phase paths passed as string literals to
///       CounterRegistry / PhaseTimings APIs must match the slash-path
///       grammar segment(/segment)* with segment = [a-z0-9_]+; ScopedPhase
///       labels are single segments (nesting builds the path). Fault-point
///       names passed to FaultInjector APIs / MaybeFail follow the same
///       slash-path grammar, as do trace span/instant names (ScopedSpan,
///       Tracer::BeginSpan/Instant/RegisterThread) and span-arg keys
///       (ScopedSpan::Arg) — traces are diffed by name, so names are
///       stable identifiers, not prose. Waiver: name-ok.
///   R6  every .h under src/ carries an include guard (or #pragma once)
///       and directly includes the std headers for the std types it names
///       (lightweight IWYU over a curated type list). Waiver: include-ok.
///   R7  no raw monotonic-clock reads or sleeps in library code outside
///       src/util and src/obs: std::chrono::steady_clock /
///       high_resolution_clock and sleep_for/sleep_until bypass the
///       injectable Clock seam (src/util/clock.h), making deadline code
///       untestable with FakeClock. Waiver: clock-ok.
///   R8  no raw threading primitives in library code outside src/util:
///       std::thread, std::jthread and std::async. The solvers are
///       single-threaded, which is what keeps their byte-identical
///       determinism contract checkable; threads stay in tests, tools
///       and src/util. Waiver: thread-ok.
///   R9  no heap allocation in solver inner loops: `new`, std::make_unique
///       / make_shared, and standard-container construction (vector,
///       string, map, set, deque, queue, priority_queue, unordered_*, ...)
///       inside for/while bodies in src/core and src/flow. The
///       whole-program pass extends this through the call graph: a call
///       site inside such a loop whose callee (transitively) allocates is
///       flagged too, with the chain printed. Per-iteration allocation is
///       what the arena-scratch overhaul removed from the hot paths (see
///       CONTRIBUTING.md, "Memory & allocation"); scratch belongs in the
///       solve's Arena or hoisted outside the loop. Cold paths waive
///       with: alloc-ok.
///
/// Whole-program rules (tools/lint_passes.h, over the repo index):
///
///   R10 determinism taint: no call path from a solver entry point (any
///       function defined in src/core or src/flow) to a nondeterminism
///       sink — everything R2/R7 ban, plus iteration over a waived
///       unordered container. The finding prints the complete chain.
///       Waiver: taint-ok on the sink line (neutralizes the sink) or on
///       an intermediate frame's definition line (barrier: paths through
///       that function are trusted).
///   R11 lock discipline, cross-TU: a field declared MBTA_GUARDED_BY(mu)
///       must only be written in functions that hold `mu` (MutexLock /
///       MBTA_OBS_LOCK / std::*_lock / .Lock() earlier in the body),
///       declare MBTA_REQUIRES(mu), or are ctors/dtors/NO_TSA; REQUIRES
///       contracts must hold at precisely-resolved call sites; and two
///       mutexes of the same class must be acquired in one global order
///       across all TUs. Waiver: lock-ok.
///   R12 waiver hygiene: every `// mbta-lint:` comment in library code
///       must carry a known tag, a non-empty reason, and actually
///       suppress a finding — an unused waiver is itself an error, so
///       suppressions can only shrink without review. No waiver (fix the
///       comment or delete it).
///
/// A waiver is a comment `// mbta-lint: <tag>(<reason>)` on the violating
/// line or the line directly above it; the reason must be non-empty.

/// (line, tag) pairs of waivers that actually suppressed a finding.
/// Filled by the engine and the whole-program passes; the unused-waiver
/// rule (R12) reports every parsed waiver not in this set.
using WaiverUseSet = std::set<std::pair<int, std::string>>;

/// Lints one file's contents. `path` is used for scoping and reporting
/// only; no filesystem access happens here, so tests can feed snippets.
std::vector<Violation> LintFile(std::string_view path,
                                std::string_view content);

/// As above, but runs over an already-lexed file and records which
/// waivers fired into `used` (may be nullptr). This is the entry point
/// AnalyzeRepo uses so each file is lexed exactly once.
std::vector<Violation> LintLexed(std::string_view path, const LexResult& lex,
                                 WaiverUseSet* used);

/// The curated IWYU table R6 checks against: std name -> acceptable
/// providing headers (the first entry is canonical; --fix inserts it).
const std::map<std::string, std::vector<std::string>>& StdIncludeProviders();

/// True iff `key` matches the observability slash-path grammar
/// `[a-z0-9_]+(/[a-z0-9_]+)*` (CONTRIBUTING.md, "Observability").
bool IsValidCounterKey(std::string_view key);

/// True iff `label` is a single lower_snake_case path segment.
bool IsValidPhaseLabel(std::string_view label);

/// True iff `point`'s first path segment is a registered fault-point
/// namespace (CONTRIBUTING.md, "Robustness"): flow, io, solver, or
/// service. R5 enforces this in library code on top of the slash-path
/// grammar, so a typo'd namespace ("serivce/wal/append") cannot silently
/// create a fault point no test will ever arm.
bool IsRegisteredFaultNamespace(std::string_view point);

/// Recursively collects .h/.cc files under each of `paths` (a path may
/// also name a single file). Returns a deterministically sorted list;
/// unknown paths are reported in `errors`.
std::vector<std::string> CollectFiles(const std::vector<std::string>& paths,
                                      std::vector<std::string>* errors);

}  // namespace mbta::lint

#endif  // MBTA_TOOLS_LINT_ENGINE_H_
