#include "tools/lint_passes.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "obs/json_value.h"
#include "obs/json_writer.h"

namespace mbta::lint {

namespace {

using FuncRef = std::pair<std::size_t, std::size_t>;  // (file, function)

const std::map<std::string, std::string>& TagRules() {
  static const std::map<std::string, std::string> kTags = {
      {"unordered-ok", "R1"}, {"nondet-ok", "R2"}, {"float-eq-ok", "R3"},
      {"stdout-ok", "R4"},    {"name-ok", "R5"},   {"include-ok", "R6"},
      {"clock-ok", "R7"},     {"thread-ok", "R8"}, {"alloc-ok", "R9"},
      {"taint-ok", "R10"},    {"lock-ok", "R11"},
  };
  return kTags;
}

/// Waiver lookup + usage bookkeeping shared by the whole-program passes.
/// `Consume` marks the waiver used — call it only when the waiver is
/// genuinely suppressing (or would suppress) a finding.
class WaiverBook {
 public:
  explicit WaiverBook(std::map<std::string, WaiverUseSet>* used)
      : used_(used) {}

  bool Has(const FileIndex& fi, int line, std::string_view tag) const {
    return Find(fi, line, tag) != 0;
  }

  bool Consume(const FileIndex& fi, int line, std::string_view tag) {
    const int at = Find(fi, line, tag);
    if (at == 0) return false;
    (*used_)[fi.path].emplace(at, std::string(tag));
    return true;
  }

 private:
  /// Returns the line the waiver comment sits on (the violating line or
  /// the line above), or 0 when absent.
  static int Find(const FileIndex& fi, int line, std::string_view tag) {
    for (const int l : {line, line - 1}) {
      const auto it = fi.lex.waivers.find(l);
      if (it == fi.lex.waivers.end()) continue;
      for (const Waiver& w : it->second) {
        if (w.tag == tag && w.has_reason) return l;
      }
    }
    return 0;
  }

  std::map<std::string, WaiverUseSet>* used_;
};

/// Token-cursor helpers over one file's stream.
struct TokenView {
  const std::vector<Token>& toks;

  std::size_t Size() const { return toks.size(); }
  const Token& Tok(std::size_t i) const { return toks[i]; }
  bool IsPunct(std::size_t i, std::string_view p) const {
    return i < Size() && toks[i].kind == Token::Kind::kPunct &&
           toks[i].text == p;
  }
  bool IsIdent(std::size_t i) const {
    return i < Size() && toks[i].kind == Token::Kind::kIdent;
  }
  bool IsIdent(std::size_t i, std::string_view name) const {
    return IsIdent(i) && toks[i].text == name;
  }

  std::size_t SkipTemplateArgs(std::size_t i) const {
    int depth = 0;
    for (; i < Size(); ++i) {
      if (IsPunct(i, "<")) ++depth;
      if (IsPunct(i, ">") && --depth == 0) return i + 1;
      if (IsPunct(i, ";")) return i;
    }
    return i;
  }

  std::size_t SkipBrackets(std::size_t i) const {  // i points at '['
    int depth = 0;
    for (; i < Size(); ++i) {
      if (IsPunct(i, "[")) ++depth;
      if (IsPunct(i, "]") && --depth == 0) return i + 1;
    }
    return i;
  }
};

/// for/while body token ranges inside [begin, end) of a token stream —
/// the same shape the per-file R9 computes, reused by the call-graph
/// extension to decide whether a call site sits in a loop.
std::vector<std::pair<std::size_t, std::size_t>> LoopBodies(
    const TokenView& v, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (std::size_t i = begin; i < end; ++i) {
    if (!(v.IsIdent(i, "for") || v.IsIdent(i, "while"))) continue;
    if (!v.IsPunct(i + 1, "(")) continue;
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < end; ++j) {
      if (v.IsPunct(j, "(")) ++depth;
      if (v.IsPunct(j, ")") && --depth == 0) break;
    }
    if (j + 1 >= end) continue;
    const std::size_t body = j + 1;
    if (v.IsPunct(body, "{")) {
      int braces = 0;
      std::size_t k = body;
      for (; k < end; ++k) {
        if (v.IsPunct(k, "{")) ++braces;
        if (v.IsPunct(k, "}") && --braces == 0) break;
      }
      bodies.emplace_back(body + 1, k);
    } else {
      int braces = 0;
      int parens = 0;
      std::size_t k = body;
      for (; k < end; ++k) {
        if (v.IsPunct(k, "{")) ++braces;
        if (v.IsPunct(k, "}")) --braces;
        if (v.IsPunct(k, "(")) ++parens;
        if (v.IsPunct(k, ")")) --parens;
        if (v.IsPunct(k, ";") && braces == 0 && parens == 0) break;
      }
      bodies.emplace_back(body, k);
    }
  }
  return bodies;
}

bool InAnyRange(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
    std::size_t i) {
  for (const auto& [s, e] : ranges) {
    if (i >= s && i < e) return true;
  }
  return false;
}

std::string Where(const RepoIndex& index, const FunctionInfo& fn) {
  return fn.qualified + " (" + index.files[fn.file].path + ":" +
         std::to_string(fn.line) + ")";
}

// ---------------------------------------------------------------------------
// Pass state shared by AnalyzeRepo's stages.
// ---------------------------------------------------------------------------

struct PassState {
  const RepoIndex& index;
  WaiverBook book;
  std::vector<Violation>* out;

  // caller -> callees, name-resolved over the whole index.
  std::map<FuncRef, std::vector<FuncRef>> call_graph;
  // callee -> callers.
  std::map<FuncRef, std::vector<FuncRef>> reverse_graph;
  std::vector<FuncRef> entries;  // functions in src/core + src/flow
};

std::vector<FuncRef> ResolveCall(const RepoIndex& index,
                                 const CallSite& cs) {
  const auto it = index.functions_by_name.find(cs.name);
  if (it == index.functions_by_name.end()) return {};
  // Prefer candidates whose class matches an explicit `X::` qualifier;
  // when nothing matches (e.g. the qualifier is a namespace) keep the
  // whole candidate set — for taint and reachability we want the union
  // over possible targets.
  if (!cs.qualifier.empty()) {
    std::vector<FuncRef> exact;
    for (const FuncRef& ref : it->second) {
      if (index.Fn(ref).class_name == cs.qualifier) exact.push_back(ref);
    }
    if (!exact.empty()) return exact;
  }
  return it->second;
}

void BuildCallGraph(PassState* st) {
  const RepoIndex& index = st->index;
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    const FileIndex& fi = index.files[fid];
    const bool entry_file =
        fi.scope.subsystem == "core" || fi.scope.subsystem == "flow";
    for (std::size_t k = 0; k < fi.functions.size(); ++k) {
      const FuncRef ref{fid, k};
      if (entry_file) st->entries.push_back(ref);
      std::set<FuncRef> seen;
      for (const CallSite& cs : fi.functions[k].calls) {
        for (const FuncRef& target : ResolveCall(index, cs)) {
          if (target == ref || !seen.insert(target).second) continue;
          st->call_graph[ref].push_back(target);
          st->reverse_graph[target].push_back(ref);
        }
      }
    }
  }
}

std::set<FuncRef> Closure(const std::map<FuncRef, std::vector<FuncRef>>& g,
                          const std::vector<FuncRef>& seeds,
                          const std::set<FuncRef>& barriers) {
  std::set<FuncRef> out;
  std::deque<FuncRef> queue;
  for (const FuncRef& s : seeds) {
    if (barriers.count(s) != 0) continue;
    if (out.insert(s).second) queue.push_back(s);
  }
  while (!queue.empty()) {
    const FuncRef cur = queue.front();
    queue.pop_front();
    const auto it = g.find(cur);
    if (it == g.end()) continue;
    for (const FuncRef& next : it->second) {
      if (barriers.count(next) != 0) continue;
      if (out.insert(next).second) queue.push_back(next);
    }
  }
  return out;
}

/// Shortest entry-to-target path in the barrier-free graph (BFS from all
/// entries at once). Empty when unreachable.
std::vector<FuncRef> EntryPath(const PassState& st, const FuncRef& target,
                               const std::set<FuncRef>& barriers) {
  std::map<FuncRef, FuncRef> parent;
  std::set<FuncRef> visited;
  std::deque<FuncRef> queue;
  for (const FuncRef& e : st.entries) {
    if (barriers.count(e) != 0) continue;
    if (visited.insert(e).second) queue.push_back(e);
  }
  const FuncRef kNone{static_cast<std::size_t>(-1), 0};
  FuncRef found = kNone;
  for (const FuncRef& e : queue) {
    if (e == target) found = e;
  }
  while (found == kNone && !queue.empty()) {
    const FuncRef cur = queue.front();
    queue.pop_front();
    const auto it = st.call_graph.find(cur);
    if (it == st.call_graph.end()) continue;
    for (const FuncRef& next : it->second) {
      if (barriers.count(next) != 0 || !visited.insert(next).second) {
        continue;
      }
      parent.emplace(next, cur);
      if (next == target) {
        found = next;
        break;
      }
      queue.push_back(next);
    }
  }
  if (found == kNone) return {};
  std::vector<FuncRef> path{target};
  for (auto it = parent.find(target); it != parent.end();
       it = parent.find(path.back())) {
    path.push_back(it->second);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// ---------------------------------------------------------------------------
// R10 — determinism taint.
// ---------------------------------------------------------------------------

struct TaintSink {
  std::size_t file = 0;
  int line = 0;
  std::string what;             // the banned token / container name
  std::vector<FuncRef> fns;     // functions the occurrence attaches to
  bool waived = false;          // taint-ok at the sink line
};

void CollectTaintSinks(PassState* st, std::vector<TaintSink>* sinks) {
  static const std::set<std::string> kBannedTypes = {
      "random_device", "system_clock", "steady_clock",
      "high_resolution_clock"};
  static const std::set<std::string> kBannedCalls = {
      "rand",      "srand",     "drand48",   "gettimeofday", "localtime",
      "gmtime",    "time",      "clock",     "sleep_for",    "sleep_until"};
  const RepoIndex& index = st->index;
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    const FileIndex& fi = index.files[fid];
    const TokenView v{fi.lex.tokens};
    // Unordered containers whose declaration carries an unordered-ok
    // waiver: iterating one is invisible to R1 by design, so the taint
    // pass treats the (waived) iteration as a nondeterminism source.
    std::set<std::string> waived_unordered;

    auto attach = [&](std::size_t tok_idx, const std::string& what,
                      int line) {
      TaintSink sink;
      sink.file = fid;
      sink.line = line;
      sink.what = what;
      for (std::size_t k = 0; k < fi.functions.size(); ++k) {
        const FunctionInfo& fn = fi.functions[k];
        if (tok_idx >= fn.body_begin && tok_idx < fn.body_end) {
          sink.fns.push_back({fid, k});
        }
      }
      if (sink.fns.empty()) {
        // Class/namespace scope (e.g. `using Clock = steady_clock;`):
        // the occurrence belongs to every function defined in the file.
        for (std::size_t k = 0; k < fi.functions.size(); ++k) {
          sink.fns.push_back({fid, k});
        }
      }
      sink.waived = st->book.Has(fi, line, "taint-ok");
      sinks->push_back(std::move(sink));
    };

    for (std::size_t i = 0; i < v.Size(); ++i) {
      if (!v.IsIdent(i)) continue;
      const Token& t = v.Tok(i);
      const bool member =
          i > 0 && (v.IsPunct(i - 1, ".") || v.IsPunct(i - 1, "->"));
      if (kBannedTypes.count(t.text) != 0 && !member) {
        attach(i, "std::" + t.text, t.line);
        continue;
      }
      if (kBannedCalls.count(t.text) != 0 && !member &&
          v.IsPunct(i + 1, "(")) {
        attach(i, t.text + "()", t.line);
        continue;
      }
      if ((t.text == "unordered_map" || t.text == "unordered_set" ||
           t.text == "unordered_multimap" ||
           t.text == "unordered_multiset") &&
          v.IsPunct(i + 1, "<") &&
          st->book.Has(fi, t.line, "unordered-ok")) {
        const std::size_t j = v.SkipTemplateArgs(i + 1);
        if (v.IsIdent(j)) waived_unordered.insert(v.Tok(j).text);
        continue;
      }
      // Iteration over a waived unordered container: range-for range
      // expression or explicit .begin()/.cbegin()/.rbegin().
      if (t.text == "for" && v.IsPunct(i + 1, "(")) {
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = i + 1; j < v.Size(); ++j) {
          if (v.IsPunct(j, "(")) ++depth;
          if (v.IsPunct(j, ")") && --depth == 0) break;
          if (depth == 1 && v.IsPunct(j, ";")) break;
          if (depth == 1 && v.IsPunct(j, ":")) {
            colon = j;
            break;
          }
        }
        if (colon == 0) continue;
        int depth2 = 1;
        for (std::size_t j = colon + 1; j < v.Size() && depth2 > 0; ++j) {
          if (v.IsPunct(j, "(")) ++depth2;
          if (v.IsPunct(j, ")")) --depth2;
          if (v.IsIdent(j) && waived_unordered.count(v.Tok(j).text) != 0 &&
              !v.IsPunct(j - 1, ".") && !v.IsPunct(j - 1, "->")) {
            attach(j, "iteration over unordered '" + v.Tok(j).text + "'",
                   v.Tok(j).line);
            break;
          }
        }
        continue;
      }
      if (waived_unordered.count(t.text) != 0 && v.IsPunct(i + 1, ".") &&
          (v.IsIdent(i + 2, "begin") || v.IsIdent(i + 2, "cbegin") ||
           v.IsIdent(i + 2, "rbegin"))) {
        attach(i, "iteration over unordered '" + t.text + "'", t.line);
      }
    }
  }
}

void PassTaint(PassState* st) {
  std::vector<TaintSink> sinks;
  CollectTaintSinks(st, &sinks);

  // Barrier waivers: taint-ok on a function-definition line removes the
  // function from the graph (paths through it are trusted).
  std::set<FuncRef> barriers;
  const RepoIndex& index = st->index;
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    const FileIndex& fi = index.files[fid];
    for (std::size_t k = 0; k < fi.functions.size(); ++k) {
      if (st->book.Has(fi, fi.functions[k].line, "taint-ok")) {
        barriers.insert({fid, k});
      }
    }
  }

  // Usage accounting runs against the unwaived graph: a sink waiver is
  // used iff the sink is entry-reachable; a barrier is used iff the
  // function lies on some entry-to-sink path.
  const std::set<FuncRef> reachable_all =
      Closure(st->call_graph, st->entries, {});
  {
    std::vector<FuncRef> sink_fns;
    for (const TaintSink& s : sinks) {
      if (s.waived) continue;
      for (const FuncRef& f : s.fns) sink_fns.push_back(f);
    }
    const std::set<FuncRef> tainted_all =
        Closure(st->reverse_graph, sink_fns, {});
    for (const TaintSink& s : sinks) {
      if (!s.waived) continue;
      for (const FuncRef& f : s.fns) {
        if (reachable_all.count(f) != 0) {
          st->book.Consume(index.files[s.file], s.line, "taint-ok");
          break;
        }
      }
    }
    for (const FuncRef& b : barriers) {
      if (reachable_all.count(b) != 0 && tainted_all.count(b) != 0) {
        st->book.Consume(index.files[b.first], index.Fn(b).line,
                         "taint-ok");
      }
    }
  }

  // Findings against the waived graph.
  const std::set<FuncRef> reachable =
      Closure(st->call_graph, st->entries, barriers);
  std::set<std::tuple<std::size_t, int, std::string>> reported;
  for (const TaintSink& s : sinks) {
    if (s.waived) continue;
    const FuncRef* hit = nullptr;
    for (const FuncRef& f : s.fns) {
      if (barriers.count(f) == 0 && reachable.count(f) != 0) {
        hit = &f;
        break;
      }
    }
    if (hit == nullptr) continue;
    if (!reported.emplace(s.file, s.line, s.what).second) continue;
    const std::vector<FuncRef> path = EntryPath(*st, *hit, barriers);
    std::string chain;
    for (const FuncRef& f : path) {
      if (!chain.empty()) chain += " -> ";
      chain += Where(index, index.Fn(f));
    }
    const FileIndex& fi = index.files[s.file];
    chain += " -> '" + s.what + "' (" + fi.path + ":" +
             std::to_string(s.line) + ")";
    st->out->push_back(Violation{
        fi.path, s.line, "R10",
        "nondeterminism sink '" + s.what +
            "' is reachable from a solver entry point: " + chain +
            "; route time through the injectable Clock seam "
            "(src/util/clock.h) and randomness through seeded mbta::Rng, "
            "or waive an audited frame with "
            "// mbta-lint: taint-ok(reason)"});
  }
}

// ---------------------------------------------------------------------------
// R11 — lock discipline.
// ---------------------------------------------------------------------------

bool HoldsMutex(const FunctionInfo& fn, const std::string& mutex,
                std::size_t before_token) {
  for (const std::string& m : fn.requires_mutexes) {
    if (m == mutex) return true;
  }
  for (const LockAcquisition& l : fn.locks) {
    if (l.mutex == mutex && l.token < before_token) return true;
  }
  return false;
}

void PassGuardedWrites(PassState* st) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "emplace", "clear",  "insert",
      "erase",     "resize",       "assign",  "pop_back", "push",
      "pop",       "reset",        "swap",    "store"};
  const RepoIndex& index = st->index;
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    const FileIndex& fi = index.files[fid];
    const TokenView v{fi.lex.tokens};
    for (std::size_t k = 0; k < fi.functions.size(); ++k) {
      const FunctionInfo& fn = fi.functions[k];
      if (fn.is_ctor_or_dtor || fn.no_tsa || fn.class_name.empty()) {
        continue;
      }
      const auto git = index.guards_by_class.find(fn.class_name);
      if (git == index.guards_by_class.end()) continue;
      const auto& guards = git->second;
      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        if (!v.IsIdent(i)) continue;
        const auto fit = guards.find(v.Tok(i).text);
        if (fit == guards.end()) continue;
        // `other.field` is a different object; `Class::field` is not a
        // write target in this grammar either.
        if (i > 0 && (v.IsPunct(i - 1, ".") || v.IsPunct(i - 1, "->") ||
                      v.IsPunct(i - 1, "::"))) {
          continue;
        }
        // Write forms: =, op=, ++/-- (either side), [..] =, mutating
        // member calls. `==`/`!=` lex as single tokens, so a bare `=`
        // punct is always assignment.
        bool write = false;
        std::size_t j = i + 1;
        if (v.IsPunct(j, "[")) j = v.SkipBrackets(j);
        static const std::set<std::string> kCompound = {"+", "-", "*", "/",
                                                        "%", "&", "|", "^"};
        if (v.IsPunct(j, "=")) {
          write = true;
        } else if (j < v.Size() && v.Tok(j).kind == Token::Kind::kPunct &&
                   kCompound.count(v.Tok(j).text) != 0 &&
                   (v.IsPunct(j + 1, "=") ||
                    (v.Tok(j).text != "*" && v.Tok(j).text != "&" &&
                     v.IsPunct(j + 1, v.Tok(j).text) &&
                     (v.Tok(j).text == "+" || v.Tok(j).text == "-")))) {
          // `x += e`, `x++` / `x--` (postfix).
          write = true;
        } else if (i >= 2 && v.IsPunct(i - 1, "+") && v.IsPunct(i - 2, "+")) {
          write = true;  // prefix ++
        } else if (i >= 2 && v.IsPunct(i - 1, "-") && v.IsPunct(i - 2, "-")) {
          write = true;  // prefix --
        } else if ((v.IsPunct(j, ".") || v.IsPunct(j, "->")) &&
                   v.IsIdent(j + 1) &&
                   kMutators.count(v.Tok(j + 1).text) != 0 &&
                   v.IsPunct(j + 2, "(")) {
          write = true;
        }
        if (!write) continue;
        const std::string& mutex = fit->second;
        if (HoldsMutex(fn, mutex, i)) continue;
        const int line = v.Tok(i).line;
        if (st->book.Consume(fi, line, "lock-ok")) continue;
        if (st->book.Consume(fi, fn.line, "lock-ok")) continue;
        st->out->push_back(Violation{
            fi.path, line, "R11",
            "field '" + fit->first + "' is declared GUARDED_BY(" + mutex +
                ") but " + fn.qualified +
                " writes it without holding the mutex: acquire it "
                "(MutexLock / MBTA_OBS_LOCK) before the write, annotate "
                "the function MBTA_REQUIRES(" +
                mutex +
                "), or waive with // mbta-lint: lock-ok(reason)"});
      }
    }
  }
}

void PassRequiresCallSites(PassState* st) {
  const RepoIndex& index = st->index;
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    const FileIndex& fi = index.files[fid];
    for (std::size_t k = 0; k < fi.functions.size(); ++k) {
      const FunctionInfo& fn = fi.functions[k];
      if (fn.no_tsa) continue;
      std::set<std::string> reported;
      for (const CallSite& cs : fn.calls) {
        // Precise resolutions only: unqualified self-calls and explicit
        // `Class::fn` qualifiers. Member calls through arbitrary objects
        // are skipped — name-level resolution cannot tell whose mutex
        // the contract names.
        if (cs.member) continue;
        const std::string want_class =
            cs.qualifier.empty() ? fn.class_name : cs.qualifier;
        if (want_class.empty()) continue;
        const auto it = index.functions_by_name.find(cs.name);
        if (it == index.functions_by_name.end()) continue;
        for (const FuncRef& ref : it->second) {
          const FunctionInfo& target = index.Fn(ref);
          if (target.class_name != want_class) continue;
          for (const std::string& m : target.requires_mutexes) {
            if (HoldsMutex(fn, m, cs.token)) continue;
            const std::string key =
                std::to_string(cs.line) + "|" + target.qualified + "|" + m;
            if (!reported.insert(key).second) continue;
            if (st->book.Consume(fi, cs.line, "lock-ok")) continue;
            if (st->book.Consume(fi, fn.line, "lock-ok")) continue;
            st->out->push_back(Violation{
                fi.path, cs.line, "R11",
                target.qualified + " REQUIRES(" + m + ") but " +
                    fn.qualified +
                    " calls it without holding the mutex: acquire it "
                    "before the call, propagate MBTA_REQUIRES(" +
                    m +
                    ") to the caller, or waive with "
                    "// mbta-lint: lock-ok(reason)"});
          }
        }
      }
    }
  }
}

void PassLockOrder(PassState* st) {
  struct Witness {
    std::size_t file = 0;
    int line = 0;
    FuncRef fn{0, 0};
  };
  // (first-acquired, second-acquired) -> first witness site, with mutex
  // names qualified as Class::field so the order is comparable across
  // TUs. Unqualifiable acquisitions (locals, parameters) are skipped.
  std::map<std::pair<std::string, std::string>, Witness> pairs;
  const RepoIndex& index = st->index;
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    const FileIndex& fi = index.files[fid];
    for (std::size_t k = 0; k < fi.functions.size(); ++k) {
      const FunctionInfo& fn = fi.functions[k];
      if (fn.no_tsa) continue;
      std::vector<std::pair<std::string, const LockAcquisition*>> quals;
      const auto mit = index.mutexes_by_class.find(fn.class_name);
      for (const LockAcquisition& l : fn.locks) {
        if (mit != index.mutexes_by_class.end() &&
            mit->second.count(l.mutex) != 0) {
          quals.emplace_back(fn.class_name + "::" + l.mutex, &l);
        }
      }
      for (std::size_t a = 0; a < quals.size(); ++a) {
        for (std::size_t b = a + 1; b < quals.size(); ++b) {
          if (quals[a].first == quals[b].first) continue;
          const auto key = std::make_pair(quals[a].first, quals[b].first);
          if (pairs.count(key) != 0) continue;
          pairs.emplace(key,
                        Witness{fid, quals[b].second->line, {fid, k}});
        }
      }
    }
  }
  for (const auto& [key, witness] : pairs) {
    if (key.first >= key.second) continue;  // handle each unordered pair once
    const auto rit = pairs.find(std::make_pair(key.second, key.first));
    if (rit == pairs.end()) continue;
    // Report at the site acquiring in the lexicographically-reversed
    // direction so the finding is stable across runs.
    const Witness& w = rit->second;
    const FileIndex& fi = index.files[w.file];
    const FunctionInfo& fn = index.Fn(w.fn);
    const Witness& other = pairs.at(key);
    const FileIndex& ofi = index.files[other.file];
    if (st->book.Consume(fi, w.line, "lock-ok")) continue;
    if (st->book.Consume(fi, fn.line, "lock-ok")) continue;
    st->out->push_back(Violation{
        fi.path, w.line, "R11",
        "inconsistent lock order across TUs: " + fn.qualified +
            " acquires " + key.second + " then " + key.first + " (" +
            fi.path + ":" + std::to_string(w.line) + ") but " +
            index.Fn(other.fn).qualified + " acquires " + key.first +
            " then " + key.second + " (" + ofi.path + ":" +
            std::to_string(other.line) +
            "); pick one global order or waive with "
            "// mbta-lint: lock-ok(reason)"});
  }
}

// ---------------------------------------------------------------------------
// Call-graph-aware R9 — allocation reachable from a hot loop.
// ---------------------------------------------------------------------------

struct AllocHit {
  int line = 0;
  std::string what;
};

/// First unwaived heap-allocation site anywhere in a function body (the
/// same token patterns as the per-file R9, not restricted to loops —
/// calling an allocating function from a loop IS a per-iteration
/// allocation). Consuming an alloc-ok waiver here marks it used.
std::optional<AllocHit> FindAlloc(PassState* st, const FunctionInfo& fn) {
  static const std::set<std::string> kContainers = {
      "vector", "string", "deque", "list", "forward_list", "map",
      "multimap", "set", "multiset", "queue", "priority_queue", "stack",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "basic_string"};
  const FileIndex& fi = st->index.files[fn.file];
  const TokenView v{fi.lex.tokens};
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (!v.IsIdent(i)) continue;
    const Token& t = v.Tok(i);
    std::string what;
    if (t.text == "new") {
      what = "operator new";
    } else if ((t.text == "make_unique" || t.text == "make_shared") &&
               (v.IsPunct(i + 1, "<") || v.IsPunct(i + 1, "("))) {
      what = "std::" + t.text;
    } else if (kContainers.count(t.text) != 0 && i >= 2 &&
               v.IsIdent(i - 2, "std") && v.IsPunct(i - 1, "::")) {
      bool constructs =
          v.IsPunct(i + 1, "(") || v.IsPunct(i + 1, "{") ||
          (i + 1 < v.Size() && v.Tok(i + 1).kind == Token::Kind::kIdent);
      if (!constructs && v.IsPunct(i + 1, "<")) {
        const std::size_t after = v.SkipTemplateArgs(i + 1);
        constructs = after < v.Size() &&
                     (v.Tok(after).kind == Token::Kind::kIdent ||
                      v.IsPunct(after, "(") || v.IsPunct(after, "{"));
      }
      if (constructs) what = "std::" + t.text;
    }
    if (what.empty()) continue;
    if (st->book.Consume(fi, t.line, "alloc-ok")) continue;
    return AllocHit{t.line, what};
  }
  return std::nullopt;
}

bool CalleeSubsystem(const RepoIndex& index, const FuncRef& ref) {
  const std::string& s = index.files[ref.first].scope.subsystem;
  return s == "core" || s == "flow" || s == "graph";
}

/// DFS (depth-capped) for an allocating chain starting at `ref`; fills
/// `chain` with the frames ending at the allocating function.
bool AllocChain(PassState* st, const FuncRef& ref, int depth,
                std::set<FuncRef>* visited, std::vector<FuncRef>* chain,
                AllocHit* hit) {
  if (depth <= 0 || !visited->insert(ref).second) return false;
  const FunctionInfo& fn = st->index.Fn(ref);
  chain->push_back(ref);
  if (auto alloc = FindAlloc(st, fn)) {
    *hit = *alloc;
    return true;
  }
  for (const CallSite& cs : fn.calls) {
    for (const FuncRef& next : ResolveCall(st->index, cs)) {
      if (!CalleeSubsystem(st->index, next)) continue;
      if (AllocChain(st, next, depth - 1, visited, chain, hit)) return true;
    }
  }
  chain->pop_back();
  return false;
}

void PassCallGraphAlloc(PassState* st) {
  const RepoIndex& index = st->index;
  for (std::size_t fid = 0; fid < index.files.size(); ++fid) {
    const FileIndex& fi = index.files[fid];
    if (fi.scope.subsystem != "core" && fi.scope.subsystem != "flow") {
      continue;
    }
    const TokenView v{fi.lex.tokens};
    for (std::size_t k = 0; k < fi.functions.size(); ++k) {
      const FunctionInfo& fn = fi.functions[k];
      const auto loops = LoopBodies(v, fn.body_begin, fn.body_end);
      if (loops.empty()) continue;
      std::set<std::pair<int, std::string>> reported;
      for (const CallSite& cs : fn.calls) {
        if (!InAnyRange(loops, cs.token)) continue;
        if (cs.name == fn.name) continue;  // direct recursion
        for (const FuncRef& target : ResolveCall(index, cs)) {
          if (!CalleeSubsystem(index, target)) continue;
          if (target == FuncRef{fid, k}) continue;
          std::set<FuncRef> visited{{fid, k}};
          std::vector<FuncRef> chain;
          AllocHit hit;
          if (!AllocChain(st, target, 4, &visited, &chain, &hit)) continue;
          const std::string target_name = index.Fn(target).qualified;
          if (!reported.emplace(cs.line, target_name).second) break;
          bool waived = st->book.Consume(fi, cs.line, "alloc-ok") ||
                        st->book.Consume(fi, fn.line, "alloc-ok");
          for (const FuncRef& f : chain) {
            if (waived) break;
            waived = st->book.Consume(index.files[f.first],
                                      index.Fn(f).line, "alloc-ok");
          }
          if (waived) break;
          std::string msg = "call to '" + cs.name +
                            "' inside a loop of " + fn.qualified +
                            " reaches heap allocation: ";
          for (const FuncRef& f : chain) {
            msg += Where(index, index.Fn(f)) + " -> ";
          }
          msg += hit.what + " (" +
                 index.files[chain.back().first].path + ":" +
                 std::to_string(hit.line) +
                 "); hoist the work out of the loop, use the solve's "
                 "Arena scratch, or waive a cold path with "
                 "// mbta-lint: alloc-ok(reason)";
          st->out->push_back(Violation{fi.path, cs.line, "R9", msg});
          break;  // one finding per call site
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R12 — waiver hygiene + ledger assembly.
// ---------------------------------------------------------------------------

void PassWaiverHygiene(const RepoIndex& index,
                       const std::map<std::string, WaiverUseSet>& used,
                       std::vector<Violation>* out,
                       std::vector<LedgerEntry>* ledger) {
  for (const FileIndex& fi : index.files) {
    const auto uit = used.find(fi.path);
    static const WaiverUseSet kEmpty;
    const WaiverUseSet& file_used =
        uit == used.end() ? kEmpty : uit->second;
    for (const auto& [line, waivers] : fi.lex.waivers) {
      for (const Waiver& w : waivers) {
        const std::string rule = RuleForTag(w.tag);
        if (rule.empty()) {
          out->push_back(Violation{
              fi.path, line, "R12",
              "unknown waiver tag '" + w.tag +
                  "': known tags are listed in CONTRIBUTING.md, "
                  "\"Static analysis\" (R12 is not waivable — fix or "
                  "delete the comment)"});
          continue;
        }
        if (!w.has_reason) {
          out->push_back(Violation{
              fi.path, line, "R12",
              "waiver '" + w.tag +
                  "' has no reason: write "
                  "// mbta-lint: " +
                  w.tag + "(why this is safe)"});
          continue;
        }
        LedgerEntry entry;
        entry.rule = rule;
        entry.tag = w.tag;
        entry.file = fi.path;
        entry.line = line;
        entry.reason = w.reason;
        entry.used = file_used.count({line, w.tag}) != 0;
        if (!entry.used) {
          out->push_back(Violation{
              fi.path, line, "R12",
              "unused waiver '" + w.tag + "' (" + rule +
                  " would not fire here): suppressions can only shrink "
                  "without review — delete the comment"});
        }
        ledger->push_back(std::move(entry));
      }
    }
  }
}

}  // namespace

std::string RuleForTag(std::string_view tag) {
  const auto& tags = TagRules();
  const auto it = tags.find(std::string(tag));
  return it == tags.end() ? std::string() : it->second;
}

AnalyzeResult AnalyzeRepo(const std::vector<SourceFile>& files) {
  AnalyzeResult result;
  std::map<std::string, WaiverUseSet> used;

  // Per-file rules over everything (non-library files no-op inside).
  for (const SourceFile& f : files) {
    const LexResult lex = Lex(f.content);
    std::vector<Violation> v = LintLexed(f.path, lex, &used[f.path]);
    result.violations.insert(result.violations.end(), v.begin(), v.end());
  }

  // Whole-program passes over the library subset.
  const RepoIndex index = BuildRepoIndex(files);
  PassState st{index, WaiverBook(&used), &result.violations, {}, {}, {}};
  BuildCallGraph(&st);
  PassTaint(&st);
  PassGuardedWrites(&st);
  PassRequiresCallSites(&st);
  PassLockOrder(&st);
  PassCallGraphAlloc(&st);
  PassWaiverHygiene(index, used, &result.violations, &result.waivers);

  std::sort(result.violations.begin(), result.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  std::sort(result.waivers.begin(), result.waivers.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              return std::tie(a.file, a.line, a.tag) <
                     std::tie(b.file, b.line, b.tag);
            });
  return result;
}

// ---------------------------------------------------------------------------
// Ledger.
// ---------------------------------------------------------------------------

std::string LedgerToJson(const std::vector<LedgerEntry>& waivers) {
  std::vector<const LedgerEntry*> sorted;
  sorted.reserve(waivers.size());
  for (const LedgerEntry& e : waivers) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const LedgerEntry* a, const LedgerEntry* b) {
              return std::tie(a->file, a->rule, a->tag, a->reason) <
                     std::tie(b->file, b->rule, b->tag, b->reason);
            });
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Number(std::int64_t{1});
  w.Key("tool");
  w.String("mbta_lint");
  w.Key("waivers");
  w.BeginArray();
  for (const LedgerEntry* e : sorted) {
    w.BeginObject();
    w.Key("rule");
    w.String(e->rule);
    w.Key("tag");
    w.String(e->tag);
    w.Key("file");
    w.String(e->file);
    w.Key("reason");
    w.String(e->reason);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString() + "\n";
}

bool ParseLedgerJson(std::string_view text, std::vector<LedgerEntry>* out,
                     std::string* error) {
  JsonValue doc;
  if (!JsonValue::Parse(text, &doc, error)) return false;
  if (!doc.is_object()) {
    if (error != nullptr) *error = "ledger root is not an object";
    return false;
  }
  const JsonValue* waivers = doc.Find("waivers");
  if (waivers == nullptr || !waivers->is_array()) {
    if (error != nullptr) *error = "ledger has no \"waivers\" array";
    return false;
  }
  out->clear();
  for (const JsonValue& item : waivers->array_items) {
    LedgerEntry e;
    if (const JsonValue* v = item.Find("rule")) {
      e.rule = std::string(v->StringOr(""));
    }
    if (const JsonValue* v = item.Find("tag")) {
      e.tag = std::string(v->StringOr(""));
    }
    if (const JsonValue* v = item.Find("file")) {
      e.file = std::string(v->StringOr(""));
    }
    if (const JsonValue* v = item.Find("reason")) {
      e.reason = std::string(v->StringOr(""));
    }
    if (e.rule.empty() || e.tag.empty() || e.file.empty()) {
      if (error != nullptr) {
        *error = "ledger entry missing rule/tag/file";
      }
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

std::vector<std::string> DiffLedger(
    const std::vector<LedgerEntry>& committed,
    const std::vector<LedgerEntry>& head) {
  using Key = std::tuple<std::string, std::string, std::string, std::string>;
  const auto key = [](const LedgerEntry& e) {
    return Key{e.file, e.rule, e.tag, e.reason};
  };
  const auto describe = [](const Key& k) {
    return std::get<1>(k) + " " + std::get<2>(k) + " in " + std::get<0>(k) +
           " (" + std::get<3>(k) + ")";
  };
  std::map<Key, int> counts;
  for (const LedgerEntry& e : committed) ++counts[key(e)];
  for (const LedgerEntry& e : head) --counts[key(e)];
  std::vector<std::string> out;
  for (const auto& [k, n] : counts) {
    if (n > 0) {
      out.push_back("ledger entry no longer present at head: " +
                    describe(k) +
                    " — regenerate with mbta_lint --update-ledger "
                    "LINT_LEDGER.json");
    } else if (n < 0) {
      out.push_back("waiver at head missing from LINT_LEDGER.json: " +
                    describe(k) +
                    " — new suppressions must be committed to the ledger "
                    "(mbta_lint --update-ledger LINT_LEDGER.json)");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SARIF.
// ---------------------------------------------------------------------------

std::string SarifReport(const std::vector<Violation>& violations) {
  static const std::vector<std::pair<const char*, const char*>> kRules = {
      {"R1", "No unordered containers in library code"},
      {"R2", "No nondeterminism sources in solver code"},
      {"R3", "No floating-point equality against literals"},
      {"R4", "No stdout writes in library code"},
      {"R5", "Observability names follow the slash-path grammar"},
      {"R6", "Headers carry guards and include what they use"},
      {"R7", "No raw monotonic clocks or sleeps outside the Clock seam"},
      {"R8", "No raw threading primitives in library code outside src/util"},
      {"R9", "No heap allocation in (or reachable from) solver loops"},
      {"R10", "No call path from a solver entry to a nondeterminism sink"},
      {"R11", "GUARDED_BY/REQUIRES lock discipline holds across TUs"},
      {"R12", "Every waiver is known, reasoned, and still used"},
  };
  JsonWriter w;
  w.BeginObject();
  w.Key("version");
  w.String("2.1.0");
  w.Key("$schema");
  w.String(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json");
  w.Key("runs");
  w.BeginArray();
  w.BeginObject();
  w.Key("tool");
  w.BeginObject();
  w.Key("driver");
  w.BeginObject();
  w.Key("name");
  w.String("mbta_lint");
  w.Key("informationUri");
  w.String("CONTRIBUTING.md");
  w.Key("rules");
  w.BeginArray();
  for (const auto& [id, desc] : kRules) {
    w.BeginObject();
    w.Key("id");
    w.String(id);
    w.Key("shortDescription");
    w.BeginObject();
    w.Key("text");
    w.String(desc);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  w.Key("results");
  w.BeginArray();
  for (const Violation& v : violations) {
    w.BeginObject();
    w.Key("ruleId");
    w.String(v.rule);
    w.Key("level");
    w.String("error");
    w.Key("message");
    w.BeginObject();
    w.Key("text");
    w.String(v.message);
    w.EndObject();
    w.Key("locations");
    w.BeginArray();
    w.BeginObject();
    w.Key("physicalLocation");
    w.BeginObject();
    w.Key("artifactLocation");
    w.BeginObject();
    w.Key("uri");
    w.String(v.file);
    w.Key("uriBaseId");
    w.String("%SRCROOT%");
    w.EndObject();
    w.Key("region");
    w.BeginObject();
    w.Key("startLine");
    w.Number(std::int64_t{v.line < 1 ? 1 : v.line});
    w.EndObject();
    w.EndObject();
    w.EndObject();
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndArray();
  w.EndObject();
  return w.TakeString() + "\n";
}

// ---------------------------------------------------------------------------
// Mechanical fixes.
// ---------------------------------------------------------------------------

namespace {

std::string GuardMacroFor(std::string_view path) {
  std::string rel(path);
  if (rel.rfind("./", 0) == 0) rel = rel.substr(2);
  if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
  std::string macro = "MBTA_";
  for (const char c : rel) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      macro += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      macro += '_';
    }
  }
  macro += '_';
  return macro;
}

std::vector<std::string> SplitLines(std::string_view content) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= content.size()) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) {
      if (start < content.size()) {
        lines.emplace_back(content.substr(start));
      }
      break;
    }
    lines.emplace_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

bool IsStdIncludeLine(const std::string& line) {
  const std::size_t hash = line.find_first_not_of(" \t");
  if (hash == std::string::npos || line[hash] != '#') return false;
  return line.find("include") != std::string::npos &&
         line.find('<') != std::string::npos;
}

}  // namespace

std::string ApplyMechanicalFixes(std::string_view path,
                                 std::string_view content) {
  const FileScope scope = ClassifyPath(path);
  if (!scope.library || !scope.header) return std::string(content);

  const LexResult lex = Lex(content);

  // Guard detection, mirroring R6.
  bool guarded = false;
  for (const PpDirective& d : lex.directives) {
    if (d.text.find("pragma") != std::string::npos &&
        d.text.find("once") != std::string::npos) {
      guarded = true;
      break;
    }
  }
  if (!guarded && lex.directives.size() >= 2) {
    const std::string& first = lex.directives[0].text;
    const std::string& second = lex.directives[1].text;
    const std::size_t ifndef = first.find("ifndef");
    if (ifndef != std::string::npos &&
        second.find("define") != std::string::npos) {
      std::string macro = first.substr(ifndef + 6);
      macro.erase(0, macro.find_first_not_of(" \t"));
      macro.erase(macro.find_last_not_of(" \t") + 1);
      guarded = !macro.empty() && second.find(macro) != std::string::npos;
    }
  }

  // Missing std includes per the curated IWYU table.
  std::set<std::string> included;
  for (const PpDirective& d : lex.directives) {
    const std::size_t inc = d.text.find("include");
    if (inc == std::string::npos) continue;
    const std::size_t open = d.text.find('<', inc);
    const std::size_t close = d.text.find('>', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    included.insert(d.text.substr(open + 1, close - open - 1));
  }
  std::set<std::string> missing;
  const auto& providers = StdIncludeProviders();
  const TokenView v{lex.tokens};
  for (std::size_t i = 0; i + 2 < v.Size(); ++i) {
    if (!v.IsIdent(i, "std") || !v.IsPunct(i + 1, "::")) continue;
    if (!v.IsIdent(i + 2)) continue;
    const auto it = providers.find(v.Tok(i + 2).text);
    if (it == providers.end()) continue;
    bool satisfied = false;
    for (const std::string& h : it->second) {
      if (included.count(h) != 0) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) missing.insert(it->second.front());
  }

  if (guarded && missing.empty()) return std::string(content);

  std::vector<std::string> lines = SplitLines(content);

  if (!missing.empty()) {
    // Merge into the first contiguous `#include <...>` block, sorted;
    // with no such block, insert after the guard (#define / #pragma
    // once) or at the top.
    std::size_t block_begin = lines.size();
    std::size_t block_end = lines.size();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (IsStdIncludeLine(lines[i])) {
        block_begin = i;
        block_end = i + 1;
        while (block_end < lines.size() &&
               IsStdIncludeLine(lines[block_end])) {
          ++block_end;
        }
        break;
      }
    }
    std::set<std::string> block;
    for (const std::string& h : missing) block.insert("#include <" + h + ">");
    if (block_begin < lines.size()) {
      for (std::size_t i = block_begin; i < block_end; ++i) {
        block.insert(lines[i]);
      }
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(block_begin),
                  lines.begin() + static_cast<std::ptrdiff_t>(block_end));
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(block_begin),
                   block.begin(), block.end());
    } else {
      std::size_t at = 0;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find("#define") != std::string::npos ||
            (lines[i].find("#pragma") != std::string::npos &&
             lines[i].find("once") != std::string::npos)) {
          at = i + 1;
          break;
        }
      }
      std::vector<std::string> insert;
      insert.emplace_back("");
      insert.insert(insert.end(), block.begin(), block.end());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   insert.begin(), insert.end());
    }
  }

  std::string out = JoinLines(lines);
  if (!guarded) {
    const std::string macro = GuardMacroFor(path);
    out = "#ifndef " + macro + "\n#define " + macro + "\n\n" + out +
          "\n#endif  // " + macro + "\n";
  }
  return out;
}

}  // namespace mbta::lint
