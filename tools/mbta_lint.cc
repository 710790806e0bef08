// mbta_lint — the repository's determinism & safety analyzer.
//
// A dependency-free, token-level checker for repo-specific invariants the
// compiler cannot see: per-file rules R1–R9 plus whole-program passes over
// a repo index — determinism taint (R10), a call-graph-aware R9, and
// waiver hygiene (R12) with a committed ledger
// (rule catalog in tools/lint_engine.h and CONTRIBUTING.md, "Static
// analysis"). Intended use:
//
//   build/tools/mbta_lint                        # full pass stack
//   build/tools/mbta_lint src/core foo.cc        # explicit files/dirs
//   build/tools/mbta_lint --json lint.json       # machine-readable report
//   build/tools/mbta_lint --sarif lint.sarif     # GitHub code scanning
//   build/tools/mbta_lint --ledger LINT_LEDGER.json          # drift gate
//   build/tools/mbta_lint --update-ledger LINT_LEDGER.json   # regenerate
//   build/tools/mbta_lint --fix src               # mechanical R6 fixes
//
// Exit codes: 0 clean, 1 violations or ledger drift, 2 usage or I/O error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "tools/lint_engine.h"
#include "tools/lint_passes.h"

namespace {

constexpr const char* kUsage =
    "usage: mbta_lint [options] [paths...]\n"
    "  Analyzes .h/.cc files under each path (default: src tools bench "
    "tests).\n"
    "  --json <path>           write a structured violation report\n"
    "  --sarif <path>          write a SARIF 2.1.0 report (code scanning)\n"
    "  --ledger <path>         fail if the committed waiver ledger drifts\n"
    "  --update-ledger <path>  regenerate the waiver ledger and exit\n"
    "  --fix                   apply mechanical fixes (include guards,\n"
    "                          missing std includes) to library headers\n";

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string json_path;
  std::string sarif_path;
  std::string ledger_path;
  std::string update_ledger_path;
  bool fix = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](std::string* dst) {
      if (i + 1 >= argc) {
        std::cerr << "mbta_lint: " << arg << " needs a path\n" << kUsage;
        return false;
      }
      *dst = argv[++i];
      return true;
    };
    if (arg == "--json") {
      if (!flag_value(&json_path)) return 2;
    } else if (arg == "--sarif") {
      if (!flag_value(&sarif_path)) return 2;
    } else if (arg == "--ledger") {
      if (!flag_value(&ledger_path)) return 2;
    } else if (arg == "--update-ledger") {
      if (!flag_value(&update_ledger_path)) return 2;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mbta_lint: unknown flag '" << arg << "'\n" << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "tools", "bench", "tests"};

  std::vector<std::string> errors;
  const std::vector<std::string> files =
      mbta::lint::CollectFiles(paths, &errors);
  for (const std::string& e : errors) {
    std::cerr << "mbta_lint: " << e << "\n";
  }
  if (!errors.empty()) return 2;
  if (files.empty()) {
    std::cerr << "mbta_lint: no .h/.cc files found under given paths\n";
    return 2;
  }

  std::vector<mbta::lint::SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    mbta::lint::SourceFile sf;
    sf.path = file;
    if (!ReadFile(file, &sf.content)) {
      std::cerr << "mbta_lint: cannot read " << file << "\n";
      return 2;
    }
    sources.push_back(std::move(sf));
  }

  if (fix) {
    int fixed = 0;
    for (const mbta::lint::SourceFile& sf : sources) {
      const std::string after =
          mbta::lint::ApplyMechanicalFixes(sf.path, sf.content);
      if (after == sf.content) continue;
      if (!WriteFile(sf.path, after)) {
        std::cerr << "mbta_lint: cannot write " << sf.path << "\n";
        return 2;
      }
      std::cout << "fixed: " << sf.path << "\n";
      ++fixed;
    }
    std::cout << "mbta_lint: " << fixed << " file(s) fixed\n";
    return 0;
  }

  const mbta::lint::AnalyzeResult result = mbta::lint::AnalyzeRepo(sources);
  const std::vector<mbta::lint::Violation>& all = result.violations;

  if (!update_ledger_path.empty()) {
    if (!WriteFile(update_ledger_path,
                   mbta::lint::LedgerToJson(result.waivers))) {
      std::cerr << "mbta_lint: cannot write " << update_ledger_path << "\n";
      return 2;
    }
    std::cout << "mbta_lint: wrote " << result.waivers.size()
              << " waiver(s) to " << update_ledger_path << "\n";
    return 0;
  }

  for (const mbta::lint::Violation& v : all) {
    std::cout << v.file << ":" << v.line << ": " << v.rule << ": "
              << v.message << "\n";
  }

  std::vector<std::string> drift;
  if (!ledger_path.empty()) {
    std::string text;
    if (!ReadFile(ledger_path, &text)) {
      std::cerr << "mbta_lint: cannot read ledger " << ledger_path << "\n";
      return 2;
    }
    std::vector<mbta::lint::LedgerEntry> committed;
    std::string error;
    if (!mbta::lint::ParseLedgerJson(text, &committed, &error)) {
      std::cerr << "mbta_lint: bad ledger " << ledger_path << ": " << error
                << "\n";
      return 2;
    }
    drift = mbta::lint::DiffLedger(committed, result.waivers);
    for (const std::string& d : drift) {
      std::cout << "ledger: " << d << "\n";
    }
  }

  if (!json_path.empty()) {
    mbta::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version");
    w.Number(std::int64_t{2});
    w.Key("tool");
    w.String("mbta_lint");
    w.Key("files_scanned");
    w.Number(static_cast<std::uint64_t>(files.size()));
    w.Key("violation_count");
    w.Number(static_cast<std::uint64_t>(all.size()));
    w.Key("violations");
    w.BeginArray();
    for (const mbta::lint::Violation& v : all) {
      w.BeginObject();
      w.Key("file");
      w.String(v.file);
      w.Key("line");
      w.Number(std::int64_t{v.line});
      w.Key("rule");
      w.String(v.rule);
      w.Key("message");
      w.String(v.message);
      w.EndObject();
    }
    w.EndArray();
    w.Key("waiver_count");
    w.Number(static_cast<std::uint64_t>(result.waivers.size()));
    w.EndObject();
    if (!WriteFile(json_path, w.TakeString() + "\n")) {
      std::cerr << "mbta_lint: cannot write " << json_path << "\n";
      return 2;
    }
  }

  if (!sarif_path.empty()) {
    if (!WriteFile(sarif_path, mbta::lint::SarifReport(all))) {
      std::cerr << "mbta_lint: cannot write " << sarif_path << "\n";
      return 2;
    }
  }

  if (!all.empty() || !drift.empty()) {
    std::cerr << "mbta_lint: " << all.size() << " violation(s), "
              << drift.size() << " ledger discrepancy(ies) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  return 0;
}
