#!/usr/bin/env bash
# Static-analysis entry point: runs the full mbta_lint pass stack — the
# per-file rules R1–R9 plus the whole-program determinism-taint and
# call-graph passes, gated against the committed waiver ledger (see
# CONTRIBUTING.md "Static analysis") — and clang-tidy over the library
# .cc files when it is installed (compile_commands.json is exported by
# the top-level CMakeLists). When clang-tidy is present it
# is mandatory: any diagnostic fails the script, same as in CI.
#
# Usage: scripts/lint.sh [build-dir] [jobs]
#   build-dir  CMake build tree to (re)use (default: build)
#   jobs       build parallelism (default: nproc)
#
# Exit nonzero on any mbta_lint violation, waiver-ledger drift, or
# clang-tidy diagnostic.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
JOBS="${2:-$(nproc)}"

cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target mbta_lint

echo "=== mbta_lint ==="
"${BUILD}/tools/mbta_lint" --ledger LINT_LEDGER.json src tools bench tests

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy ==="
  if [ ! -f "${BUILD}/compile_commands.json" ]; then
    echo "lint.sh: ${BUILD}/compile_commands.json missing; re-run cmake" >&2
    exit 2
  fi
  # Library sources only: benches and tests inherit the important checks
  # through the headers they include (HeaderFilterRegex covers src/).
  mapfile -t SOURCES < <(find src -name '*.cc' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${BUILD}" -quiet -j "${JOBS}" "${SOURCES[@]}"
  else
    clang-tidy -p "${BUILD}" --quiet "${SOURCES[@]}"
  fi
else
  echo "lint.sh: clang-tidy not installed; skipped (mbta_lint ran)" >&2
fi

echo "lint.sh: clean"
