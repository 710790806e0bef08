#!/usr/bin/env bash
# Full correctness matrix: the tier-1 suite under the plain build, then
# under ASan and UBSan instrumentation (-DMBTA_SANITIZE presets), then
# the robustness + service suites (deadline / fault-injection / fallback
# / cancellation plus WAL / snapshot / crash recovery, `ctest -L
# 'robustness|service'`) under TSan (-DMBTA_SANITIZE=thread). The TSan leg is what exercises cancellation
# from a second thread: the watchdog shares only the atomic cancel flag
# with the solve. A CLI smoke step checks the mbta_cli exit-code taxonomy (0 ok /
# 1 usage / 2 bad input / 3 degraded) end-to-end against the plain build,
# a bench gate diffs a fresh smoke-suite run's counters against the
# committed BENCH_ci.json, and a trace gate asserts two smoke-suite
# traces are sequence-identical (mbta_trace --diff).
#
# Usage: scripts/check.sh [--fast] [--skip-unsupported] [jobs]
#   --fast               plain build runs only `ctest -L
#                        'unit|robustness|service'` (skips the
#                        differential harness); sanitizer
#                        builds always run everything.
#   --skip-unsupported   downgrade "this compiler cannot build sanitizer
#                        X" from an error to a warning and skip that leg.
#   jobs                 parallelism for build and ctest (default: nproc).
#
# Build trees land in build/, build-asan/, build-ubsan/, build-tsan/
# (all gitignored) and are reused across runs, so incremental
# invocations are cheap.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
SKIP_UNSUPPORTED=0
while [ $# -gt 0 ]; do
  case "$1" in
    --fast) FAST=1; shift ;;
    --skip-unsupported) SKIP_UNSUPPORTED=1; shift ;;
    *) break ;;
  esac
done
JOBS="${1:-$(nproc)}"

CXX_BIN="${CXX:-c++}"

# Probe the compiler once per sanitizer instead of letting an
# unsupported combo surface as an opaque CMake/link error mid-matrix.
sanitizer_supported() {
  local flag="$1"
  echo 'int main(){return 0;}' | \
    "${CXX_BIN}" -x c++ "-fsanitize=${flag}" -o /dev/null - \
      >/dev/null 2>&1
}

require_sanitizer() {
  local flag="$1"
  if sanitizer_supported "${flag}"; then
    return 0
  fi
  if [ "${SKIP_UNSUPPORTED}" = "1" ]; then
    echo "check.sh: WARNING: ${CXX_BIN} cannot build -fsanitize=${flag};" \
         "skipping that leg (--skip-unsupported)" >&2
    return 1
  fi
  echo "check.sh: ERROR: ${CXX_BIN} cannot compile with" \
       "-fsanitize=${flag}." >&2
  echo "  Install a toolchain with ${flag} sanitizer runtime support," \
       "or re-run with --skip-unsupported to omit this leg." >&2
  exit 2
}

run_suite() {
  local dir="$1" sanitize="$2" label_args="$3"
  echo "=== ${dir} (MBTA_SANITIZE='${sanitize}') ==="
  cmake -B "${dir}" -S . -DMBTA_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  # shellcheck disable=SC2086  # label_args is intentionally word-split
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" ${label_args})
}

# The mbta_cli exit codes are a documented contract (see CONTRIBUTING.md
# "Robustness"); scripts/cli_smoke.sh (shared with CI) asserts them.
cli_smoke() {
  echo "=== mbta_cli exit-code smoke (build/) ==="
  cmake --build build -j "${JOBS}" --target mbta_cli
  scripts/cli_smoke.sh build/tools/mbta_cli
}

# Diffs a fresh smoke-suite run against the committed BENCH_ci.json
# baseline. Counters are machine-independent and compared exactly — any
# drift means the build does different work than the committed record
# (e.g. a solver's batch/commit sequence changed without regenerating
# the baseline via scripts/bench_smoke.sh BENCH_ci.json). Wall times in
# the committed file were measured on whoever committed it, so the
# --min-ms floor is set above every row to keep this leg counters-only;
# same-machine wall-time regressions are caught by the two-run CI gate.
bench_gate() {
  echo "=== bench gate: counters vs committed BENCH_ci.json (build/) ==="
  cmake --build build -j "${JOBS}" --target smoke_suite bench_compare
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  build/bench/smoke_suite --json "${tmp}/smoke.json" >/dev/null
  build/tools/bench_compare BENCH_ci.json "${tmp}/smoke.json" \
      --threshold 0.5 --min-ms 1000000
  echo "check.sh: smoke counters match committed BENCH_ci.json"
}

# The full mbta_lint pass stack gated against the committed waiver
# ledger: any violation or any waiver added/removed without regenerating
# LINT_LEDGER.json fails the matrix (same gate CI's lint job runs;
# clang-tidy is lint.sh's business, not repeated here).
lint_gate() {
  echo "=== lint gate: mbta_lint + LINT_LEDGER.json (build/) ==="
  cmake --build build -j "${JOBS}" --target mbta_lint
  build/tools/mbta_lint --ledger LINT_LEDGER.json src tools bench tests
  echo "check.sh: lint clean, waiver ledger in sync"
}

# Traces are diffed as normalized event sequences (timestamps and
# durations stripped), so two runs of the same build must produce
# byte-identical sequences (see CONTRIBUTING.md "Tracing").
trace_gate() {
  echo "=== trace gate: sequence-identical traces (build/) ==="
  cmake --build build -j "${JOBS}" --target smoke_suite mbta_trace
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  build/bench/smoke_suite --json "${tmp}/a.json" \
      --trace "${tmp}/a-trace.json" >/dev/null
  build/bench/smoke_suite --json "${tmp}/b.json" \
      --trace "${tmp}/b-trace.json" >/dev/null
  build/tools/mbta_trace --diff "${tmp}/a-trace.json" "${tmp}/b-trace.json"
  echo "check.sh: traces deterministic across runs"
}

if [ "${FAST}" = "1" ]; then
  run_suite build "" "-L unit|robustness|service"
else
  run_suite build "" ""
fi
cli_smoke
lint_gate
bench_gate
trace_gate
# The sanitizer legs run the whole registered suite, which includes the
# `robustness` and `service` labels — so the deadline/fault-injection/
# fallback tests and the WAL/snapshot/crash-recovery suite get an ASan
# and UBSan pass here, not just the plain build above.
if require_sanitizer address; then
  run_suite build-asan address ""
fi
if require_sanitizer undefined; then
  run_suite build-ubsan undefined ""
fi

# TSan leg: the robustness suite. The cancellation tests set the atomic
# cancel flag from a watchdog thread while the solver thread runs — TSan
# then proves the whole budget/cancel/fallback path race-free; no other
# test starts a thread. Building targets directly keeps this leg
# minutes-cheap; `ctest -L robustness` only matches tests whose binaries
# were built (unbuilt targets surface as unlabeled NOT_BUILT placeholders
# and are skipped by the label filter).
if require_sanitizer thread; then
  echo "=== build-tsan (MBTA_SANITIZE='thread') ==="
  cmake -B build-tsan -S . -DMBTA_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" \
        --target deadline_test fault_injection_test fallback_solver_test \
                 cancellation_test \
                 wal_test snapshot_test market_service_test \
                 service_recovery_test wal_fuzz_test \
                 service_differential_test eligibility_cache_test
  # The service suite rides along: single-threaded, but instrumented, so
  # a thread the WAL / snapshot / crash-recovery paths ever started
  # would have its races reported here.
  (cd build-tsan && ctest --output-on-failure -j "${JOBS}" \
      -L 'robustness|service')
fi

echo "check.sh: all requested suites green"
