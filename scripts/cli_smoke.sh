#!/usr/bin/env bash
# End-to-end check of the mbta_cli exit-code taxonomy (CONTRIBUTING.md
# "Robustness"): 0 ok, 1 usage, 2 bad input, 3 degraded. Scripts depend
# on these values, so a refactor that collapses them fails here.
#
# Usage: scripts/cli_smoke.sh <path-to-mbta_cli>
# Run by scripts/check.sh against the plain build and by CI against the
# ASan build.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <path-to-mbta_cli>" >&2
  exit 2
fi
cli="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Runs a command, swallowing its output, and asserts its exit status.
expect_exit() {
  local want="$1"; shift
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [ "${got}" -ne "${want}" ]; then
    echo "cli_smoke.sh: ERROR: '$*' exited ${got}, want ${want}" >&2
    exit 1
  fi
}

m="${tmp}/m.market"
# 0: a normal generate + solve round trip succeeds, including the
# solvers that need the market (budgets) or a task-arrival order.
expect_exit 0 "${cli}" generate --dataset uniform --workers 30 \
    --tasks 30 --seed 7 --out "${m}"
for solver in greedy budgeted-greedy online-task-greedy; do
  expect_exit 0 "${cli}" solve --market "${m}" --solver "${solver}" \
      --out "${tmp}/a.assignment"
done
# 1: usage errors — unknown command or solver, malformed or
# out-of-range flag values.
expect_exit 1 "${cli}" frobnicate
expect_exit 1 "${cli}" solve --market "${m}" \
    --solver no-such-solver --out "${tmp}/x.assignment"
for bad in "--alpha 1.5" "--alpha abc" "--objective Modular" \
           "--threads 0" "--threads abc" "--threads 65"; do
  # shellcheck disable=SC2086  # each case is a flag and its value
  expect_exit 1 "${cli}" solve --market "${m}" ${bad} \
      --out "${tmp}/x.assignment"
done
expect_exit 1 "${cli}" compare --market "${m}" --alpha -0.2
# 2: bad input — a corrupt market file parses to a clean error.
printf 'mbta-market v1\nname x\nworkers nan\n' > "${tmp}/bad.market"
expect_exit 2 "${cli}" stats --market "${tmp}/bad.market"
# 3: degraded — a zero work budget still writes a best-effort answer.
expect_exit 3 "${cli}" solve --market "${m}" \
    --solver greedy --work-budget 0 --out "${tmp}/d.assignment"
# The degraded run must still have produced a loadable assignment.
expect_exit 0 "${cli}" evaluate --market "${m}" \
    --assignment "${tmp}/d.assignment"

# The serve/replay pair follows the same taxonomy. A scripted serve
# writes a WAL; replaying that WAL must recover (0) and do so
# deterministically (two --dump-state replays are byte-identical); a
# WAL with a foreign magic is bad input (2); a zero work budget runs
# the epochs best-effort and reports degraded (3).
{
  printf 'add-worker 1 2 0.1 1.0 0.9\n'
  printf 'add-worker 2 1 0.2 1.0 0.8\n'
  printf 'add-task 100 1 1.5 2.0 0.2 0\n'
  printf 'add-task 101 2 1.0 1.0 0.1 0\n'
  printf 'epoch\n'
  printf 'task-payment 100 2.5\n'
  printf 'rm-worker 2\n'
  printf 'epoch\n'
} > "${tmp}/serve.script"
expect_exit 0 "${cli}" serve --script "${tmp}/serve.script" \
    --wal "${tmp}/serve.wal" --snapshot-every 1
expect_exit 0 "${cli}" replay --wal "${tmp}/serve.wal"
"${cli}" replay --wal "${tmp}/serve.wal" --dump-state > "${tmp}/r1.txt"
"${cli}" replay --wal "${tmp}/serve.wal" --dump-state > "${tmp}/r2.txt"
diff "${tmp}/r1.txt" "${tmp}/r2.txt"
printf 'NOTAWAL!' > "${tmp}/foreign.wal"
expect_exit 2 "${cli}" replay --wal "${tmp}/foreign.wal"
expect_exit 3 "${cli}" serve --script "${tmp}/serve.script" \
    --work-budget 0
expect_exit 1 "${cli}" serve --script "${tmp}/serve.script" --alpha 2
# The WAL records the config serve ran with: replay needs no service
# flag to reproduce the run, and restarting serve on that WAL under a
# different config is bad input (2) naming the field that differs.
"${cli}" serve --script "${tmp}/serve.script" --alpha 0.2 \
    --wal "${tmp}/alpha.wal" > "${tmp}/serve_alpha.txt"
"${cli}" replay --wal "${tmp}/alpha.wal" > "${tmp}/replay_alpha.txt"
if ! diff <(grep '^epochs' "${tmp}/serve_alpha.txt") \
          <(grep '^epochs' "${tmp}/replay_alpha.txt") >/dev/null; then
  echo "cli_smoke.sh: ERROR: replay of an --alpha 0.2 WAL did not" \
       "reproduce serve's objective line" >&2
  exit 1
fi
got=0
"${cli}" serve --script "${tmp}/serve.script" --alpha 0.5 \
    --wal "${tmp}/alpha.wal" >/dev/null 2>"${tmp}/stderr.txt" || got=$?
if [ "${got}" -ne 2 ] || ! grep -q alpha "${tmp}/stderr.txt"; then
  echo "cli_smoke.sh: ERROR: serve under a different --alpha exited" \
       "${got} without naming alpha, want exit 2 and an error naming it" >&2
  exit 1
fi
# 1: a flag the subcommand does not list is a usage error naming the
# flag, not silently ignored (a misspelt budget would run unbounded).
expect_unknown_flag() {
  local flag="$1"; shift
  local got=0
  "$@" >/dev/null 2>"${tmp}/stderr.txt" || got=$?
  if [ "${got}" -ne 1 ] || ! grep -q -- "${flag}" "${tmp}/stderr.txt"; then
    echo "cli_smoke.sh: ERROR: '$*' exited ${got} without naming" \
         "${flag}, want exit 1 and an error naming it" >&2
    exit 1
  fi
}
expect_unknown_flag --work-budgt "${cli}" solve --market "${m}" \
    --solver greedy --work-budgt 5 --out "${tmp}/u.assignment"
expect_unknown_flag --epoch-bach "${cli}" serve \
    --script "${tmp}/serve.script" --epoch-bach 4
echo "cli_smoke.sh: mbta_cli exit codes 0/1/2/3 verified (solve + serve)"
