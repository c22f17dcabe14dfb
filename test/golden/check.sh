#!/usr/bin/env bash
# Regenerates a committed golden with the command that defines it and
# diffs the output against the file in test/golden/.  CI calls this
# script for every golden, so a local check runs exactly what CI runs.
#
# Usage (from the root of the source tree):
#   test/golden/check.sh NAME|all
#
# NAME is one of
#   nemesis_fingerprints  repro nemesis all --seed 1 --seeds 200 (~25 s)
#   ledger_exact_smoke    the ledger's exact rows, gc.* left out  (~10 s)
#   spec_checks           test/golden/spec_checks.sh               (~25 s)
#   mcheck_all            repro mcheck all --max-states 2000000    (~2 min)
# and `all` checks the four in that order.  Each output is written to
# NAME.out in the current directory (ignored by git).  Exits 0 when every
# named golden matches and its command exits 0, and 1 otherwise; the
# diff goes to stdout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d test/golden ]; then
  echo "check.sh: run from the root of the source tree" >&2
  exit 2
fi

repro=./_build/default/bin/repro.exe
ledger=./_build/default/bench/ledger/ledger.exe

generate() {
  case "$1" in
    nemesis_fingerprints)
      "$repro" nemesis all --seed 1 --seeds 200 ;;
    ledger_exact_smoke)
      # The exact rows are a pure function of seed and code; the gc.*
      # rows move with allocation and are left out.  A run exits 1 on a
      # lin-check violation, a second pass that disagrees on an exact row
      # or a missing metric, so every run's status must reach the
      # pipeline: called under `if !`, this function runs without
      # errexit, and the loop alone would return only the last run's.
      for w in lease-reads sharded-writes failover; do
        "$ledger" run --seed 1 --smoke --workload "$w" || exit 1
      done | grep ' exact$' | grep -v '^[^ ]* gc\.' ;;
    spec_checks)
      test/golden/spec_checks.sh "$repro" ;;
    mcheck_all)
      "$repro" mcheck all --max-states 2000000 ;;
  esac
}

case "${1:-}" in
  all) names="nemesis_fingerprints ledger_exact_smoke spec_checks mcheck_all" ;;
  nemesis_fingerprints | ledger_exact_smoke | spec_checks | mcheck_all)
    names=$1 ;;
  *) echo "usage: test/golden/check.sh NAME|all" >&2; exit 2 ;;
esac

dune build bin/repro.exe bench/ledger/ledger.exe

status=0
for name in $names; do
  if ! generate "$name" > "$name.out"; then
    echo "check.sh: $name: the command exited non-zero"
    status=1
  fi
  if diff -u "test/golden/$name.txt" "$name.out"; then
    echo "check.sh: $name matches"
  else
    echo "check.sh: $name differs from test/golden/$name.txt"
    status=1
  fi
done
exit "$status"
