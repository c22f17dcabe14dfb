#!/usr/bin/env bash
# Prints the spec-level checks (check, refine, port) and the runtime
# refinement verdict, each run headed by its command line and followed
# by its exit status.  The output is deterministic; CI diffs it against
# test/golden/spec_checks.txt.
#
# Usage: test/golden/spec_checks.sh [path/to/repro.exe] > spec_checks.out
set -u
repro=${1:-./_build/default/bin/repro.exe}

run() {
  echo "\$ repro $*"
  "$repro" "$@"
  echo "exit $?"
}

run check multipaxos
run check raft-star
run check raft
run check mencius
run check pql --max-states 20000
run refine 'raft-star=>paxos'
run refine 'raft=>paxos'
run refine 'log=>kv'
run port mencius
run port pql --max-states 8000
run mcheck --refine refine-raft-star
