#!/usr/bin/env bash
# Benchmark entry point (BENCHMARK.json "command"): builds the ledger and
# server.exe from the source tree it is run in, then measures one
# workload and prints the result as the last line of standard output.
#
#   bash bench/ledger/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of the source tree.  Build output goes to stderr.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/server.ml ] || [ ! -d lib ]; then
  echo "bench.sh: not the root of a raftpax source tree" >&2
  exit 2
fi

# Keep every build artifact inside the tree: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . bench/ledger/ledger.exe bin/server.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe bench "$@"
