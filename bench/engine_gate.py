#!/usr/bin/env python3
"""Exact gate on the engine bench artifact.

    python3 bench/engine_gate.py COMMITTED.json FRESH.json

Compares every row of a fresh `bench/main.exe engine` artifact with the
committed BENCH_engine.json.  `sim_events`, `ops`, `throughput_ops`,
`minor_words_per_op` and `promoted_words_per_op` are pure functions of
the binary and the seed (each row starts from `Gc.full_major`, so its
minor heap starts empty), so any difference means the simulated
behaviour or its allocation changed and the artifact must be
regenerated in the same change.  The events/s
floor cannot catch this: wasted events raise it.  Exits 1 on a
mismatch, a missing row or an extra row.
"""

import json
import sys

FIELDS = (
    "sim_events",
    "ops",
    "throughput_ops",
    "minor_words_per_op",
    "promoted_words_per_op",
)


def rows(path):
    with open(path) as f:
        runs = json.load(f)["runs"]
    return {
        (r["protocol"], json.dumps(r["config"], sort_keys=True)): r for r in runs
    }


def main(committed_path, fresh_path):
    committed, fresh = rows(committed_path), rows(fresh_path)
    problems = []
    for key in sorted(committed.keys() | fresh.keys()):
        name = f"{key[0]} {key[1]}"
        if key not in fresh:
            problems.append(f"{name}: missing from the fresh run")
        elif key not in committed:
            problems.append(f"{name}: not in the committed artifact")
        else:
            for field in FIELDS:
                old, new = committed[key].get(field), fresh[key].get(field)
                if old != new:
                    problems.append(f"{name}: {field} committed {old}, fresh {new}")
    for p in problems:
        print(p)
    print(f"engine gate: {len(fresh)} rows, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
