#!/usr/bin/env python3
"""Self-test of bench/engine_gate.py.

    python3 bench/engine_gate_test.py BENCH_engine.json

Runs the gate against altered copies of an engine artifact: an
identical copy must pass (exit 0), and a changed `minor_words_per_op`,
a missing row, an extra row and a duplicated row must each fail
(exit 1).  Exits 1 if the gate judges any case wrongly.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "engine_gate.py")


def changed_words(runs):
    runs[0]["minor_words_per_op"] += 1.0


def missing_row(runs):
    del runs[-1]


def extra_row(runs):
    row = copy.deepcopy(runs[0])
    row["config"]["seed"] = -1
    runs.append(row)


def duplicated_row(runs):
    runs.append(copy.deepcopy(runs[0]))


CASES = (
    ("identical copy", lambda runs: None, 0),
    ("changed minor_words_per_op", changed_words, 1),
    ("missing row", missing_row, 1),
    ("extra row", extra_row, 1),
    ("duplicated row", duplicated_row, 1),
)


def main(artifact):
    with open(artifact) as f:
        doc = json.load(f)
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, alter, expected in CASES:
            fresh = copy.deepcopy(doc)
            alter(fresh["runs"])
            path = os.path.join(tmp, "fresh.json")
            with open(path, "w") as f:
                json.dump(fresh, f)
            code = subprocess.run(
                [sys.executable, GATE, artifact, path], stdout=subprocess.DEVNULL
            ).returncode
            ok = code == expected
            wrong += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: exit {code}, expected {expected}")
    return 1 if wrong else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
