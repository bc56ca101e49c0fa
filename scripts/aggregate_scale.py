#!/usr/bin/env python3
"""Time and memory of the aggregate measurement of a GHZ circuit.

    python3 scripts/aggregate_scale.py N

Builds `ghz_circuit(N)` from `tests/corpus.py` (H on q0, a CNOT chain, then
a standard measurement of every qubit) and computes its
`aggregate_measurement`: 2^N tracks, each a 2^N x 2^N operator, so the
result alone holds 16 * 8^N bytes. It runs twice: once untraced for the wall
time, once under `tracemalloc` for the peak. One JSON line gives N, the track
count, the seconds and the peak in MiB.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import ghz_circuit  # noqa: E402
from qcirc.semantics import aggregate_measurement  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="GHZ qubit count (at least 1)")
    n = parser.parse_args(argv).n
    if n < 1:
        parser.error("N must be at least 1")
    start = time.perf_counter()
    tracks = len(aggregate_measurement(ghz_circuit(n)).operators)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        aggregate_measurement(ghz_circuit(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({"n": n, "tracks": tracks, "seconds": round(seconds, 3), "peak_mib": round(peak / 2**20, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
