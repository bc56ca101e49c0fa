#!/usr/bin/env python3
"""Time and memory of the aggregate measurement of a GHZ circuit.

    python3 scripts/aggregate_scale.py N [--cli]

Builds `ghz_circuit(N)` from `tests/corpus.py` (H on q0, a CNOT chain, then
a standard measurement of every qubit) and computes its
`aggregate_measurement`: 2^N tracks, each a 2^N x 2^N operator, so the
result alone holds 16 * 8^N bytes. It runs twice: once untraced for the wall
time, once under `tracemalloc` for the peak. One JSON line gives N, the track
count, the seconds and the peak in MiB.

With `--cli` it instead runs `qcirc aggregate CIRCUIT --input KET`, KET
being |0...0>, through `cli.main` once, in this fresh process, with stdout
sent to /dev/null. One JSON line gives N, the exit code, the seconds of the
call, the process's `ru_maxrss` in MiB and the minor page faults
(`ru_minflt`) taken during the call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import ghz_circuit  # noqa: E402
from qcirc.cli import main as qcirc  # noqa: E402
from qcirc.semantics import aggregate_measurement  # noqa: E402
from qcirc.serialize import serialize_circuit  # noqa: E402


def cli_run(n: int) -> dict:
    """`qcirc aggregate --input |0...0>` on GHZ-N into /dev/null, timed."""
    with tempfile.TemporaryDirectory() as work:
        circuit, ket = Path(work) / "ghz.json", Path(work) / "ket.json"
        circuit.write_text(serialize_circuit(ghz_circuit(n)))
        ket.write_text(json.dumps({"ket": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**n - 1)}))
        with open("/dev/null", "w") as sink, contextlib.redirect_stdout(sink):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            rc = qcirc(["aggregate", str(circuit), "--input", str(ket)])
            seconds = time.perf_counter() - start
            usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"n": n, "rc": rc, "seconds": round(seconds, 3), "maxrss_mib": round(usage.ru_maxrss / 2**10, 1),
            "minflt": usage.ru_minflt - faults}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="GHZ qubit count (at least 1)")
    parser.add_argument("--cli", action="store_true", help="time `qcirc aggregate --input` into /dev/null instead")
    args = parser.parse_args(argv)
    n = args.n
    if n < 1:
        parser.error("N must be at least 1")
    if args.cli:
        print(json.dumps(cli_run(n)))
        return 0
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
