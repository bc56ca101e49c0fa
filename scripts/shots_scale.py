#!/usr/bin/env python3
"""Time and memory of sampling shots of a deferred feed-forward circuit.

    python3 scripts/shots_scale.py K N [--cli]

Builds `feed_forward_circuit(K)` from `tests/corpus.py` (K rounds of H on
r0, a standard measurement of r0 and an X on r1 controlled by it), defers
its measurements (`defer_measurements`, K + 1 registers) and tallies N shots
of it from |0...0> with `semantics.tally`, the draws seeded as `qcirc run
--shots N --seed 0` seeds them. It runs twice: once untraced for the wall
time, once under `tracemalloc` for the peak. One JSON line gives K, N, the
register and distinct-track counts, the seconds and the peak in MiB.

With `--cli` it instead runs `qcirc run CIRCUIT --input KET --shots N`, KET
being |0...0>, through `cli.main` once, in this fresh process, with stdout
sent to /dev/null. One JSON line gives K, N, the exit code, the seconds of
the call and the process's `ru_maxrss` in MiB.
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

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import feed_forward_circuit  # noqa: E402
from qcirc.cli import main as qcirc  # noqa: E402
from qcirc.deferral import defer_measurements  # noqa: E402
from qcirc.linalg import DensityOperator  # noqa: E402
from qcirc.scheduling import greedy_schedule  # noqa: E402
from qcirc.semantics import splitmix64, tally  # noqa: E402
from qcirc.serialize import serialize_circuit  # noqa: E402


def cli_run(k: int, n: int) -> dict:
    """`qcirc run --shots N` on deferred ff-K from |0...0> into /dev/null, timed."""
    c = defer_measurements(feed_forward_circuit(k)).circuit
    with tempfile.TemporaryDirectory() as work:
        circuit, ket = Path(work) / "ff.json", Path(work) / "ket.json"
        circuit.write_text(serialize_circuit(c))
        ket.write_text(json.dumps({"ket": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**c.n_registers - 1)}))
        with open("/dev/null", "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            rc = qcirc(["run", str(circuit), "--input", str(ket), "--shots", str(n), "--seed", "0"])
            seconds = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"k": k, "shots": n, "rc": rc, "seconds": round(seconds, 3), "maxrss_mib": round(maxrss / 2**10, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("k", type=int, help="feed-forward rounds (at least 1)")
    parser.add_argument("n", type=int, help="shots (at least 1)")
    parser.add_argument("--cli", action="store_true", help="time `qcirc run --shots N` into /dev/null instead")
    args = parser.parse_args(argv)
    if args.k < 1 or args.n < 1:
        parser.error("K and N must be at least 1")
    if args.cli:
        print(json.dumps(cli_run(args.k, args.n)))
        return 0
    c = defer_measurements(feed_forward_circuit(args.k)).circuit
    psi = np.zeros(2**c.n_registers, dtype=complex)
    psi[0] = 1.0
    rho, x, seeds = DensityOperator.from_ket(psi), greedy_schedule(c), splitmix64([0], args.n)[0]
    start = time.perf_counter()
    tracks = len(tally(c, x, rho, seeds))
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        tally(c, x, rho, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({"k": args.k, "shots": args.n, "registers": c.n_registers, "tracks": tracks,
                      "seconds": round(seconds, 3), "peak_mib": round(peak / 2**20, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
