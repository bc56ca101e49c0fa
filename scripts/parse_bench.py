#!/usr/bin/env python3
"""Best-of-N wall time of reading and of validating each benchmark corpus.

    python3 scripts/parse_bench.py [--repeat N]

For each workload of `perfbench/workloads.py` this generates the seed-3
corpus in a temporary directory, reads back every circuit file in it, and
prints one line: the circuit count, their operator count, and the best of N
passes in milliseconds of `serialize.parse_circuit` over all their texts and
of `validate_circuit` over fresh instances of them (a fresh instance has
nothing cached, so each pass validates every circuit again).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from qcirc import cli, serialize  # noqa: E402
from qcirc.circuit import QuantumCircuit, validate_circuit  # noqa: E402

SEED = 3


def _call(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def circuit_texts(name: str) -> list:
    """The text of every circuit file the workload's seed-3 set-up writes."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            workloads.build(name, SEED, _call)
            texts = [p.read_text() for p in sorted(Path(work).glob("*.json"))]
        finally:
            os.chdir(here)
    return [t for t in texts if "gates" in json.loads(t)]


def best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=9, help="passes per corpus (default 9)")
    args = ap.parse_args(argv)
    for name in workloads.NAMES:
        texts = circuit_texts(name)
        circuits = [serialize.parse_circuit(t) for t in texts]
        ops = sum(len(m.operators) for c in circuits for g in c.gates for m in g.measurements.values())
        ops += sum(len(g.unitaries) for c in circuits for g in c.gates)
        parse = best_ms(lambda: [serialize.parse_circuit(t) for t in texts], args.repeat)
        validate = best_ms(
            lambda: [validate_circuit(QuantumCircuit(c.register_names, c.gates)) for c in circuits], args.repeat
        )
        print(f"{name:10} {len(circuits):3} circuits {ops:5} operators  parse {parse:8.3f} ms  validate {validate:8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
