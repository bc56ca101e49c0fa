#!/usr/bin/env python3
"""Best-of-N wall time of reading and of validating each benchmark corpus,
next to the floor that reading cannot go below.

    python3 scripts/parse_bench.py [--repeat N]

For each workload of `perfbench/workloads.py` this generates the seed-3
corpus in a temporary directory, reads back every circuit file in it, and
prints one line: the circuit count, their operator count, and the best of N
passes in milliseconds of
- `decode`: `json.loads` of all their texts;
- `floor`: `decode` plus the `linalg.gram_defects` calls that validation
  makes, one per operator dimension of each circuit, over the operators it
  parsed: the numeric work that validation cannot skip;
- `parse`: `serialize.parse_circuit` of all their texts, and `parse` / `floor`;
- `validate`: `validate_circuit` over fresh instances of them (a fresh
  instance has nothing cached, so each pass validates every circuit again).
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
from qcirc import cli, linalg, serialize  # noqa: E402
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


def best_ms(fns: dict, repeat: int) -> dict:
    """Per name, the best of `repeat` calls of its function, in milliseconds.
    The functions take turns, so that a drift in the host's speed reaches
    them all alike and their ratios hold."""
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(repeat):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: t * 1e3 for name, t in best.items()}


def gram_calls(circuits: list) -> list:
    """The arguments of every `linalg.gram_defects` call that validating
    fresh instances of the circuits makes: one per operator dimension of each."""
    calls, kernel = [], linalg.gram_defects

    def recorded(stack, counts):
        calls.append((stack, counts))
        return kernel(stack, counts)

    linalg.gram_defects = recorded
    try:
        for c in circuits:
            validate_circuit(QuantumCircuit(c.register_names, c.gates))
    finally:
        linalg.gram_defects = kernel
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=25, help="passes per corpus (default 25)")
    args = ap.parse_args(argv)
    for name in workloads.NAMES:
        texts = circuit_texts(name)
        circuits = [serialize.parse_circuit(t) for t in texts]
        ops = sum(len(m.operators) for c in circuits for g in c.gates for m in g.measurements.values())
        ops += sum(len(g.unitaries) for c in circuits for g in c.gates)
        stacks = gram_calls(circuits)
        ms = best_ms(
            {
                "decode": lambda: [json.loads(t) for t in texts],
                "gram": lambda: [linalg.gram_defects(stack, counts) for stack, counts in stacks],
                "parse": lambda: [serialize.parse_circuit(t) for t in texts],
                "validate": lambda: [validate_circuit(QuantumCircuit(c.register_names, c.gates)) for c in circuits],
            },
            args.repeat,
        )
        decode, parse, validate = ms["decode"], ms["parse"], ms["validate"]
        floor = decode + ms["gram"]
        print(
            f"{name:10} {len(circuits):3} circuits {ops:5} operators  decode {decode:7.3f}  floor {floor:7.3f}"
            f"  parse {parse:7.3f} ms ({parse / floor:.2f}x floor)  validate {validate:7.3f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
