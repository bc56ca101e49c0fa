#!/usr/bin/env python3
"""Time and memory of the faithfulness check on a deferred circuit.

    python3 scripts/faithful_scale.py CIRCUIT [--inputs N]

CIRCUIT is `ff-K`, `parity-K` or a bare K. `ff-K` and K stand for
`feed_forward_circuit(K)` from `tests/corpus.py`, K rounds of H, a standard
measurement and a classically controlled X; `parity-K` stands for
`parity_circuit(K)`, H and a standard measurement on each of K registers,
then X on one more controlled by the parity of the K outcomes. The script
defers the circuit and runs `check_faithful` on the pair: the exact check,
and with `--inputs N` also the check on N random pure inputs (seed 0).
Each method is run twice: once
untraced for its wall time, once under `tracemalloc` for its peak. One JSON
line per method gives the circuit, K, the target's register count, the
number of source tracks checked, the seconds, the peak in MiB, the verdict,
and `walk_seconds`: the untraced time of the checker's own source walk,
`semantics._stack(source, psi)` (the source's code rows, their placement
and their compact track operators on psi, stacked in code-row order) for
the method's inputs psi (I for the exact check), on a fresh validated copy
of the source.

Run `parity-K` with K >= 9 only under a limit on the process's address
space, such as `ulimit -v 6000000`: its exact check holds blocks of
2^(K+1) x 2^(K+1) entries, and with such a limit an allocation past the
machine's memory fails at once as a MemoryError instead of exhausting it.
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

import numpy as np

from corpus import feed_forward_circuit, parity_circuit
from qcirc.circuit import QuantumCircuit, check_valid
from qcirc.deferral import check_faithful, defer_measurements, random_pure_inputs
from qcirc import semantics


def measure(c, result, inputs) -> dict:
    start = time.perf_counter()
    report = check_faithful(c, result.circuit, result.zeta, inputs)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        check_faithful(c, result.circuit, result.zeta, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    source = check_valid(QuantumCircuit(c.register_names, c.gates))
    psi = np.eye(2**c.n_registers, dtype=complex) if inputs is None else np.stack(inputs, axis=1)
    start = time.perf_counter()
    semantics._stack(source, psi)
    walk_seconds = time.perf_counter() - start
    return {
        "method": report.method,
        "inputs": report.inputs_checked,
        "target_registers": result.circuit.n_registers,
        "tracks": report.tracks_checked,
        "seconds": round(seconds, 3),
        "peak_mib": round(peak / 2**20, 2),
        "ok": report.ok,
        "walk_seconds": round(walk_seconds, 4),
    }


CIRCUITS = {"ff": feed_forward_circuit, "parity": parity_circuit}


def circuit_name(text: str) -> tuple[str, int]:
    """`ff-K`, `parity-K` or a bare K (read as `ff-K`) as (family, K)."""
    family, _, k = text.rpartition("-")
    if family not in ("", *CIRCUITS) or not k.isdigit():
        raise argparse.ArgumentTypeError(f"expected ff-K, parity-K or K, got {text!r}")
    return family or "ff", int(k)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("circuit", type=circuit_name, help="ff-K, parity-K, or K for ff-K")
    ap.add_argument("--inputs", type=int, help="also check N random pure inputs")
    args = ap.parse_args(argv)
    family, k = args.circuit
    c = CIRCUITS[family](k)
    result = defer_measurements(c)
    head = {"circuit": f"{family}-{k}", "k": k}
    print(json.dumps({**head, **measure(c, result, None)}))
    if args.inputs:
        inputs = random_pure_inputs(c.n_registers, args.inputs, 0)
        print(json.dumps({**head, **measure(c, result, inputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
