#!/usr/bin/env python3
"""Time and memory of the aggregate measurement, the faithfulness check and shots at scale.

    python3 scripts/scale.py CASE... [--cli]

A CASE is OP:CIRCUIT[:ARG], CIRCUIT one of `ghz-K`, `ff-K` and `parity-K`
from `tests/corpus.py`. OP is `aggregate` (`aggregate_measurement`), `check`
or `check:CIRCUIT:inputs=N` (defer the circuit, then `check_faithful` on the
pair, exactly or on N random pure inputs at seed 0; `walk_seconds` times the
checker's own source walk, `semantics._stack`, on a fresh validated copy of
the source) or `shots:CIRCUIT:N` (`semantics.tally` of N shots of the
deferred circuit from |0...0>, seeded as `qcirc run --shots N --seed 0`).

Each case runs once untraced for `seconds`, then once under `tracemalloc` for
`peak_mib`, and prints one JSON line. With `--cli`, the one CASE instead runs
its `qcirc` command (`aggregate --input`, `check-faithful` or `run --shots`,
from |0...0>) once through `cli.main` into /dev/null: `rc`, the `seconds` of
the call, the process's `ru_maxrss` (`maxrss_mib`) and the call's minor page
faults (`minflt`). Every line gives `case`, `k` and `no_bytecode`
(`sys.dont_write_bytecode`: if true, every fresh process compiles qcirc).

Run `parity-K` with K >= 9 only under a limit on the address space, such as
`ulimit -v 6000000`: its exact check holds blocks of 2^(K+1) x 2^(K+1)
entries, and an allocation past the limit fails at once as a MemoryError.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from corpus import feed_forward_circuit, ghz_circuit, parity_circuit  # noqa: E402
from qcirc import semantics  # noqa: E402
from qcirc.circuit import QuantumCircuit, check_valid  # noqa: E402
from qcirc.cli import main as qcirc  # noqa: E402
from qcirc.deferral import check_faithful, defer_measurements, random_pure_inputs  # noqa: E402
from qcirc.linalg import DensityOperator, basis_ket  # noqa: E402
from qcirc.scheduling import greedy_schedule  # noqa: E402
from qcirc.serialize import serialize_circuit  # noqa: E402

FAMILIES = {"ghz": ghz_circuit, "ff": feed_forward_circuit, "parity": parity_circuit}


def zero_ket(c) -> dict:
    return {"ket": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**c.n_registers - 1)}


# Each op takes `build` (which makes the case's circuit) and its ARG, and
# gives (call, fields, argv): `call()` is measured, `fields(result)` are the
# line's fields, and `argv` is the `qcirc` command, a circuit or a dict in it
# standing for its file. `aggregate` builds in the call, as `qcirc` would.

def aggregate(build):
    c = build()
    return (lambda: semantics.aggregate_measurement(build()), lambda r: {"tracks": len(r.operators)},
            ["aggregate", c, "--input", zero_ket(c)])


def check(build, inputs):
    c = build()
    result, kets = defer_measurements(c), random_pure_inputs(c.n_registers, inputs, 0) if inputs else None

    def fields(report):
        source = check_valid(QuantumCircuit(c.register_names, c.gates))
        t0 = np.eye(2**c.n_registers, dtype=complex) if kets is None else np.stack(kets, axis=1)
        start = time.perf_counter()
        semantics._stack(source, t0)
        return {"method": report.method, "target_registers": result.circuit.n_registers,
                "tracks": report.tracks_checked, "ok": report.ok, "walk_seconds": round(time.perf_counter() - start, 4)}

    return (lambda: check_faithful(c, result.circuit, result.zeta, kets), fields,
            ["check-faithful", c, result.circuit, "--zeta", result.zeta.to_json(),
             *(["--inputs", f"random:{inputs}"] if inputs else [])])


def tally(build, shots):
    d = defer_measurements(build()).circuit
    rho, x = DensityOperator.from_ket(basis_ket(0, d.n_registers)), greedy_schedule(d)
    seeds = semantics.splitmix64([0], shots)[0]
    return (lambda: semantics.tally(d, x, rho, seeds), lambda r: {"registers": d.n_registers, "tracks": len(r)},
            ["run", d, "--input", zero_ket(d), "--shots", str(shots), "--seed", "0"])


N = "[1-9][0-9]*"
OPS = {"aggregate": ("", aggregate), "check": (f"(?::inputs=(?P<inputs>{N}))?", check),
       "shots": (f":(?P<shots>{N})", tally)}  # op -> (ARG's pattern, the op)


def case(text: str) -> tuple:
    """OP:CIRCUIT[:ARG] as (text, op, family, K, {ARG's name: its count, 0 if absent})."""
    op = text.partition(":")[0]
    m = re.fullmatch(f"{op}:({'|'.join(FAMILIES)})-({N}){OPS[op][0]}", text) if op in OPS else None
    if m is None:
        raise argparse.ArgumentTypeError(f"expected aggregate:CIRCUIT, check:CIRCUIT[:inputs=N] or shots:CIRCUIT:N "
                                         f"(CIRCUIT one of ghz-K, ff-K, parity-K), got {text!r}")
    return text, op, m[1], int(m[2]), {name: int(count or 0) for name, count in m.groupdict().items()}


def measured(call, fields) -> dict:
    start = time.perf_counter()
    result = call()
    line = {"seconds": round(time.perf_counter() - start, 3), **fields(result)}
    del result  # not held through the traced call
    tracemalloc.start()
    try:
        call()
        return {**line, "peak_mib": round(tracemalloc.get_traced_memory()[1] / 2**20, 2)}
    finally:
        tracemalloc.stop()


def cli_run(argv) -> dict:
    with tempfile.TemporaryDirectory() as work:
        files = {i: Path(work) / f"{i}.json" for i, a in enumerate(argv) if not isinstance(a, str)}
        for i, path in files.items():
            path.write_text(serialize_circuit(argv[i]) if isinstance(argv[i], QuantumCircuit) else json.dumps(argv[i]))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            rc = qcirc([str(files.get(i, a)) for i, a in enumerate(argv)])
            seconds = time.perf_counter() - start
            usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"rc": rc, "seconds": round(seconds, 3), "maxrss_mib": round(usage.ru_maxrss / 2**10, 1),
            "minflt": usage.ru_minflt - faults}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cases", nargs="+", type=case, metavar="CASE", help="OP:CIRCUIT[:ARG], such as check:ff-16")
    ap.add_argument("--cli", action="store_true", help="run the one CASE's qcirc command through cli.main instead")
    args = ap.parse_args(argv)
    if args.cli and len(args.cases) != 1:
        ap.error("--cli takes exactly one CASE")
    for text, op, family, k, arg in args.cases:
        call, fields, cli = OPS[op][1](lambda: FAMILIES[family](k), **arg)
        line = cli_run(cli) if args.cli else measured(call, fields)
        print(json.dumps({"case": text, "k": k, "no_bytecode": sys.dont_write_bytecode, **arg, **line}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
