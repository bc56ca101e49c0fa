#!/usr/bin/env python3
"""Time and memory of reading, the aggregate measurement, the faithfulness check, shots and writing.

    python3 scripts/scale.py CASE... [--repeat N] [--against CHECKOUT] [--cli]

A CASE is OP:TARGET[:ARG]. Four ops take a CIRCUIT, `ghz-K`, `ff-K`,
`parity-K`, `parityh-K` (parity-K with an H after each measurement, so
that nothing settles) or `mcx-K` (K rounds of an H, a standard measurement
and a CNOT from the measured register to register K, which commutes with
the measurement) from `tests/corpus.py`:
- `aggregate:CIRCUIT`: `aggregate_measurement`, building the circuit in the
  call as `qcirc` would; `tracks`.
- `defer:CIRCUIT`: `defer_measurements`, building the circuit in the call;
  the deferred circuit's `registers` and `gates`, and the count of
  `ancillas` appended.
- `check:CIRCUIT[:inputs=N]`: defer the circuit, then `check_faithful` on the
  pair, exactly or on N random pure inputs at seed 0; `method`,
  `target_registers`, `tracks`, `ok`, and `walk_seconds`, the checker's own
  source walk (`semantics._stack`) on a validated copy of the source.
- `shots:CIRCUIT:N`: `semantics.tally` of N shots of the deferred circuit
  from |0...0>, seeded as `qcirc run --shots N --seed 0`; `registers`, `tracks`.
- `parse:WORKLOAD` (shots, denote, compile, structure): `parse_circuit` of
  each circuit file of the workload's seed-3 set-up (`perfbench/workloads.py`);
  `circuits`, `operators`, `decode_seconds` (`json.loads` of the texts),
  `gram_seconds` (the `linalg.gram_defects` calls that validating them makes;
  decode plus gram is the floor that reading cannot go below),
  `validate_seconds` (`validate_circuit` of fresh instances, nothing cached)
  and `plan_seconds` (what a walk compiles before its first operator: the
  `semantics._Plan`, its `keeps` and the greedy walk order, on shallow
  copies of the validated circuits, which carry only what reading cached).
- `dumps:DOCUMENT`: `serialize.dumps` of `ghz6_aggregate` (`qcirc aggregate
  --input` of GHZ-6 from |0...0>, almost all zeros), `structure_run` (`qcirc
  run`, one shot of a 30-gate 6-qubit structure circuit), `dense_pair` (two
  random 64x64 matrices) or `ff5_deferred` (deferred feed-forward-5's circuit
  file); `chars` of the text, and `zeros`, the share of its matrix floats
  that are +0.0 or -0.0.

A case's timed calls run N rounds (`--repeat`, default 1); the cases take
turns within a round, and every other round reverses a case's calls, so that
a drift in the host's speed reaches them all alike. A line gives each call's
best `*seconds`, then `peak_mib`, the tracemalloc peak of one more call of
`seconds`' call, the only one traced. `--against CHECKOUT` (dumps cases only)
adds the `dumps` of CHECKOUT/src/qcirc, loaded as a second package, as each
case's second call: `seconds` and `against_seconds` are then medians, `wins`
counts the rounds that this checkout's call won, and `same` says whether the
two texts are the same.

With `--cli`, the one circuit CASE instead runs its `qcirc` command
(`aggregate --input`, `check-faithful`, `defer -o` into a temporary
directory, or `run --shots`, from |0...0>) once through `cli.main`, its
stdout into /dev/null: `rc`, the `seconds` of the call, the
process's `ru_maxrss` (`maxrss_mib`) and the call's minor page faults
(`minflt`). Every line gives `case`, the CASE's counts (`k`, `inputs`,
`shots`) and `no_bytecode` (`sys.dont_write_bytecode`: if true, every fresh
process compiles qcirc).

Run `parity-K` with K >= 9 and `parityh-K` and `mcx-K` with K >= 8 only
under a limit on the address space, such as `ulimit -v 6000000`: their exact
checks hold blocks of 2^(K+1) x 2^(K+1) entries (parityh-8's needs about 4.1
GiB; mcx-K's source, in which nothing settles, 2^K of them), and an
allocation past the limit fails at once as a MemoryError.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import importlib
import importlib.util
import io
import json
import os
import re
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from corpus import (  # noqa: E402
    aggregate_document,
    feed_forward_circuit,
    ghz_circuit,
    mcx_circuit,
    parity_circuit,
    parityh_circuit,
)
from qcirc import linalg, semantics, serialize  # noqa: E402
from qcirc.circuit import QuantumCircuit, check_valid, validate_circuit  # noqa: E402
from qcirc.cli import main as qcirc  # noqa: E402
from qcirc.deferral import check_faithful, defer_measurements, random_pure_inputs  # noqa: E402
from qcirc.linalg import DensityOperator, basis_ket  # noqa: E402
from qcirc.scheduling import greedy_bouts, greedy_schedule  # noqa: E402

FAMILIES = {"ghz": ghz_circuit, "ff": feed_forward_circuit, "parity": parity_circuit, "parityh": parityh_circuit,
            "mcx": mcx_circuit}


def zero(n: int) -> DensityOperator:
    return DensityOperator.from_ket(basis_ket(0, n))


def zero_ket(c) -> dict:
    return {"ket": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**c.n_registers - 1)}


# Each op takes its CASE's named parts and gives (calls, fields, argv): the
# timed calls by field name, `seconds` first; `fields(result)`, the line's
# fields from the result of `seconds`' call; and for a circuit op, the `qcirc`
# command, a circuit or a dict in it standing for its file, and a Path for a
# file that the command writes.

def aggregate(family, k):
    c = FAMILIES[family](k)
    return ({"seconds": lambda: semantics.aggregate_measurement(FAMILIES[family](k))},
            lambda r: {"tracks": len(r.operators)}, ["aggregate", c, "--input", zero_ket(c)])


def defer(family, k):
    return ({"seconds": lambda: defer_measurements(FAMILIES[family](k))},
            lambda r: {"registers": r.circuit.n_registers, "gates": len(r.circuit.gates),
                       "ancillas": len(r.ancilla_registers)},
            ["defer", FAMILIES[family](k), "-o", Path("deferred.json")])


def check(family, k, inputs):
    c = FAMILIES[family](k)
    result, kets = defer_measurements(c), random_pure_inputs(c.n_registers, inputs, 0) if inputs else None
    source, t0 = check_valid(QuantumCircuit(c.register_names, c.gates)), None if kets is None else np.stack(kets, 1)
    return ({"seconds": lambda: check_faithful(c, result.circuit, result.zeta, kets),
             "walk_seconds": lambda: semantics._stack(source, t0)},
            lambda report: {"method": report.method, "target_registers": result.circuit.n_registers,
                            "tracks": report.tracks_checked, "ok": report.ok},
            ["check-faithful", c, result.circuit, "--zeta", result.zeta.to_json(),
             *(["--inputs", f"random:{inputs}"] if inputs else [])])


def tally(family, k, shots):
    d = defer_measurements(FAMILIES[family](k)).circuit
    rho, x, seeds = zero(d.n_registers), greedy_schedule(d), semantics.splitmix64([0], shots)[0]
    return ({"seconds": lambda: semantics.tally(d, x, rho, seeds)},
            lambda r: {"registers": d.n_registers, "tracks": len(r)},
            ["run", d, "--input", zero_ket(d), "--shots", str(shots), "--seed", "0"])


def circuit_texts(workload: str) -> list:
    """The text of every circuit file the workload's seed-3 set-up writes."""
    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            return qcirc(argv), out.getvalue()

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            workloads.build(workload, 3, call)
            texts = [p.read_text() for p in sorted(Path(work).glob("*.json"))]
        finally:
            os.chdir(here)
    return [t for t in texts if "gates" in json.loads(t)]


def parse(workload):
    texts = circuit_texts(workload)
    circuits = [serialize.parse_circuit(t) for t in texts]
    ops = sum(len(m.operators) for c in circuits for g in c.gates for m in g.measurements.values())
    ops += sum(len(g.unitaries) for c in circuits for g in c.gates)

    def validate():  # fresh instances have nothing cached
        return [validate_circuit(QuantumCircuit(c.register_names, c.gates)) for c in circuits]

    def plan():
        return [(semantics._plan(c).keeps, greedy_bouts(c)) for c in map(copy.copy, circuits)]

    with mock.patch.object(linalg, "gram_defects", wraps=linalg.gram_defects) as gram:
        validate()  # one `gram_defects` call per operator dimension of each circuit
    grams = [call.args for call in gram.call_args_list]
    return ({"seconds": lambda: [serialize.parse_circuit(t) for t in texts],
             "decode_seconds": lambda: [json.loads(t) for t in texts],
             "gram_seconds": lambda: [linalg.gram_defects(*args) for args in grams],
             "validate_seconds": validate, "plan_seconds": plan},
            lambda _: {"circuits": len(circuits), "operators": ops}, None)


def structure_run() -> dict:
    c = serialize.circuit_from_json(
        gen.random_long(np.random.default_rng([1000, 30]), np.random.default_rng([3, 3]), 6, 30))
    shot = semantics.run(c, greedy_schedule(c), zero(6), 7)
    return {"track": shot.track.as_dict(), "final_state_raw": shot.final_state.matrix,
            "final_state_normalized": shot.final_state.normalized(),
            "steps": [{"bout": list(b), "outcomes": list(o), "probability": p} for b, o, p in shot.step_log]}


def dense_pair() -> list:
    rng = np.random.default_rng(0)
    return [rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)) for _ in range(2)]


DOCUMENTS = {
    "ghz6_aggregate": lambda: aggregate_document(ghz_circuit(6), zero(6)),
    "structure_run": structure_run,
    "dense_pair": dense_pair,
    "ff5_deferred": lambda: serialize.circuit_to_json(defer_measurements(feed_forward_circuit(5)).circuit),
}


def matrices(o):
    if isinstance(o, np.ndarray):
        yield o
    elif isinstance(o, (dict, list, tuple)):
        for v in o.values() if isinstance(o, dict) else o:
            yield from matrices(v)


def dumps(document, against=None):
    doc = DOCUMENTS[document]()
    zeros = np.mean(np.concatenate([np.asarray(m, dtype=complex).view(np.float64).ravel() for m in matrices(doc)]) == 0)
    calls = {"seconds": lambda: serialize.dumps(doc)}
    if against:
        calls["against_seconds"] = lambda: against(doc)
    return (calls, lambda text: {"chars": len(text), "zeros": round(float(zeros), 4),
                                 **({"same": text == against(doc)} if against else {})}, None)


def load_dumps(checkout: Path):
    """`serialize.dumps` of CHECKOUT/src/qcirc, loaded as the package
    `qcirc_against`: its modules import each other relatively, so they load
    under that name beside `qcirc`."""
    init = checkout.resolve() / "src" / "qcirc" / "__init__.py"
    spec = importlib.util.spec_from_file_location("qcirc_against", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module("qcirc_against.serialize").dumps


N = "[1-9][0-9]*"
CIRCUIT = f"(?P<family>{'|'.join(FAMILIES)})-(?P<k>{N})"
OPS = {  # op -> (the pattern of its TARGET[:ARG], the op)
    "aggregate": (CIRCUIT, aggregate),
    "check": (f"{CIRCUIT}(?::inputs=(?P<inputs>{N}))?", check),
    "defer": (CIRCUIT, defer),
    "shots": (f"{CIRCUIT}:(?P<shots>{N})", tally),
    "parse": (f"(?P<workload>{'|'.join(workloads.NAMES)})", parse),
    "dumps": (f"(?P<document>{'|'.join(DOCUMENTS)})", dumps),
}
COUNTS = ("k", "inputs", "shots")


def case(text: str) -> tuple:
    """OP:TARGET[:ARG] as (text, op, {part's name: the part, a count as an int, 0 if absent})."""
    op = text.partition(":")[0]
    m = re.fullmatch(f"{op}:{OPS[op][0]}", text) if op in OPS else None
    if m is None:
        raise argparse.ArgumentTypeError(
            f"expected aggregate:CIRCUIT, check:CIRCUIT[:inputs=N], defer:CIRCUIT, shots:CIRCUIT:N (CIRCUIT one of "
            f"ghz-K, ff-K, parity-K, parityh-K, mcx-K), parse:WORKLOAD ({', '.join(workloads.NAMES)}) or dumps:DOCUMENT ({', '.join(DOCUMENTS)}), "
            f"got {text!r}")
    return text, op, {name: int(part or 0) if name in COUNTS else part for name, part in m.groupdict().items()}


def measured(cases: list, repeat: int):
    """Per case of (calls, fields, argv), its line: `fields` of the first call's
    result, then each call's best of `repeat` rounds, or with an
    `against_seconds` call both medians and this call's wins, then the
    tracemalloc peak of one more call of `seconds`."""
    times = [{name: [] for name in calls} for calls, _, _ in cases]
    lines = [{} for _ in cases]
    for i in range(repeat):
        for (calls, fields, _), t, line in zip(cases, times, lines):
            for name in calls if i % 2 == 0 else reversed(calls):
                start = time.perf_counter()
                result = calls[name]()
                t[name].append(time.perf_counter() - start)
                if i == 0 and name == "seconds":
                    line.update(fields(result))
                del result  # not held through the next call
    for (calls, _, _), t, line in zip(cases, times, lines):
        if "against_seconds" in t:
            line.update({name: round(statistics.median(ts), 6) for name, ts in t.items()},
                        wins=sum(a < b for a, b in zip(t["seconds"], t["against_seconds"])))
        else:
            line.update({name: round(min(ts), 6) for name, ts in t.items()})
        tracemalloc.start()
        try:
            calls["seconds"]()
            yield {**line, "peak_mib": round(tracemalloc.get_traced_memory()[1] / 2**20, 2)}
        finally:
            tracemalloc.stop()


def cli_run(argv) -> dict:
    with tempfile.TemporaryDirectory() as work:
        files = {i: Path(work, a if isinstance(a, Path) else f"{i}.json")
                 for i, a in enumerate(argv) if not isinstance(a, str)}
        for i, path in files.items():
            if not isinstance(argv[i], Path):  # a Path is the command's to write
                path.write_text(serialize.serialize_circuit(argv[i]) if isinstance(argv[i], QuantumCircuit)
                                else json.dumps(argv[i]))
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
    ap.add_argument("cases", nargs="+", type=case, metavar="CASE", help="OP:TARGET[:ARG], such as check:ff-16")
    ap.add_argument("--repeat", type=int, default=1, help="rounds of each case's calls (default 1)")
    ap.add_argument("--against", type=Path, metavar="CHECKOUT", help="alternate the dumps cases with CHECKOUT's writer")
    ap.add_argument("--cli", action="store_true", help="run the one circuit CASE's qcirc command through cli.main")
    args = ap.parse_args(argv)
    ops = {op for _, op, _ in args.cases}
    if args.repeat < 1:
        ap.error("--repeat takes a count of at least 1")
    if args.against is not None and ops != {"dumps"}:
        ap.error("--against takes only dumps cases")
    if args.cli and (len(args.cases) != 1 or ops & {"parse", "dumps"} or args.repeat != 1):
        ap.error("--cli takes exactly one aggregate, check, defer or shots CASE, and no --repeat")
    writer = {} if args.against is None else {"against": load_dumps(args.against)}
    cases = [OPS[op][1](**parts, **writer) for _, op, parts in args.cases]
    lines = [cli_run(cases[0][2])] if args.cli else measured(cases, args.repeat)
    for (text, _, parts), line in zip(args.cases, lines):
        counts = {name: part for name, part in parts.items() if name in COUNTS}
        print(json.dumps({"case": text, **counts, "no_bytecode": sys.dont_write_bytecode, **line}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
