#!/usr/bin/env python3
"""Best-of-N wall time of `serialize.dumps` on four fixed documents.

    python3 scripts/dumps_bench.py [--repeat N] [--against CHECKOUT]

The documents cover the shapes qcirc writes:
- `ghz6_aggregate`: what `qcirc aggregate --input` prints for GHZ-6 from
  |0...0>, 64 tracks of 64x64 projector-like operators, almost all zeros;
- `structure_run`: what `qcirc run` prints for one shot of a 30-gate,
  6-qubit circuit of the benchmark's structure family, the raw and the
  normalized 64x64 final state;
- `dense_pair`: two random 64x64 complex matrices, with no zero entries;
- `ff5_deferred`: the circuit file of feed-forward-5 after `defer`, many
  small matrices.

One line per document gives its text length, the share of its matrix floats
that are +0.0 or -0.0, the tracemalloc peak of one call above the text it
returns (the writer's working memory), and the best of N calls in
milliseconds.

With `--against CHECKOUT`, the `dumps` of CHECKOUT/src/qcirc is loaded as a
second package, and the two writers are called in turn, N times each, on
each document in one process, so that both see the same host. One line per
document gives both medians, how many of the N pairs this checkout's call
won, and whether the two texts are the same.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from corpus import aggregate_document, feed_forward_circuit, ghz_circuit  # noqa: E402
from qcirc import serialize  # noqa: E402
from qcirc.deferral import defer_measurements  # noqa: E402
from qcirc.linalg import DensityOperator  # noqa: E402
from qcirc.scheduling import greedy_schedule  # noqa: E402
from qcirc.semantics import run  # noqa: E402


def _zero_ket(n: int) -> DensityOperator:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return DensityOperator.from_ket(psi)


def documents() -> dict:
    ghz6 = aggregate_document(ghz_circuit(6), _zero_ket(6))
    c = serialize.circuit_from_json(
        gen.random_long(np.random.default_rng([1000, 30]), np.random.default_rng([3, 3]), 6, 30)
    )
    shot = run(c, greedy_schedule(c), _zero_ket(6), 7)
    structure = {
        "track": shot.track.as_dict(),
        "final_state_raw": shot.final_state.matrix,
        "final_state_normalized": shot.final_state.normalized(),
        "steps": [{"bout": list(b), "outcomes": list(o), "probability": p} for b, o, p in shot.step_log],
    }
    rng = np.random.default_rng(0)
    dense = [rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)) for _ in range(2)]
    ff5 = serialize.circuit_to_json(defer_measurements(feed_forward_circuit(5)).circuit)
    return {"ghz6_aggregate": ghz6, "structure_run": structure, "dense_pair": dense, "ff5_deferred": ff5}


def _matrices(o):
    if isinstance(o, np.ndarray):
        yield o
    elif isinstance(o, dict):
        for v in o.values():
            yield from _matrices(v)
    elif isinstance(o, (list, tuple)):
        for v in o:
            yield from _matrices(v)


def zero_share(doc) -> float:
    floats = np.concatenate([np.asarray(m, dtype=complex).view(np.float64).ravel() for m in _matrices(doc)])
    return float(np.mean(floats == 0.0))


def peak_above_text_mib(doc) -> float:
    tracemalloc.start()
    try:
        text = serialize.dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - len(text)) / 2**20


def best_ms(doc, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        serialize.dumps(doc)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


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


def paired_ms(doc, ours, theirs, repeat: int) -> tuple[float, float, int]:
    """Both writers called in turn on doc, `repeat` times each, the first
    call of each pair alternating: their medians in milliseconds, and how
    many pairs `ours` won."""
    times: dict = {ours: [], theirs: []}
    for i in range(repeat):
        for dumps in (ours, theirs) if i % 2 == 0 else (theirs, ours):
            start = time.perf_counter()
            dumps(doc)
            times[dumps].append(time.perf_counter() - start)
    wins = sum(a < b for a, b in zip(times[ours], times[theirs]))
    return statistics.median(times[ours]) * 1e3, statistics.median(times[theirs]) * 1e3, wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=9, help="calls per document (default 9)")
    ap.add_argument("--against", type=Path, help="a checkout whose writer to alternate with this one's")
    args = ap.parse_args(argv)
    if args.against is not None:
        theirs = load_dumps(args.against)
        for name, doc in documents().items():
            same = serialize.dumps(doc) == theirs(doc)
            ours_ms, theirs_ms, wins = paired_ms(doc, serialize.dumps, theirs, args.repeat)
            print(f"{name:16} this {ours_ms:8.3f} ms  against {theirs_ms:8.3f} ms"
                  f"  wins {wins}/{args.repeat}  text {'same' if same else 'differs'}")
        return 0
    for name, doc in documents().items():
        chars = len(serialize.dumps(doc))
        peak = peak_above_text_mib(doc)
        print(
            f"{name:16} {chars:>10} chars  zeros {zero_share(doc):7.2%}  peak +{peak:6.2f} MiB"
            f"  best {best_ms(doc, args.repeat):8.3f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
