"""End-to-end teleportation walkthrough: aggregate semantics, sampling, the
measurement-deferral pass, and the faithfulness check."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import make_teleportation
from qcirc import (
    DensityOperator,
    aggregate_measurement,
    check_faithful,
    defer_measurements,
    greedy_schedule,
    partial_trace,
    run,
    sample,
    track_probability,
)
from qcirc.semantics import splitmix64


def main():
    c = make_teleportation()
    psi = np.array([0.6, 0.8j], dtype=complex)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = DensityOperator.from_ket(np.kron(psi, bell))

    print("gates:", [g.id for g in c.gates])
    agg = aggregate_measurement(c)
    print(f"aggregate completeness defect: {agg.completeness_defect():.2e}")
    for f in sorted(agg.operators, key=lambda t: t.outcomes):
        print(f"  track {f.as_dict()}  p = {track_probability(c, f, rho):.4f}")

    x = greedy_schedule(c)
    shots = 4000
    counts = {}
    # the shots of `qcirc run --shots 4000 --seed 7`
    for r in sample(c, x, rho, splitmix64([7], shots)[0]):
        counts[r.track] = counts.get(r.track, 0) + 1
    print(f"{shots} shots:")
    for f in sorted(counts, key=lambda t: t.outcomes):
        print(f"  {f.as_dict()}  freq = {counts[f] / shots:.4f}")

    r = run(c, x, rho, seed=7)
    out = partial_trace(DensityOperator(3, r.final_state.normalized()), [2])
    err = np.max(np.abs(out.matrix - np.outer(psi, psi.conj())))
    print(f"register-2 output vs |psi><psi| (one run): max err {err:.2e}")

    result = defer_measurements(c)
    print("deferred gates:", [g.id for g in result.circuit.gates])
    print("ancillas:", sorted(result.ancilla_registers))
    rep = check_faithful(c, result.circuit, result.zeta)
    print(f"faithful: {rep.ok} (exact check over all inputs, {rep.tracks_checked} tracks)")


if __name__ == "__main__":
    main()
