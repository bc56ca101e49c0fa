"""Seeded generators for the benchmark's circuit families.

Every generator returns plain JSON-ready dicts in the `qcirc-1` file format,
built here with numpy only, so the library under test sees nothing but the
files the benchmark writes. The same `numpy.random.Generator` state gives the
same circuits.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

VERSION = "qcirc-1"
FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)
PLUS = np.outer(H[:, 0], H[:, 0].conj())
MINUS = np.outer(H[:, 1], H[:, 1].conj())


# --- encoding ---------------------------------------------------------------


def mat(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def ket(v) -> dict:
    return {"ket": [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]}


def zero_ket(n: int) -> dict:
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return ket(v)


def _key(labels) -> str:
    return ",".join(labels)


def unitary(gid: str, regs, u) -> dict:
    return {"id": gid, "registers": list(regs), "kind": "unitary",
            "ops": {gid: mat(u)}, "controls": [], "selector": {"": gid}}


def measure(gid: str, regs, outcomes: dict) -> dict:
    return {"id": gid, "registers": list(regs), "kind": "measure",
            "measurements": {gid: {"outcomes": {k: mat(a) for k, a in outcomes.items()}}},
            "controls": [], "selector": {"": gid}}


def cc_unitary(gid: str, regs, controls, ops: dict, selector: dict) -> dict:
    """`selector` maps tuples of control labels to keys of `ops`."""
    return {"id": gid, "registers": list(regs), "kind": "unitary",
            "ops": {k: mat(u) for k, u in ops.items()}, "controls": list(controls),
            "selector": {_key(k): v for k, v in selector.items()}}


def cc_measure(gid: str, regs, controls, families: dict, selector: dict) -> dict:
    """`families` maps measurement ids to {label: operator}; labels are
    distinct across families."""
    return {"id": gid, "registers": list(regs), "kind": "measure",
            "measurements": {mid: {"outcomes": {k: mat(a) for k, a in fam.items()}}
                             for mid, fam in families.items()},
            "controls": list(controls),
            "selector": {_key(k): v for k, v in selector.items()}}


def circuit(n: int, gates: list) -> dict:
    return {"version": VERSION, "registers": [f"q{j}" for j in range(n)], "gates": gates}


def standard(gid: str, reg: int) -> dict:
    return measure(gid, [reg], {"0": P0, "1": P1})


def correction(gid: str, reg: int, source: str, u) -> dict:
    """Apply `u` on `reg` when the standard measurement `source` reads 1."""
    return cc_unitary(gid, [reg], [source], {"I": I2, "U": u},
                      {("0",): "I", ("1",): "U"})


# --- random matrices --------------------------------------------------------


def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng, dim: int, count: int) -> list:
    """Complete family B_i S^(-1/2) with S = sum B_i^dag B_i."""
    raw = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(count)]
    w, v = np.linalg.eigh(sum(b.conj().T @ b for b in raw))
    s = v @ np.diag(w ** -0.5) @ v.conj().T
    return [b @ s for b in raw]


def random_ket(rng, n: int) -> dict:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return ket(v / np.linalg.norm(v))


def _regs(rng, n: int, arity: int) -> list:
    return [int(r) for r in rng.choice(n, size=arity, replace=False)]


def _labels(gate: dict) -> list:
    out = []
    for fam in gate["measurements"].values():
        out.extend(fam["outcomes"])
    return sorted(out)


# --- fixed families ---------------------------------------------------------


def teleport() -> tuple[dict, dict]:
    """The committed teleportation fixture and its input state (read-only)."""
    return (json.loads((FIXTURES / "teleport.json").read_text()),
            json.loads((FIXTURES / "psi.json").read_text()))


def ghz(n: int) -> dict:
    """H on q0, a CNOT chain, then a standard measurement of every qubit."""
    gates = [unitary("h", [0], H)]
    gates += [unitary(f"cx{j}", [j, j + 1], CNOT) for j in range(n - 1)]
    gates += [standard(f"m{j}", j) for j in range(n)]
    return circuit(n, gates)


def feed_forward(k: int) -> dict:
    """k rounds of H on q0, a standard measurement of q0 and an X on q1
    classically controlled by that measurement."""
    gates = []
    for i in range(k):
        gates += [unitary(f"h{i}", [0], H), standard(f"m{i}", 0),
                  correction(f"x{i}", 1, f"m{i}", X)]
    return circuit(2, gates)


def dropped_z_pair() -> tuple[dict, dict, dict]:
    """Source H q0; M q0; Z on q1 controlled by M, and a target that drops
    the Z. The target is unfaithful (it loses a phase on q1), with the
    identity commensuration as its sidecar."""
    src = circuit(2, [unitary("h", [0], H), standard("m", 0), correction("z", 1, "m", Z)])
    tgt = circuit(2, [unitary("h", [0], H), standard("m", 0)])
    return src, tgt, identity_zeta(tgt)


def identity_zeta(c: dict) -> dict:
    """Sidecar that maps every measurement gate to itself, label for label."""
    assignments, label_bits, d_labels = {}, {}, {}
    for g in c["gates"]:
        if g["kind"] != "measure":
            continue
        labels = _labels(g)
        assignments[g["id"]] = [[g["id"], 0]]
        label_bits[g["id"]] = {lab: [lab] for lab in labels}
        d_labels[g["id"]] = [[[lab], lab] for lab in labels]
    return {"zeta": {gid: gid for gid in assignments}, "absorbed": [], "ancillas": [],
            "detail": {"assignments": assignments, "label_bits": label_bits,
                       "d_labels": d_labels}}


# --- random families --------------------------------------------------------
#
# Each random generator takes two streams. `shape` draws the skeleton: gate
# kinds, arities, registers, controls and outcome counts. `rng` draws the
# values: unitaries and Kraus operators. Workloads give every slot a constant
# shape stream and seed the value stream, so job costs stay comparable across
# seeds while every operator, input state and shot seed changes with the seed.


def random_mixed(shape, rng, n: int, n_gates: int, cc_measure_min: int) -> dict:
    """Random circuit on n registers mixing 1- and 2-qubit unitaries, Kraus
    measurements with 1 to 3 outcomes, classically controlled
    unitaries and (at least `cc_measure_min`) classically controlled
    measurements. Controls point to earlier gates only, so it is acyclic."""
    kinds = ["m"] + [str(shape.choice(["u", "u", "m", "m", "cu", "cm"]))
                     for _ in range(n_gates - 1)]
    for j in range(n_gates - 1, 0, -1):
        if kinds.count("cm") >= cc_measure_min:
            break
        kinds[j] = "cm"
    gates, labels = [], {}
    for j, kind in enumerate(kinds):
        gid = f"g{j}"
        arity = 1 if kind in ("m", "cm") else int(shape.integers(1, min(2, n) + 1))
        regs = _regs(shape, n, arity)
        dim = 2**arity
        outcomes = int(shape.integers(1, 4))
        if kind == "u":
            gates.append(unitary(gid, regs, random_unitary(rng, dim)))
        elif kind == "m":
            fam = random_kraus(rng, dim, outcomes)
            gates.append(measure(gid, regs, {f"o{o}": a for o, a in enumerate(fam)}))
        else:
            src = sorted(labels)[int(shape.integers(len(labels)))]
            keys = [(lab,) for lab in labels[src]]
            if kind == "cu":
                ops = {f"{gid}u{i}": random_unitary(rng, dim) for i in range(2)}
                sel = {key: f"{gid}u{i % 2}" for i, key in enumerate(keys)}
                gates.append(cc_unitary(gid, regs, [src], ops, sel))
            else:
                fams = {f"{gid}m{i}": {f"{gid}m{i}o{o}": a for o, a in
                                       enumerate(random_kraus(rng, dim, outcomes))}
                        for i in range(2)}
                sel = {key: f"{gid}m{i % 2}" for i, key in enumerate(keys)}
                gates.append(cc_measure(gid, regs, [src], fams, sel))
        if gates[-1]["kind"] == "measure":
            labels[gid] = _labels(gates[-1])
    return circuit(n, gates)


def random_deferrable(shape, rng, n: int, n_gates: int) -> dict:
    """Random circuit without classically controlled measurements. Its
    measurements are standard (1 or 2 registers), |+>/|-> or 2-outcome Kraus;
    its corrections are unitaries controlled by earlier measurements, so the
    deferral pass has red gates to move and, for the nonstandard
    measurements, ancillas to add."""
    gates, labels = [], {}
    for j in range(n_gates):
        gid = f"g{j}"
        kind = str(shape.choice(["u", "std", "std2", "pm", "kraus", "cu", "cu"])) if j else "std"
        if kind == "u":
            arity = int(shape.integers(1, min(2, n) + 1))
            gates.append(unitary(gid, _regs(shape, n, arity), random_unitary(rng, 2**arity)))
        elif kind == "std":
            gates.append(standard(gid, _regs(shape, n, 1)[0]))
        elif kind == "std2":
            projs = {f"b{b:02b}": np.diag(np.eye(4)[b]).astype(complex) for b in range(4)}
            gates.append(measure(gid, _regs(shape, n, 2), projs))
        elif kind == "pm":
            gates.append(measure(gid, _regs(shape, n, 1), {"+": PLUS, "-": MINUS}))
        elif kind == "kraus":
            fam = random_kraus(rng, 2, 2)
            gates.append(measure(gid, _regs(shape, n, 1), {"k0": fam[0], "k1": fam[1]}))
        else:
            src = sorted(labels)[int(shape.integers(len(labels)))]
            ops = {"a": random_unitary(rng, 2), "b": random_unitary(rng, 2)}
            sel = {(lab,): "ab"[i % 2] for i, lab in enumerate(labels[src])}
            gates.append(cc_unitary(gid, _regs(shape, n, 1), [src], ops, sel))
        if gates[-1]["kind"] == "measure":
            labels[gid] = _labels(gates[-1])
    return circuit(n, gates)


def random_long(shape, rng, n: int, n_gates: int) -> dict:
    """Long circuit for structural work: 1- and 2-qubit unitaries, about 15%
    standard measurements and about 15% corrections (X or Z classically
    controlled by an earlier measurement). The first gate measures."""
    n_meas = n_corr = round(0.15 * n_gates)
    kinds = ["std"] * (n_meas - 1) + ["cc"] * n_corr
    kinds += [str(shape.choice(["u1", "u2"])) for _ in range(n_gates - n_meas - n_corr)]
    kinds = ["std"] + [kinds[i] for i in shape.permutation(len(kinds))]
    gates, measured = [], []
    for j, kind in enumerate(kinds):
        gid = f"g{j}"
        if kind == "std":
            gates.append(standard(gid, int(shape.integers(n))))
            measured.append(gid)
        elif kind == "cc":
            src = measured[int(shape.integers(len(measured)))]
            u = X if shape.random() < 0.5 else Z
            gates.append(correction(gid, int(shape.integers(n)), src, u))
        else:
            arity = int(kind[1])
            gates.append(unitary(gid, _regs(shape, n, arity), random_unitary(rng, 2**arity)))
    return circuit(n, gates)


def chain(n_gates: int, n: int = 6) -> dict:
    """Deterministic chain of 1- and 2-qubit unitaries over n registers."""
    gates = []
    for j in range(n_gates):
        if j % 2:
            gates.append(unitary(f"g{j}", [j % n, (j + 1) % n], CNOT))
        else:
            gates.append(unitary(f"g{j}", [j % n], H))
    return circuit(n, gates)
