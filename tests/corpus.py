"""Randomized generators shared by the test modules: unitaries, measurement
families, circuits (with and without classically controlled measurements),
and posets."""

import itertools

import numpy as np

from qcirc.circuit import (
    Gate,
    Measurement,
    QuantumCircuit,
    UnitaryOp,
    controlled_unitary_gate,
    measure_gate,
    standard_measure_gate,
    unitary_gate,
)
from qcirc.linalg import CNOT, H, X, Z
from qcirc.scheduling import Poset
from qcirc.semantics import aggregate_measurement, probability_on


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_family(rng, dim, n_outcomes):
    """Random {A_i} with sum A_i^dag A_i = I, via B_i S^{-1/2}."""
    raw = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(n_outcomes)
    ]
    s = sum(b.conj().T @ b for b in raw)
    w, v = np.linalg.eigh(s)
    s_inv_sqrt = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    return [b @ s_inv_sqrt for b in raw]


PM_FAMILY = {
    "+": np.outer(H[:, 0], H[:, 0].conj()),
    "-": np.outer(H[:, 1], H[:, 1].conj()),
}


def _pick_registers(rng, n, arity):
    return tuple(int(r) for r in rng.choice(n, size=arity, replace=False))


def _pick_sources(rng, measure_labels, p_cc):
    ids = sorted(measure_labels)
    if not ids or rng.random() >= p_cc:
        return ()
    k = int(rng.integers(1, min(2, len(ids)) + 1))
    chosen = rng.choice(len(ids), size=k, replace=False)
    return tuple(ids[j] for j in sorted(chosen))


def _selector_over(rng, measure_labels, sources, targets):
    keys = itertools.product(*(measure_labels[s] for s in sources))
    return {key: targets[int(rng.integers(len(targets)))] for key in keys}


def random_circuit(rng, max_regs=4, max_gates=6, p_measure=0.4, p_cc=0.4,
                   allow_cc_measure=True):
    """Random valid circuit mixing unitary, measurement, and classically
    controlled gates. Acyclic by construction: classical sources point to
    earlier gates only."""
    n = int(rng.integers(1, max_regs + 1))
    n_gates = int(rng.integers(0, max_gates + 1))
    gates = []
    measure_labels = {}  # measure gate id -> outcome labels
    for i in range(n_gates):
        gid = f"g{i}"
        arity = int(rng.integers(1, min(2, n) + 1))
        regs = _pick_registers(rng, n, arity)
        dim = 2**arity
        is_measure = rng.random() < p_measure
        sources = () if (is_measure and not allow_cc_measure) else _pick_sources(
            rng, measure_labels, p_cc
        )
        if is_measure:
            if sources:
                mids = [f"{gid}m0", f"{gid}m1"]
                measurements = {}
                for mid in mids:
                    fam = random_kraus_family(rng, dim, int(rng.integers(1, 4)))
                    measurements[mid] = Measurement(
                        mid, {f"{mid}o{j}": a for j, a in enumerate(fam)}
                    )
                g = Gate(
                    gid,
                    regs,
                    measurements=measurements,
                    classical_sources=sources,
                    selector=_selector_over(rng, measure_labels, sources, mids),
                )
            else:
                fam = random_kraus_family(rng, dim, int(rng.integers(1, 4)))
                g = measure_gate(gid, regs, {f"o{j}": a for j, a in enumerate(fam)})
            measure_labels[gid] = g.outcome_labels
        elif sources:
            uids = [f"{gid}u0", f"{gid}u1"]
            g = Gate(
                gid,
                regs,
                unitaries={u: UnitaryOp(u, random_unitary(rng, dim)) for u in uids},
                classical_sources=sources,
                selector=_selector_over(rng, measure_labels, sources, uids),
            )
        else:
            g = unitary_gate(gid, regs, random_unitary(rng, dim))
        gates.append(g)
    return QuantumCircuit(tuple(f"r{j}" for j in range(n)), tuple(gates))


def random_deferrable_circuit(rng, max_principal=3, max_gates=5):
    """Random circuit with no classically controlled measurement gates.
    Measurements are standard, |+>/|->, or small random families, so the
    deferral pass exercises standardization, splitting, and all source types."""
    n = int(rng.integers(2, max_principal + 1))
    n_gates = int(rng.integers(2, max_gates + 1))
    gates = []
    measure_labels = {}
    n_nonstandard = 0
    for i in range(n_gates):
        gid = f"g{i}"
        if rng.random() < 0.45:
            kind = rng.choice(["std", "std", "std2", "pm", "kraus"])
            if kind in ("pm", "kraus") and n_nonstandard >= 2:
                kind = "std"
            if kind == "std":
                regs = _pick_registers(rng, n, 1)
                p0 = np.diag([1.0, 0.0]).astype(complex)
                p1 = np.diag([0.0, 1.0]).astype(complex)
                g = measure_gate(gid, regs, {"0": p0, "1": p1})
            elif kind == "std2" and n >= 2:
                regs = _pick_registers(rng, n, 2)
                ops = {}
                for b in range(4):
                    p = np.zeros((4, 4), dtype=complex)
                    p[b, b] = 1.0
                    ops[f"b{b:02b}"] = p
                g = measure_gate(gid, regs, ops)
            elif kind == "pm":
                regs = _pick_registers(rng, n, 1)
                g = measure_gate(gid, regs, dict(PM_FAMILY))
                n_nonstandard += 1
            else:
                regs = _pick_registers(rng, n, 1)
                fam = random_kraus_family(rng, 2, int(rng.integers(1, 4)))
                g = measure_gate(gid, regs, {f"o{j}": a for j, a in enumerate(fam)})
                n_nonstandard += 1
            measure_labels[gid] = g.outcome_labels
        else:
            arity = int(rng.integers(1, min(2, n) + 1))
            regs = _pick_registers(rng, n, arity)
            dim = 2**arity
            sources = _pick_sources(rng, measure_labels, 0.6)
            if sources:
                uids = ["u0", "u1"]
                g = Gate(
                    gid,
                    regs,
                    unitaries={u: UnitaryOp(u, random_unitary(rng, dim)) for u in uids},
                    classical_sources=sources,
                    selector=_selector_over(rng, measure_labels, sources, uids),
                )
            else:
                g = unitary_gate(gid, regs, random_unitary(rng, dim))
        gates.append(g)
    return QuantumCircuit(tuple(f"r{j}" for j in range(n)), tuple(gates))


def kraus_correction_circuit(rng):
    """A nonstandard Kraus measurement K of 1-5 outcomes on 1-2 registers
    after a random unitary, a standard measurement S of another register, and
    a correction G on a third register classically controlled by K: through
    one slot, two slots of `controls`, or next to S. Sometimes a unitary W on
    K's first register and G's follows. Some label sets hold `pad0` and some
    circuits already have a gate `K__u`, so fresh names must step around them."""
    arity, n_out = int(rng.integers(1, 3)), int(rng.integers(1, 6))
    kregs = _pick_registers(rng, arity + 2, arity)
    s_reg, t_reg = (r for r in range(arity + 2) if r not in kregs)
    labels = [f"k{j}" for j in range(n_out)]
    if n_out > 1 and rng.random() < 0.25:
        labels[int(rng.integers(n_out))] = "pad0"
    kraus = random_kraus_family(rng, 2**arity, n_out)
    controls = [["K"], ["K", "K"], ["K", "S"], ["S", "K"]][int(rng.integers(4))]
    ops = {"I": np.eye(2), "X": X, "Z": Z, "V": random_unitary(rng, 2)}
    outcomes = {"K": labels, "S": ["0", "1"]}
    selector = {
        key: list(ops)[int(rng.integers(len(ops)))]
        for key in itertools.product(*(outcomes[s] for s in controls))
    }
    gates = [
        unitary_gate("K__u" if rng.random() < 0.2 else "U", kregs, random_unitary(rng, 2**arity)),
        measure_gate("K", kregs, dict(zip(labels, kraus))),
        unitary_gate("HS", [s_reg], H),
        standard_measure_gate("S", s_reg),
        controlled_unitary_gate("G", [t_reg], controls, ops, selector),
    ]
    if rng.random() < 0.5:
        gates.append(unitary_gate("W", [kregs[0], t_reg], random_unitary(rng, 4)))
    return QuantumCircuit(tuple(f"r{j}" for j in range(arity + 2)), tuple(gates))


def random_poset(rng, max_elems=8, p_edge=0.3):
    k = int(rng.integers(1, max_elems + 1))
    elems = [f"e{i}" for i in range(k)]
    pairs = [
        (elems[i], elems[j])
        for i in range(k)
        for j in range(i + 1, k)
        if rng.random() < p_edge
    ]
    return Poset.from_pairs(elems, pairs)


def random_coherent_order(rng, p):
    """Random linear extension: repeatedly remove a random minimal element."""
    remaining = list(p.elements)
    out = []
    while remaining:
        minimal = [
            a for a in remaining if not any(p.lt(b, a) for b in remaining if b != a)
        ]
        pick = minimal[int(rng.integers(len(minimal)))]
        out.append(pick)
        remaining.remove(pick)
    return tuple(out)


def feed_forward_circuit(k):
    """k rounds of H on r0, a standard measurement of r0 and an X on r1
    classically controlled by that measurement."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    gates = []
    for i in range(k):
        gates += [
            unitary_gate(f"h{i}", [0], H),
            measure_gate(f"m{i}", [0], {"0": p0, "1": p1}),
            Gate(
                f"x{i}",
                (1,),
                unitaries={"I": UnitaryOp("I", np.eye(2, dtype=complex)), "X": UnitaryOp("X", x)},
                classical_sources=(f"m{i}",),
                selector={("0",): "I", ("1",): "X"},
            ),
        ]
    return QuantumCircuit(("r0", "r1"), tuple(gates))


def ghz_circuit(n):
    """H on q0, a CNOT chain, then a standard measurement of every qubit."""
    gates = [unitary_gate("h", [0], H)]
    gates += [unitary_gate(f"cx{i}", [i - 1, i], CNOT) for i in range(1, n)]
    gates += [standard_measure_gate(f"m{i}", i) for i in range(n)]
    return QuantumCircuit(tuple(f"q{i}" for i in range(n)), tuple(gates))


def parity_circuit(k):
    """H on registers 0..k-1, a standard measurement of each, then X on
    register k classically controlled by the parity of the k outcomes."""
    gates = [unitary_gate(f"h{i}", [i], H) for i in range(k)]
    gates += [standard_measure_gate(f"m{i}", i) for i in range(k)]
    keys = itertools.product("01", repeat=k)
    selector = {key: "X" if key.count("1") % 2 else "I" for key in keys}
    gates.append(controlled_unitary_gate("x", [k], [f"m{i}" for i in range(k)], {"I": np.eye(2), "X": X}, selector))
    return QuantumCircuit(tuple(f"r{i}" for i in range(k + 1)), tuple(gates))


def parityh_circuit(k):
    """`parity_circuit(k)` with an H on each measured register after its
    measurement: no measurement ends its registers, so none settles, and
    the checker holds the source's tracks as full blocks."""
    c = parity_circuit(k)
    return QuantumCircuit(c.register_names, c.gates + tuple(unitary_gate(f"g{i}", [i], H) for i in range(k)))


def mcx_circuit(k):
    """k rounds, round i an H on register i, a standard measurement `m<i>` of
    it, then a CNOT from it to register k: every CNOT follows a measurement
    of its control, with which it commutes."""
    gates = []
    for i in range(k):
        gates += [unitary_gate(f"h{i}", [i], H), standard_measure_gate(f"m{i}", i), unitary_gate(f"cx{i}", [i, k], CNOT)]
    return QuantumCircuit(tuple(f"r{i}" for i in range(k + 1)), tuple(gates))


def aggregate_document(c, rho):
    """The document `qcirc aggregate --input` prints: each track's outcomes,
    cumulative operator (as its array) and probability on rho, in track order."""
    ops = aggregate_measurement(c).operators
    return {
        "tracks": [
            {"outcomes": f.as_dict(), "operator": a, "probability_on": probability_on(a, rho)}
            for f, a in ops.items()
        ]
    }


# (0.6|0> + 0.8|1>) (x) (sqrt(0.3)|0> + i sqrt(0.7)|1>), the input of the scale tests
SCALE_KET = np.kron([0.6, 0.8], [0.3**0.5, 1j * 0.7**0.5])


def h_then_measure_circuit(measured):
    """H on register 0 of two, then a standard measurement `m<r>` of each
    register r in `measured`."""
    gates = (unitary_gate("h", [0], H), *(standard_measure_gate(f"m{r}", r) for r in measured))
    return QuantumCircuit(("q0", "q1"), gates)


def zam_circuit():
    """Measurements z, a and m on three registers, each after an H; z's
    outcome controls an X before a's H. The topological order meets z, a, m,
    the greedy walk z, m, a, and gate-id order is a, m, z."""
    gates = (
        unitary_gate("h0", [0], H),
        standard_measure_gate("z", 0),
        controlled_unitary_gate("x", [1], ["z"], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"}),
        unitary_gate("h1", [1], H),
        standard_measure_gate("a", 1),
        unitary_gate("h2", [2], H),
        standard_measure_gate("m", 2),
    )
    return QuantumCircuit(("r0", "r1", "r2"), gates)


def chain_circuit(n_gates, n=6):
    """A chain of H and CNOT gates over n registers, gate j on register j mod n
    (and the next one for a CNOT)."""
    gates = [
        unitary_gate(f"g{j}", [j % n, (j + 1) % n], CNOT) if j % 2 else unitary_gate(f"g{j}", [j % n], H)
        for j in range(n_gates)
    ]
    return QuantumCircuit(tuple(f"r{j}" for j in range(n)), tuple(gates))
