"""The batched validator against a per-operator reference.

`reference_validate_circuit` is `validate_circuit` as it was when every
operator was checked by its own numpy calls: an `isfinite` scan, `a^dag a`
and `sum` of the products. The batched validator must give the same
diagnostics, messages included, and the same completeness defects bit for bit.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_teleportation
from corpus import random_kraus_family, random_unitary
from qcirc import linalg
from qcirc.circuit import (
    TOL,
    Diagnostic,
    Gate,
    Measurement,
    QuantumCircuit,
    UnitaryOp,
    _verdicts,
    controlled_unitary_gate,
    measure_gate,
    unitary_gate,
    validate_circuit,
)
from qcirc.deferral import defer_measurements
from qcirc.linalg import X
from qcirc.serialize import parse_circuit, serialize_circuit


def reference_is_unitary(a, tol):
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= tol)


def reference_defect(ops):
    with np.errstate(over="ignore", invalid="ignore"):
        acc = sum(a.conj().T @ a for a in ops)
        return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def reference_validate_circuit(c: QuantumCircuit) -> list:
    diags = []

    def err(code, where, message):
        diags.append(Diagnostic("error", code, where, message))

    seen_ids = set()
    for g in c.gates:
        if g.id in seen_ids:
            err("duplicate-gate-id", g.id, f"gate id {g.id!r} appears more than once")
        seen_ids.add(g.id)

    for g in c.gates:
        if not g.registers:
            err("empty-registers", g.id, "gate touches no register")
        if len(set(g.registers)) != len(g.registers):
            err("duplicate-register", g.id, f"registers {g.registers} repeat")
        for r in g.registers:
            if r < 0 or r >= c.n_registers:
                err("register-out-of-range", g.id, f"register {r} out of range")
        if bool(g.unitaries) == bool(g.measurements):
            err("bad-gate-kind", g.id, "gate must carry unitaries xor measurements")
            continue

        dim = 2**g.arity
        labels_seen = set()
        for m in g.measurements.values():
            if not m.operators:
                err("empty-measurement", g.id, f"measurement {m.id!r} has no outcome")
                continue
            bad_ops = False
            for label, a in m.operators.items():
                if label == "" or "," in label:
                    err("bad-label", g.id, f"outcome label {label!r} is reserved")
                if label in labels_seen:
                    err("outcome-labels-overlap", g.id, f"outcome label {label!r} appears in two measurements")
                labels_seen.add(label)
                if a.shape != (dim, dim):
                    err(
                        "operator-dim-mismatch",
                        g.id,
                        f"operator for outcome {label!r} has shape {a.shape}, expected {dim}x{dim}",
                    )
                    bad_ops = True
                elif not np.all(np.isfinite(a)):
                    err("non-finite-entry", g.id, f"operator for outcome {label!r} is not finite")
                    bad_ops = True
            if bad_ops:
                continue
            defect = reference_defect(m.operators.values())
            if not defect <= TOL:
                err("measurement-incomplete", g.id, f"sum A^dag A differs from identity by {defect:.2e}")
        for u in g.unitaries.values():
            if u.matrix.shape != (dim, dim):
                err("operator-dim-mismatch", g.id, f"unitary {u.id!r} has shape {u.matrix.shape}, expected {dim}x{dim}")
            elif not np.all(np.isfinite(u.matrix)):
                err("non-finite-entry", g.id, f"unitary {u.id!r} is not finite")
            elif not reference_is_unitary(u.matrix, TOL):
                err("non-unitary-op", g.id, f"operator {u.id!r} is not unitary")

        source_outcome_sets = []
        sources_ok = True
        for s in g.classical_sources:
            if not c.has_gate(s):
                err("unknown-classical-source", g.id, f"classical source {s!r} not found")
                sources_ok = False
                continue
            src = c.gate(s)
            if not src.is_measure:
                err("classical-source-not-measure", g.id, f"classical source {s!r} is not a measurement gate")
                sources_ok = False
                continue
            source_outcome_sets.append(src.outcome_labels)
        if not g.classical_sources:
            choices = dict(g.unitaries) or dict(g.measurements)
            if len(choices) != 1:
                err(
                    "non-cc-multiple-ops",
                    g.id,
                    f"gate without classical sources must carry exactly one op, has {len(choices)}",
                )
            if set(g.selector) != {()}:
                err("selector-not-total", g.id, "non-CC gate needs the empty-tuple selector")
        elif sources_ok:
            label_sets = [set(labels) for labels in source_outcome_sets]
            extra = [
                k for k in g.selector
                if len(k) != len(label_sets) or not all(lab in labs for lab, labs in zip(k, label_sets))
            ]
            if extra or len(g.selector) != math.prod(map(len, label_sets)):
                combos = itertools.product(*map(sorted, label_sets))
                missing = list(itertools.islice((k for k in combos if k not in g.selector), 3))
                extra = sorted(extra)[:3]
                err("selector-not-total", g.id, f"selector domain mismatch (missing {missing}, extra {extra})")
        valid_targets = set(g.unitaries) | set(g.measurements)
        for key, target in g.selector.items():
            if target not in valid_targets:
                err("selector-unknown-target", g.id, f"selector {key} -> unknown id {target!r}")

    if not diags and c._order is None:
        err("cycle", "<circuit>", "combined source relation is cyclic")
    return diags


# --- circuits that probe every verdict --------------------------------------

SPECIALS = [np.nan, np.inf, -np.inf, 1e200, -1e200, complex(0, 1e200), complex(np.nan, 1.0)]


@st.composite
def operator(draw, base):
    """`base` scaled by 1 + delta, where a unitary's defect 2 delta straddles
    the tolerance; sometimes with a non-finite or overflowing entry, or the
    shape of another arity."""
    a = base * (1 + draw(st.floats(0.0, 1e-9)))
    choice = draw(st.sampled_from(["plain"] * 5 + ["special", "shape"]))
    if choice == "special":
        row, col = draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, a.shape[1] - 1))
        a[row, col] = draw(st.sampled_from(SPECIALS))
    elif choice == "shape":
        rows, cols = draw(st.sampled_from([1, 2, 4, 8, 16])), draw(st.sampled_from([1, 2, 4]))
        a = np.eye(rows, dtype=complex)[:, :cols]
    return a


@st.composite
def probing_circuits(draw):
    """Gates of 1-3 registers of 4 (dimensions 2, 4 and 8 in one circuit),
    unitaries and Kraus measurements of 1-11 outcomes scaled near the
    tolerance, with non-finite, huge and misshaped operators, an array object
    shared by two gates, a gate of both kinds and a controlled gate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates, arrays = [], []
    for i in range(draw(st.integers(1, 7))):
        arity = draw(st.integers(1, 3))
        dim, regs = 2**arity, tuple(int(r) for r in rng.choice(4, arity, replace=False))
        gid, kind = f"g{i}", draw(st.sampled_from(["unitary", "measure", "shared", "both"]))
        if kind == "shared" and arrays:
            a = draw(st.sampled_from(arrays))
            gates.append(Gate(gid, regs, {gid: UnitaryOp(gid, a)}, selector={(): gid}))
        elif kind == "measure":
            k = draw(st.integers(1, 11))
            scale = math.sqrt(1 + draw(st.floats(0.0, 2e-9)))
            ops = {f"k{j}": draw(operator(a * scale)) for j, a in enumerate(random_kraus_family(rng, dim, k))}
            arrays += ops.values()
            gates.append(measure_gate(gid, regs, ops))
        else:
            u = draw(operator(random_unitary(rng, dim)))
            arrays.append(u)
            gates.append(unitary_gate(gid, regs, u))
            if kind == "both":
                m = Measurement(gid + "m", {"0": np.eye(dim, dtype=complex)})
                gates[-1] = Gate(gid, regs, gates[-1].unitaries, {m.id: m}, selector={(): gid})
    if draw(st.booleans()) and any(g.is_measure for g in gates):
        src = next(g for g in gates if g.is_measure)
        ops = {"I": np.eye(2, dtype=complex), "X": X}
        selector = {(lab,): "I" if j % 2 else "X" for j, lab in enumerate(src.outcome_labels)}
        gates.append(controlled_unitary_gate("cc", [3], [src.id], ops, selector))
    return QuantumCircuit(("r0", "r1", "r2", "r3"), tuple(gates))


def same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@settings(max_examples=300, deadline=None)
@given(probing_circuits())
def test_batched_validator_equals_per_operator_reference(c):
    assert validate_circuit(c) == reference_validate_circuit(c)
    finite, defects = _verdicts(c)
    for g in c.gates:
        if bool(g.unitaries) == bool(g.measurements):
            continue
        shaped = (2**g.arity,) * 2
        for m in g.measurements.values():
            if all(a.shape == shaped for a in m.operators.values()):
                assert same_float(defects[id(m)], reference_defect(m.operators.values()))
                assert same_float(linalg.completeness_defect(m.operators.values()), defects[id(m)])
        for u in g.unitaries.values():
            if u.matrix.shape == shaped and finite[id(u.matrix)]:
                assert linalg.is_unitary(u.matrix, TOL) == reference_is_unitary(u.matrix, TOL)


def test_validation_is_cached_per_instance():
    c = make_teleportation()
    first = validate_circuit(c)
    first.append("scribble")
    assert validate_circuit(c) == []


def test_parsed_circuit_is_validated_once_by_defer(monkeypatch):
    """`defer` on a parsed circuit validates its source at parse and its output
    once: one `gram_defects` pass per operator dimension of each."""
    text = serialize_circuit(make_teleportation())
    dims = []
    kernel = linalg.gram_defects

    def counted(stack, counts):
        dims.append(stack.shape[1])
        return kernel(stack, counts)

    monkeypatch.setattr(linalg, "gram_defects", counted)
    result = defer_measurements(parse_circuit(text))

    def op_dims(c):
        return sorted({2**g.arity for g in c.gates})

    assert sorted(dims) == sorted(op_dims(make_teleportation()) + op_dims(result.circuit))
