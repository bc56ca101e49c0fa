import cmath
import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_teleportation
from corpus import (
    PM_FAMILY,
    SCALE_KET,
    feed_forward_circuit,
    kraus_correction_circuit,
    mcx_circuit,
    parity_circuit,
    random_circuit,
    random_deferrable_circuit,
    random_kraus_family,
    random_unitary,
)
from test_semantics import splitmix64_draw
from qcirc.circuit import (
    Measurement,
    QuantumCircuit,
    controlled_unitary_gate,
    measure_gate,
    standard_bases,
    standard_measure_gate,
    topo_order,
    unitary_gate,
    validate_circuit,
)
from qcirc.deferral import (
    Commensuration,
    ConstraintError,
    DeferralError,
    basis_inputs,
    check_faithful,
    constraint_violations,
    defer_measurements,
    random_pure_inputs,
    red_gates,
)
from qcirc import deferral, semantics
from qcirc.linalg import CNOT, H, X, Z
from qcirc.semantics import Track, aggregate_measurement, enumerate_tracks
from qcirc.serialize import dumps, serialize_circuit

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def measurement_of(ops):
    return Measurement("m", {k: np.asarray(v, dtype=complex) for k, v in ops.items()})


def unitaries_precede_measurements(c):
    kinds = [g.is_measure for g in c.gates]
    return all(not (a and not b) for a, b in zip(kinds, kinds[1:]))


def pm_to_cz_circuit():
    """|+>/|-> measurement on register 0 controlling Z on register 1."""
    return QuantumCircuit(
        ("r0", "r1"),
        (
            unitary_gate("H1", [1], H),
            measure_gate("M", [0], dict(PM_FAMILY)),
            controlled_unitary_gate(
                "G", [1], ["M"], {"I": np.eye(2), "Z": Z}, {("+",): "I", ("-",): "Z"}
            ),
        ),
    )


def shared_register_circuit():
    """The measured register is reused by the controlled gate (r-type source)."""
    return QuantumCircuit(
        ("r0", "r1"),
        (
            unitary_gate("H0", [0], H),
            standard_measure_gate("M", 0),
            controlled_unitary_gate(
                "G", [0, 1], ["M"],
                {"I": np.eye(4), "CX": np.kron(P0, np.eye(2)) + np.kron(P1, X)},
                {("0",): "I", ("1",): "CX"},
            ),
        ),
    )


# --- classification: Measurement.basis -------------------------------------


def test_classify_standard():
    assert measurement_of({"0": P0, "1": P1}).basis.tolist() == [0, 1]
    assert measurement_of({"0": P1, "1": P0}).basis.tolist() == [1, 0]


def test_classify_complete_not_standard():
    assert measurement_of(PM_FAMILY).basis is None


def test_classify_projective_not_complete():
    """A rank-1 and a rank-3 diagonal projector: label b selects three basis
    states, so the measurement is not standard."""
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = 1.0
    assert measurement_of({"a": p, "b": np.eye(4) - p}).basis is None


def test_classify_non_projective():
    fam = random_kraus_family(np.random.default_rng(0), 2, 2)
    assert measurement_of({"a": fam[0], "b": fam[1]}).basis is None


def reference_basis(m):
    """`Measurement.basis` by its definition: exact 0/1 operators of one
    square shape adding up to I, each label selecting exactly one basis
    state, given per label in `outcomes` order."""
    ops = [m.operators[label] for label in m.outcomes]
    dim = ops[0].shape[0] if ops else 0
    if not ops or any(a.shape != (dim, dim) for a in ops):
        return None
    stack = np.stack(ops)
    if not (((stack == 0) | (stack == 1)).all() and np.array_equal(stack.sum(axis=0), np.eye(dim))):
        return None
    selected = [np.flatnonzero(np.diagonal(a)).tolist() for a in ops]
    return [i for (i,) in selected] if all(len(s) == 1 for s in selected) else None


def signed_zeros(a, flip):
    """`a` with its zero parts negated where `flip` (two bools per entry) holds."""
    parts = a.astype(complex).view(float).reshape(*a.shape, 2)
    parts[(parts == 0) & flip] *= -1
    return parts.view(complex).reshape(a.shape)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_basis_matches_the_reference(data):
    """0/1 partitions of the basis states (labels named against basis
    order, zeros signed either way, rank-2 and empty labels among them),
    standard measurements, Kraus families, and standard measurements with
    one entry moved by a tiny delta."""
    arity = data.draw(st.integers(1, 2), label="arity")
    dim = 2**arity
    kind = data.draw(st.sampled_from(["partition", "standard", "kraus", "perturbed"]), label="kind")
    count = data.draw(st.integers(1, 4), label="labels") if kind in ("partition", "kraus") else dim
    names = data.draw(st.permutations([f"l{j}" for j in range(count)]), label="names")
    if kind == "kraus":
        fam = random_kraus_family(np.random.default_rng(data.draw(st.integers(0, 99))), dim, count)
        m = measurement_of(dict(zip(names, fam)))
        assert m.basis is None and reference_basis(m) is None
        return
    if kind == "partition":
        owner = data.draw(st.lists(st.integers(0, count - 1), min_size=dim, max_size=dim), label="owner")
    else:
        owner = data.draw(st.permutations(range(dim)), label="owner")
    ops = {name: np.diag([1.0 * (o == j) for o in owner]) for j, name in enumerate(names)}
    flips = data.draw(st.lists(st.booleans(), min_size=2 * dim * dim * count, max_size=2 * dim * dim * count))
    flips = np.array(flips).reshape(count, dim, dim, 2)
    ops = {name: signed_zeros(a, flip) for (name, a), flip in zip(ops.items(), flips)}
    moved = False
    if kind == "perturbed":
        name = data.draw(st.sampled_from(names), label="perturbed label")
        i, j = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
        before = ops[name][i, j]
        ops[name][i, j] += data.draw(st.sampled_from([1e-12, -1e-15, 1e-300, 1e-12j]), label="delta")
        moved = ops[name][i, j] != before  # 1 + 1e-300 rounds back to 1
    m = measurement_of(ops)
    if moved or sorted(owner) != list(range(count)) or count != dim:
        assert m.basis is None and reference_basis(m) is None
    else:
        assert m.basis.tolist() == reference_basis(m) == [owner.index(names.index(label)) for label in m.outcomes]


@st.composite
def near_standard(draw):
    """A family of diagonal 0/1 operators of dimension 1, 2 or 4, one state
    per label, the labels inserted in drawn order, or one of: -0.0 entries,
    a NaN entry, one operator too few or too many, a non-square operator, or
    two labels on one basis state."""
    dim = draw(st.sampled_from([1, 2, 4]), label="dim")
    kind = draw(st.sampled_from(["standard", "signed zeros", "nan", "fewer", "more", "non-square", "repeated"]))
    count = dim - 1 if kind == "fewer" else dim + 1 if kind == "more" else dim
    owner = draw(st.permutations(range(dim)), label="owner") + [draw(st.integers(0, dim - 1))] * (count > dim)
    if kind == "repeated" and dim > 1:
        owner[draw(st.integers(1, dim - 1))] = owner[0]
    ops = [np.diag(np.arange(dim) == owner[j]).astype(complex) for j in range(count)]
    if kind == "signed zeros":
        ops = [signed_zeros(a, np.array(draw(st.lists(st.booleans(), min_size=2 * dim * dim, max_size=2 * dim * dim)))
                            .reshape(dim, dim, 2)) for a in ops]
    elif kind == "nan" and ops:
        ops[draw(st.integers(0, count - 1))][draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = np.nan
    elif kind == "non-square" and ops:
        ops[draw(st.integers(0, count - 1))] = np.zeros((dim, dim + 1), dtype=complex)
    names = draw(st.permutations([f"l{j}" for j in range(count)]), label="insertion order")
    return Measurement(f"m{dim}{kind}", dict(zip(names, ops)))


@settings(max_examples=150, deadline=None)
@given(st.lists(near_standard(), max_size=6))
def test_batched_standardness_is_the_reference(ms):
    """`standard_bases` of many measurements of mixed dimensions in one call
    gives each one `reference_basis`, per label in sorted `outcomes` order,
    and `Measurement.basis` of each one alone agrees."""
    bases = standard_bases(ms)
    for m in ms:
        want = reference_basis(m)
        assert (None if bases[m] is None else bases[m].tolist()) == want
        assert (None if m.basis is None else m.basis.tolist()) == want


def test_basis_needs_square_operators_of_one_shape():
    assert measurement_of({"a": np.eye(2), "b": np.zeros((4, 4))}).basis is None
    assert measurement_of({"a": np.eye(2)[:1]}).basis is None
    assert measurement_of({}).basis is None


# --- deferral requirement and constraint ------------------------------------


def test_red_gates_teleport(teleport):
    assert red_gates(teleport) == {"XN", "ZM"}


def test_red_gates_empty_when_measurements_last():
    c = QuantumCircuit(
        ("r0",), (unitary_gate("u", [0], H), standard_measure_gate("m", 0))
    )
    assert red_gates(c) == set()


def test_constraint_violation_detection():
    src = standard_measure_gate("s", 0)
    cc_measure = QuantumCircuit(
        ("r0", "r1"),
        (
            src,
            controlled_unitary_gate("g", [1], ["s"], {"u": X}, {("0",): "u", ("1",): "u"}),
        ),
    )
    assert constraint_violations(cc_measure) == []
    m0 = Measurement("m0", {"a0": P0, "a1": P1})
    m1 = Measurement("m1", {"b0": P0, "b1": P1})
    from qcirc.circuit import Gate

    bad = QuantumCircuit(
        ("r0", "r1"),
        (
            src,
            Gate(
                "g",
                (1,),
                measurements={"m0": m0, "m1": m1},
                classical_sources=("s",),
                selector={("0",): "m0", ("1",): "m1"},
            ),
        ),
    )
    assert constraint_violations(bad) == ["g"]
    with pytest.raises(ConstraintError):
        defer_measurements(bad)


# --- commensuration ---------------------------------------------------------


def test_identity_commensuration_translates_tracks(teleport):
    zeta = Commensuration.identity(teleport)
    for f in enumerate_tracks(teleport):
        assert zeta.translate(f) == f
    assert zeta.gates == {"M": "M", "N": "N"}


def test_commensuration_json_roundtrip(teleport):
    result = defer_measurements(teleport)
    back = Commensuration.from_json(result.zeta.to_json())
    for f in enumerate_tracks(teleport):
        assert back.translate(f) == result.zeta.translate(f)
    assert back.absorbed == result.zeta.absorbed


# --- standardization and splitting ------------------------------------------


def test_standardize_pm_measurement():
    c = pm_to_cz_circuit()
    result = defer_measurements(c)
    assert validate_circuit(result.circuit) == []
    assert result.ancilla_registers == frozenset({2})
    g = result.circuit.gate("M")
    assert g.is_measure and g.registers == (2,)
    assert set(g.outcome_labels) == {"+", "-"}
    assert next(iter(g.measurements.values())).basis.tolist() in ([0, 1], [1, 0])


def test_near_standard_measurement_is_standardized_exactly():
    """A0 = diag(1, d) and A1 = diag(0, sqrt(1 - d^2)) at d = 1e-12 are not
    exact 0/1 projectors, so the measurement gets an ancilla and `M__u`
    rather than being replaced by the projectors it is near."""
    d = 1e-12
    ops = {"0": np.diag([1.0, d]), "1": np.diag([0.0, math.sqrt(1 - d * d)])}
    c = QuantumCircuit(
        ("r0", "r1"),
        (unitary_gate("h", [0], H), measure_gate("M", [0], ops), x_controlled_by("M", ["0", "1"])),
    )
    assert c.gate("M").measurements["M"].basis is None
    result = defer_measurements(c)
    assert result.ancilla_registers == frozenset({2})
    assert result.circuit.gate("M__u").registers == (0, 2)
    assert result.circuit.gate("M").registers == (2,)
    report = check_faithful(c, result.circuit, result.zeta)
    assert report.ok and report.method == "exact", report.failures


def test_negative_zero_standard_measurements_defer_to_the_same_bytes():
    """A standard measurement written with -0.0 parts is read as standard and
    defers to the bytes of the one written with +0.0."""
    negative = {label: signed_zeros(a, np.ones((2, 2, 2), dtype=bool)) for label, a in {"0": P0, "1": P1}.items()}
    files = []
    for ops in {"0": P0, "1": P1}, negative:
        c = feed_forward_circuit(2)
        c = QuantumCircuit(c.register_names, tuple(
            measure_gate(g.id, g.registers, ops) if g.is_measure else g for g in c.gates))
        result = defer_measurements(c)
        sidecar = {**result.zeta.to_json(), "ancillas": sorted(result.ancilla_registers)}
        files.append((serialize_circuit(c), serialize_circuit(result.circuit) + dumps(sidecar)))
    assert "-0.0" in files[1][0] and "-0.0" not in files[0][0]
    assert files[1][1] == files[0][1] and "-0.0" not in files[1][1]


def x_controlled_by(source, labels):
    """G: X on register 1 when `source` reads its first label."""
    return controlled_unitary_gate(
        "G", [1], [source], {"I": np.eye(2), "X": X}, {(lab,): "X" if lab == labels[0] else "I" for lab in labels}
    )


def test_standardize_three_outcomes_pads():
    fam = random_kraus_family(np.random.default_rng(1), 2, 3)
    labels = [f"o{j}" for j in range(3)]
    c = QuantumCircuit(
        ("r0", "r1"), (measure_gate("T", [0], dict(zip(labels, fam))), x_controlled_by("T", labels))
    )
    result = defer_measurements(c)
    assert validate_circuit(result.circuit) == []
    g = result.circuit.gate("T")
    assert g.is_measure and len(g.registers) == 2
    assert set(g.registers) <= result.ancilla_registers
    pads = set(g.outcome_labels) - set(labels)
    assert len(pads) == 1 and set(g.outcome_labels) == {*labels, *pads}


def test_standardize_single_outcome_absorbs():
    u = random_kraus_family(np.random.default_rng(2), 2, 1)[0]
    c = QuantumCircuit(("r0", "r1"), (measure_gate("M", [0], {"only": u}), x_controlled_by("M", ["only"])))
    result = defer_measurements(c)
    assert validate_circuit(result.circuit) == []
    assert not result.circuit.gate("M").is_measure
    assert result.zeta.absorbed == {"M"}
    assert check_faithful(c, result.circuit, result.zeta).ok


def test_multi_register_standard_stays_one_gate():
    ops = {}
    for b in range(4):
        p = np.zeros((4, 4), dtype=complex)
        p[b, b] = 1.0
        ops[f"b{b:02b}"] = p
    c = QuantumCircuit(
        ("r0", "r1", "r2"),
        (
            unitary_gate("H0", [0], H),
            measure_gate("MM", [0, 1], ops),
            controlled_unitary_gate(
                "G", [2], ["MM"], {"I": np.eye(2), "X": X},
                {("b00",): "I", ("b01",): "X", ("b10",): "X", ("b11",): "I"},
            ),
        ),
    )
    result = defer_measurements(c)
    (mm,) = [g for g in result.circuit.gates if g.is_measure]
    assert mm.id == "MM" and mm.registers == (0, 1)
    assert mm.outcome_labels == ("b00", "b01", "b10", "b11")
    assert result.zeta.gates == {"MM": "MM"}
    assert check_faithful(c, result.circuit, result.zeta).ok


# --- the full pass ----------------------------------------------------------


def test_defer_teleport_shape(teleport):
    result = defer_measurements(teleport)
    d = result.circuit
    assert red_gates(d) == set()
    assert result.ancilla_registers == frozenset()
    assert d.n_registers == 3
    assert unitaries_precede_measurements(d)
    assert sorted(g.id for g in d.gates if g.is_measure) == ["M", "N"]


def test_defer_teleport_faithful(teleport):
    result = defer_measurements(teleport)
    report = check_faithful(
        teleport,
        result.circuit,
        result.zeta,
        basis_inputs(3) + random_pure_inputs(3, 5, seed=1),
    )
    assert report.ok, report.failures


def box_muller_inputs(n, count, seed):
    """`random_pure_inputs` in `math`/`cmath` on the pure-Python SplitMix64
    reference: draw t < count * 2**n is the radius of amplitude t (row-major
    over kets), draw count * 2**n + t its phase."""
    dim = 2**n
    u = [splitmix64_draw(seed, t) for t in range(2 * count * dim)]
    kets = []
    for k in range(count):
        amps = [
            math.sqrt(-2 * math.log1p(-u[k * dim + j])) * cmath.exp(2j * math.pi * u[(count + k) * dim + j])
            for j in range(dim)
        ]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        kets.append([a / norm for a in amps])
    return kets


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.integers(0, 2**64 - 1))
def test_random_pure_inputs_match_box_muller_reference(n, count, seed):
    """The inputs are the reference's Box-Muller kets, to rounding, and unit vectors."""
    got = random_pure_inputs(n, count, seed)
    assert len(got) == count
    assert all(v.shape == (2**n,) and v.dtype == complex for v in got)
    assert np.allclose(got, box_muller_inputs(n, count, seed), rtol=0, atol=1e-13)
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-14)


def test_random_pure_inputs_spread_evenly_over_the_basis():
    """Over 20000 two-qubit inputs each mean |psi_j|^2 is within 0.01 of 1/4,
    its Haar value (about 7 standard errors of 0.0014)."""
    psi = np.array(random_pure_inputs(2, 20000, seed=0))
    assert np.all(np.abs(np.mean(np.abs(psi) ** 2, axis=0) - 0.25) < 0.01)
    assert np.allclose(np.linalg.norm(psi, axis=1), 1.0, rtol=0, atol=1e-14)


def test_defer_is_identity_without_red_gates():
    c = QuantumCircuit(
        ("r0",), (unitary_gate("u", [0], H), standard_measure_gate("m", 0))
    )
    result = defer_measurements(c)
    assert result.circuit is c
    assert result.ancilla_registers == frozenset()


def test_defer_pm_control():
    c = pm_to_cz_circuit()
    result = defer_measurements(c)
    assert red_gates(result.circuit) == set()
    assert len(result.ancilla_registers) == 1
    report = check_faithful(
        c, result.circuit, result.zeta, basis_inputs(2) + random_pure_inputs(2, 5, 2)
    )
    assert report.ok, report.failures


def test_defer_shared_register_control():
    c = shared_register_circuit()
    result = defer_measurements(c)
    assert red_gates(result.circuit) == set()
    assert len(result.ancilla_registers) == 1
    report = check_faithful(
        c, result.circuit, result.zeta, basis_inputs(2) + random_pure_inputs(2, 5, 3)
    )
    assert report.ok, report.failures


def test_defer_merges_duplicate_measurements():
    c = QuantumCircuit(
        ("r0", "r1"),
        (
            unitary_gate("H0", [0], H),
            standard_measure_gate("M1", 0),
            standard_measure_gate("M2", 0),
            controlled_unitary_gate(
                "G", [1], ["M2"], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"}
            ),
        ),
    )
    result = defer_measurements(c)
    d = result.circuit
    assert red_gates(d) == set()
    measure_ids = sorted(g.id for g in d.gates if g.is_measure)
    assert measure_ids == ["M1"]
    assert result.zeta.gates["M2"] == "M1"
    report = check_faithful(c, d, result.zeta, basis_inputs(2))
    assert report.ok, report.failures
    # re-measuring a measured register never disagrees with the first result
    disagree = Track.from_mapping({"M1": "0", "M2": "1"})
    assert result.zeta.translate(disagree) is None


def test_checker_flags_broken_target(teleport):
    result = defer_measurements(teleport)
    # sabotage: replace a deferred unitary with a different one
    gates = tuple(
        unitary_gate(g.id, g.registers, np.eye(4, dtype=complex))
        if g.id == "CNOT"
        else g
        for g in result.circuit.gates
    )
    broken = QuantumCircuit(result.circuit.register_names, gates)
    report = check_faithful(teleport, broken, result.zeta, basis_inputs(3))
    assert not report.ok
    assert any(
        f["kind"] in ("state-mismatch", "untranslatable-track-probability")
        for f in report.failures
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_defer_random_deferrable_circuits(seed):
    c = random_deferrable_circuit(np.random.default_rng(seed))
    result = defer_measurements(c)
    d = result.circuit
    assert validate_circuit(d) == []
    assert red_gates(d) == set()
    assert d.register_names[: c.n_registers] == c.register_names
    report = check_faithful(
        c, d, result.zeta, basis_inputs(c.n_registers) + random_pure_inputs(c.n_registers, 3, seed)
    )
    assert report.ok, (seed, report.failures)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-13, 5e-10))
def test_defer_kraus_measurement_complete_within_tolerance(seed, eps):
    """A valid three-outcome Kraus measurement with sum A^dag A = (1 + eps) I
    dilates to a unitary that is valid as well, and the result is faithful."""
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0] * np.sqrt(1 + eps)
    c = QuantumCircuit(
        ("r0", "r1"),
        (
            unitary_gate("U", [0], H),
            measure_gate("M", [0], {f"k{i}": v[2 * i : 2 * i + 2] for i in range(3)}),
            controlled_unitary_gate(
                "G", [1], ["M"], {"I": np.eye(2), "X": X}, {("k0",): "I", ("k1",): "X", ("k2",): "X"}
            ),
        ),
    )
    assert validate_circuit(c) == []
    result = defer_measurements(c)
    assert check_faithful(c, result.circuit, result.zeta).ok


def test_out_of_image_tracks_have_zero_probability():
    c = shared_register_circuit()
    result = defer_measurements(c)
    zeta, d = result.zeta, result.circuit
    image = {
        zeta.translate(f)
        for f in enumerate_tracks(c)
        if zeta.translate(f) is not None
    }
    agg_d = aggregate_measurement(d)
    n_anc = d.n_registers - c.n_registers
    for psi in random_pure_inputs(c.n_registers, 3, seed=4):
        phi = np.kron(psi, np.eye(2**n_anc, dtype=complex)[:, 0])
        for g, op in agg_d.operators.items():
            if g not in image:
                assert float(np.linalg.norm(op @ phi) ** 2) <= 1e-9


# --- pinned sizes and the exact check ---------------------------------------


def duplicate_measurement_circuit():
    """M2 re-measures register 0 right after M1 and controls X on register 1."""
    return QuantumCircuit(
        ("r0", "r1"),
        (
            unitary_gate("H0", [0], H),
            standard_measure_gate("M1", 0),
            standard_measure_gate("M2", 0),
            controlled_unitary_gate(
                "G", [1], ["M2"], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"}
            ),
        ),
    )


def deferrable2_skeleton():
    """The two-register compile-benchmark skeleton with fixed operators: g0
    measures r1, g1 on r0 is controlled by g0, g2 measures (r1, r0), g3 acts
    on (r1, r0) and g4 is a two-outcome Kraus measurement of r1."""
    std2 = {f"b{b:02b}": np.diag(np.eye(4)[b]).astype(complex) for b in range(4)}
    k0 = np.array([[1, 0], [0, np.sqrt(0.7)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(0.3)], [0, 0]], dtype=complex)
    return QuantumCircuit(
        ("r0", "r1"),
        (
            standard_measure_gate("g0", 1),
            controlled_unitary_gate("g1", [0], ["g0"], {"a": H, "b": X}, {("0",): "a", ("1",): "b"}),
            measure_gate("g2", [1, 0], std2),
            unitary_gate("g3", [1, 0], CNOT),
            measure_gate("g4", [1], {"k0": k0, "k1": k1}),
        ),
    )


PINNED = {
    **{f"ff{k}": (lambda k=k: feed_forward_circuit(k)) for k in range(1, 7)},
    "teleport": make_teleportation,
    "pm_to_cz": pm_to_cz_circuit,
    "shared_register": shared_register_circuit,
    "duplicate": duplicate_measurement_circuit,
    "deferrable2": deferrable2_skeleton,
    "mcx4": lambda: mcx_circuit(4),
}


@pytest.mark.parametrize(
    "name, size",
    [
        ("ff1", (2, 3)), ("ff2", (3, 7)), ("ff3", (4, 11)), ("ff4", (5, 15)),
        ("ff5", (6, 19)), ("ff6", (7, 23)), ("teleport", (3, 6)), ("pm_to_cz", (3, 4)),
        ("shared_register", (3, 4)), ("duplicate", (2, 3)), ("deferrable2", (4, 7)), ("mcx4", (5, 12)),
    ],
)
def test_deferred_size_is_pinned(name, size):
    """(registers, gates) of the deferred circuit, as the pass that split
    measurements into bits produced them, except where a gate commutes with
    a waiting measurement and takes no copy (mcx4, 9 and 16 with copies) and
    where a measurement ends its registers unread and stays as it is
    (deferrable2's g4, 5 and 8 with its ancilla and unitary); the exact
    check accepts each."""
    c = PINNED[name]()
    result = defer_measurements(c)
    d = result.circuit
    assert (d.n_registers, len(d.gates)) == size
    assert red_gates(d) == set()
    assert check_faithful(c, d, result.zeta).ok


def test_standardized_circuits_are_pinned():
    """sha256 of the deferred circuit file and sidecar, as `qcirc defer` writes
    them, over 60 seeded circuits whose one nonstandard Kraus measurement
    (1-5 outcomes, 1-2 registers) feeds a classically controlled correction,
    in some circuits through two slots of its `controls`."""
    digest = hashlib.sha256()
    for i in range(60):
        result = defer_measurements(kraus_correction_circuit(np.random.default_rng([9, i])))
        sidecar = {**result.zeta.to_json(), "ancillas": sorted(result.ancilla_registers)}
        digest.update((serialize_circuit(result.circuit) + dumps(sidecar) + "\n").encode())
    assert digest.hexdigest() == "81972ada0d38c71e30cc0d49a2593df28bec27920b5534e61ee111ea10bef098"


def test_deferred_circuits_are_pinned():
    """sha256 of the deferred circuit file and sidecar over 200 seeded
    deferrable circuits of up to 4 registers and 9 gates. Among them are CNOT
    copies (115 circuits), runs holding two-register measurements moved onto
    copies (72), controls on copied registers (113) and gates whose sources
    were all single-outcome measurements turned into unitaries (10 gates).
    In 37 a nonstandard measurement ends its registers unread and stays as
    it is, which took the 200 targets from 957 registers to 916."""
    digest = hashlib.sha256()
    for i in range(200):
        result = defer_measurements(random_deferrable_circuit(np.random.default_rng([17, i]), 4, 9))
        sidecar = {**result.zeta.to_json(), "ancillas": sorted(result.ancilla_registers)}
        digest.update((serialize_circuit(result.circuit) + dumps(sidecar) + "\n").encode())
    assert digest.hexdigest() == "8062195c58ecd6ec28cd39d01b89772f5b1ec02fded2e22e7b84f29c196769d1"


ORDER_CASES = {
    # G is listed before its source M: U before G
    "consumer-first": (
        (
            controlled_unitary_gate("G", [1], ["M"], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"}),
            unitary_gate("U", [2], H),
            standard_measure_gate("M", 0),
        ),
        ["U", "G", "M"],
    ),
    # X is listed before its source b, which re-measures a and is dropped: R before X
    "consumer-first-of-re-measurement": (
        (
            controlled_unitary_gate("X", [1], ["b"], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"}),
            standard_measure_gate("a", 0),
            unitary_gate("R", [2], H),
            standard_measure_gate("b", 0),
        ),
        ["R", "X", "a"],
    ),
    # X is listed before its single-outcome source g, which becomes a unitary
    "consumer-first-of-single-outcome": (
        (
            x_controlled_by("g", ["only"]),
            unitary_gate("R", [2], H),
            measure_gate("g", [0], {"only": H}),
        ),
        ["R", "g", "G"],
    ),
    # U is listed before its source K1, which the walk reaches before K2:
    # K1 gets the first ancilla. W reads K2, so that K2 takes one as well
    "consumer-first-of-nonstandard": (
        (
            controlled_unitary_gate("U", [1], ["K1"], {"I": np.eye(2), "X": X}, {("+",): "I", ("-",): "X"}),
            measure_gate("K2", [1], dict(PM_FAMILY)),
            measure_gate("K1", [0], dict(PM_FAMILY)),
            controlled_unitary_gate("W", [2], ["K2"], {"I": np.eye(2), "X": X}, {("+",): "I", ("-",): "X"}),
        ),
        ["K1__u", "U", "K2__u", "W", "K1", "K2"],
    ),
}


@pytest.mark.parametrize("gates, ids", ORDER_CASES.values(), ids=ORDER_CASES)
def test_defer_follows_topological_order(gates, ids):
    """A consumer is listed before its source. The walk defers the list as it
    defers the same gates in topological order."""
    listed = QuantumCircuit(("q0", "q1", "q2"), gates)
    ordered = QuantumCircuit(listed.register_names, tuple(listed.gate(gid) for gid in topo_order(listed)))
    result, expected = defer_measurements(listed), defer_measurements(ordered)
    assert serialize_circuit(result.circuit) == serialize_circuit(expected.circuit)
    assert result.zeta.to_json() == expected.zeta.to_json()
    assert [h.id for h in result.circuit.gates] == ids
    assert check_faithful(listed, result.circuit, result.zeta).ok


def test_chained_permuted_re_measurements_read_the_kept_one():
    """B re-measures A on the swapped registers and C re-measures B; both are
    dropped, and their consumers read A through label maps."""

    def std2(gid, regs):
        ops = {f"{gid.lower()}{b:02b}": np.diag(np.eye(4)[b]).astype(complex) for b in range(4)}
        return measure_gate(gid, regs, ops)

    k_sel = {(f"c{x:02b}", f"a{y:02b}"): "Z" if x == y == 3 else "I" for x in range(4) for y in range(4)}
    c = QuantumCircuit(
        ("q0", "q1", "q2"),
        (
            unitary_gate("H", [0], H),
            unitary_gate("CX", [0, 1], CNOT),
            std2("A", [0, 1]),
            std2("B", [1, 0]),
            std2("C", [0, 1]),
            controlled_unitary_gate(
                "G", [2], ["B"], {"I": np.eye(2), "X": X}, {(f"b{x:02b}",): "X" if x == 1 else "I" for x in range(4)}
            ),
            controlled_unitary_gate("K", [2], ["C", "A"], {"I": np.eye(2), "Z": Z}, k_sel),
        ),
    )
    result = defer_measurements(c)
    assert [g.id for g in result.circuit.gates if g.is_measure] == ["A"]
    assert result.zeta.gates == {"A": "A", "B": "A", "C": "A"}
    assert result.zeta.labels["B"] == {"b00": "a00", "b01": "a10", "b10": "a01", "b11": "a11"}
    assert check_faithful(c, result.circuit, result.zeta).ok


def test_run_of_measurements_moves_as_one_unit():
    """g0 and g2 end on the copy of r1 together, so no CNOT lands after g0.
    The CNOT g3 controlled by r1 commutes with them there and copies only
    r0, g2's other register; g4, which stays as it is, then copies r1."""
    result = defer_measurements(deferrable2_skeleton())
    d = result.circuit
    assert d.gate("g0").registers == (3,) and d.gate("g2").registers == (3, 2)
    assert d.gate("g2").outcome_labels == ("b00", "b01", "b10", "b11")
    assert result.zeta.gates == {g: g for g in ("g0", "g2", "g4")}
    assert len([g for g in d.gates if "__cp__" in g.id]) == 2


# --- measurements that end their registers unread --------------------------


FINAL_FAMILIES = {
    "pm": dict(PM_FAMILY),
    "kraus": dict(zip(["k0", "k1"], random_kraus_family(np.random.default_rng(3), 2, 2))),
    "single": {"only": H},
}


def with_final(k_gate, *more):
    """On q0..q2: H on q1, a standard measurement m of q1 and X on q2
    classically controlled by m, so that the walk runs; then `k_gate` and `more`."""
    gates = (unitary_gate("h", [1], H), standard_measure_gate("m", 1), x_on("x", 2, "m"), k_gate, *more)
    return QuantumCircuit(("q0", "q1", "q2"), gates)


@pytest.mark.parametrize("ops", FINAL_FAMILIES.values(), ids=FINAL_FAMILIES)
def test_a_final_measurement_that_nothing_reads_stays_as_it_is(ops):
    """A PM, 2-outcome Kraus or single-outcome measurement that ends q0 and
    that no gate reads keeps its gate, takes no ancilla and no unitary, and
    maps to itself."""
    c = with_final(measure_gate("K", [0], ops))
    result = defer_measurements(c)
    d = result.circuit
    assert d.gate("K") is c.gate("K") and d.n_registers == 3 and result.ancilla_registers == frozenset()
    assert [g.id for g in d.gates] == ["h", "x", "K", "m"]
    assert result.zeta.gates == {"K": "K", "m": "m"} and not result.zeta.absorbed
    assert check_faithful(c, d, result.zeta).ok


@pytest.mark.parametrize(
    "after",
    [
        [controlled_unitary_gate("y", [2], ["K"], {"I": np.eye(2), "X": X}, {("+",): "I", ("-",): "X"})],
        [unitary_gate("u", [0], H)],
        [standard_measure_gate("again", 0)],
    ],
    ids=["read", "followed-by-a-unitary", "re-measured"],
)
def test_a_measurement_that_is_read_or_followed_is_still_dilated(after):
    """The same PM measurement of q0 with a classically controlled reader,
    a later unitary on q0 or a re-measurement of q0 becomes `K__u` and a
    standard measurement of its ancilla."""
    c = with_final(measure_gate("K", [0], dict(PM_FAMILY)), *after)
    result = defer_measurements(c)
    d = result.circuit
    assert d.gate("K__u").registers == (0, 3) and d.gate("K").registers == (3,)
    assert check_faithful(c, d, result.zeta).ok


def test_a_two_register_kraus_measurement_that_ends_both_registers_stays():
    """K on (q3, q0), after a CNOT that entangles them, ends both registers unread."""
    kraus = dict(zip(["k0", "k1"], random_kraus_family(np.random.default_rng(4), 4, 2)))
    c = QuantumCircuit(("q0", "q1", "q2", "q3"), (
        unitary_gate("h0", [0], H), unitary_gate("cx", [0, 3], CNOT), *with_final(measure_gate("K", [3, 0], kraus)).gates))
    result = defer_measurements(c)
    assert result.circuit.gate("K") is c.gate("K") and result.circuit.n_registers == 4
    assert check_faithful(c, result.circuit, result.zeta).ok


def test_only_the_read_measurement_takes_ancillas_and_they_come_before_copies():
    """K1 is read by G and K2 is not: K1 takes ancilla 4, then the copy of
    q3 for s comes at 5, and K2 stays on q1."""
    k1, k2 = (dict(zip(["k0", "k1"], random_kraus_family(np.random.default_rng(i), 2, 2))) for i in (5, 6))
    c = QuantumCircuit(
        ("q0", "q1", "q2", "q3"),
        (
            unitary_gate("h", [3], H),
            standard_measure_gate("s", 3),
            unitary_gate("u", [3], H),
            measure_gate("K1", [0], k1),
            controlled_unitary_gate("G", [2], ["K1"], {"I": np.eye(2), "X": X}, {("k0",): "I", ("k1",): "X"}),
            measure_gate("K2", [1], k2),
        ),
    )
    result = defer_measurements(c)
    d = result.circuit
    assert result.ancilla_registers == frozenset({4, 5})
    assert d.gate("K1__u").registers == (0, 4) and d.gate("K1").registers == (4,)
    assert d.gate("u__cp__s").registers == (3, 5) and d.gate("s").registers == (5,)
    assert d.gate("K2") is c.gate("K2") and "K2__u" not in [g.id for g in d.gates]
    assert check_faithful(c, d, result.zeta).ok


@pytest.mark.parametrize("diagonal", [False, True], ids=["kraus", "diagonal-kraus"])
def test_a_measurement_that_stays_copies_the_register_of_one_waiting_there(diagonal):
    """A measurement B of q1, waiting when the measurement A that stays
    reaches q1, moves onto a copy, since A sorts before it at the end;
    unless A's operators are diagonal, so that A and B commute there."""
    ops = {"a0": np.diag([1, 0.6]), "a1": np.diag([0, 0.8])} if diagonal else dict(PM_FAMILY)
    c = QuantumCircuit(
        ("q0", "q1", "q2"),
        (
            unitary_gate("h", [1], H),
            standard_measure_gate("B", 1),
            controlled_unitary_gate("x", [2], ["B"], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"}),
            measure_gate("A", [1], ops),
        ),
    )
    result = defer_measurements(c)
    d = result.circuit
    assert d.gate("A") is c.gate("A")
    assert d.gate("B").registers == ((1,) if diagonal else (3,))
    assert [g.id for g in d.gates] == (["h", "x", "A", "B"] if diagonal else ["h", "x", "A__cp__B", "A", "B"])
    assert check_faithful(c, d, result.zeta).ok


# --- unitaries that commute with a waiting measurement ----------------------


CZ = np.diag([1.0, 1, 1, -1]).astype(complex)


def measure_then(gate, n=3):
    """H on q0, a standard measurement m of q0, `gate`, then X on q2
    classically controlled by m."""
    return QuantumCircuit(
        tuple(f"q{i}" for i in range(n)),
        (unitary_gate("h", [0], H), standard_measure_gate("m", 0), gate, x_on("x", 2, "m")),
    )


def x_on(gid, register, source):
    return controlled_unitary_gate(gid, [register], [source], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"})


def copies(d):
    return [g.id for g in d.gates if "__cp__" in g.id]


@pytest.mark.parametrize("op", [CNOT, CZ], ids=["cnot", "cz"])
def test_a_gate_block_diagonal_on_a_measured_register_takes_no_copy(op):
    """CNOT(q0 -> q1) and CZ(q0, q1) commute with the measurement of q0: the
    target keeps the gate as it is and has the source's 3 registers."""
    c = measure_then(unitary_gate("u", [0, 1], op))
    result = defer_measurements(c)
    d = result.circuit
    assert d.n_registers == 3 and result.ancilla_registers == frozenset() and not copies(d)
    assert d.gate("u") is c.gate("u") and d.gate("m").registers == (0,)
    assert red_gates(d) == set()
    assert check_faithful(c, d, result.zeta).ok


def test_a_cnot_onto_the_measured_register_copies_it():
    c = measure_then(unitary_gate("u", [1, 0], CNOT))
    result = defer_measurements(c)
    assert copies(result.circuit) == ["u__cp__m"] and result.circuit.gate("m").registers == (3,)
    assert check_faithful(c, result.circuit, result.zeta).ok


def test_a_two_register_measurement_is_copied_only_where_a_gate_does_not_commute():
    """A CNOT from q0 to q1 after a standard measurement of (q0, q1) copies
    q1 only: the measurement ends on q0 and the copy."""
    std2 = {f"b{b:02b}": np.diag(np.eye(4)[b]).astype(complex) for b in range(4)}
    c = QuantumCircuit(
        ("q0", "q1"),
        (unitary_gate("h", [0], H), measure_gate("mm", [0, 1], std2), unitary_gate("u", [0, 1], CNOT)),
    )
    result = defer_measurements(c)
    d = result.circuit
    assert [g.id for g in d.gates] == ["h", "u__cp__mm", "u", "mm"]
    assert d.gate("u__cp__mm").registers == (1, 2) and d.gate("mm").registers == (0, 2)
    assert check_faithful(c, d, result.zeta).ok


def test_a_gate_read_by_the_measurement_it_commutes_with_still_copies():
    """Z on q0, classically controlled by the measurement m of q0 that waits
    there, is diagonal; it still copies q0, to be controlled by the copy."""
    z = controlled_unitary_gate("z", [0], ["m"], {"I": np.eye(2), "Z": Z}, {("0",): "I", ("1",): "Z"})
    c = measure_then(z)
    result = defer_measurements(c)
    d = result.circuit
    assert copies(d) == ["z__cp__m"] and d.gate("z").registers == (3, 0)
    assert check_faithful(c, d, result.zeta).ok


def test_an_off_block_entry_of_1e_17_still_copies():
    near = CZ.copy()
    near[0, 2] = 1e-17
    c = measure_then(unitary_gate("u", [0, 1], near))
    assert validate_circuit(c) == []
    result = defer_measurements(c)
    assert copies(result.circuit) == ["u__cp__m"] and result.circuit.n_registers == 4
    assert check_faithful(c, result.circuit, result.zeta).ok


def block_diagonal_variant(c, rng):
    """c with about three in four of its two-register unitary gates' ops each
    replaced by a random op exactly block-diagonal on one of the gate's two
    registers, the same for all of a gate's ops."""
    gates = []
    for g in c.gates:
        if not g.is_measure and g.arity == 2 and rng.random() < 0.75:
            j = int(rng.integers(2))
            blocks = {u: [random_unitary(rng, 2) for _ in range(2)] for u in g.unitaries}
            ops = {u: sum(np.kron(*([np.diag(e), b] if j == 0 else [b, np.diag(e)])) for e, b in zip(np.eye(2), bs))
                   for u, bs in blocks.items()}
            g = replace(g, unitaries={u: replace(op, matrix=ops[u]) for u, op in g.unitaries.items()})
        gates.append(g)
    return QuantumCircuit(c.register_names, tuple(gates))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_circuits_with_block_diagonal_gates_defer_faithfully(seed, deferrable):
    """Random circuits without classically controlled measurements, some of
    whose two-register gates are block-diagonal on one register: the target
    has no red gates and passes the exact check and a check on 3 random inputs."""
    rng = np.random.default_rng(seed)
    c = random_deferrable_circuit(rng, 4, 8) if deferrable else random_circuit(rng, 4, 8, allow_cc_measure=False)
    c = block_diagonal_variant(c, rng)
    assert validate_circuit(c) == []
    result = defer_measurements(c)
    d = result.circuit
    assert red_gates(d) == set()
    assert check_faithful(c, d, result.zeta).ok
    assert check_faithful(c, d, result.zeta, random_pure_inputs(c.n_registers, 3, seed)).ok


def dropped_z_pair():
    """H q0; M q0; Z on q1 controlled by M, against the target that drops the Z."""
    src = QuantumCircuit(
        ("q0", "q1"),
        (
            unitary_gate("h", [0], H),
            standard_measure_gate("m", 0),
            controlled_unitary_gate("z", [1], ["m"], {"I": np.eye(2), "Z": Z}, {("0",): "I", ("1",): "Z"}),
        ),
    )
    tgt = QuantumCircuit(("q0", "q1"), src.gates[:2])
    return src, tgt


def test_exact_check_rejects_dropped_z():
    src, tgt = dropped_z_pair()
    zeta = Commensuration.identity(tgt)
    # basis states cannot see the lost phase; the exact check can
    assert check_faithful(src, tgt, zeta, basis_inputs(2)).ok
    report = check_faithful(src, tgt, zeta)
    assert not report.ok and report.method == "exact"
    assert [f["kind"] for f in report.failures] == ["operator-mismatch"]


@settings(max_examples=40, deadline=None)
@given(st.integers(-1000, 1000))
@example(-1000)
@example(1000)
def test_check_faithful_reports_do_not_depend_on_input_scale(k):
    """The dropped-Z pair fails on the probe input; scaled by 2^k, every byte
    of the report is the same. Scaled by 2^-1060, the input's entries are
    subnormal, and it is still checked."""
    src, tgt = dropped_z_pair()
    zeta = Commensuration.identity(tgt)

    def report(psi):
        return dumps(check_faithful(src, tgt, zeta, [psi]).to_json())

    base = report(SCALE_KET)
    assert '"state-mismatch"' in base and report(SCALE_KET * 2.0**k) == base
    tiny = check_faithful(src, tgt, zeta, [SCALE_KET * 2.0**-1060])
    assert tiny.inputs_checked == 1 and [f["kind"] for f in tiny.failures] == ["state-mismatch"]


def test_failures_come_in_gate_id_order():
    """Deferred ff-12 with the target's x5 followed by a Z on its last
    register: failures come by input, then by (gate id, label) order of their
    tracks, though ff-12's topological order meets m2 before m10."""
    c = feed_forward_circuit(12)
    result = defer_measurements(c)
    gates = tuple(
        unitary_gate(g.id, g.registers, g.unitaries[g.id].matrix @ np.kron(np.eye(2 ** (g.arity - 1)), Z))
        if g.id == "x5" else g
        for g in result.circuit.gates
    )
    d = QuantumCircuit(result.circuit.register_names, gates)
    for inputs in (None, random_pure_inputs(2, 2, 7)):
        failures = check_faithful(c, d, result.zeta, inputs).failures
        keys = [(f.get("input", -1), sorted(f["track"].items())) for f in failures]
        assert len(keys) > 2 and keys == sorted(keys)


def test_exact_check_rejects_broken_teleport(teleport):
    result = defer_measurements(teleport)
    gates = tuple(
        unitary_gate(g.id, g.registers, np.eye(4, dtype=complex)) if g.id == "CNOT" else g
        for g in result.circuit.gates
    )
    broken = QuantumCircuit(result.circuit.register_names, gates)
    assert not check_faithful(teleport, broken, result.zeta).ok


def test_exact_check_flags_unmatched_target_track():
    src, _ = dropped_z_pair()
    zeta = Commensuration({"m": "m"}, {"m": {"0": "0", "1": "0"}})
    report = check_faithful(src, src, zeta)
    assert "unmatched-target-track" in {f["kind"] for f in report.failures}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_exact_check_accepts_random_deferrable_circuits(seed):
    c = random_deferrable_circuit(np.random.default_rng(seed))
    result = defer_measurements(c)
    report = check_faithful(c, result.circuit, result.zeta)
    assert report.ok, (seed, report.failures)


def test_sidecar_is_read_from_zeta_labels_and_absorbed_only():
    """A sidecar is read from `zeta`, `labels` and `absorbed` alone. An
    `ancillas` list, or the bit-level `detail` tables that `defer` wrote when
    it split a measurement over bits, changes nothing, even tables that map
    M2's labels a/b onto M1's 0/1: they read as no label map."""
    detail = {
        "assignments": {"M1": [["M1", 0]], "M2": [["M1", 0]]},
        "label_bits": {"M1": {"0": ["0"], "1": ["1"]}, "M2": {"a": ["0"], "b": ["1"]}},
        "d_labels": {"M1": [[["0"], "0"], [["1"], "1"]]},
    }
    zetas = [defer_measurements(random_deferrable_circuit(np.random.default_rng([17, s]))) for s in range(30)]
    assert any(r.zeta.labels for r in zetas) and any(r.zeta.absorbed for r in zetas)
    for r in zetas:
        old = r.zeta.to_json() | {"ancillas": sorted(r.ancilla_registers), "detail": detail}
        assert Commensuration.from_json(old) == r.zeta
    zeta = Commensuration.from_json({"zeta": {"M1": "M1", "M2": "M1"}, "absorbed": [], "detail": detail})
    assert zeta.gates == {"M1": "M1", "M2": "M1"} and zeta.labels == {}


def test_untranslatable_source_tracks_are_failures():
    """H on registers 0 and 1, then m1 of 0 and m2 of 1, against the same
    without m2, with m2 sent to m1: a source track whose labels differ gives
    m1 two labels, so its weight is a failure, and each track whose labels
    agree meets an image of twice its weight."""
    hh = (unitary_gate("h0", [0], H), unitary_gate("h1", [1], H), standard_measure_gate("m1", 0))
    src = QuantumCircuit(("q0", "q1"), (*hh, standard_measure_gate("m2", 1)))
    tgt = QuantumCircuit(("q0", "q1"), hh)
    zeta = Commensuration.from_json({"zeta": {"m1": "m1", "m2": "m1"}})
    for inputs, kind, weight, at in [(None, "operator-mismatch", "mass", {}),
                                     ([np.array([1, 0, 0, 0])], "state-mismatch", "probability", {"input": 0})]:
        report = check_faithful(src, tgt, zeta, inputs).to_json()
        assert report["ok"] is False and report["tracks_checked"] == 4
        p = 1.0 if inputs is None else 0.25
        mismatch = {"residual": p, f"source_{weight}": p, f"target_{weight}": 2 * p}
        expected = [
            {"kind": kind, **at, "track": {"m1": "0", "m2": "0"}, **mismatch},
            {"kind": "untranslatable-track-probability", **at, "track": {"m1": "0", "m2": "1"}, weight: p},
            {"kind": "untranslatable-track-probability", **at, "track": {"m1": "1", "m2": "0"}, weight: p},
            {"kind": kind, **at, "track": {"m1": "1", "m2": "1"}, **mismatch},
        ]
        for f, e in zip(report["failures"], expected, strict=True):
            floats = [k for k, v in e.items() if isinstance(v, float)]
            assert f == e | {k: f[k] for k in floats}
            assert [f[k] for k in floats] == pytest.approx([e[k] for k in floats], abs=1e-12)


@pytest.mark.parametrize("outcomes", [3, 1])
def test_source_repeated_in_controls_is_standardized_in_every_slot(outcomes):
    """Controls naming one nonstandard measurement twice: each slot gets the
    pad labels (three outcomes) or loses the source (one outcome)."""
    fam = random_kraus_family(np.random.default_rng(5), 2, outcomes)
    labels = [f"k{j}" for j in range(outcomes)]
    selector = {(a, b): "X" if a == b == labels[0] else "I" for a in labels for b in labels}
    c = QuantumCircuit(
        ("r0", "r1"),
        (
            measure_gate("K", [0], dict(zip(labels, fam))),
            controlled_unitary_gate("G", [1], ["K", "K"], {"I": np.eye(2), "X": X}, selector),
        ),
    )
    result = defer_measurements(c)
    assert check_faithful(c, result.circuit, result.zeta).ok
    assert check_faithful(c, result.circuit, result.zeta, random_pure_inputs(2, 3, seed=5)).ok


@pytest.mark.parametrize("psi", [np.zeros(8), np.full(8, np.nan), np.full(8, np.inf)])
def test_check_faithful_rejects_zero_or_non_finite_input(teleport, psi):
    result = defer_measurements(teleport)
    with pytest.raises(DeferralError, match="input 0 has zero or non-finite norm"):
        check_faithful(teleport, result.circuit, result.zeta, [psi])


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_check_faithful_accepts_inputs_at_extreme_scales(teleport, scale):
    """A finite, nonzero input whose norm underflows or overflows is scaled
    into range first; it gives the report of the same direction at scale 1,
    without warnings, and zero or NaN inputs still raise."""
    result = defer_measurements(teleport)

    def check(psi):
        return check_faithful(teleport, result.circuit, result.zeta, [psi]).to_json()

    assert check(np.full(8, scale)) == check(np.full(8, 1.0))
    for bad in (np.zeros(8), np.full(8, np.nan), np.where(np.arange(8) == 0, np.nan, scale)):
        with pytest.raises(DeferralError, match="input 0 has zero or non-finite norm"):
            check(bad)


def test_check_faithful_inputs_hold_no_dense_target():
    """With inputs, the target is walked from the inputs (2^nd x K per track):
    deferred ff-8 (9 target registers) with one input peaks below one dense
    target matrix, 16 * 4^9 bytes."""
    c = feed_forward_circuit(8)
    result = defer_measurements(c)
    nd = result.circuit.n_registers
    inputs = random_pure_inputs(2, 1, 0)
    tracemalloc.start()
    try:
        report = check_faithful(c, result.circuit, result.zeta, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.inputs_checked == 1
    assert nd == 9 and peak < 16 * 4**nd


@pytest.mark.parametrize("inputs", [None, 1], ids=["exact", "one-input"])
def test_check_faithful_holds_one_path_of_target_blocks(inputs):
    """Deferred ff-8 (9 target registers, 256 tracks) is in terminal form.
    The exact check's walk settles its 8 measurements, so each target track
    keeps its 4 rows of 2^9; one input settles nothing, and the walk holds a
    frontier path and a stack of leaves at a time. No 2^9 x 4 block is
    built per track (2 MiB in all), and both methods peak below 2 MiB."""
    c = feed_forward_circuit(8)
    result = defer_measurements(c)
    psi = None if inputs is None else random_pure_inputs(2, inputs, 0)
    tracemalloc.start()
    try:
        report = check_faithful(c, result.circuit, result.zeta, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.tracks_checked == 256
    assert peak < 2 * 2**20


def test_check_faithful_bounds_its_pair_comparisons():
    """Deferred parity-6 is the source's 7 registers in terminal form, with
    no ancillas and 64 tracks, so each full source block is 128 x 128
    entries, 256 KiB, and a stack of them 16 MiB. The exact check compares
    the pairs at most `semantics.FRONTIER_BYTES` at a time, so it peaks
    under three times that stack, where gathering every pair at once took
    81 MiB."""
    c = parity_circuit(6)
    result = defer_measurements(c)
    tracemalloc.start()
    try:
        report = check_faithful(c, result.circuit, result.zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.tracks_checked == 64 and result.circuit.n_registers == 7
    assert peak < 48 * 2**20


def test_target_pieces_paired_with_no_source_track_change_no_report(monkeypatch):
    """Two 3-outcome measurements of both registers, the second after an H:
    the deferral's ancillas give target tracks that no source track maps
    to, and under a budget of one pair per chunk some `track_rows` pieces
    hold only those. The exact check and the checks on 4 and on 1 random
    inputs report the same bytes as under the default budget."""
    three = {"a": np.diag([1, 0, 0, 0]), "b": np.diag([0, 1, 0, 0]), "c": np.diag([0, 0, 1, 1])}
    c = QuantumCircuit(("q0", "q1"), (measure_gate("m1", [0, 1], three), unitary_gate("h", [0], H),
                                      measure_gate("m2", [0, 1], three)))
    r = defer_measurements(c)

    def texts():
        return [dumps(check_faithful(c, r.circuit, r.zeta, psi).to_json())
                for psi in (None, random_pure_inputs(2, 4, 0), random_pure_inputs(2, 1, 0))]

    whole = texts()
    monkeypatch.setattr(semantics, "FRONTIER_BYTES", 1)
    assert texts() == whole
    assert all('"ok": true' in t and '"tracks_checked": 9' in t for t in whole)


def traced_exact_check(c):
    """The exact check of c against its deferral, and its tracemalloc peak."""
    result = defer_measurements(c)
    tracemalloc.start()
    try:
        return check_faithful(c, result.circuit, result.zeta), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parity_7_exact_check_holds_its_source_compactly():
    """Parity-7 has 8 registers and 128 tracks, each of which settles the 7
    measured registers, so its compact block is 2 x 256 entries, the
    compact stack 128 x 2 x 256 x 16 B = 1 MiB, and one pair's full blocks
    2 MiB. The exact check peaks under 64 MiB, where a stack of full source
    blocks took 147 MiB."""
    report, peak = traced_exact_check(parity_circuit(7))
    assert report.ok and report.tracks_checked == 128
    assert peak < 64 * 2**20


def test_ff16_exact_check_peaks_under_90_mib():
    """ff-16 has 65536 tracks, whose code rows (8.5 MiB each for the source,
    its images and the target) dominate: the check frees the images and
    their sort keys once the tracks are paired, before it walks the target,
    and holds its source compactly; with both held it peaked at 94.6 MiB."""
    report, peak = traced_exact_check(feed_forward_circuit(16))
    assert report.ok and report.tracks_checked == 2**16
    assert peak <= 90 * 2**20


def test_input_check_of_parity_5_on_basis_inputs_is_small():
    """Deferred parity-5 is 6 registers with no ancillas and 32 tracks.
    On its 64 basis inputs the input check takes each (track, input)
    comparison through the exact check's kernel, one inner product per cell
    and column; building reduced states from outer products per input
    peaked at 22.5 MiB."""
    c = parity_circuit(5)
    result = defer_measurements(c)
    tracemalloc.start()
    try:
        report = check_faithful(c, result.circuit, result.zeta, basis_inputs(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.inputs_checked == 64 and report.tracks_checked == 32
    assert peak < 8 * 2**20


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("inputs", [None, 3], ids=["exact", "inputs"])
def test_check_faithful_rejects_a_tolerance_not_finite_and_at_least_0(tol, inputs):
    """The unfaithful dropped-Z pair would pass under a NaN or infinite tol."""
    src, tgt = dropped_z_pair()
    psi = None if inputs is None else random_pure_inputs(2, inputs, 0)
    with pytest.raises(DeferralError, match="tolerance must be finite and at least 0"):
        check_faithful(src, tgt, Commensuration.identity(tgt), psi, tol=tol)


def test_check_faithful_rejects_empty_inputs(teleport):
    result = defer_measurements(teleport)
    with pytest.raises(DeferralError, match="no inputs to check"):
        check_faithful(teleport, result.circuit, result.zeta, [])


def test_check_faithful_rejects_an_input_of_the_wrong_dimension(teleport):
    result = defer_measurements(teleport)
    inputs = [basis_inputs(3)[0], np.ones(4) / 2]
    with pytest.raises(DeferralError, match="input 1 has wrong dimension 4"):
        check_faithful(teleport, result.circuit, result.zeta, inputs)


def h_then_measure():
    return QuantumCircuit(("q0",), (unitary_gate("h", [0], H), standard_measure_gate("m", 0)))


@pytest.mark.parametrize("inputs", [None, [np.array([1.0, 0.0])]], ids=["exact", "one-input"])
def test_translated_track_missing_from_target_raises(inputs):
    """A sidecar that sends M's label 0 to x, which the target never
    records, names the first such source track."""
    c = h_then_measure()
    zeta = Commensuration({"m": "m"}, {"m": {"0": "x"}})
    with pytest.raises(DeferralError, match=r"translated track .*'x'.* is not a track of the target"):
        check_faithful(c, c, zeta, inputs)


def refuse_to_walk(monkeypatch, d):
    """Make taking the first piece of d's walk (`track_rows`' pieces, a
    generator, runs when its first piece is taken) fail the test."""
    track_rows = semantics.track_rows

    def guarded(c, *args):
        codes, place, pieces = track_rows(c, *args)
        return codes, place, (pytest.fail("a piece of the target was taken") for _ in [0]) if c is d else pieces

    monkeypatch.setattr(deferral, "track_rows", guarded)


@pytest.mark.parametrize("inputs", [None, [np.array([1.0, 0.0])]], ids=["exact", "one-input"])
def test_target_measurement_that_no_source_gate_maps_to_raises(inputs, monkeypatch):
    """A target that adds a measurement m2, which no source measurement maps
    to: no translated track labels m2, so none is a track of the target, and
    the first source track is named, once the target's tracks are counted
    and before any of its operators is applied."""
    c = h_then_measure()
    d = QuantumCircuit(("q0", "a"), c.gates + (standard_measure_gate("m2", 1),))
    refuse_to_walk(monkeypatch, d)
    with pytest.raises(DeferralError) as error:
        check_faithful(c, d, Commensuration.identity(c), inputs)
    assert str(error.value) == "translated track {'m': '0'} is not a track of the target"


@pytest.mark.parametrize("inputs", [None, [np.array([1.0, 0.0])]], ids=["exact", "one-input"])
def test_a_sidecar_label_the_target_lacks_fails_before_the_target_is_walked(inputs, monkeypatch):
    """A sidecar that sends m's labels to x and y, which the target's m
    lacks: the first source track is named before the target's first piece
    is taken."""
    c = h_then_measure()
    d = QuantumCircuit(c.register_names, c.gates)
    refuse_to_walk(monkeypatch, d)
    with pytest.raises(DeferralError) as error:
        check_faithful(c, d, Commensuration({"m": "m"}, {"m": {"0": "x", "1": "y"}}), inputs)
    assert str(error.value) == "translated track {'m': 'x'} is not a track of the target"


def perturbed_sidecar(c, d, zeta, kind, rng) -> Commensuration:
    """`zeta` unchanged, or with one perturbation: a source measurement
    relabelled onto random labels of its target gate; one more gate absorbed;
    two source measurements sent to one target gate with random labels of it,
    which can conflict; or two sent to one target gate with labels x and y,
    which it lacks and which conflict when they differ."""
    gates, labels, absorbed = dict(zeta.gates), {g: dict(t) for g, t in zeta.labels.items()}, set(zeta.absorbed)
    measures = [g for g in c.gates if g.is_measure and g.id not in absorbed]
    targets = [g for g in d.gates if g.is_measure]
    pick = lambda options: str(options[int(rng.integers(len(options)))])  # noqa: E731
    if kind == "relabel" and measures:
        g = measures[int(rng.integers(len(measures)))]
        labels[g.id] = {lab: pick(d.gate(gates[g.id]).outcome_labels) for lab in g.outcome_labels}
    elif kind == "absorb" and measures:
        absorbed.add(measures[int(rng.integers(len(measures)))].id)
    elif kind in ("conflict", "lacking") and len(measures) >= 2:
        t = targets[int(rng.integers(len(targets)))]
        for i in rng.choice(len(measures), 2, replace=False).tolist():
            gates[measures[i].id] = t.id
            choices = t.outcome_labels if kind == "conflict" else ("x", "y")
            labels[measures[i].id] = {lab: pick(choices) for lab in measures[i].outcome_labels}
    return Commensuration(gates, labels, frozenset(absorbed))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "relabel", "absorb", "conflict", "lacking"]))
def test_code_row_translation_agrees_with_translate(seed, kind):
    """`Commensuration._translate_codes`, the checker's translation of code
    rows, agrees with `translate` track by track on the sidecars of random
    deferrable circuits, as `defer` writes them and perturbed: both say
    untranslatable, or both give the same image. A row's codes name its
    image's labels, a code past a target gate's labels standing for a label
    it lacks; two rows are equal exactly when their images are; and a row is
    a row of the target exactly when its image is a track of the target."""
    rng = np.random.default_rng(seed)
    c = random_deferrable_circuit(rng)
    result = defer_measurements(c)
    d = result.circuit
    zeta = perturbed_sidecar(c, d, result.zeta, kind, rng)
    source, target = semantics._plan(c), semantics._plan(d)
    tracks = enumerate_tracks(c)
    rows, ok = zeta._translate_codes(source, target, np.concatenate([source.codes_of(f.as_dict()) for f in tracks]))
    images = [zeta.translate(f) for f in tracks]
    assert ok.tolist() == [g is not None for g in images]
    keep = np.flatnonzero(ok).tolist()
    for i in keep:
        named = {}
        for gid, col in target.column.items():
            code, labels = rows[i, col], target.labels[col].tolist()
            if code >= 0:
                named[gid] = labels[code] if code < len(labels) else None
        expected = images[i].as_dict()
        assert named.keys() == expected.keys() and rows[i, -1] == -1
        assert all(named[g] == label if named[g] is not None else label not in d.gate(g).outcome_labels
                   for g, label in expected.items())
    target_tracks = set(enumerate_tracks(d))
    keys, target_keys = semantics._row_keys(rows[keep], np.concatenate([target.codes_of(g.as_dict()) for g in target_tracks]))
    assert all((keys[a] == keys[b]) == (images[i] == images[j])
               for a, i in enumerate(keep) for b, j in enumerate(keep))
    target_keys = set(target_keys.tolist())
    assert all((keys[a].tolist() in target_keys) == (images[i] in target_tracks) for a, i in enumerate(keep))
