import cmath
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_teleportation
from corpus import (
    PM_FAMILY,
    feed_forward_circuit,
    kraus_correction_circuit,
    random_deferrable_circuit,
    random_kraus_family,
)
from test_semantics import splitmix64_draw
from qcirc.circuit import (
    Measurement,
    QuantumCircuit,
    controlled_unitary_gate,
    measure_gate,
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
    classify_measurement,
    constraint_violations,
    defer_measurements,
    random_pure_inputs,
    red_gates,
)
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


# --- classification ---------------------------------------------------------


def test_classify_standard():
    cls = classify_measurement(measurement_of({"0": P0, "1": P1}))
    assert cls.projective and cls.complete and cls.standard


def test_classify_complete_not_standard():
    cls = classify_measurement(measurement_of(PM_FAMILY))
    assert cls.projective and cls.complete and not cls.standard


def test_classify_projective_not_complete():
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = 1.0
    cls = classify_measurement(measurement_of({"a": p, "b": np.eye(4) - p}))
    assert cls.projective and not cls.complete and not cls.standard


def test_classify_non_projective():
    fam = random_kraus_family(np.random.default_rng(0), 2, 2)
    cls = classify_measurement(measurement_of({"a": fam[0], "b": fam[1]}))
    assert not cls.projective and not cls.complete and not cls.standard


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
    assert classify_measurement(next(iter(g.measurements.values()))).standard


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
        f["kind"] in ("probability-mismatch", "state-mismatch", "untranslatable-track-probability")
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
}


@pytest.mark.parametrize(
    "name, size",
    [
        ("ff1", (2, 3)), ("ff2", (3, 7)), ("ff3", (4, 11)), ("ff4", (5, 15)),
        ("ff5", (6, 19)), ("ff6", (7, 23)), ("teleport", (3, 6)), ("pm_to_cz", (3, 4)),
        ("shared_register", (3, 4)), ("duplicate", (2, 3)), ("deferrable2", (5, 8)),
    ],
)
def test_deferred_size_is_pinned(name, size):
    """(registers, gates) of the deferred circuit, as the pass that split
    measurements into bits produced them; the exact check accepts each."""
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
    were all single-outcome measurements turned into unitaries (10 gates)."""
    digest = hashlib.sha256()
    for i in range(200):
        result = defer_measurements(random_deferrable_circuit(np.random.default_rng([17, i]), 4, 9))
        sidecar = {**result.zeta.to_json(), "ancillas": sorted(result.ancilla_registers)}
        digest.update((serialize_circuit(result.circuit) + dumps(sidecar) + "\n").encode())
    assert digest.hexdigest() == "ef403eadaf4a6349018ef7cbd842aa5a6bb17bd7a9d42a408e7c6a833d9ab948"


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
    # U is listed before its source K1, which the pre-pass reaches before K2:
    # K1 gets the first ancilla
    "consumer-first-of-nonstandard": (
        (
            controlled_unitary_gate("U", [1], ["K1"], {"I": np.eye(2), "X": X}, {("+",): "I", ("-",): "X"}),
            measure_gate("K2", [1], dict(PM_FAMILY)),
            measure_gate("K1", [0], dict(PM_FAMILY)),
        ),
        ["K1__u", "U", "K2__u", "K1", "K2"],
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
    """g0 and g2 end on the copy of r1 together, so no CNOT lands after g0."""
    result = defer_measurements(deferrable2_skeleton())
    d = result.circuit
    assert d.gate("g0").registers == (3,) and d.gate("g2").registers == (3, 4)
    assert d.gate("g2").outcome_labels == ("b00", "b01", "b10", "b11")
    assert result.zeta.gates == {g: g for g in ("g0", "g2", "g4")}
    assert len([g for g in d.gates if "__cp__" in g.id]) == 2


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


def test_old_bit_level_sidecar_gives_label_maps():
    old = {
        "zeta": {"M1": "M1", "M2": "M1"},
        "absorbed": [],
        "detail": {
            "assignments": {"M1": [["M1", 0]], "M2": [["M1", 0]]},
            "label_bits": {"M1": {"0": ["0"], "1": ["1"]}, "M2": {"a": ["0"], "b": ["1"]}},
            "d_labels": {"M1": [[["0"], "0"], [["1"], "1"]]},
        },
    }
    zeta = Commensuration.from_json(old)
    assert zeta.gates == {"M1": "M1", "M2": "M1"}
    assert zeta.labels == {"M2": {"a": "0", "b": "1"}}


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
    """Deferred ff-8 (9 target registers, 256 tracks) is in terminal form,
    so its target is one W = U (I (x) |0>) psi of 2^9 rows that the tracks
    partition, compared by row groups: no 2^9 x 4 block is built per track
    (2 MiB in all), and both methods peak below 2 MiB."""
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


def test_check_faithful_rejects_empty_inputs(teleport):
    result = defer_measurements(teleport)
    with pytest.raises(DeferralError, match="no inputs to check"):
        check_faithful(teleport, result.circuit, result.zeta, [])


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
