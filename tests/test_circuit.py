import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_circuit
from qcirc.circuit import (
    CircuitError,
    Gate,
    Measurement,
    QuantumCircuit,
    UnitaryOp,
    check_valid,
    controlled_unitary_gate,
    is_stage,
    measure_gate,
    prerequisites,
    ready_gates,
    stage_exits,
    standard_measure_gate,
    topo_order,
    truncate,
    unitary_gate,
    validate_circuit,
)
from qcirc.linalg import CNOT, H, X


def codes(c):
    return {d.code for d in validate_circuit(c)}


# --- wiring and prerequisites ----------------------------------------------


def test_teleport_validates_clean(teleport):
    assert validate_circuit(teleport) == []


def test_register_chains(teleport):
    assert teleport.register_chain(0) == ["CNOT", "H", "M"]
    assert teleport.register_chain(1) == ["CNOT", "N"]
    assert teleport.register_chain(2) == ["XN", "ZM"]


def test_quantum_sources(teleport):
    assert teleport.quantum_sources("CNOT") == {0: None, 1: None}
    assert teleport.quantum_sources("M") == {0: "H"}
    assert teleport.quantum_sources("ZM") == {2: "XN"}


def test_direct_sources_include_classical(teleport):
    assert teleport.direct_sources("XN") == {"N"}
    assert teleport.direct_sources("ZM") == {"XN", "M"}


def test_prerequisites_teleport(teleport):
    assert prerequisites(teleport, "ZM") == {"CNOT", "H", "M", "N", "XN"}
    assert prerequisites(teleport, "CNOT") == set()
    assert prerequisites(teleport, "M") == {"CNOT", "H"}


def closure_oracle(c):
    """Warshall closure of the edge relation."""
    ids = [g.id for g in c.gates]
    lt = {(a, b) for a, b in c.edges()}
    changed = True
    while changed:
        changed = False
        for a in ids:
            for b in ids:
                if (a, b) in lt:
                    continue
                if any((a, m) in lt and (m, b) in lt for m in ids):
                    lt.add((a, b))
                    changed = True
    return lt


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_prerequisites_match_closure_oracle(seed):
    c = random_circuit(np.random.default_rng(seed))
    lt = closure_oracle(c)
    for g in c.gates:
        assert prerequisites(c, g.id) == {a for a, b in lt if b == g.id}


def test_topo_order_respects_edges(teleport):
    order = topo_order(teleport)
    pos = {g: i for i, g in enumerate(order)}
    for a, b in teleport.edges():
        assert pos[a] < pos[b]


def test_unknown_gate_id(teleport):
    with pytest.raises(CircuitError):
        teleport.gate("nope")


# --- stages -----------------------------------------------------------------


def test_is_stage(teleport):
    assert is_stage(teleport, set())
    assert is_stage(teleport, {"CNOT", "H"})
    assert not is_stage(teleport, {"H"})  # missing prerequisite CNOT
    assert is_stage(teleport, {g.id for g in teleport.gates})


def test_ready_gates(teleport):
    assert ready_gates(teleport, set()) == {"CNOT"}
    assert ready_gates(teleport, {"CNOT"}) == {"H", "N"}
    assert ready_gates(teleport, {"CNOT", "H", "N"}) == {"M", "XN"}


def readiness_oracle(c, s):
    return {
        g.id for g in c.gates if g.id not in s and prerequisites(c, g.id) <= set(s)
    }


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_ready_gates_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng)
    # grow a random stage greedily
    s = set()
    while True:
        ready = ready_gates(c, s)
        assert ready == readiness_oracle(c, s)
        if not ready or rng.random() < 0.3:
            break
        s.add(sorted(ready)[int(rng.integers(len(ready)))])
        assert is_stage(c, s)


def test_stage_exits_counts_registers(teleport):
    assert stage_exits(teleport, {"CNOT", "H", "M"}) == {
        (0, "M"),
        (1, "CNOT"),
        (2, None),
    }
    assert stage_exits(teleport, set()) == {(0, None), (1, None), (2, None)}


def test_stage_exits_rejects_non_stage(teleport):
    with pytest.raises(CircuitError):
        stage_exits(teleport, {"H"})


def test_truncate(teleport):
    t = truncate(teleport, {"CNOT", "H", "M", "N"})
    assert [g.id for g in t.gates] == ["CNOT", "H", "M", "N"]
    assert validate_circuit(t) == []
    with pytest.raises(CircuitError):
        truncate(teleport, {"ZM"})


# --- validation diagnostics -------------------------------------------------
# Each case is the minimal fixture documented for its code.


def test_diag_duplicate_gate_id():
    c = QuantumCircuit(
        ("r0",), (unitary_gate("g", [0], X), unitary_gate("g", [0], X))
    )
    assert "duplicate-gate-id" in codes(c)


def test_diag_empty_registers():
    c = QuantumCircuit(("r0",), (Gate("g", (), unitaries={"g": UnitaryOp("g", np.eye(1))}, selector={(): "g"}),))
    assert "empty-registers" in codes(c)


def test_diag_duplicate_register():
    c = QuantumCircuit(("r0",), (unitary_gate("g", [0, 0], CNOT),))
    assert "duplicate-register" in codes(c)


def test_diag_register_out_of_range():
    c = QuantumCircuit(("r0",), (unitary_gate("g", [1], X),))
    assert "register-out-of-range" in codes(c)


def test_diag_bad_gate_kind():
    c = QuantumCircuit(("r0",), (Gate("g", (0,), selector={(): "g"}),))
    assert "bad-gate-kind" in codes(c)


def test_diag_empty_measurement():
    g = Gate("g", (0,), measurements={"g": Measurement("g", {})}, selector={(): "g"})
    assert "empty-measurement" in codes(QuantumCircuit(("r0",), (g,)))


def test_diag_bad_label():
    c = QuantumCircuit(
        ("r0",), (measure_gate("g", [0], {"a,b": np.eye(2, dtype=complex)}),)
    )
    assert "bad-label" in codes(c)


def test_diag_outcome_labels_overlap():
    m0 = Measurement("m0", {"x": np.eye(2, dtype=complex)})
    m1 = Measurement("m1", {"x": np.eye(2, dtype=complex)})
    src = standard_measure_gate("s", 0)
    g = Gate(
        "g",
        (1,),
        measurements={"m0": m0, "m1": m1},
        classical_sources=("s",),
        selector={("0",): "m0", ("1",): "m1"},
    )
    assert "outcome-labels-overlap" in codes(QuantumCircuit(("r0", "r1"), (src, g)))


def test_diag_operator_dim_mismatch():
    c = QuantumCircuit(("r0", "r1"), (unitary_gate("g", [0, 1], X),))
    assert "operator-dim-mismatch" in codes(c)


def test_diag_measurement_incomplete():
    half = np.eye(2, dtype=complex) / 2
    c = QuantumCircuit(("r0",), (measure_gate("g", [0], {"a": half}),))
    assert "measurement-incomplete" in codes(c)


def test_diag_non_unitary_op():
    c = QuantumCircuit(("r0",), (unitary_gate("g", [0], 2 * X),))
    assert "non-unitary-op" in codes(c)


def test_diag_non_finite_entry():
    nan = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    m = QuantumCircuit(("r0",), (measure_gate("g", [0], {"a": nan}),))
    u = QuantumCircuit(("r0",), (unitary_gate("g", [0], nan),))
    assert codes(m) == codes(u) == {"non-finite-entry"}


def test_diag_unknown_classical_source():
    g = controlled_unitary_gate("g", [0], ["nope"], {"u": X}, {("0",): "u"})
    assert "unknown-classical-source" in codes(QuantumCircuit(("r0",), (g,)))


def test_diag_classical_source_not_measure():
    u = unitary_gate("u", [0], X)
    g = controlled_unitary_gate("g", [1], ["u"], {"a": X}, {("0",): "a"})
    assert "classical-source-not-measure" in codes(QuantumCircuit(("r0", "r1"), (u, g)))


def test_diag_non_cc_multiple_ops():
    g = Gate(
        "g",
        (0,),
        unitaries={"a": UnitaryOp("a", X), "b": UnitaryOp("b", H)},
        selector={(): "a"},
    )
    assert "non-cc-multiple-ops" in codes(QuantumCircuit(("r0",), (g,)))


def test_diag_selector_not_total():
    src = standard_measure_gate("s", 0)
    g = controlled_unitary_gate("g", [1], ["s"], {"u": X}, {("0",): "u"})
    assert "selector-not-total" in codes(QuantumCircuit(("r0", "r1"), (src, g)))


def test_diag_selector_unknown_target():
    src = standard_measure_gate("s", 0)
    g = controlled_unitary_gate(
        "g", [1], ["s"], {"u": X}, {("0",): "u", ("1",): "nope"}
    )
    assert "selector-unknown-target" in codes(QuantumCircuit(("r0", "r1"), (src, g)))


def test_diag_cycle():
    # g consumes m's outcome but acts before m on the same register
    g = controlled_unitary_gate("g", [0], ["m"], {"u": X}, {("0",): "u", ("1",): "u"})
    m = standard_measure_gate("m", 0)
    assert "cycle" in codes(QuantumCircuit(("r0",), (g, m)))


def test_check_valid_raises_on_bad_circuit():
    c = QuantumCircuit(("r0",), (unitary_gate("g", [1], X),))
    with pytest.raises(CircuitError):
        check_valid(c)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_circuits_validate_clean(seed):
    c = random_circuit(np.random.default_rng(seed))
    assert validate_circuit(c) == []
