"""The terminal-form path. A circuit whose measurements are all standard and
no unitary of which follows a measurement is walked as one unitary,
W = U t0, whose rows are grouped by track (`semantics.track_rows`), and a
target in that form is checked by those row groups. Each test compares the
path with the general walk on a copy of the circuit that is told it is not
in terminal form."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_teleportation
from corpus import (
    PM_FAMILY,
    aggregate_document,
    feed_forward_circuit,
    ghz_circuit,
    kraus_correction_circuit,
    random_deferrable_circuit,
)
from qcirc import linalg, semantics
from qcirc.circuit import Gate, Measurement, QuantumCircuit, measure_gate, standard_measure_gate, unitary_gate
from qcirc.deferral import Commensuration, basis_inputs, check_faithful, defer_measurements, random_pure_inputs
from qcirc.linalg import CNOT, H, DensityOperator
from qcirc.serialize import dumps

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def general(c):
    """A new instance of `c` that takes the general walk."""
    g = QuantumCircuit(c.register_names, c.gates)
    vars(g)["_terminal"] = False
    return g


def basis_projectors(dim, labels):
    return {lab: np.diag(np.eye(dim)[i]).astype(complex) for i, lab in enumerate(labels)}


def labels_against_indices():
    """A Bell pair whose second register is measured with label "z" on |0>
    and "a" on |1>, so sorted labels run against basis order."""
    gates = (unitary_gate("h", [0], H), unitary_gate("cx", [0, 1], CNOT),
             measure_gate("m", [1], {"z": P0, "a": P1}), standard_measure_gate("n", 0))
    return QuantumCircuit(("a", "b"), gates)


def descending_pair():
    """A 2-register measurement that lists its registers as (2, 0)."""
    gates = (unitary_gate("h0", [0], H), unitary_gate("h2", [2], H), unitary_gate("cx", [2, 1], CNOT),
             measure_gate("m", [2, 0], basis_projectors(4, ["b00", "b01", "b10", "b11"])),
             standard_measure_gate("n", 1))
    return QuantumCircuit(("a", "b", "c"), gates)


def measured_twice():
    """Two standard measurements of register 0 next to a chain of unitaries
    on register 1, which the greedy order interleaves with them. Tracks
    whose two labels differ are incoherent: their blocks are zero."""
    gates = (unitary_gate("h", [0], H), standard_measure_gate("m1", 0), standard_measure_gate("m2", 0),
             unitary_gate("h1", [1], H), unitary_gate("x1", [1], linalg.X), unitary_gate("h2", [1], H))
    return QuantumCircuit(("a", "b"), gates)


def deferred_cases():
    """(name, source) pairs whose deferred circuits are in terminal form."""
    cases = [("teleport", make_teleportation())]
    cases += [(f"ff{k}", feed_forward_circuit(k)) for k in range(1, 9)]
    cases += [(f"deferrable{s}", random_deferrable_circuit(np.random.default_rng(s))) for s in range(12)]
    cases += [(f"kraus{s}", kraus_correction_circuit(np.random.default_rng(s))) for s in range(12)]
    return [(name, c) for name, c in cases if defer_measurements(c).circuit._terminal]


DEFERRED = deferred_cases()
HAND = [("ghz3", ghz_circuit(3)), ("labels", labels_against_indices()),
        ("descending", descending_pair()), ("twice", measured_twice())]


def test_deferred_corpus_is_in_terminal_form():
    """`defer` writes terminal form whenever it rewrites; at most a few of
    the random sources pass through unchanged with nonstandard measurements."""
    assert len(DEFERRED) >= 26
    assert all(c._terminal for _, c in HAND + [(f"ghz{n}", ghz_circuit(n)) for n in range(3, 9)])


def assert_same_walk(c, t0, bitwise):
    """`walk_tracks` of c and of its general copy, zipped as they come:
    keys, tracks and order agree, and every block is equal, bit for bit
    where `bitwise` (BLAS may write a zero's sign either way when the
    general walk projects fewer columns)."""
    pairs = itertools.zip_longest(semantics.walk_tracks(c, t0), semantics.walk_tracks(general(c), t0))
    for fast, slow in pairs:
        assert fast[:2] == slow[:2]
        a, b = fast[2], slow[2]
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes() if bitwise else np.array_equal(a, b)


def ancilla_zero(c, cols):
    """cols (2^k x m) on the first k registers, the rest |0>."""
    k = cols.shape[0].bit_length() - 1
    return np.kron(cols, linalg.basis_ket(0, c.n_registers - k)[:, None])


@pytest.mark.parametrize("name, c", DEFERRED + HAND, ids=[n for n, _ in DEFERRED + HAND])
def test_walk_matches_the_general_walk(name, c):
    d = defer_measurements(c).circuit
    n = d.n_registers
    if n <= 8:
        assert_same_walk(d, np.eye(2**n, dtype=complex), bitwise=True)
    nc = c.n_registers
    assert_same_walk(d, ancilla_zero(d, np.eye(2**nc, dtype=complex)), bitwise=False)
    psi = np.stack(random_pure_inputs(nc, 3, 11), axis=1)
    assert_same_walk(d, ancilla_zero(d, psi), bitwise=False)


@pytest.mark.parametrize("n", range(3, 9))
def test_ghz_walk_matches_the_general_walk(n):
    assert_same_walk(ghz_circuit(n), np.eye(2**n, dtype=complex), bitwise=True)


DOCUMENTED = [("ghz4", ghz_circuit(4)), ("ghz6", ghz_circuit(6))] + HAND + DEFERRED[:8]


@pytest.mark.parametrize("name, c", DOCUMENTED, ids=[n for n, _ in DOCUMENTED])
def test_aggregate_document_matches_the_general_walk(name, c):
    d = defer_measurements(c).circuit
    rho = DensityOperator.from_ket(random_pure_inputs(d.n_registers, 1, 5)[0])
    assert dumps(aggregate_document(d, rho)) == dumps(aggregate_document(general(d), rho))


def unfaithful_variants(c):
    """(source, target, zeta): the deferral, and targets that lose its first
    unitary or put a phase on its last one, each still in terminal form."""
    r = defer_measurements(c)
    d, zeta = r.circuit, r.zeta
    yield d, zeta
    us = [g for g in d.gates if not g.is_measure]
    if us:
        yield QuantumCircuit(d.register_names, tuple(g for g in d.gates if g is not us[0])), zeta
        last = us[-1]
        phase = np.diag(np.exp(1j * np.linspace(0.1, 1.0, 2**last.arity)))
        swap = unitary_gate(last.id, last.registers, phase @ last.unitaries[last.selector[()]].matrix)
        yield QuantumCircuit(d.register_names, tuple(swap if g is last else g for g in d.gates)), zeta


def assert_same_reports(c, d, zeta):
    for inputs in (None, random_pure_inputs(c.n_registers, 3, 7)):
        fast = check_faithful(c, d, zeta, inputs)
        assert dumps(fast.to_json()) == dumps(check_faithful(c, general(d), zeta, inputs).to_json())
        yield fast


@pytest.mark.parametrize("name, c", DEFERRED[:16] + HAND, ids=[n for n, _ in DEFERRED[:16] + HAND])
def test_check_faithful_matches_the_general_walk(name, c):
    """Exact and input reports agree byte for byte, failures and floats
    included, on the deferral and on two unfaithful targets."""
    reports = [r for d, zeta in unfaithful_variants(c) for r in assert_same_reports(c, d, zeta)]
    assert reports[0].ok and reports[1].ok


def test_failing_reports_match_the_general_walk():
    """The unfaithful variants above do fail, so their floats are compared."""
    c = feed_forward_circuit(3)
    reports = [r for d, zeta in unfaithful_variants(c) for r in assert_same_reports(c, d, zeta)]
    assert [r.ok for r in reports] == [True, True, False, False, False, False]
    assert {f["kind"] for r in reports for f in r.failures} >= {"operator-mismatch", "state-mismatch"}


CHUNKED = [feed_forward_circuit(3), measured_twice()]
CHUNKED += [random_deferrable_circuit(np.random.default_rng(s)) for s in (9, 14, 17, 25, 41)]


def test_state_blocks_change_no_report(monkeypatch):
    """Both checks compare (target track, source track) pairs a chunk of at
    most `semantics.FRONTIER_BYTES` at a time; one pair per chunk gives the
    same reports, exact and with inputs, failures included. Some of these
    targets have tracks with no rows, so a chunk can hold only those."""
    targets = [(c, d, zeta) for c in CHUNKED for d, zeta in unfaithful_variants(c)]
    targets += [(c, general(d), zeta) for c, d, zeta in targets]

    def reports():
        return [dumps(check_faithful(c, d, zeta, inputs).to_json()) for c, d, zeta in targets
                for inputs in (None, random_pure_inputs(c.n_registers, 3, 7))]

    whole = reports()
    monkeypatch.setattr(semantics, "FRONTIER_BYTES", 1)
    assert reports() == whole
    assert '"state-mismatch"' in "".join(whole) and '"operator-mismatch"' in "".join(whole)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_deferrable_matches_the_general_walk(seed):
    c = random_deferrable_circuit(np.random.default_rng(seed))
    d = defer_measurements(c).circuit
    if not d._terminal:
        return
    assert_same_walk(d, np.eye(2**d.n_registers, dtype=complex), bitwise=True)
    for d, zeta in unfaithful_variants(c):
        list(assert_same_reports(c, d, zeta))


def input_check_reference(c, d, zeta, inputs, tol=linalg.DEFAULT_TOL):
    """The failing (input, side, track) set of the input check, from its
    definition, on each unit input psi alone: the source's blocks A_f psi
    (`track_operators(c, psi)`), the target's on psi (x) |0>, and their
    probabilities and reduced states on the source registers
    (`linalg.partial_trace_matrix`), the states normalized. Side 0 is a
    source track, side 1 an unmatched target track."""
    nc, nd = c.n_registers, d.n_registers
    bad = set()
    for i, psi in enumerate(inputs):
        source = semantics.track_operators(c, psi[:, None])
        target = dict(semantics.track_operators(d, np.kron(psi, linalg.basis_ket(0, nd - nc))[:, None]))
        images = {zeta.translate(f) for f, _ in source}
        for f, a in source:
            g, p_c = zeta.translate(f), np.vdot(a, a).real
            if g is None:
                failed = p_c > tol
            else:
                b = target[g]
                p_d = np.vdot(b, b).real
                failed = abs(p_c - p_d) > tol
                if not failed and p_c > tol:
                    rho_d = linalg.partial_trace_matrix(b @ b.conj().T, nd, range(nc))
                    failed = np.max(np.abs(a @ a.conj().T / p_c - rho_d / p_d)) > tol
            if failed:
                bad.add((i, 0, tuple(sorted(f.as_dict().items()))))
        for g, b in target.items():
            if g not in images and np.vdot(b, b).real > tol:
                bad.add((i, 1, tuple(sorted(g.as_dict().items()))))
    return bad


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_input_check_matches_its_reference(seed):
    """On random and basis inputs the input check passes and fails on the
    same (input, track) comparisons as the reference built from the
    reduced states, on the deferral and on the unfaithful variants."""
    c = random_deferrable_circuit(np.random.default_rng(seed))
    for inputs in (random_pure_inputs(c.n_registers, 3, seed), basis_inputs(c.n_registers)):
        for d, zeta in unfaithful_variants(c):
            report = check_faithful(c, d, zeta, inputs)
            got = {(f["input"], int(f["kind"] == "unmatched-target-track"), tuple(sorted(f["track"].items())))
                   for f in report.failures}
            expected = input_check_reference(c, d, zeta, inputs)
            assert report.ok == (not expected) and got == expected


def test_incoherent_tracks_are_zero_blocks():
    c = measured_twice()
    ops = dict(semantics.track_operators(c, np.eye(4, dtype=complex)))
    assert len(ops) == 4
    for f, a in ops.items():
        labels = f.as_dict()
        assert (not a.any()) == (labels["m1"] != labels["m2"])


def test_a_terminal_circuit_is_one_piece_and_a_general_one_a_piece_per_leaf():
    c = ghz_circuit(3)
    (w, group, tracks), = semantics.track_rows(c, np.eye(8, dtype=complex))
    assert len(tracks) == 8 and group.tolist() == list(range(8))  # row r is the track of bits r
    pieces = list(semantics.track_rows(general(c), np.eye(8, dtype=complex)))
    assert len(pieces) == 8 and all(g is None and len(t) == 1 for _, g, t in pieces)


def cc_measurement():
    """H, a measurement m, and a measurement n of register 1 whose basis the
    classical control picks from m's outcome: no unitary follows a
    measurement, but m is read by a classical control."""
    std, other = Measurement("A", {"0": P0, "1": P1}), Measurement("B", {"2": P0, "3": P1})
    n = Gate("n", (1,), measurements={"A": std, "B": other}, classical_sources=("m",),
             selector={("0",): "A", ("1",): "B"})
    return QuantumCircuit(("a", "b"), (unitary_gate("h", [0], H), standard_measure_gate("m", 0), n))


def unitary_after_measurement():
    gates = (unitary_gate("h", [0], H), standard_measure_gate("m", 0), unitary_gate("h2", [0], H))
    return QuantumCircuit(("a",), gates)


def single(ops):
    return QuantumCircuit(("a",), (unitary_gate("h", [0], H), measure_gate("m", [0], ops)))


BROKEN = [
    ("unitary-after-measurement", unitary_after_measurement()),
    ("classically-controlled-unitary", feed_forward_circuit(2)),
    ("off-diagonal-measurement", single(PM_FAMILY)),
    ("non-0/1-measurement", single({"0": np.diag([1, 0.5**0.5]), "1": np.diag([0, 0.5**0.5])})),
    ("measurement-read-by-a-control", cc_measurement()),
]


@pytest.mark.parametrize("name, c", BROKEN, ids=[n for n, _ in BROKEN])
def test_each_broken_condition_takes_the_general_path(name, c):
    assert not c._terminal
    eye = np.eye(2**c.n_registers, dtype=complex)
    pieces = list(semantics.track_rows(c, eye))
    assert len(pieces) > 1 and all(g is None and len(t) == 1 for _, g, t in pieces)
    for (k, f, a), (k2, f2, b) in zip(semantics.walk_tracks(c, eye), semantics.walk_tracks(general(c), eye)):
        assert (k, f) == (k2, f2) and a.tobytes() == b.tobytes()


def counting_apply(monkeypatch):
    """Replace `linalg.apply`, the walk's kernel, by a wrapper that
    records each call's block row count, 2^n on n registers."""
    calls, apply = [], linalg.apply
    monkeypatch.setattr(linalg, "apply", lambda a, axes, x: calls.append(x.shape[1]) or apply(a, axes, x))
    return calls


def test_check_faithful_applies_each_target_unitary_once(monkeypatch):
    """On deferred ff-6 the target side of the check (the calls on the
    target's 7 registers, blocks of 128 rows) applies each of its unitaries
    exactly once."""
    c = feed_forward_circuit(6)
    r = defer_measurements(c)
    d = r.circuit
    calls = counting_apply(monkeypatch)
    assert check_faithful(c, d, r.zeta).ok
    assert check_faithful(c, d, r.zeta, random_pure_inputs(2, 2, 0)).ok
    units = sum(not g.is_measure for g in d.gates)
    assert d.n_registers == 7 and calls.count(2**7) == 2 * units


def test_aggregate_applies_each_unitary_once(monkeypatch):
    calls = counting_apply(monkeypatch)
    agg = semantics.aggregate_measurement(ghz_circuit(6))
    assert len(agg.operators) == 64 and calls == [2**6] * 6


def test_over_cap_terminal_circuit_fails_before_any_operator(monkeypatch):
    monkeypatch.setattr(semantics, "DEFAULT_TRACK_CAP", 15)
    monkeypatch.setattr(linalg, "apply", lambda *args: pytest.fail("an operator was applied"))
    walk = semantics.walk_tracks(ghz_circuit(4), np.eye(16, dtype=complex))
    with pytest.raises(semantics.SemanticsError, match="track count exceeds cap 15"):
        next(walk)


@pytest.mark.parametrize("c", [ghz_circuit(3), general(ghz_circuit(3)), feed_forward_circuit(3)],
                         ids=["ghz3", "ghz3-general", "ff3"])
def test_track_operators_from_no_columns(c):
    """From a start with no columns, every coherent track comes, in
    `enumerate_tracks` order, with an empty complex block of 2^n rows."""
    rows = 2**c.n_registers
    ops = semantics.track_operators(c, np.zeros((rows, 0)))
    assert len(ops) == 8 and [f for f, _ in ops] == semantics.enumerate_tracks(c)
    assert all(a.shape == (rows, 0) and a.dtype == complex for _, a in ops)


def test_a_wrong_start_fails_as_in_the_general_walk():
    """Even with no unitary to apply, a start with the wrong row count is
    the general walk's LinalgError."""
    c = QuantumCircuit(("a",), (standard_measure_gate("m", 0),))
    assert c._terminal
    with pytest.raises(linalg.LinalgError) as fast:
        semantics.track_operators(c, np.eye(4))
    with pytest.raises(linalg.LinalgError) as slow:
        semantics.track_operators(general(c), np.eye(4))
    assert str(fast.value) == str(slow.value)


def test_unknown_image_is_named_on_a_terminal_target():
    """A sidecar whose label the terminal target never records still names
    the first such source track."""
    c = QuantumCircuit(("q0",), (unitary_gate("h", [0], H), standard_measure_gate("m", 0)))
    assert c._terminal
    with pytest.raises(ValueError, match=r"translated track .*'x'.* is not a track of the target"):
        check_faithful(c, c, Commensuration({"m": "m"}, {"m": {"0": "x"}}))
