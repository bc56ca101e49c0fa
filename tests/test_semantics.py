import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_teleportation
from corpus import SCALE_KET, feed_forward_circuit, ghz_circuit, h_then_measure_circuit, random_circuit, zam_circuit
from qcirc import cli, controlled_unitary_gate, linalg, semantics
from qcirc.circuit import (
    CircuitError,
    QuantumCircuit,
    measure_gate,
    standard_measure_gate,
    topo_order,
    unitary_gate,
)
from qcirc.deferral import Commensuration, check_faithful, defer_measurements
from qcirc.linalg import CNOT, H, I2, X, Z, DensityOperator, mat_close
from qcirc.scheduling import (
    Schedule,
    ScheduleError,
    enumerate_linear_schedules,
    greedy_schedule,
    in_bout_order,
    linear_schedule,
    validate_schedule,
)
from qcirc.semantics import (
    RunResult,
    SemanticsError,
    Track,
    _uniforms,
    splitmix64,
    aggregate_measurement,
    bout_operator,
    cumulative_operator,
    enumerate_tracks,
    probability_on,
    replay,
    run,
    sample,
    schedules_equivalent,
    track_operators,
    track_probability,
)
from qcirc.serialize import serialize_circuit
from reference_walk import apply, select_measurement, source_outcomes

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def teleport_track(m, n):
    return Track.from_mapping({"M": m, "N": n})


def teleport_cumulative_oracle(m, n):
    """Hand-chained kron products in greedy-schedule order; independent of
    embed and bout machinery (all teleport gates sit on leading registers)."""
    xn = X if n == "1" else I2
    zm = Z if m == "1" else I2
    steps = [
        np.kron(CNOT, I2),
        functools.reduce(np.kron, [H, I2, I2]),
        np.kron(I2, functools.reduce(np.kron, [P1 if n == "1" else P0, xn])),
        functools.reduce(np.kron, [P1 if m == "1" else P0, I2, I2]),
        functools.reduce(np.kron, [I2, I2, zm]),
    ]
    out = np.eye(8, dtype=complex)
    for s in steps:
        out = s @ out
    return out


# --- selection and tracks ---------------------------------------------------


def test_bout_operator_picks_by_source_label(teleport):
    """XN applies the unitary that N's label selects: I for 0, X for 1."""
    for label, u in (("0", I2), ("1", X)):
        assert np.array_equal(bout_operator(teleport, {"XN"}, {"N": label}), functools.reduce(np.kron, [I2, I2, u]))


def test_walk_names_a_missing_source_or_selector_entry(teleport):
    """A track without the label of a classical source, or whose labels the
    selector has no entry for, has no operator; a selector without an entry
    for every label combination is the validator's `selector-not-total`."""
    with pytest.raises(SemanticsError, match="no outcome recorded for classical source 'N'"):
        bout_operator(teleport, {"XN"}, {})
    with pytest.raises(SemanticsError, match=r"selector has no entry for \('2',\)"):
        bout_operator(teleport, {"XN"}, {"N": "2"})
    g = controlled_unitary_gate("x", [1], ["m"], {"X": X}, {("0",): "X"})
    c = QuantumCircuit(("a", "b"), (standard_measure_gate("m", 0), g))
    with pytest.raises(CircuitError, match=r"^selector-not-total@x: selector domain mismatch \(missing \[\('1',\)\]"):
        aggregate_measurement(c)


def test_enumerate_tracks_teleport(teleport):
    tracks = enumerate_tracks(teleport)
    assert len(tracks) == 4
    assert {t.outcomes for t in tracks} == {
        (("M", m), ("N", n)) for m in "01" for n in "01"
    }


def test_enumerate_tracks_cap(monkeypatch):
    gates = tuple(standard_measure_gate(f"m{i}", i) for i in range(3))
    c = QuantumCircuit(("a", "b", "c"), gates)
    assert len(enumerate_tracks(c)) == 8
    monkeypatch.setattr(semantics, "DEFAULT_TRACK_CAP", 7)
    with pytest.raises(SemanticsError):
        enumerate_tracks(c)


def test_track_accessors():
    f = Track.from_mapping({"b": "1", "a": "0"})
    assert f.outcomes == (("a", "0"), ("b", "1"))
    assert f.get("b") == "1"
    with pytest.raises(KeyError):
        f.get("c")


# --- cumulative operators and the aggregate ---------------------------------


def test_a_walk_refuses_a_repeated_gate_id_or_a_cycle():
    """The plan is compiled only for a valid circuit: a repeated id or a
    cycle is the CircuitError of its diagnostic, even for one bout under an
    explicit assignment."""
    dup = QuantumCircuit(("a",), (standard_measure_gate("m", 0), standard_measure_gate("m", 0)))
    u = controlled_unitary_gate("u", [0], ["m"], {"I": np.eye(2), "X": X}, {("0",): "I", ("1",): "X"})
    cyclic = QuantumCircuit(("a",), (u, standard_measure_gate("m", 0)))
    for c, message in ((dup, "^duplicate-gate-id@m: gate id 'm' appears more than once$"),
                       (cyclic, "^cycle@<circuit>: combined source relation is cyclic$")):
        with pytest.raises(CircuitError, match=message):
            bout_operator(c, {c.gates[0].id}, {"m": "0"})


def precondition_circuit(code=None):
    """H on a, a measurement m of a, and I or X on b as m's label selects;
    with `code`, invalid by that diagnostic: u is diag(1, 2), m's operators
    diag(1, 0) and diag(0, 0.5), or the selector has no entry for label 1."""
    u = np.diag([1.0, 2.0]) if code == "non-unitary-op" else H
    m = {"0": P0, "1": np.diag([0.0, 0.5]) if code == "measurement-incomplete" else P1}
    selector = {("0",): "I"} if code == "selector-not-total" else {("0",): "I", ("1",): "X"}
    x = controlled_unitary_gate("x", [1], ["m"], {"I": I2, "X": X}, selector)
    return QuantumCircuit(("a", "b"), (unitary_gate("u", [0], u), measure_gate("m", [0], m), x))


@pytest.mark.parametrize("code", ["non-unitary-op", "measurement-incomplete", "selector-not-total"])
def test_every_walk_refuses_an_invalid_circuit(code):
    """Every function that walks a circuit validates it first, and raises
    the CircuitError that names its diagnostic, the checker's source and
    target alike: no walk reads a non-unitary op, an incomplete measurement
    or a selector without an entry for each label combination."""
    c, valid = precondition_circuit(code), precondition_circuit()
    x, f, zeta = greedy_schedule(c), Track.from_mapping({"m": "0"}), Commensuration.identity(valid)
    rho = DensityOperator.from_ket(np.array([1.0, 0.0, 0.0, 0.0]))
    for call in (
        lambda: aggregate_measurement(c),
        lambda: enumerate_tracks(c),
        lambda: semantics.track_stack(c),
        lambda: track_operators(c, None),
        lambda: cumulative_operator(c, x, f),
        lambda: bout_operator(c, {"u"}, {}),
        lambda: track_probability(c, f, rho),
        lambda: replay(c, x, f, rho),
        lambda: sample(c, x, rho, range(3)),
        lambda: run(c, x, rho, 0),
        lambda: schedules_equivalent(c, x, x),
        lambda: check_faithful(c, valid, zeta),
        lambda: check_faithful(valid, c, zeta),
    ):
        with pytest.raises(CircuitError, match=f"^{code}@"):
            call()


def test_bout_operator_selects_by_track(teleport):
    op = bout_operator(teleport, {"M", "XN"}, {"M": "0", "N": "1"})
    oracle = np.kron(P0, np.eye(4)) @ np.kron(np.eye(4), X)
    assert np.allclose(op, oracle)


# (assignment, a bout that reaches the faulty measurement)
INCOHERENT = {
    "omits M": ({"N": "0"}, {"M", "XN"}),
    "omits N": ({"M": "1"}, {"H", "N"}),
    "label not offered": ({"M": "0", "N": "2"}, {"H", "N"}),
}


@pytest.mark.parametrize("assignment,bout", INCOHERENT.values(), ids=INCOHERENT.keys())
def test_incoherent_track_is_a_semantics_error(teleport, bell_input, assignment, bout):
    """A track that leaves a reached measurement unlabelled, or holds a label
    the selected measurement does not offer, has no operator."""
    f, x = Track.from_mapping(assignment), greedy_schedule(teleport)
    rho = DensityOperator.from_ket(bell_input[1])
    for call in (
        lambda: cumulative_operator(teleport, x, f),
        lambda: bout_operator(teleport, bout, assignment),
        lambda: replay(teleport, x, f, rho),
        lambda: track_probability(teleport, f, rho),
    ):
        with pytest.raises(SemanticsError, match="track is incoherent at gate"):
            call()


def test_cumulative_operator_matches_kron_oracle(teleport):
    x = greedy_schedule(teleport)
    for m in "01":
        for n in "01":
            got = cumulative_operator(teleport, x, teleport_track(m, n))
            assert mat_close(got, teleport_cumulative_oracle(m, n), 1e-12)


def test_aggregate_measurement_teleport(teleport):
    agg = aggregate_measurement(teleport)
    assert agg.n_qubits == 3
    assert len(agg.operators) == 4
    assert agg.completeness_defect() <= 1e-9


def test_schedule_independence_teleport(teleport):
    greedy = greedy_schedule(teleport)
    for x in enumerate_linear_schedules(teleport, limit=None):
        assert schedules_equivalent(teleport, x, greedy)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_schedule_independence_random(seed):
    c = random_circuit(np.random.default_rng(seed), max_regs=3, max_gates=4)
    greedy = greedy_schedule(c)
    for x in enumerate_linear_schedules(c, limit=20):
        assert schedules_equivalent(c, x, greedy)


def test_aggregate_completeness_random():
    for seed in range(10):
        c = random_circuit(np.random.default_rng(seed), max_regs=3, max_gates=5)
        assert aggregate_measurement(c).completeness_defect() <= 1e-9


# --- the outcome-tree walker ------------------------------------------------


def crossed_order_circuit():
    """The greedy bouts meet mb (bout 0) before ma (bout 1); the topological
    order, which follows the gate sequence, meets ma first."""
    gates = (
        unitary_gate("h", [0], H), standard_measure_gate("ma", 0), standard_measure_gate("mb", 1)
    )
    return QuantumCircuit(("r0", "r1"), gates)


def walker_circuits(teleport):
    """Teleport, GHZ-3..5, the crossed-order circuit, and random circuits,
    some of them with classically controlled measurements."""
    randoms = [random_circuit(np.random.default_rng(s), max_regs=3, max_gates=6) for s in range(40)]
    assert any(g.is_measure and g.classical_sources for c in randoms for g in c.gates)
    return [teleport, *(ghz_circuit(n) for n in (3, 4, 5)), crossed_order_circuit(), *randoms]


def reference_tracks(c):
    """Reference tracks: found depth first over topo_order(c), then sorted
    by their (gate id, label) pairs."""
    order = topo_order(c)

    def rec(i, assignment):
        if i == len(order):
            return [Track.from_mapping(assignment)]
        g = c.gate(order[i])
        chosen = select_measurement(c, g.id, tuple(assignment[s] for s in g.classical_sources))
        if not g.is_measure:
            return rec(i + 1, assignment)
        return [f for lab in chosen.operators for f in rec(i + 1, {**assignment, g.id: lab})]

    return sorted(rec(0, {}), key=lambda f: f.outcomes)


def test_crossed_order_circuit_crosses():
    """The greedy walk meets mb first and the topological order ma, yet the
    tracks come in (gate id, label) order, ma's label first."""
    c = crossed_order_circuit()
    greedy = [gid for b in greedy_schedule(c).bouts for gid in sorted(b, key=c.index_of)]
    assert [gid for gid in greedy if gid.startswith("m")] == ["mb", "ma"]
    assert [gid for gid in topo_order(c) if gid.startswith("m")] == ["ma", "mb"]
    assert [(f.get("ma"), f.get("mb")) for f in enumerate_tracks(c)] == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")
    ]


def test_aggregate_is_the_walk_in_track_order(teleport):
    """Keys in enumerate_tracks order, which is (gate id, label) order, and
    every operator bit for bit cumulative_operator's."""
    for c in walker_circuits(teleport):
        agg = aggregate_measurement(c)
        assert list(agg.operators) == enumerate_tracks(c) == reference_tracks(c)
        x = greedy_schedule(c)
        for f, op in agg.operators.items():
            assert np.array_equal(op, cumulative_operator(c, x, f))


@pytest.mark.parametrize("c", [feed_forward_circuit(12), zam_circuit()], ids=["ff12", "zam"])
def test_tracks_come_in_gate_id_order_where_the_orders_cross(c, tmp_path, capsys):
    """ff-12's ids sort m10 and m11 before m2, and zam's a, m, z; neither
    the topological order nor the greedy walk meets the measurements so. The
    library and the `aggregate` document still list tracks in (gate id,
    label) order."""
    ids = sorted(g.id for g in c.gates if g.is_measure)
    topo = [gid for gid in topo_order(c) if gid in ids]
    greedy = [gid for b in in_bout_order(c, greedy_schedule(c).bouts) for gid in b if gid in ids]
    assert topo != ids and greedy != ids
    tracks = enumerate_tracks(c)
    assert tracks == sorted(tracks, key=lambda f: f.outcomes) == reference_tracks(c)
    assert list(aggregate_measurement(c).operators) == tracks
    assert [f for f, _ in track_operators(c, np.eye(2**c.n_registers)[:, :1])] == tracks
    path = tmp_path / "c.json"
    path.write_text(serialize_circuit(c))
    assert cli.main(["aggregate", str(path)]) == 0
    assert [t["outcomes"] for t in json.loads(capsys.readouterr().out)["tracks"]] == [f.as_dict() for f in tracks]


def test_thin_block_is_the_ancilla_zero_columns(teleport):
    """Walking from the columns of I for inputs |y>|0^k> gives A_f's columns
    y * 2^k within 1e-15. Not bit for bit: a block with fewer columns can
    take another summation order in the matrix product."""
    for c in walker_circuits(teleport):
        n = c.n_registers
        full = aggregate_measurement(c).operators
        for k in range(n + 1):
            thin = track_operators(c, np.kron(np.eye(2 ** (n - k)), np.eye(2**k)[:, :1]))
            assert [f for f, _ in thin] == list(full)
            for f, block in thin:
                assert np.max(np.abs(block - full[f][:, :: 2**k])) <= 1e-15


def per_track_distance(c, x, greedy_ops):
    """Reference: the largest entry difference between each track's
    cumulative operators under x and the greedy schedule, rebuilt from the
    identity track by track. The schedules are equivalent at tol iff it is <= tol."""
    return max(np.max(np.abs(cumulative_operator(c, x, f) - op)) for f, op in greedy_ops.items())


def test_schedules_equivalent_is_the_per_track_definition(teleport):
    """Same answer as the reference at tol 0, where only bit-identical
    operators agree, and at the default, over up to 20 linear schedules."""
    seen = set()
    for c in walker_circuits(teleport):
        greedy = greedy_schedule(c)
        greedy_ops = {f: cumulative_operator(c, greedy, f) for f in enumerate_tracks(c)}
        for x in enumerate_linear_schedules(c, limit=20):
            distance = per_track_distance(c, x, greedy_ops)
            for tol in (0.0, 1e-9):
                want = bool(distance <= tol)
                assert schedules_equivalent(c, x, greedy, tol) == want
                seen.add((tol, want))
            assert schedules_equivalent(c, greedy, x, 0.0) == (distance == 0.0)
    assert seen == {(0.0, True), (0.0, False), (1e-9, True)}


def test_schedules_equivalent_holds_one_stack():
    """GHZ-7, greedy against its first linear schedule: the greedy stack of
    128 tracks of 128 x 128 entries is 32 MiB, and the other schedule's
    rows are compared with it as they come, not held as a second stack."""
    c = ghz_circuit(7)
    x, y = greedy_schedule(c), next(iter(enumerate_linear_schedules(c, limit=1)))
    tracemalloc.start()
    try:
        assert schedules_equivalent(c, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20


def test_schedules_equivalent_rejects_invalid_schedules(teleport):
    greedy = greedy_schedule(teleport)
    missing = Schedule(greedy.bouts[:-1])
    one_bout = Schedule((frozenset(g.id for g in teleport.gates),))
    for bad in (missing, one_bout):
        with pytest.raises(ScheduleError):
            schedules_equivalent(teleport, bad, greedy)
        with pytest.raises(ScheduleError):
            schedules_equivalent(teleport, greedy, bad)


def test_track_stack_walks_the_greedy_schedule_alone(teleport):
    """`track_stack` takes no bouts, so none go unchecked: a 2-gate prefix
    of teleport is a TypeError, not one operator."""
    with pytest.raises(TypeError):
        semantics.track_stack(teleport, None, [["CNOT"], ["H"]])


@pytest.mark.parametrize("which", ["out-of-order", "first-bout-alone"])
def test_schedule_that_does_not_fit_is_rejected(which):
    """Every function that walks a schedule refuses one that fires a gate
    before its source or leaves gates unfired, instead of walking it."""
    c = QuantumCircuit(
        ("q0",),
        (unitary_gate("h", [0], H), unitary_gate("x", [0], X), standard_measure_gate("m", 0)),
    )
    greedy = greedy_schedule(c)
    x = linear_schedule(["x", "h", "m"]) if which == "out-of-order" else Schedule(greedy.bouts[:1])
    f, rho = Track.from_mapping({"m": "0"}), DensityOperator.from_ket(np.array([1.0, 0.0]))
    for call in (
        lambda: cumulative_operator(c, x, f),
        lambda: replay(c, x, f, rho),
        lambda: sample(c, x, rho, range(3)),
        lambda: run(c, x, rho, 0),
        lambda: schedules_equivalent(c, x, greedy),
    ):
        with pytest.raises(ScheduleError, match="schedule does not fit the circuit"):
            call()


def test_schedule_naming_an_unknown_gate_is_rejected():
    """A bout naming a gate the circuit lacks makes the schedule not fit: a
    `ScheduleError`, not the circuit's unknown-gate `CircuitError`."""
    c = QuantumCircuit(("q0",), (unitary_gate("h", [0], H), standard_measure_gate("m", 0)))
    x = Schedule((frozenset({"h"}), frozenset({"m", "nope"})))
    f, rho = Track.from_mapping({"m": "0"}), DensityOperator.from_ket(np.array([1.0, 0.0]))
    assert not validate_schedule(c, x) and not validate_schedule(c, Schedule((frozenset({"nope"}),)))
    for call in (
        lambda: cumulative_operator(c, x, f),
        lambda: replay(c, x, f, rho),
        lambda: sample(c, x, rho, range(3)),
        lambda: run(c, x, rho, 0),
        lambda: schedules_equivalent(c, greedy_schedule(c), x),
    ):
        with pytest.raises(ScheduleError, match="schedule does not fit the circuit"):
            call()


@pytest.mark.parametrize("seed", range(4))
def test_track_rows_by_key_is_track_stack(seed):
    """`track_rows` yields the walk's leaves as they come; placed by their
    keys in their full blocks (`semantics._full`) they are `track_stack`'s
    blocks, bit for bit, from I given or built by the walk (t0 None), and
    its code rows are the tracks of `enumerate_tracks` and `track_operators`."""
    c = random_circuit(np.random.default_rng(seed))
    eye = np.eye(2**c.n_registers, dtype=complex)
    codes, place, pieces = semantics.track_rows(c, eye)
    placed = np.empty((len(codes), *eye.shape), dtype=complex)
    for w, keys in pieces:
        placed[keys] = semantics._full(place, w, keys)
    for t0 in (eye, None):
        got, a = semantics.track_stack(c, t0)
        assert np.array_equal(got, codes) and a.tobytes() == placed.tobytes()
    tracks = semantics._plan(c).tracks(codes)
    assert tracks == [f for f, _ in track_operators(c, eye)] == enumerate_tracks(c)


def test_aggregate_measurement_cap(monkeypatch):
    """The cap holds, and an over-cap circuit fails before any operator is
    built: the tracks are counted first."""
    gates = tuple(standard_measure_gate(f"m{i}", i) for i in range(3))
    c = QuantumCircuit(("a", "b", "c"), gates)
    monkeypatch.setattr(semantics, "DEFAULT_TRACK_CAP", 8)
    assert len(aggregate_measurement(c).operators) == 8
    monkeypatch.setattr(semantics, "DEFAULT_TRACK_CAP", 7)
    monkeypatch.setattr(linalg, "apply", lambda *args: pytest.fail("an operator was applied"))
    with pytest.raises(SemanticsError, match="cap 7"):
        aggregate_measurement(c)


def test_aggregate_measurement_cap_on_the_general_walk(monkeypatch):
    """A circuit outside terminal form is capped by the same count on
    outcome codes (`_expand`), also before any operator is applied: ff3 has
    8 tracks."""
    c = feed_forward_circuit(3)
    monkeypatch.setattr(semantics, "DEFAULT_TRACK_CAP", 4)
    monkeypatch.setattr(linalg, "apply", lambda *args: pytest.fail("an operator was applied"))
    with pytest.raises(SemanticsError, match="track count exceeds cap 4"):
        aggregate_measurement(c)


# --- probabilities and replay -----------------------------------------------


def test_teleport_track_probabilities(teleport, bell_input):
    _, ket = bell_input
    rho = DensityOperator.from_ket(ket)
    probs = {
        f: track_probability(teleport, f, rho) for f in enumerate_tracks(teleport)
    }
    for p in probs.values():
        assert abs(p - 0.25) <= 1e-9
    assert abs(sum(probs.values()) - 1.0) <= 1e-9


def test_probabilities_sum_to_one_random():
    rng = np.random.default_rng(7)
    for seed in range(5):
        c = random_circuit(np.random.default_rng(seed), max_regs=3, max_gates=4)
        dim = 2**c.n_registers
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = DensityOperator(c.n_registers, b @ b.conj().T)
        total = sum(
            track_probability(c, f, rho) for f in enumerate_tracks(c)
        )
        assert abs(total - 1.0) <= 1e-9


def test_replay_telescopes(teleport, bell_input):
    _, ket = bell_input
    rho = DensityOperator.from_ket(ket)
    x = greedy_schedule(teleport)
    for f in enumerate_tracks(teleport):
        probs, final = replay(teleport, x, f, rho)
        assert abs(np.prod(probs) - track_probability(teleport, f, rho)) <= 1e-9
        op = cumulative_operator(teleport, x, f)
        assert mat_close(final, op @ rho.matrix @ op.conj().T, 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(-1020, 500))
@example(-530)
@example(-1020)
def test_replay_does_not_depend_on_the_input_scale(k):
    """The probe's input scaled by 2^k gives the same probabilities, bit for
    bit, and the final state times 4^k, where its entries stay normal; down
    to k = -1020, the least at which the input's nonzero parts are normal,
    though its trace underflows below k = -537."""
    c = h_then_measure_circuit([0, 1])
    x, f = greedy_schedule(c), Track.from_mapping({"m0": "0", "m1": "1"})
    probs, final = replay(c, x, f, DensityOperator.from_ket(SCALE_KET))
    probs_k, final_k = replay(c, x, f, DensityOperator.from_ket(SCALE_KET * 2.0**k))
    assert probs_k == probs and probs == pytest.approx([0.7, 0.98], abs=1e-12)
    if k >= -450:
        assert np.array_equal(final_k, final * 4.0**k)


def test_replay_of_a_track_that_dies_early_is_a_semantics_error():
    """Measuring |0> as 1 leaves nothing for the next bout to condition on."""
    c = QuantumCircuit(("q0",), (standard_measure_gate("a", 0), standard_measure_gate("b", 0)))
    f = Track.from_mapping({"a": "1", "b": "1"})
    rho = DensityOperator.from_ket(np.array([1.0, 0.0]))
    assert track_probability(c, f, rho) == 0.0
    with pytest.raises(SemanticsError, match="zero-probability track before bout 1"):
        replay(c, greedy_schedule(c), f, rho)


def test_track_probability_dimension_mismatch(teleport):
    with pytest.raises(SemanticsError):
        track_probability(
            teleport,
            teleport_track("0", "0"),
            DensityOperator(1, np.eye(2, dtype=complex)),
        )


def dense_probability(a, rho):
    """tr(A rho A^dag) / tr(rho) on rho's dense matrix, clamped to [0, 1]."""
    m = rho.matrix
    return min(max(np.trace(a @ m @ a.conj().T).real / np.trace(m).real, 0.0), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["ket", "factor", "matrix"]))
def test_probability_on_agrees_with_the_dense_trace(seed, kind):
    """Each track of a random circuit, on a ket, a rank-r factor or the
    matrix of one: `probability_on`, read off the state's factor, is within
    4 ulps of 1 (4 * 2^-52) of the dense tr(A rho A^dag) / tr(rho)."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng)
    n = c.n_registers
    r = 1 if kind == "ket" else int(rng.integers(1, 2**n + 1))
    k = rng.normal(size=(2**n, r)) + 1j * rng.normal(size=(2**n, r))
    rho = DensityOperator(n, k @ k.conj().T) if kind == "matrix" else DensityOperator(n, factor=k)
    for a in aggregate_measurement(c).operators.values():
        assert abs(probability_on(a, rho) - dense_probability(a, rho)) <= 4 * 2.0**-52


def test_probability_on_is_exactly_0_or_1_at_the_extremes():
    """p is exactly 1.0 for A = I, on a ket, a non-contiguous factor and a
    matrix state, and exactly 0.0 when A K = 0."""
    rng = np.random.default_rng(43)
    k = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))  # k.T: 4 x 3, not C-contiguous
    states = [DensityOperator.from_ket(k[0]), DensityOperator(2, factor=k.T), DensityOperator(2, k.T @ k.conj())]
    assert [probability_on(np.eye(4, dtype=complex), rho) for rho in states] == [1.0, 1.0, 1.0]
    zero = k.T * [[1], [1], [0], [0]]  # no weight where register 0 is 1, all that P1 on it keeps
    states = [DensityOperator.from_ket(zero[:, 0]), DensityOperator(2, factor=zero)]
    assert [probability_on(linalg.embed(P1, [0], 2), rho) for rho in states] == [0.0, 0.0]


# --- stochastic execution ---------------------------------------------------


def test_run_is_deterministic_per_seed(teleport, bell_input):
    _, ket = bell_input
    rho = DensityOperator.from_ket(ket)
    x = greedy_schedule(teleport)
    a = run(teleport, x, rho, seed=11)
    b = run(teleport, x, rho, seed=11)
    assert a.track == b.track
    assert mat_close(a.final_state.matrix, b.final_state.matrix, 0)
    seen = {run(teleport, x, rho, seed=s).track for s in range(40)}
    assert len(seen) == 4  # all four tracks appear across seeds


def test_run_final_state_matches_track(teleport, bell_input):
    _, ket = bell_input
    rho = DensityOperator.from_ket(ket)
    x = greedy_schedule(teleport)
    r = run(teleport, x, rho, seed=3)
    op = cumulative_operator(teleport, x, r.track)
    assert mat_close(r.final_state.matrix, op @ rho.matrix @ op.conj().T, 1e-9)
    assert len(r.step_log) == len(x.bouts)
    for _, _, p in r.step_log:
        assert 0.0 <= p <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_sample_matches_per_seed_runs(seed):
    """Shots sampled together, repeated seeds included, are the shots run
    one by one."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng)
    x = greedy_schedule(c)
    dim = 2**c.n_registers
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityOperator(c.n_registers, b @ b.conj().T)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=10)]
    seeds += seeds[:3]  # repeated seeds share every node of the outcome tree
    shared = sample(c, x, rho, seeds)
    assert len(shared) == len(seeds)
    for s, got in zip(seeds, shared):
        one = run(c, x, rho, s)
        assert got.track == one.track
        assert [(b, o) for b, o, _ in got.step_log] == [(b, o) for b, o, _ in one.step_log]
        for (_, _, p), (_, _, q) in zip(got.step_log, one.step_log):
            assert abs(p - q) <= 1e-12
        assert mat_close(got.final_state.matrix, one.final_state.matrix, 1e-12)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def splitmix64_output(seed, t):
    """Output t + 1 of SplitMix64 from state `seed`, in Python ints."""
    x = (int(seed) + (t + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def splitmix64_draw(seed, t):
    """Output t + 1 of SplitMix64 from state `seed`, in Python ints, as a double."""
    return (splitmix64_output(seed, t) >> 11) * 2.0**-53


def _reference_draws(seeds, n_bouts):
    return np.array([[splitmix64_draw(s, t) for t in range(n_bouts)] for s in seeds]).reshape(
        len(seeds), n_bouts
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=6), st.integers(0, 65))
def test_uniforms_match_splitmix64_reference(seeds, n_bouts):
    """The vectorized draws equal the pure-Python-int SplitMix64 reference
    element by element, for seed lists and uint64 arrays, up to 65 bouts."""
    want = _reference_draws(seeds, n_bouts)
    got = _uniforms(seeds, n_bouts)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(_uniforms(np.array(seeds, dtype=np.uint64), n_bouts), want)


def test_uniforms_edge_seeds():
    """Seeds 0, 1, 2**32 - 1, 2**32 and 2**64 - 1 draw as the reference does."""
    want = _reference_draws(EDGE_SEEDS, 65)
    assert np.array_equal(_uniforms(EDGE_SEEDS, 65), want)
    assert np.array_equal(_uniforms(np.array(EDGE_SEEDS, dtype=np.uint64), 65), want)


@pytest.mark.parametrize(
    "bad, error", [(-1, ValueError), (2**64, ValueError), (1.5, TypeError)], ids=["negative", "2**64", "float"]
)
def test_uniforms_reject_seeds_outside_the_uint64_range(bad, error):
    with pytest.raises(error):
        _uniforms([5, bad], 3)


@pytest.mark.parametrize("bad", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
def test_uniforms_reject_bool_seeds(bad, teleport, bell_input):
    """A Python or numpy bool is not a seed: TypeError in `_uniforms`,
    `sample` and `run`."""
    rho = DensityOperator.from_ket(bell_input[1])
    x = greedy_schedule(teleport)
    with pytest.raises(TypeError):
        _uniforms([5, bad], 3)
    with pytest.raises(TypeError):
        _uniforms(np.array([bad]), 3)
    with pytest.raises(TypeError):
        sample(teleport, x, rho, [bad])
    with pytest.raises(TypeError):
        run(teleport, x, rho, bad)


def test_uniforms_of_consecutive_seeds_are_uniform():
    """Seeds 0..16383 x 4 bouts in 64 equal bins: Pearson's chi-square stays
    below 131.4, the 1e-6 upper quantile of chi-square with 63 degrees of freedom."""
    counts = np.bincount((_uniforms(range(2**14), 4) * 64).astype(int).ravel(), minlength=64)
    expected = 2**16 / 64
    assert len(counts) == 64
    assert np.sum((counts - expected) ** 2 / expected) < 131.4


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=6), st.integers(0, 65))
def test_splitmix64_matches_reference(seeds, count):
    """The raw uint64 outputs equal the pure-Python-int reference element by
    element, for seed lists and uint64 arrays."""
    want = np.array([[splitmix64_output(s, t) for t in range(count)] for s in seeds], dtype=np.uint64)
    want = want.reshape(len(seeds), count)
    for given_seeds in (seeds, np.array(seeds, dtype=np.uint64)):
        got = splitmix64(given_seeds, count)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)


def test_splitmix64_edge_seeds():
    """Seeds 0 and 2**64 - 1 (among others) give the reference outputs; the
    uniforms are exactly their top 53 bits."""
    want = [[splitmix64_output(s, t) for t in range(65)] for s in EDGE_SEEDS]
    for given_seeds in (EDGE_SEEDS, np.array(EDGE_SEEDS, dtype=np.uint64)):
        got = splitmix64(given_seeds, 65)
        assert got.tolist() == want
        assert np.array_equal((got >> 11) * 2.0**-53, _uniforms(EDGE_SEEDS, 65))


def test_uniforms_empty():
    assert _uniforms([], 5).shape == (0, 5)
    assert _uniforms(np.array([], dtype=np.uint64), 5).shape == (0, 5)
    assert _uniforms([1, 2**40], 0).shape == (2, 0)


def oracle_expand(c, bout, assignment, k, step, mass):
    """A node of the outcome tree the way the executor built it before it
    walked the tree: every combination of the bout's measurement labels
    (sorted per gate, itertools.product in sequence order), each applied
    gate by gate with `step` over the whole bout from k and weighed by `mass`."""
    gids = [gid for gid in bout if c.gate(gid).is_measure]
    choices = [
        sorted(select_measurement(c, gid, source_outcomes(c.gate(gid), assignment)).operators)
        for gid in gids
    ]
    combos = list(itertools.product(*choices))
    states = []
    for combo in combos:
        full, s = {**assignment, **dict(zip(gids, combo))}, k
        for gid in bout:
            g = c.gate(gid)
            chosen = select_measurement(c, gid, source_outcomes(g, full))
            op = chosen.operators[full[gid]] if g.is_measure else chosen.matrix
            s = step(op, g.registers, s, c.n_registers)
        states.append(s)
    tr_before = mass(k)
    weights = [max(mass(s) / tr_before, 0.0) for s in states]
    return gids, combos, weights, list(itertools.accumulate(weights)), sum(weights), states


def dense_conjugate(op, registers, sigma, n):
    """embed(op) sigma embed(op)^dag, the dense two-sided step."""
    e = linalg.embed(op, registers, n)
    return e @ sigma @ e.conj().T


def per_shot_sample_oracle(c, x, rho, seeds, dense=False):
    """The executor before draws were vectorized: each shot walks its own
    path, drawing u = splitmix64_draw(seed, t) per bout and picking the
    first running weight sum >= u * total; nodes and finals shared by path.
    It walks rho's factor K as A K, or with `dense` the matrix as A rho A^dag."""
    bouts = [tuple(sorted(b, key=c.index_of)) for b in x.bouts]
    if dense:
        step, mass = dense_conjugate, lambda s: linalg.trace(s).real
    else:
        step, mass = apply, linalg.squared_norm
    nodes, finals, results = {}, {}, []
    for seed in seeds:
        path, sigma, assignment, log = (), rho.matrix if dense else rho.factor, {}, []
        for t, bout in enumerate(bouts):
            if path not in nodes:
                nodes[path] = oracle_expand(c, bout, assignment, sigma, step, mass)
            gids, combos, weights, cumulative, total, states = nodes[path]
            u = splitmix64_draw(seed, t) * total
            pick = next((i for i, a in enumerate(cumulative) if u <= a), len(combos) - 1)
            assignment.update(zip(gids, combos[pick]))
            sigma = states[pick]
            path += (combos[pick],)
            log.append((bout, combos[pick], weights[pick]))
        if path not in finals:
            state = (
                DensityOperator(c.n_registers, sigma) if dense
                else DensityOperator(c.n_registers, factor=sigma)
            )
            finals[path] = RunResult(Track.from_mapping(assignment), state, tuple(log))
        results.append(finals[path])
    return results


def _assert_same_shots(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.track == b.track
        assert a.step_log == b.step_log
        assert np.array_equal(a.final_state.matrix, b.final_state.matrix)


def _mixed_case(corpus_seed):
    """A random circuit, its greedy schedule, a full-rank mixed input and seeds
    that include the edge seeds and repeats."""
    rng = np.random.default_rng(corpus_seed)
    c = random_circuit(rng)
    dim = 2**c.n_registers
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityOperator(c.n_registers, b @ b.conj().T)
    seeds = [int(s) for s in rng.integers(0, 2**32, size=20)]
    seeds += [int(s) for s in rng.integers(2**32, 2**64, size=20, dtype=np.uint64)]
    seeds += EDGE_SEEDS + seeds[:5] + seeds[20:25]  # repeated seeds share every node
    return c, greedy_schedule(c), rho, seeds


@pytest.mark.parametrize("corpus_seed", range(12))
def test_sample_matches_per_shot_oracle(corpus_seed):
    """`sample` against the per-shot executor with the pure-Python SplitMix64
    draws, whose nodes are expanded without the walker (`oracle_expand`):
    same tracks, step logs and final states, bit for bit."""
    c, x, rho, seeds = _mixed_case(corpus_seed)
    want = per_shot_sample_oracle(c, x, rho, seeds)
    _assert_same_shots(sample(c, x, rho, seeds), want)
    _assert_same_shots(sample(c, x, rho, np.array(seeds, dtype=np.uint64)), want)


@pytest.mark.parametrize("corpus_seed", range(12))
def test_mixed_input_sample_agrees_with_dense_reference(corpus_seed):
    """The full-rank matrix input, walked as its factor, against the per-shot
    reference that conjugates the dense state gate by gate: same tracks and
    step labels, weights within 1e-12, final states within 1e-12 of their
    largest entry."""
    c, x, rho, seeds = _mixed_case(corpus_seed)
    for a, b in zip(sample(c, x, rho, seeds), per_shot_sample_oracle(c, x, rho, seeds, dense=True)):
        assert a.track == b.track
        assert [(bo, o) for bo, o, _ in a.step_log] == [(bo, o) for bo, o, _ in b.step_log]
        assert all(abs(p - q) <= 1e-12 for (_, _, p), (_, _, q) in zip(a.step_log, b.step_log))
        want = b.final_state.matrix
        assert np.max(np.abs(a.final_state.matrix - want)) <= 1e-12 * np.max(np.abs(want))


def test_sample_with_zero_bouts():
    c = QuantumCircuit(("r0",), ())
    x = greedy_schedule(c)
    assert len(x.bouts) == 0
    rho = DensityOperator.from_ket(np.array([0.6, 0.8]))
    got = sample(c, x, rho, [0, 2**64 - 1, 0])
    _assert_same_shots(got, per_shot_sample_oracle(c, x, rho, [0, 2**64 - 1, 0]))
    assert got[0].track == Track(()) and got[0].step_log == ()
    assert sample(c, x, rho, []) == []


def test_sample_tie_picks_the_first_outcome_reaching_u(monkeypatch):
    """u * total equal to a running sum picks that sum's outcome (`u <= a`)."""
    c = QuantumCircuit(("r0",), (standard_measure_gate("m", 0),))
    rho = DensityOperator(1, np.eye(2, dtype=complex) / 2)  # weights exactly 0.5, 0.5
    monkeypatch.setattr(semantics, "_uniforms", lambda seeds, n: np.full((len(seeds), n), 0.5))
    assert [r.track.get("m") for r in sample(c, greedy_schedule(c), rho, [0, 1])] == ["0", "0"]


def test_ket_input_is_walked_one_sided(monkeypatch, teleport, bell_input):
    """A ket input is advanced as A K, and no state it produces is
    eigen-checked: neither eigh nor eigvalsh runs."""
    circuits = [(teleport, bell_input[1])]
    for s in range(4):
        rng = np.random.default_rng([31, s])
        c = random_circuit(rng, max_gates=8)
        circuits.append((c, rng.normal(size=2**c.n_registers) + 1j * rng.normal(size=2**c.n_registers)))
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh was called"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: pytest.fail("eigvalsh was called"))
    for c, ket in circuits:
        rho, x = DensityOperator.from_ket(ket), greedy_schedule(c)
        results = sample(c, x, rho, range(40)) + [run(c, x, rho, 7)]
        assert all(r.final_state.factor is not None for r in results)


@pytest.mark.parametrize("corpus_seed", range(12))
def test_factored_sample_agrees_with_dense(corpus_seed):
    """The same ket, once as a factor and once as its density matrix: same
    tracks and step labels, weights within 1e-12, final states within 1e-12
    of their largest entry."""
    rng = np.random.default_rng([37, corpus_seed])
    c = random_circuit(rng, max_gates=8)
    x = greedy_schedule(c)
    v = rng.normal(size=2**c.n_registers) + 1j * rng.normal(size=2**c.n_registers)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=30)]
    factored = sample(c, x, DensityOperator.from_ket(v), seeds)
    dense = sample(c, x, DensityOperator(c.n_registers, np.outer(v, v.conj())), seeds)
    for a, b in zip(factored, dense):
        assert a.track == b.track
        assert [(bo, o) for bo, o, _ in a.step_log] == [(bo, o) for bo, o, _ in b.step_log]
        for (_, _, p), (_, _, q) in zip(a.step_log, b.step_log):
            assert abs(p - q) <= 1e-12
        want = b.final_state.matrix
        assert np.max(np.abs(a.final_state.matrix - want)) <= 1e-12 * np.max(np.abs(want))


def times_power_of_two(k, e):
    """k * 2^e in k's memory layout, its real and imaginary parts scaled apart."""
    out = np.empty_like(k)
    out.real, out.imag = np.ldexp(k.real, e), np.ldexp(k.imag, e)
    return out


@pytest.mark.parametrize("corpus_seed", range(6))
def test_probabilities_and_shots_do_not_depend_on_the_state_scale(corpus_seed):
    """A ket or a rank-r factor (not C-contiguous) times s = 2^e, for every e
    at which a part of it is nonzero, each accepted: `probability_on` is in
    [0, 1], and wherever K's nonzero parts stay normal floats (far below the
    e near -537 at which ||K||^2 underflows) it is the one at s = 1, bit for
    bit. Wherever the final states' traces stay normal floats, so are
    `sample`'s tracks and step logs, and each final factor is s times the one
    at s = 1 exactly; so is each `final_state_raw` s^2 times, wherever the
    products that form it stay normal too."""
    rng = np.random.default_rng([41, corpus_seed])
    c = random_circuit(rng)
    x, n = greedy_schedule(c), c.n_registers
    r = int(rng.integers(1, 2**n + 1)) if corpus_seed % 2 else 1
    k = (rng.normal(size=(r, 2**n)) + 1j * rng.normal(size=(r, 2**n))).T
    seeds = [int(s) for s in rng.integers(0, 2**63, size=20)] + EDGE_SEEDS
    ops = list(aggregate_measurement(c).operators.values())
    accepted = []
    for e in range(-1100, 1100):
        try:
            with np.errstate(over="ignore"):  # an infinite entry is not accepted
                accepted.append((e, DensityOperator(n, factor=times_power_of_two(k, e))))
        except linalg.LinalgError:
            pass
    assert [e for e, _ in accepted] == list(range(accepted[0][0], accepted[-1][0] + 1))
    k_parts = np.abs(np.ravel([k.real, k.imag]))
    assert accepted[0][0] == -1074 - np.frexp(k_parts.max())[1]  # the least e at which a part is nonzero
    normal = -1021 - np.frexp(k_parts[k_parts > 0].min())[1]  # the least e at which every nonzero part is normal
    base = DensityOperator(n, factor=k)
    probs, shots = [probability_on(a, base) for a in ops], sample(c, x, base, seeds)
    parts = np.abs(np.concatenate([np.ravel([v.final_state.factor.real, v.final_state.factor.imag]) for v in shots]))
    least = parts[parts > 0].min()  # the smallest nonzero part of a final factor at s = 1
    trace = min(linalg.squared_norm(v.final_state.factor) for v in shots)
    tiny, raw_checked = np.finfo(float).tiny, 0
    at_normal = [(e, rho) for e, rho in accepted if e in (normal, normal + 1)]
    for e, rho in accepted[::29] + at_normal + accepted[-1:]:
        got = [probability_on(a, rho) for a in ops]
        assert all(0.0 <= p <= 1.0 for p in got)
        if e < normal:
            continue
        assert got == probs
        if np.ldexp(trace, 2 * e) < tiny:
            continue
        for a, b in zip(sample(c, x, rho, seeds), shots):
            assert a.track == b.track and a.step_log == b.step_log
            assert np.array_equal(a.final_state.factor, times_power_of_two(b.final_state.factor, e))
            if np.ldexp(least**2, 2 * e) >= tiny:
                assert np.array_equal(a.final_state.matrix, times_power_of_two(b.final_state.matrix, 2 * e))
                raw_checked += 1
    assert raw_checked > 0


def test_ghz12_shots_from_a_ket_take_no_density_matrix():
    """GHZ-12 from |0...0>: a dense state would be 256 MiB; the ket walk
    stays far below, and only the all-0 and all-1 tracks occur."""
    n = 12
    c, psi = ghz_circuit(n), np.zeros(2**n)
    psi[0] = 1.0
    tracemalloc.start()
    try:
        results = sample(c, greedy_schedule(c), DensityOperator.from_ket(psi), range(200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    tracks = {tuple(sorted(set(r.track.as_dict().values()))) for r in results}
    assert tracks == {("0",), ("1",)}


def test_sample_holds_one_path_of_the_outcome_tree():
    """Deferred ff-10 from |0...0> with 1000 shots: beyond the distinct final
    states it returns, sampling holds one root-to-leaf path of 2^11 kets and
    their pending siblings, not one state per distinct outcome prefix."""
    d = defer_measurements(feed_forward_circuit(10)).circuit
    psi = np.zeros(2**d.n_registers)
    psi[0] = 1.0
    rho, x = DensityOperator.from_ket(psi), greedy_schedule(d)
    tracemalloc.start()
    try:
        results = sample(d, x, rho, range(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = {id(r.final_state.factor): r.final_state.factor.nbytes for r in results}
    assert peak <= sum(returned.values()) + 4 * 2**20


def test_an_outcome_tree_deeper_than_the_recursion_limit(tmp_path):
    """1100 single-outcome measurements in a row make one track, walked and
    aggregated without a frame per measurement."""
    gates = [measure_gate(f"m{i}", [0], {"only": np.eye(2)}) for i in range(1100)]
    c = QuantumCircuit(("r0",), tuple(gates))
    assert len(enumerate_tracks(c)) == 1
    path = tmp_path / "deep.json"
    path.write_text(serialize_circuit(c))
    assert cli.main(["aggregate", str(path)]) == 0


def test_run_frequency_sanity():
    c = QuantumCircuit(("r0",), (unitary_gate("h", [0], H), standard_measure_gate("m", 0)))
    rho = DensityOperator.from_ket(np.array([1.0, 0.0]))
    x = greedy_schedule(c)
    zeros = sum(run(c, x, rho, seed=s).track.get("m") == "0" for s in range(400))
    assert 120 <= zeros <= 280


def test_run_rejects_wrong_dimension(teleport):
    with pytest.raises(SemanticsError):
        run(
            teleport,
            greedy_schedule(teleport),
            DensityOperator(1, np.eye(2, dtype=complex)),
            seed=0,
        )


# --- draws of 0 and states of small norm -------------------------------------------

GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment


def zero_draw_seed(t):
    """The seed whose draw at bout t is u = 0: its state after t + 1
    increments is 0, which the mixer sends to 0."""
    return -(t + 1) * GAMMA % 2**64


def _unxorshift(z, s):
    x = z
    for _ in range(64 // s + 1):
        x = z ^ x >> s
    return x


def splitmix64_seed_with_output(z, t):
    """The seed whose output t + 1 is z: `splitmix64_output` inverted."""
    z = _unxorshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = _unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return (_unxorshift(z, 30) - (t + 1) * GAMMA) % 2**64


def x_then_measure():
    """X on one qubit, then its standard measurement: from |0>, the outcome
    "0" has probability 0 and comes first."""
    return QuantumCircuit(("q",), (unitary_gate("x", [0], X), standard_measure_gate("m", 0)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 300))
def test_splitmix64_seed_with_output_inverts_the_stream(z, t):
    seed = splitmix64_seed_with_output(z, t)
    assert 0 <= seed < 2**64 and splitmix64_output(seed, t) == z


def test_zero_draw_seeds():
    seeds = [zero_draw_seed(t) for t in range(6)]
    assert seeds[1] == 14092058508772706262
    assert np.array_equal(_uniforms(seeds, 6).diagonal(), np.zeros(6))


def test_zero_draw_skips_outcomes_of_probability_zero():
    """u = 0 at the measurement takes the first outcome of positive weight,
    "1", not the leading "0" of weight 0 (whose path has zero trace)."""
    c = x_then_measure()
    zero = DensityOperator.from_ket(np.array([1.0, 0.0]))
    for seeds in ([zero_draw_seed(1)], [zero_draw_seed(1), zero_draw_seed(0), 5]):
        for shot in sample(c, greedy_schedule(c), zero, seeds):
            assert shot.track.as_dict() == {"m": "1"}
            assert [p for _, _, p in shot.step_log] == [1.0, 1.0]


@pytest.mark.parametrize("corpus_seed", range(12))
def test_zero_draws_match_per_shot_oracle(corpus_seed):
    """A shot per bout whose draw there is u = 0: on the oracle test's
    circuits and mixed inputs, where no outcome has weight 0, `sample` picks
    what the per-shot oracle picks, the first combination, bit for bit."""
    c, x, rho, _ = _mixed_case(corpus_seed)
    seeds = [zero_draw_seed(t) for t in range(len(x.bouts))]
    got = sample(c, x, rho, seeds)
    _assert_same_shots(got, per_shot_sample_oracle(c, x, rho, seeds))
    assert all(p > 0.0 for r in got for _, _, p in r.step_log)


def classical_circuit(rng):
    """X, CNOT, standard measurements and X gates controlled by an earlier
    outcome, on up to three registers: from a basis state, each bout has one
    outcome combination of probability 1 and the others 0."""
    n = int(rng.integers(1, 4))
    gates, measured = [], []
    for i in range(int(rng.integers(1, 9))):
        kind, r = int(rng.integers(4)), int(rng.integers(n))
        if kind == 0:
            gates.append(unitary_gate(f"g{i}", [r], X))
        elif kind == 1 and n > 1:
            gates.append(unitary_gate(f"g{i}", [r, (r + 1 + int(rng.integers(n - 1))) % n], CNOT))
        elif kind == 2 and measured:
            source = measured[int(rng.integers(len(measured)))]
            gates.append(controlled_unitary_gate(f"g{i}", [r], [source], {"I": I2, "X": X}, {("0",): "I", ("1",): "X"}))
        else:
            gates.append(standard_measure_gate(f"g{i}", r))
            measured.append(f"g{i}")
    return QuantumCircuit(tuple(f"r{j}" for j in range(n)), tuple(gates))


@pytest.mark.parametrize("corpus_seed", range(24))
def test_zero_draws_on_a_classical_circuit_take_the_certain_track(corpus_seed):
    """From a basis state through a `classical_circuit`, shots with a draw
    u = 0 at some bout take the one track of probability 1, each step of
    probability 1, where the leading combination often has probability 0."""
    rng = np.random.default_rng([26, corpus_seed])
    c = classical_circuit(rng)
    x = greedy_schedule(c)
    psi = np.zeros(2**c.n_registers, dtype=complex)
    psi[int(rng.integers(len(psi)))] = 1.0
    rho = DensityOperator.from_ket(psi)
    for r in sample(c, x, rho, [zero_draw_seed(t) for t in range(len(x.bouts))] + [1, 2]):
        assert [p for _, _, p in r.step_log] == [1.0] * len(x.bouts)
        assert track_probability(c, r.track, rho) == pytest.approx(1.0)


def test_sample_runs_a_state_of_subnormal_trace():
    """The ket (1e-160, 0) is a valid state of trace 1e-320: the zero-trace
    bound is relative to the input's trace, so it runs, and its final state
    normalizes to |1><1|."""
    c = x_then_measure()
    tiny = DensityOperator.from_ket(np.array([1e-160, 0.0]))
    for shot in sample(c, greedy_schedule(c), tiny, [0, 1, zero_draw_seed(1)]):
        assert shot.track.as_dict() == {"m": "1"}
        assert shot.final_state.matrix[1, 1] == 1e-320
        assert mat_close(shot.final_state.normalized(), P1, 1e-15)


SCALES = sorted({*range(-500, 501, 50), -499, -1, 1, 499})


def _scale_cases():
    for corpus_seed in range(12):
        yield pytest.param(_mixed_case(corpus_seed)[0], False, id=f"random-{corpus_seed}")
    yield pytest.param(make_teleportation(), True, id="teleport")
    yield pytest.param(ghz_circuit(3), True, id="ghz-3")
    yield pytest.param(feed_forward_circuit(3), True, id="ff-3")


@pytest.mark.parametrize("c, clean", list(_scale_cases()))
def test_sample_is_invariant_under_power_of_two_scales(c, clean, monkeypatch):
    """A ket scaled by 2^k, k in [-500, 500], gives every shot the same track
    and step log: the weights keep their bits while every squared float of
    every path stays a normal double. A (ket, k) pair where one would not is
    skipped; from |0...0> on the named circuits none is."""
    x, seeds = greedy_schedule(c), [*range(16), *EDGE_SEEDS]
    dim = 2**c.n_registers
    rng = np.random.default_rng(dim)
    basis = np.zeros(dim, dtype=complex)
    basis[0] = 1.0
    for ket in (basis, rng.normal(size=dim) + 1j * rng.normal(size=dim)):
        squares = []  # the squared nonzero floats of every state `sample` weighs
        weigh = linalg.squared_norm

        def recorded(k):
            parts = np.ascontiguousarray(k).view(float)
            squares.append(parts[parts != 0] ** 2)
            return weigh(k)

        with monkeypatch.context() as m:
            m.setattr(linalg, "squared_norm", recorded)
            want = sample(c, x, DensityOperator.from_ket(ket), seeds)
        squares = np.concatenate(squares)
        ran = []
        for k in SCALES:
            scale = 2.0 ** (2 * k)
            if not np.finfo(float).tiny <= squares.min() * scale <= squares.max() * scale * squares.size <= np.finfo(float).max:
                continue  # some path would go subnormal or overflow
            got = sample(c, x, DensityOperator.from_ket(ket * 2.0**k), seeds)
            assert [(r.track, r.step_log) for r in got] == [(r.track, r.step_log) for r in want]
            ran.append(k)
        if clean and ket is basis:
            assert ran == SCALES
