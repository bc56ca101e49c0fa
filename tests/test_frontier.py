"""The frontier walk against the depth-first walk it replaced, kept in
`reference_walk`: the same leaves in the same order with the same bytes in
every row that a settled measurement keeps, and +0.0 in every row that it
drops; the same shots and shot counts; and the track cap counted on outcome
codes alone."""

import collections
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_walk
from corpus import feed_forward_circuit, ghz_circuit, random_circuit
from qcirc import linalg, semantics
from qcirc.circuit import (
    CircuitError,
    Gate,
    Measurement,
    QuantumCircuit,
    controlled_unitary_gate,
    measure_gate,
    standard_measure_gate,
    unitary_gate,
)
from qcirc.deferral import defer_measurements, random_pure_inputs
from qcirc.linalg import DensityOperator
from qcirc.scheduling import enumerate_linear_schedules, greedy_schedule
from conftest import make_teleportation
from test_semantics import EDGE_SEEDS, _mixed_case, crossed_order_circuit, zero_draw_seed
from test_terminal import DEFERRED, ancilla_zero, assert_same_block


def assert_same_leaves(c, t0):
    """The leaves of `track_rows` on c, each stack taken leaf by leaf and
    placed in its full block (`semantics._full`), and the reference walk's:
    keys, tracks, order, and every block's bytes (`assert_same_block`)."""
    codes, place, pieces = semantics.track_rows(c, t0)
    tracks = semantics._plan(c).tracks(codes)
    got = [(k, tracks[k], a) for w, keys in pieces for k, a in zip(keys.tolist(), semantics._full(place, w, keys))]
    want = list(reference_walk.walk_tracks(c, t0))
    assert [leaf[:2] for leaf in got] == [leaf[:2] for leaf in want]
    for (k, _, a), (_, _, b) in zip(got, want):
        assert_same_block(a, b, place[0][k] + place[1])


def starts(c, principal, seed=11):
    """I (up to 8 registers), the principal registers' I with the others |0>,
    and three and four random kets on the principal registers, the others
    |0>: settled measurements keep their rows from a multiple of 4 columns."""
    n = c.n_registers
    if n <= 8:
        yield np.eye(2**n, dtype=complex)
    yield ancilla_zero(c, np.eye(2**principal, dtype=complex))
    for k in (3, 4):
        yield ancilla_zero(c, np.stack(random_pure_inputs(principal, k, seed), axis=1))


def walker_circuits():
    randoms = [random_circuit(np.random.default_rng(s), max_regs=3, max_gates=6) for s in range(40)]
    return [make_teleportation(), crossed_order_circuit(), *randoms]


@pytest.mark.parametrize("i", range(42))
def test_walker_circuits_walk_as_the_reference(i):
    c = walker_circuits()[i]
    for t0 in starts(c, (c.n_registers + 1) // 2):
        assert_same_leaves(c, t0)


@pytest.mark.parametrize("name, c", DEFERRED, ids=[n for n, _ in DEFERRED])
def test_deferred_corpus_walks_as_the_reference(name, c):
    """Each deferred target, whose measurements all settle."""
    d = defer_measurements(c).circuit
    for t0 in starts(d, c.n_registers):
        assert_same_leaves(d, t0)


@pytest.mark.parametrize("k", range(1, 9))
def test_feed_forward_walks_as_the_reference(k):
    c = feed_forward_circuit(k)
    for t0 in starts(c, 2):
        assert_same_leaves(c, t0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_circuits_walk_as_the_reference(seed):
    """Random circuits, often with classically controlled measurements."""
    c = random_circuit(np.random.default_rng(seed), max_regs=3, max_gates=8, p_measure=0.5, p_cc=0.7)
    for t0 in starts(c, c.n_registers, seed):
        assert_same_leaves(c, t0)


def test_split_frontiers_walk_as_the_reference(monkeypatch):
    """A budget of one byte splits every frontier of two or more blocks: the
    leaves, their order and their bytes stay the same."""
    monkeypatch.setattr(semantics, "FRONTIER_BYTES", 1)
    for c in walker_circuits()[:16] + [feed_forward_circuit(3), feed_forward_circuit(6)]:
        for t0 in starts(c, (c.n_registers + 1) // 2):
            assert_same_leaves(c, t0)
    for _, c in DEFERRED[:6]:
        d = defer_measurements(c).circuit
        assert_same_leaves(d, ancilla_zero(d, np.eye(2**c.n_registers, dtype=complex)))


def test_a_general_walk_streams_its_leaves():
    """GHZ-7 from 126 columns of I, on which no measurement settles, has 128
    leaves of 252 KiB, 31.5 MiB in all; taken from `track_rows` and dropped
    one stack at a time, it peaks below 8 MiB, because a frontier over
    FRONTIER_BYTES is split and its halves walked in turn."""
    c, eye = ghz_circuit(7), np.eye(128, dtype=complex)[:, :126]
    tracemalloc.start()
    try:
        assert sum(len(keys) for w, keys in semantics.track_rows(c, eye)[2] if w.shape[1] == 128) == 128
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def assert_same_shots(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.track == b.track and a.step_log == b.step_log
        assert a.final_state.factor.tobytes() == b.final_state.factor.tobytes()


def shot_cases():
    for corpus_seed in range(12):
        c, x, rho, seeds = _mixed_case(corpus_seed)
        yield pytest.param(c, x, rho, seeds, id=f"mixed-{corpus_seed}")
    for name, c in [("teleport", make_teleportation()), ("ff4", feed_forward_circuit(4)),
                    ("deferred-ff6", defer_measurements(feed_forward_circuit(6)).circuit)]:
        psi = np.zeros(2**c.n_registers, dtype=complex)
        psi[0] = 1.0
        yield pytest.param(c, greedy_schedule(c), DensityOperator.from_ket(psi), [*range(300), *EDGE_SEEDS], id=name)


@pytest.mark.parametrize("c, x, rho, seeds", list(shot_cases()))
def test_sample_matches_the_reference_sampler(c, x, rho, seeds):
    """Track, step log and final-state bytes, shot by shot."""
    assert_same_shots(semantics.sample(c, x, rho, seeds), reference_walk.sample(c, x, rho, seeds))


@pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "one-byte-budget"])
@pytest.mark.parametrize("c, x, rho, seeds", list(shot_cases()))
def test_tally_counts_the_reference_samplers_tracks(c, x, rho, seeds, budget, monkeypatch):
    """`tally` is the reference sampler's track counts, in (gate id, label)
    order, also when a block holds one live node at a time."""
    if budget is not None:
        monkeypatch.setattr(semantics, "FRONTIER_BYTES", budget)
    got = semantics.tally(c, x, rho, seeds)
    want = collections.Counter(r.track for r in reference_walk.sample(c, x, rho, seeds))
    assert got == dict(want)
    assert list(got) == sorted(want, key=lambda f: f.outcomes)


def assert_tally_is_sample_counted(c, x, rho, seeds):
    """`tally` equals the track counts of `sample`, or raises its message."""
    try:
        want = collections.Counter(r.track for r in semantics.sample(c, x, rho, seeds))
    except semantics.SemanticsError as e:
        with pytest.raises(semantics.SemanticsError) as raised:
            semantics.tally(c, x, rho, seeds)
        assert str(raised.value) == str(e)
        return
    got = semantics.tally(c, x, rho, seeds)
    assert got == dict(want) and list(got) == sorted(want, key=lambda f: f.outcomes)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 100, 1000]), st.booleans())
def test_tally_is_sample_counted(seed, shots, mixed):
    """Random circuits, often with classically controlled measurements, under
    the greedy schedule and enumerated linear ones, from a ket or a full-rank
    mixed state."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, max_regs=3, max_gates=8, p_measure=0.5, p_cc=0.6)
    dim = 2**c.n_registers
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityOperator(c.n_registers, b @ b.conj().T) if mixed else DensityOperator.from_ket(b[:, 0])
    seeds = semantics.splitmix64([seed], shots)[0]
    for x in [greedy_schedule(c), *enumerate_linear_schedules(c, limit=3)]:
        assert_tally_is_sample_counted(c, x, rho, seeds)


@pytest.mark.parametrize("then, message", [((), "final state has zero trace"),
                                           ((unitary_gate("x", [0], linalg.X),), "zero-trace state before bout 1")])
def test_tally_raises_samples_zero_trace_errors(then, message):
    """From (1e-160, 1), a draw u = 0 at the measurement picks the outcome
    of weight 1e-320, below the floor: the later bout, or the end, raises,
    in `tally` as in `sample`."""
    c = QuantumCircuit(("q",), (standard_measure_gate("m", 0), *then))
    rho = DensityOperator.from_ket(np.array([1e-160, 1.0]))
    seeds = [5, zero_draw_seed(0), 7]
    for call in semantics.sample, semantics.tally:
        with pytest.raises(semantics.SemanticsError, match=f"^{message}$"):
            call(c, greedy_schedule(c), rho, seeds)
    assert semantics.tally(c, greedy_schedule(c), rho, [5, 7]) == {semantics.Track((("m", "1"),)): 2}


def test_sample_expands_in_frontier_chunks(monkeypatch):
    """A frontier of one live node at a time gives the same shots."""
    c, x, rho, seeds = _mixed_case(3)
    whole = semantics.sample(c, x, rho, seeds)
    monkeypatch.setattr(semantics, "FRONTIER_BYTES", 1)
    assert_same_shots(semantics.sample(c, x, rho, seeds), whole)


@pytest.mark.parametrize("call", [semantics.aggregate_measurement, semantics.enumerate_tracks])
def test_ff17_refuses_at_the_cap_on_codes(call, monkeypatch):
    """ff-17 has 2^17 tracks, over the cap: refused in under 100 ms (best of
    three), and before any operator is applied."""
    c = feed_forward_circuit(17)
    monkeypatch.setattr(semantics, "_run", lambda *args: pytest.fail("an operator was applied"))
    best = np.inf
    for _ in range(3):
        fresh = QuantumCircuit(c.register_names, c.gates)
        start = time.perf_counter()
        with pytest.raises(semantics.SemanticsError, match="track count exceeds cap 65536"):
            call(fresh)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1


def test_walk_checks_each_operator_once(monkeypatch):
    """The walk's operators are checked once, by the validation that its
    plan needs, and its kernel `linalg.apply` scans nothing: no
    `linalg.as_matrix` finite scan runs per call. A non-finite operator is
    the validator's `non-finite-entry`."""
    c = feed_forward_circuit(3)
    calls, apply = [], linalg.apply
    monkeypatch.setattr(linalg, "apply", lambda *args: calls.append(1) or apply(*args))
    monkeypatch.setattr(linalg, "as_matrix", lambda *args: pytest.fail("linalg.as_matrix was called"))
    assert len(semantics.aggregate_measurement(c).operators) == 8 and calls
    g = c.gates[0]
    bad = type(g)(g.id, g.registers, {g.id: type(g.unitaries[g.id])(g.id, np.diag([1.0, np.nan]))}, selector={(): g.id})
    with pytest.raises(CircuitError, match="^non-finite-entry@h0: unitary 'h0' is not finite$"):
        semantics.aggregate_measurement(QuantumCircuit(c.register_names, (bad, *c.gates[1:])))


def test_a_measurement_without_outcomes_is_refused_before_the_walk():
    """A measurement with no outcome is the validator's `empty-measurement`:
    the walk refuses the circuit before it counts a track."""
    empty = Measurement("empty", {})
    full = Measurement("full", {"x": np.eye(2)})
    g = Gate("g", (1,), measurements={"empty": empty, "full": full}, classical_sources=("m",),
             selector={("0",): "empty", ("1",): "full"})
    c = QuantumCircuit(("a", "b"), (measure_gate("h", [0], {"h": np.eye(2)}), standard_measure_gate("m", 0), g))
    with pytest.raises(CircuitError, match="^empty-measurement@g: measurement 'empty' has no outcome$"):
        semantics.enumerate_tracks(c)


@pytest.mark.parametrize("controls", [("m", "u"), ("u", "m")], ids=["measurement-first", "unitary-first"])
def test_a_source_without_outcome_is_named_as_the_reference_walk_names_it(controls):
    """A classical source that is a unitary records no outcome. The
    reference walk names the first such source in the gate's order, and so
    does the validator's `classical-source-not-measure`, which refuses the
    circuit before any walk: neither names a measurement source."""
    key = {"m": ("0", "1"), "u": ("x", "x")}
    selector = {tuple(key[s][i] for s in controls): "a" for i in range(2)}
    g = controlled_unitary_gate("g", [2], controls, {"a": np.eye(2)}, selector)
    c = QuantumCircuit(("a", "b", "c"), (standard_measure_gate("m", 0), unitary_gate("u", [1], linalg.X), g))
    with pytest.raises(semantics.SemanticsError) as want:
        list(reference_walk.walk_tracks(c, np.eye(8, dtype=complex)))
    assert str(want.value) == "gate 'g': no outcome recorded for classical source 'u'"
    with pytest.raises(CircuitError) as got:
        semantics.aggregate_measurement(c)
    assert str(got.value) == "classical-source-not-measure@g: classical source 'u' is not a measurement gate"
