import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import feed_forward_circuit, random_circuit
from qcirc import linalg, semantics
from qcirc.circuit import QuantumCircuit, standard_measure_gate, topo_order, unitary_gate
from qcirc.deferral import defer_measurements
from qcirc.linalg import CNOT, H, I2, X, Z, DensityOperator, kron_all, mat_close
from qcirc.scheduling import (
    Schedule,
    ScheduleError,
    enumerate_linear_schedules,
    greedy_schedule,
    linear_schedule,
)
from qcirc.semantics import (
    RunResult,
    SemanticsError,
    Track,
    _uniforms,
    aggregate_measurement,
    bout_operator,
    cumulative_operator,
    enumerate_tracks,
    replay,
    run,
    sample,
    schedules_equivalent,
    select_measurement,
    source_outcomes,
    track_operators,
    track_probability,
)

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
        kron_all([H, I2, I2]),
        np.kron(I2, kron_all([P1 if n == "1" else P0, xn])),
        kron_all([P1 if m == "1" else P0, I2, I2]),
        kron_all([I2, I2, zm]),
    ]
    out = np.eye(8, dtype=complex)
    for s in steps:
        out = s @ out
    return out


# --- selection and tracks ---------------------------------------------------


def test_select_measurement(teleport):
    m = select_measurement(teleport, "M", ())
    assert sorted(m.operators) == ["0", "1"]
    u = select_measurement(teleport, "XN", ("1",))
    assert np.allclose(u.matrix, X)


def test_select_measurement_errors(teleport):
    with pytest.raises(SemanticsError):
        select_measurement(teleport, "XN", ())  # wrong source-outcome count
    with pytest.raises(SemanticsError):
        select_measurement(teleport, "M", ("0",))


def test_enumerate_tracks_teleport(teleport):
    tracks = enumerate_tracks(teleport)
    assert len(tracks) == 4
    assert {t.outcomes for t in tracks} == {
        (("M", m), ("N", n)) for m in "01" for n in "01"
    }


def test_enumerate_tracks_cap():
    gates = tuple(standard_measure_gate(f"m{i}", i) for i in range(3))
    c = QuantumCircuit(("a", "b", "c"), gates)
    assert len(enumerate_tracks(c)) == 8
    with pytest.raises(SemanticsError):
        enumerate_tracks(c, cap=7)


def test_track_accessors():
    f = Track.from_mapping({"b": "1", "a": "0"})
    assert f.outcomes == (("a", "0"), ("b", "1"))
    assert f.get("b") == "1"
    with pytest.raises(KeyError):
        f.get("c")


# --- cumulative operators and the aggregate ---------------------------------


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


def ghz_circuit(n):
    gates = [unitary_gate("h", [0], H)]
    gates += [unitary_gate(f"cx{i}", [i - 1, i], CNOT) for i in range(1, n)]
    gates += [standard_measure_gate(f"m{i}", i) for i in range(n)]
    return QuantumCircuit(tuple(f"q{i}" for i in range(n)), tuple(gates))


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


def topological_dfs_tracks(c):
    """Reference track order: depth first over topo_order(c), each
    measurement's labels in sorted order."""
    order = topo_order(c)

    def rec(i, assignment):
        if i == len(order):
            return [Track.from_mapping(assignment)]
        g = c.gate(order[i])
        chosen = select_measurement(c, g.id, tuple(assignment[s] for s in g.classical_sources))
        if not g.is_measure:
            return rec(i + 1, assignment)
        return [f for lab in sorted(chosen.operators) for f in rec(i + 1, {**assignment, g.id: lab})]

    return rec(0, {})


def test_crossed_order_circuit_crosses():
    c = crossed_order_circuit()
    greedy = [gid for b in greedy_schedule(c).bouts for gid in sorted(b, key=c.index_of)]
    assert [gid for gid in greedy if gid.startswith("m")] == ["mb", "ma"]
    assert [gid for gid in topo_order(c) if gid.startswith("m")] == ["ma", "mb"]
    assert [(f.get("ma"), f.get("mb")) for f in enumerate_tracks(c)] == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")
    ]


def test_aggregate_is_the_walk_in_track_order(teleport):
    """Keys in enumerate_tracks order, which is the topological depth-first
    order, and every operator bit for bit cumulative_operator's."""
    for c in walker_circuits(teleport):
        agg = aggregate_measurement(c)
        assert list(agg.operators) == enumerate_tracks(c) == topological_dfs_tracks(c)
        x = greedy_schedule(c)
        for f, op in agg.operators.items():
            assert np.array_equal(op, cumulative_operator(c, x, f))


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


def test_schedules_equivalent_rejects_invalid_schedules(teleport):
    greedy = greedy_schedule(teleport)
    missing = Schedule(greedy.bouts[:-1])
    one_bout = Schedule((frozenset(g.id for g in teleport.gates),))
    for bad in (missing, one_bout):
        with pytest.raises(ScheduleError):
            schedules_equivalent(teleport, bad, greedy)
        with pytest.raises(ScheduleError):
            schedules_equivalent(teleport, greedy, bad)


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


def test_aggregate_measurement_cap(monkeypatch):
    """The cap holds, and an over-cap circuit fails before any operator is
    built: the tracks are counted first."""
    gates = tuple(standard_measure_gate(f"m{i}", i) for i in range(3))
    c = QuantumCircuit(("a", "b", "c"), gates)
    assert len(aggregate_measurement(c, cap=8).operators) == 8
    monkeypatch.setattr(linalg, "apply", lambda *args: pytest.fail("an operator was built"))
    with pytest.raises(SemanticsError, match="cap 7"):
        aggregate_measurement(c, cap=7)


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


def test_track_probability_dimension_mismatch(teleport):
    with pytest.raises(SemanticsError):
        track_probability(
            teleport,
            teleport_track("0", "0"),
            DensityOperator(1, np.eye(2, dtype=complex)),
        )


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


def _default_rng_draws(seeds, n_bouts):
    return np.array(
        [[np.random.default_rng((s, t)).random() for t in range(n_bouts)] for s in seeds]
    ).reshape(len(seeds), n_bouts)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=6), st.integers(0, 64))
def test_uniforms_match_default_rng(seeds, n_bouts):
    got = _uniforms(seeds, n_bouts)
    assert got.dtype == np.float64
    assert np.array_equal(got, _default_rng_draws(seeds, n_bouts))


def test_uniforms_edge_seeds_one_and_two_words_in_one_call():
    seeds = EDGE_SEEDS + [7, 2**40 + 3, 2**63]
    want = _default_rng_draws(seeds, 65)
    assert np.array_equal(_uniforms(seeds, 65), want)
    assert np.array_equal(_uniforms(np.array(seeds, dtype=np.uint64), 65), want)


def test_uniforms_fall_back_to_default_rng():
    seeds = [2**64, 3, 2**100]
    assert np.array_equal(_uniforms(seeds, 4), _default_rng_draws(seeds, 4))
    with pytest.raises(ValueError) as want:
        np.random.default_rng((-1, 0))
    with pytest.raises(ValueError) as got:
        _uniforms([5, -1], 3)
    assert str(got.value) == str(want.value)


def test_uniforms_empty():
    assert _uniforms([], 5).shape == (0, 5)
    assert _uniforms(np.array([], dtype=np.uint64), 5).shape == (0, 5)
    assert _uniforms([1, 2**40], 0).shape == (2, 0)


def oracle_expand(c, bout, assignment, sigma):
    """A node of the outcome tree the way the executor built it before it
    walked the tree: every combination of the bout's measurement labels
    (sorted per gate, itertools.product in sequence order), each conjugated
    gate by gate over the whole bout from sigma."""
    gids = [gid for gid in bout if c.gate(gid).is_measure]
    choices = [
        sorted(select_measurement(c, gid, source_outcomes(c.gate(gid), assignment)).operators)
        for gid in gids
    ]
    combos = list(itertools.product(*choices))
    states = []
    for combo in combos:
        full, s = {**assignment, **dict(zip(gids, combo))}, sigma
        for gid in bout:
            g = c.gate(gid)
            chosen = select_measurement(c, gid, source_outcomes(g, full))
            op = chosen.operators[full[gid]] if g.is_measure else chosen.matrix
            s = linalg.conjugate(op, g.registers, s, c.n_registers)
        states.append(s)
    tr_before = linalg.trace(sigma).real
    weights = [max(linalg.trace(s).real / tr_before, 0.0) for s in states]
    return gids, combos, weights, list(itertools.accumulate(weights)), sum(weights), states


def per_shot_sample_oracle(c, x, rho, seeds):
    """The executor before draws were vectorized: each shot walks its own
    path, drawing a fresh default_rng((seed, t)) per bout and picking the
    first running weight sum >= u * total; nodes and finals shared by path."""
    bouts = [tuple(sorted(b, key=c.index_of)) for b in x.bouts]
    nodes, finals, results = {}, {}, []
    for seed in seeds:
        path, sigma, assignment, log = (), rho.matrix, {}, []
        for t, bout in enumerate(bouts):
            if path not in nodes:
                nodes[path] = oracle_expand(c, bout, assignment, sigma)
            gids, combos, weights, cumulative, total, states = nodes[path]
            u = np.random.default_rng((seed, t)).random() * total
            pick = next((i for i, a in enumerate(cumulative) if u <= a), len(combos) - 1)
            assignment.update(zip(gids, combos[pick]))
            sigma = states[pick]
            path += (combos[pick],)
            log.append((bout, combos[pick], weights[pick]))
        if path not in finals:
            finals[path] = RunResult(
                Track.from_mapping(assignment), DensityOperator(c.n_registers, sigma), tuple(log)
            )
        results.append(finals[path])
    return results


def _assert_same_shots(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.track == b.track
        assert a.step_log == b.step_log
        assert np.array_equal(a.final_state.matrix, b.final_state.matrix)


@pytest.mark.parametrize("corpus_seed", range(12))
def test_sample_matches_per_shot_oracle(corpus_seed):
    rng = np.random.default_rng(corpus_seed)
    c = random_circuit(rng)
    x = greedy_schedule(c)
    dim = 2**c.n_registers
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityOperator(c.n_registers, b @ b.conj().T)
    seeds = [int(s) for s in rng.integers(0, 2**32, size=20)]
    seeds += [int(s) for s in rng.integers(2**32, 2**64, size=20, dtype=np.uint64)]
    seeds += EDGE_SEEDS + seeds[:5] + seeds[20:25]  # repeated seeds share every node
    want = per_shot_sample_oracle(c, x, rho, seeds)
    _assert_same_shots(sample(c, x, rho, seeds), want)
    _assert_same_shots(sample(c, x, rho, np.array(seeds, dtype=np.uint64)), want)


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
    eigen-checked: neither two-sided conjugation nor eigvalsh runs."""
    monkeypatch.setattr(linalg, "conjugate", lambda *args: pytest.fail("conjugate was called"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: pytest.fail("eigvalsh was called"))
    circuits = [(teleport, bell_input[1])]
    for s in range(4):
        rng = np.random.default_rng([31, s])
        c = random_circuit(rng, max_gates=8)
        circuits.append((c, rng.normal(size=2**c.n_registers) + 1j * rng.normal(size=2**c.n_registers)))
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
