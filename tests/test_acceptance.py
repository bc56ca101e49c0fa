"""Acceptance gate: one test per shipped criterion, each printing a single
PASS/FAIL line. Tolerances are pinned (1e-9 for exact algebra, 0.05 / 0.03
for sampling frequencies)."""

import functools
import json
from pathlib import Path

import numpy as np

from conftest import make_teleportation
from corpus import (
    PM_FAMILY,
    random_circuit,
    random_coherent_order,
    random_deferrable_circuit,
    random_kraus_family,
    random_poset,
)
from qcirc.circuit import (
    QuantumCircuit,
    prerequisites,
    stage_exits,
    standard_measure_gate,
)
from qcirc.cli import main as cli_main
from qcirc.deferral import (
    basis_inputs,
    check_faithful,
    defer_measurements,
    random_pure_inputs,
    red_gates,
)
from qcirc.linalg import H, DensityOperator, ket_to_density, partial_trace_matrix
from qcirc.scheduling import (
    differentiating_pairs,
    enumerate_linear_schedules,
    greedy_schedule,
    transposition_path,
)
from qcirc.semantics import (
    aggregate_measurement,
    cumulative_operator,
    enumerate_tracks,
    replay,
    run,
    sample,
    track_probability,
)
from qcirc.serialize import parse_circuit, serialize_circuit

TOL = 1e-9
FIXTURES = Path(__file__).parent / "fixtures"

import test_deferral as td


def report(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number} ({name}): FAIL")
                raise
            print(f"\ncriterion {number} ({name}): PASS")

        return inner

    return wrap


def random_density(rng, n_qubits, scale):
    dim = 2**n_qubits
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DensityOperator(n_qubits, scale * (b @ b.conj().T))


def equivalence_corpus():
    return [
        random_circuit(np.random.default_rng(1000 + s), max_regs=4, max_gates=6)
        for s in range(50)
    ]


@report(1, "measurement completeness")
def test_criterion_1_measurement_completeness(teleport):
    for g in teleport.gates:
        for m in g.measurements.values():
            assert m.completeness_defect() <= TOL
    from qcirc.circuit import Measurement

    assert Measurement("pm", dict(PM_FAMILY)).completeness_defect() <= TOL
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim = 2 ** int(rng.integers(1, 3))
        fam = random_kraus_family(rng, dim, int(rng.integers(1, 5)))
        m = Measurement("m", {f"o{j}": a for j, a in enumerate(fam)})
        assert m.completeness_defect() <= TOL
    assert aggregate_measurement(teleport).completeness_defect() <= TOL
    for seed in range(10):
        c = random_circuit(np.random.default_rng(seed), max_regs=3, max_gates=5)
        assert aggregate_measurement(c).completeness_defect() <= TOL


def all_stages(c):
    """Exhaustive prerequisite-closed sets, grown one ready gate at a time."""
    prereq = {g.id: prerequisites(c, g.id) for g in c.gates}
    ids = [g.id for g in c.gates]
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        s = frontier.pop()
        for gid in ids:
            if gid not in s and prereq[gid] <= s:
                t = s | {gid}
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


@report(2, "stages have exactly n exits")
def test_criterion_2_stage_exits():
    for seed in range(100):
        c = random_circuit(np.random.default_rng(2000 + seed), max_regs=5, max_gates=10)
        stages = all_stages(c)
        assert frozenset(g.id for g in c.gates) in stages
        for s in stages:
            exits = stage_exits(c, s)
            assert len(exits) == c.n_registers
            assert {r for r, _ in exits} == set(range(c.n_registers))


@report(3, "schedule-independent cumulative operators")
def test_criterion_3_schedule_equivalence():
    for c in equivalence_corpus():
        tracks = enumerate_tracks(c)
        greedy = greedy_schedule(c)
        reference = {f: cumulative_operator(c, greedy, f) for f in tracks}
        for x in enumerate_linear_schedules(c, limit=1000):
            for f in tracks:
                got = cumulative_operator(c, x, f)
                assert float(np.max(np.abs(got - reference[f]))) <= TOL


@report(4, "telescoping probabilities and executor state")
def test_criterion_4_reduction():
    for i, c in enumerate(equivalence_corpus()):
        if not c.gates:
            continue
        rng = np.random.default_rng(4000 + i)
        greedy = greedy_schedule(c)
        for _ in range(5):
            rho = random_density(rng, c.n_registers, scale=float(rng.uniform(0.2, 3.0)))
            tr_rho = np.trace(rho.matrix).real
            for f in enumerate_tracks(c):
                op = cumulative_operator(c, greedy, f)
                expected_state = op @ rho.matrix @ op.conj().T
                expected_p = np.trace(expected_state).real / tr_rho
                probs, final = replay(c, greedy, f, rho)
                assert abs(float(np.prod(probs)) - expected_p) <= TOL
                assert float(np.max(np.abs(final - expected_state))) <= TOL
                assert abs(track_probability(c, f, rho) - min(max(expected_p, 0), 1)) <= TOL
        # the stochastic executor lands on the same algebra
        r = run(c, greedy, rho, seed=i)
        op = cumulative_operator(c, greedy, r.track)
        assert float(
            np.max(np.abs(r.final_state.matrix - op @ rho.matrix @ op.conj().T))
        ) <= TOL


def inversion_oracle(frm, to):
    pos = {e: i for i, e in enumerate(to)}
    seq = [pos[e] for e in frm]
    swaps = 0
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            swaps += 1
            j -= 1
    return swaps


@report(5, "coherent adjacent-transposition paths")
def test_criterion_5_transposition_paths():
    for seed in range(200):
        rng = np.random.default_rng(5000 + seed)
        p = random_poset(rng, max_elems=8)
        frm = random_coherent_order(rng, p)
        to = random_coherent_order(rng, p)
        path = transposition_path(p, frm, to)
        assert path[0] == frm and path[-1] == to
        assert len(path) - 1 == differentiating_pairs(frm, to) == inversion_oracle(frm, to)
        for order in path:
            assert p.coherent(order)


def deferral_corpus():
    fixed = [
        td.pm_to_cz_circuit(),
        td.shared_register_circuit(),
        make_teleportation(),
    ]
    rest = [
        random_deferrable_circuit(np.random.default_rng(6000 + s))
        for s in range(30 - len(fixed))
    ]
    return fixed + rest


@report(6, "deferral requirement and faithful simulation")
def test_criterion_6_deferral():
    corpus = deferral_corpus()
    assert len(corpus) == 30
    for i, c in enumerate(corpus):
        result = defer_measurements(c)
        d, zeta = result.circuit, result.zeta
        assert red_gates(d) == set()
        n = c.n_registers
        inputs = basis_inputs(n) + random_pure_inputs(n, 10, seed=6000 + i)
        rep = check_faithful(c, d, zeta, inputs, tol=TOL)
        assert rep.ok, (i, rep.failures)
        exact = check_faithful(c, d, zeta, tol=TOL)
        assert exact.ok, (i, exact.failures)
        # Every deferred-circuit track outside the commensuration image has
        # probability <= tol on ancilla-zero inputs.
        image = {
            zeta.translate(f)
            for f in enumerate_tracks(c)
            if zeta.translate(f) is not None
        }
        agg_d = aggregate_measurement(d)
        n_anc = d.n_registers - n
        anc0 = np.zeros(2**n_anc, dtype=complex) if n_anc else np.ones(1, dtype=complex)
        if n_anc:
            anc0[0] = 1.0
        for psi in inputs[: 2**n] + inputs[-2:]:
            phi = np.kron(np.asarray(psi) / np.linalg.norm(psi), anc0)
            for g, op in agg_d.operators.items():
                if g not in image:
                    assert float(np.linalg.norm(op @ phi) ** 2) <= TOL


@report(7, "teleportation golden test")
def test_criterion_7_teleportation(teleport):
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    agg = aggregate_measurement(teleport)
    assert len(agg.operators) == 4
    for k in range(20):
        rng = np.random.default_rng(7000 + k)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        inp = np.kron(psi, bell)
        target = ket_to_density(psi)
        for f, op in agg.operators.items():
            out = op @ inp
            p = float(np.linalg.norm(out) ** 2)
            assert abs(p - 0.25) <= TOL
            rho_out = ket_to_density(out) / p
            traced = partial_trace_matrix(rho_out, 3, [2])
            assert float(np.max(np.abs(traced - target))) <= TOL
    result = defer_measurements(teleport)
    d = result.circuit
    assert result.ancilla_registers == frozenset()
    last_unitary = max(i for i, g in enumerate(d.gates) if not g.is_measure)
    first_measure = min(i for i, g in enumerate(d.gates) if g.is_measure)
    assert last_unitary < first_measure
    rep = check_faithful(
        teleport, d, result.zeta, basis_inputs(3) + random_pure_inputs(3, 10, seed=7)
    )
    assert rep.ok, rep.failures
    exact = check_faithful(teleport, d, result.zeta, tol=TOL)
    assert exact.ok, exact.failures


@report(8, "sampling frequencies")
def test_criterion_8_sampling(teleport, bell_input):
    _, ket = bell_input
    rho = DensityOperator.from_ket(ket)
    x = greedy_schedule(teleport)
    shot_seeds = np.random.SeedSequence(7).generate_state(4000, dtype=np.uint64)
    counts = {}
    for r in sample(teleport, x, rho, [int(s) for s in shot_seeds]):
        counts[r.track] = counts.get(r.track, 0) + 1
    assert len(counts) == 4
    for n in counts.values():
        assert abs(n / 4000 - 0.25) <= 0.05

    c = QuantumCircuit(("r0",), (standard_measure_gate("m", 0),))
    plus = DensityOperator.from_ket(H[:, 0])
    xs = greedy_schedule(c)
    seeds = np.random.SeedSequence(8).generate_state(10000, dtype=np.uint64)
    zeros = sum(r.track.get("m") == "0" for r in sample(c, xs, plus, [int(s) for s in seeds]))
    assert abs(zeros / 10000 - 0.5) <= 0.03


@report(9, "CLI round-trip and determinism")
def test_criterion_9_cli(capsys):
    for fixture in sorted(FIXTURES.glob("*.json")):
        if fixture.name in ("teleport.json",):
            text = fixture.read_text()
            assert serialize_circuit(parse_circuit(text)) == text
    # idempotence on any freshly serialized circuit
    for seed in range(5):
        c = random_circuit(np.random.default_rng(seed))
        text = serialize_circuit(c)
        assert serialize_circuit(parse_circuit(text)) == text

    args = [
        "run",
        str(FIXTURES / "teleport.json"),
        "--input",
        str(FIXTURES / "psi.json"),
        "--seed",
        "7",
        "--shots",
        "200",
    ]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    assert sum(f["count"] for f in json.loads(first)["frequencies"]) == 200
