"""Settled measurements. A standard measurement that is the last gate on its
registers fixes their bits in every track, so the walk keeps only the rows
that its labels select (`semantics._walk_plan`). A circuit in terminal form
(unitaries, then standard measurements: GHZ circuits and every circuit that
`defer` rewrites, set aside a nonstandard measurement that ended its
registers unread, which `defer` leaves as it is) settles every measurement. Each walk is compared with the
general walk of `reference_walk`, the depth-first walk that applies every
operator to full blocks: kept rows bit for bit, and dropped rows +0.0 here
and 0 there. The checker's reports are compared with the digests of the
reports that it printed when it walked full blocks (`PINNED`)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_walk
from conftest import make_teleportation
from corpus import (
    PM_FAMILY,
    aggregate_document,
    feed_forward_circuit,
    ghz_circuit,
    kraus_correction_circuit,
    random_circuit,
    random_deferrable_circuit,
)
from qcirc import deferral, linalg, semantics
from qcirc.circuit import Gate, Measurement, QuantumCircuit, measure_gate, standard_measure_gate, unitary_gate
from qcirc.deferral import Commensuration, basis_inputs, check_faithful, defer_measurements, random_pure_inputs, red_gates
from qcirc.linalg import CNOT, H, DensityOperator
from qcirc.serialize import dumps

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def settled(c):
    """The ids of the measurements that settle in c's walk."""
    return set(semantics._plan(c).keeps)


def settles_all(c):
    return settled(c) == {g.id for g in c.gates if g.is_measure}


def terminal(c):
    """Whether c is in terminal form: no classical control, no unitary after
    a measurement, and only standard measurements (`Measurement.basis`)."""
    measurements = [m for g in c.gates for m in g.measurements.values()]
    return not any(g.classical_sources for g in c.gates) and not red_gates(c) and all(
        m.basis is not None for m in measurements)


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
    """(name, source) pairs that `defer` rewrites, or that are in terminal form already."""
    cases = [("teleport", make_teleportation())]
    cases += [(f"ff{k}", feed_forward_circuit(k)) for k in range(1, 9)]
    cases += [(f"deferrable{s}", random_deferrable_circuit(np.random.default_rng(s))) for s in range(12)]
    cases += [(f"kraus{s}", kraus_correction_circuit(np.random.default_rng(s))) for s in range(12)]
    return [(name, c) for name, c in cases if defer_measurements(c).circuit is not c or terminal(c)]


DEFERRED = deferred_cases()
HAND = [("ghz3", ghz_circuit(3)), ("labels", labels_against_indices()),
        ("descending", descending_pair()), ("twice", measured_twice())]


def test_deferred_corpus_is_in_terminal_form():
    """`defer` writes terminal form whenever it rewrites, with standard
    measurements, except that a nonstandard measurement that ended its
    registers and that no gate read stays as it is. So every standard
    measurement of its output that ends its registers settles; at most a
    few of the random sources pass through unchanged with nonstandard
    measurements. Of two measurements of one register, only the last settles."""
    assert len(DEFERRED) == 30
    for _, c in DEFERRED:
        d = defer_measurements(c).circuit
        stays = {g.id for g in d.gates for m in g.measurements.values() if m.basis is None}
        assert all(d.gate(m) is c.gate(m) and not c._wiring[3][m] for m in stays)
        assert terminal(QuantumCircuit(d.register_names, tuple(g for g in d.gates if g.id not in stays)))
        ends = {g.id for g in d.gates if g.is_measure and all(d.register_chain(r)[-1] == g.id for r in g.registers)}
        assert settled(d) == ends - stays
    assert all(settles_all(c) for c in [labels_against_indices(), descending_pair(), *map(ghz_circuit, range(3, 9))])
    assert settled(measured_twice()) == {"m2"}


def assert_same_block(a, b, kept):
    """A block `a` of the walk against the reference walk's `b`: rows `kept`
    bit for bit, and every other row +0.0 in `a` and 0 in `b`."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a[kept].tobytes() == b[kept].tobytes()
    dropped = np.ones(len(a), dtype=bool)
    dropped[kept] = False
    assert not a[dropped].view(np.uint64).any() and not b[dropped].any()


def assert_same_walk(c, t0):
    """`track_stack` of c against the reference walk's leaves, by track
    (`assert_same_block`), the kept rows read off `track_rows`' placement."""
    codes, (offsets, rows, _), _ = semantics.track_rows(c, t0)
    tracks, a = semantics._plan(c).tracks(codes), semantics.track_stack(c, t0)[1]
    want = sorted(reference_walk.walk_tracks(c, t0), key=lambda leaf: leaf[0])
    assert [(k, f) for k, f, _ in want] == list(enumerate(tracks))
    for k, (_, _, b) in enumerate(want):
        assert_same_block(a[k], b, offsets[k] + rows)


def four(c, principal, seed=11):
    """Four random kets on the principal registers, the others |0>: a start
    of a multiple of 4 columns, on which measurements settle."""
    return ancilla_zero(c, np.stack(random_pure_inputs(principal, 4, seed), axis=1))


def ancilla_zero(c, cols):
    """cols (2^k x m) on the first k registers, the rest |0>."""
    k = cols.shape[0].bit_length() - 1
    return np.kron(cols, linalg.basis_ket(0, c.n_registers - k)[:, None])


@pytest.mark.parametrize("name, c", DEFERRED + HAND, ids=[n for n, _ in DEFERRED + HAND])
def test_walk_matches_the_general_walk(name, c):
    """Each deferred target from I, from its ancilla-zero columns, and from
    three (full blocks) and four (compact ones) random inputs; and the
    source itself."""
    d = defer_measurements(c).circuit
    n = d.n_registers
    if n <= 8:
        assert_same_walk(d, np.eye(2**n, dtype=complex))
    nc = c.n_registers
    assert_same_walk(d, ancilla_zero(d, np.eye(2**nc, dtype=complex)))
    assert_same_walk(d, ancilla_zero(d, np.stack(random_pure_inputs(nc, 3, 11), axis=1)))
    assert_same_walk(d, four(d, nc))
    assert_same_walk(c, np.eye(2**nc, dtype=complex))


@pytest.mark.parametrize("n", range(3, 9))
def test_ghz_walk_matches_the_general_walk(n):
    assert_same_walk(ghz_circuit(n), np.eye(2**n, dtype=complex))


DOCUMENTED = [("ghz4", ghz_circuit(4)), ("ghz6", ghz_circuit(6))] + HAND + DEFERRED[:8]


@pytest.mark.parametrize("name, c", DOCUMENTED, ids=[n for n, _ in DOCUMENTED])
def test_aggregate_document_matches_the_general_walk(name, c):
    """`aggregate --input`'s document, byte for byte, with each operator
    and probability taken from the reference walk's blocks from I."""
    d = defer_measurements(c).circuit
    rho = DensityOperator.from_ket(random_pure_inputs(d.n_registers, 1, 5)[0])
    leaves = sorted(reference_walk.walk_tracks(d, np.eye(2**d.n_registers, dtype=complex)), key=lambda leaf: leaf[0])
    tracks = [{"outcomes": f.as_dict(), "operator": a, "probability_on": semantics.probability_on(a, rho)}
              for _, f, a in leaves]
    assert dumps(aggregate_document(d, rho)) == dumps({"tracks": tracks})


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


# sha256 (first 16 hex digits) of the reports of each case, one `dumps` a
# line (`report_digest`), as the checker printed them when it walked full
# blocks, before any measurement settled; deferrable0, 2, 3, 5 and 7 as it
# printed them once every sum of the checker added rows in order, which
# moved floats of their exact and 1-input failures by at most 1.7e-14 relative;
# deferrable6 as it printed them once its three-outcome Kraus measurement g3,
# which ends r1 and which no gate reads, stayed in the target as it is, on r1
PINNED = {
    "teleport": "a4db45e780ba613c",
    "ff1": "23c919fc7c191978",
    "ff2": "342bc3260b27b0f7",
    "ff3": "d668e7cefa3caf75",
    "ff4": "d3a418e393456fb4",
    "ff5": "3e381028309fefed",
    "ff6": "ba8a0ee30adc297a",
    "ff7": "6ba0d24a826bc85d",
    "ff8": "1bfe8b8bc8948778",
    "deferrable0": "dbfd7f577857da95",
    "deferrable2": "7995a5813fcedaee",
    "deferrable3": "506e6c2e3077f8ce",
    "deferrable5": "fbd7fc165fa87f49",
    "deferrable6": "b649cc3f07279bd4",
    "deferrable7": "bf76f254d8d52359",
    "deferrable9": "e55316ed5ffdf4be",
    "ghz3": "a70291d3886ab636",
    "labels": "747a37401077432f",
    "descending": "91c860f7f8575022",
    "twice": "8a1a26f49005849b",
    "ghz3-self": "178eddf8eaded0b3",
    "ghz4-self": "ffbc158434fa2acc",
    "ghz5-self": "de7cfbf19fefc71c",
    "ghz6-self": "1e92d23dcd8b19db",
}


def reports(c, d, zeta):
    """The exact report of (c, d), then those on 3, 4 and 1 random inputs:
    full blocks, compact ones, and full blocks of a single column."""
    for inputs in (None, *(random_pure_inputs(c.n_registers, k, 7) for k in (3, 4, 1))):
        yield check_faithful(c, d, zeta, inputs)


def report_digest(rs):
    return hashlib.sha256("\n".join(dumps(r.to_json()) for r in rs).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, c", DEFERRED[:16] + HAND, ids=[n for n, _ in DEFERRED[:16] + HAND])
def test_check_faithful_matches_the_general_walk(name, c):
    """Exact and input reports agree byte for byte, failures and floats
    included, on the deferral and on two unfaithful targets."""
    rs = [r for d, zeta in unfaithful_variants(c) for r in reports(c, d, zeta)]
    assert report_digest(rs) == PINNED[name] and all(r.ok for r in rs[:4])


@pytest.mark.parametrize("n", range(3, 7))
def test_terminal_sources_match_the_general_walk(n):
    """A source that settles every measurement: GHZ-n checked against itself."""
    c = ghz_circuit(n)
    rs = list(reports(c, c, Commensuration.identity(c)))
    assert settles_all(c) and report_digest(rs) == PINNED[f"ghz{n}-self"] and all(r.ok for r in rs)


def test_failing_reports_match_the_general_walk():
    """The unfaithful variants above do fail, so their floats are compared
    (ff3's digest, in `test_check_faithful_matches_the_general_walk`)."""
    c = feed_forward_circuit(3)
    rs = [r for d, zeta in unfaithful_variants(c) for r in reports(c, d, zeta)]
    assert [r.ok for r in rs] == [True] * 4 + [False] * 8
    assert {f["kind"] for r in rs for f in r.failures} >= {"operator-mismatch", "state-mismatch"}


CHUNKED = [feed_forward_circuit(3), measured_twice()]
CHUNKED += [random_deferrable_circuit(np.random.default_rng(s)) for s in (9, 14, 17, 25, 41)]


def test_state_blocks_change_no_report(monkeypatch):
    """Both checks compare (target track, source track) pairs a chunk of at
    most `semantics.FRONTIER_BYTES` at a time; one pair per chunk gives the
    same reports, exact and with inputs, failures included. Some of these
    targets have tracks with no rows, so a chunk can hold only those."""
    targets = [(c, d, zeta) for c in CHUNKED for d, zeta in unfaithful_variants(c)]

    def texts():
        return [dumps(r.to_json()) for c, d, zeta in targets for r in reports(c, d, zeta)]

    whole = texts()
    monkeypatch.setattr(semantics, "FRONTIER_BYTES", 1)
    assert texts() == whole
    assert '"state-mismatch"' in "".join(whole) and '"operator-mismatch"' in "".join(whole)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_deferrable_matches_the_general_walk(seed):
    """The source and its deferral from I, and the deferral from four
    random inputs; both checks pass."""
    c = random_deferrable_circuit(np.random.default_rng(seed))
    r = defer_measurements(c)
    d = r.circuit
    assert_same_walk(c, np.eye(2**c.n_registers, dtype=complex))
    assert_same_walk(d, np.eye(2**d.n_registers, dtype=complex))
    assert_same_walk(d, four(d, c.n_registers, seed))
    assert all(report.ok for report in reports(c, d, r.zeta))


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
    for inputs in (*(random_pure_inputs(c.n_registers, k, seed) for k in (3, 4)), basis_inputs(c.n_registers)):
        for d, zeta in unfaithful_variants(c):
            report = check_faithful(c, d, zeta, inputs)
            got = {(f["input"], int(f["kind"] == "unmatched-target-track"), tuple(sorted(f["track"].items())))
                   for f in report.failures}
            expected = input_check_reference(c, d, zeta, inputs)
            assert report.ok == (not expected) and got == expected


def exact_check_reference(c, d, zeta, tol=linalg.DEFAULT_TOL):
    """The exact check's failures, (kind, track, floats), from its
    definition on full operators: each source track's A_f
    (`track_operators(c, None)`), and the target's B (I (x) |0>) split into
    its V_a, the least-squares c_a = <A, V_a> / |A|^2 (0 for a massless A)
    and the residual |B|^2 - sum |c_a|^2 |A|^2. Source tracks come first,
    then unmatched target tracks, each in (gate id, label) order."""
    nc, nd = c.n_registers, d.n_registers
    target = semantics.track_operators(d, np.kron(np.eye(2**nc), linalg.basis_ket(0, nd - nc)[:, None]))
    by_track = dict(target)
    out, images = [], set()
    for f, a in semantics.track_operators(c, None):
        g, mass = zeta.translate(f), np.vdot(a, a).real
        if g is None:
            if mass > tol:
                out.append(("untranslatable-track-probability", f.as_dict(), {"mass": mass}))
            continue
        images.add(g)
        v = by_track[g].reshape(2**nc, 2 ** (nd - nc), 2**nc).transpose(1, 0, 2)  # v[a] = V_a
        coef = np.array([np.vdot(a, va) for va in v]) / mass if mass > 0 else np.zeros(len(v))
        image = np.sum(np.abs(coef) ** 2) * mass
        residual = max(np.vdot(by_track[g], by_track[g]).real - image, 0.0)
        if residual > tol or abs(image - mass) > tol:
            floats = {"residual": residual, "source_mass": mass, "target_mass": image + residual}
            out.append(("operator-mismatch", f.as_dict(), floats))
    for g, b in target:
        if g not in images and np.vdot(b, b).real > tol:
            out.append(("unmatched-target-track", g.as_dict(), {"mass": np.vdot(b, b).real}))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_check_matches_its_reference(seed):
    """The exact check, on the deferral and on the unfaithful variants,
    passes or fails as the reference from full operators does, with the
    same (kind, track) failures in the same order, and each float within
    1e-12 of the reference's."""
    c = random_deferrable_circuit(np.random.default_rng(seed))
    for d, zeta in unfaithful_variants(c):
        report, expected = check_faithful(c, d, zeta), exact_check_reference(c, d, zeta)
        assert report.ok == (not expected)
        assert [(f["kind"], f["track"]) for f in report.failures] == [(kind, t) for kind, t, _ in expected]
        for f, (_, _, floats) in zip(report.failures, expected):
            assert f.keys() == {"kind", "track"} | floats.keys()
            assert all(abs(f[k] - x) <= 1e-12 * max(1.0, abs(x)) for k, x in floats.items())


@pytest.mark.parametrize("name, c", DEFERRED, ids=[n for n, _ in DEFERRED])
def test_padded_inputs_change_no_report(name, c, monkeypatch):
    """A walk from N input columns is padded to a multiple of 4 only where
    every product is a multiple of 4 wide already: the reports on 1, 2, 3
    and 5 inputs are those of the unpadded walks byte for byte."""
    targets = list(unfaithful_variants(c))

    def texts():
        return [dumps(check_faithful(c, d, zeta, random_pure_inputs(c.n_registers, k, 7)).to_json())
                for d, zeta in targets for k in (1, 2, 3, 5)]

    padded = texts()
    monkeypatch.setattr(deferral, "_padded", lambda c, t: t)
    assert texts() == padded


def test_incoherent_tracks_are_zero_blocks():
    c = measured_twice()
    ops = dict(semantics.track_operators(c, np.eye(4, dtype=complex)))
    assert len(ops) == 4
    for f, a in ops.items():
        labels = f.as_dict()
        assert (not a.any()) == (labels["m1"] != labels["m2"])


def test_a_walk_yields_compact_leaves_a_stack_at_a_time(monkeypatch):
    """A piece is a stack of compact leaves: all 8 of GHZ-3 in one, each
    its track's one row, that of its bits, or, once a budget of one byte
    splits every frontier down to single nodes before the last measurement,
    the two leaves of each of them. A start of 2 columns settles nothing."""
    c, eye = ghz_circuit(3), np.eye(8, dtype=complex)
    codes, (offsets, rows, n), pieces = semantics.track_rows(c, eye)
    (w, keys), = pieces
    assert w.shape == (8, 1, 8) and sorted(keys.tolist()) == list(range(8))
    assert rows.tolist() == [0] and offsets.tolist() == list(range(8)) and n == 8  # track k: the row of bits k
    monkeypatch.setattr(semantics, "FRONTIER_BYTES", 1)
    pieces = list(semantics.track_rows(c, eye)[2])
    assert all(w.shape == (2, 1, 8) and len(k) == 2 for w, k in pieces) and len(pieces) == 4
    _, (offsets, rows, _), pieces = semantics.track_rows(c, eye[:, :2])
    assert rows.tolist() == list(range(8)) and not offsets.any() and all(w.shape[1:] == (8, 2) for w, _ in pieces)


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


SETTLED = {"classically-controlled-unitary": {"m1"}, "measurement-read-by-a-control": {"m", "n"}}


@pytest.mark.parametrize("name, c", BROKEN, ids=[n for n, _ in BROKEN])
def test_each_broken_condition_takes_the_general_path(name, c):
    """Each condition that keeps a circuit out of terminal form. Only a
    standard measurement that ends its registers settles: the last one of
    ff-2 on r0, and both of the measurements that a control reads, n with
    either of its two standard families; the walk is the reference's."""
    assert settled(c) == SETTLED.get(name, set())
    assert_same_walk(c, np.eye(2**c.n_registers, dtype=complex))


SETTLING = [("twice", measured_twice()), ("cc-measurement", cc_measurement()), ("labels", labels_against_indices()),
            ("descending", descending_pair())]


@pytest.mark.parametrize("name, c", SETTLING, ids=[n for n, _ in SETTLING])
def test_settled_rows_are_the_reference_walks(name, c):
    """A re-measured register, a classically controlled measurement with two
    standard families, labels sorted against basis order, and a measurement
    of registers (2, 0): from I and from 4 and 8 random kets (compact
    blocks) and from 1 and 3 (full blocks), kept rows are the reference
    walk's bit for bit and dropped rows +0.0; checked against itself, the
    circuit passes exactly and on one input."""
    n = c.n_registers
    for t0 in (np.eye(2**n, dtype=complex), *(np.stack(random_pure_inputs(n, k, 3), axis=1) for k in (1, 3, 4, 8))):
        assert_same_walk(c, t0)
    zeta = Commensuration.identity(c)
    assert check_faithful(c, c, zeta).ok and check_faithful(c, c, zeta, random_pure_inputs(n, 1, 5)).ok


def test_a_kept_negative_zero_is_written_as_the_projector_writes_it():
    """A circuit of one settled measurement keeps rows of a start holding
    -0.0 as +0.0, as the reference walk's projector product writes them."""
    c = QuantumCircuit(("a", "b"), (standard_measure_gate("m", 0),))
    t0 = np.where(np.arange(16).reshape(4, 4) % 3 == 0, -0.0, 1.5 + 0.5j)
    assert np.signbit(t0.real).any() and settles_all(c)
    assert_same_walk(c, t0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 4, 8]))
def test_random_circuits_keep_the_reference_walks_rows(seed, k):
    """Random circuits, often with classically controlled measurements, from
    k random kets: compact blocks for k = 4 and 8, full ones otherwise."""
    c = random_circuit(np.random.default_rng(seed), max_regs=3, max_gates=8, p_measure=0.5, p_cc=0.7)
    assert_same_walk(c, np.stack(random_pure_inputs(c.n_registers, k, seed), axis=1))


def counting_apply(monkeypatch):
    """Replace `linalg.apply`, the walk's kernel, by a wrapper that
    records each call's block row count, 2^n on n registers."""
    calls, apply = [], linalg.apply
    monkeypatch.setattr(linalg, "apply", lambda a, axes, x: calls.append(x.shape[1]) or apply(a, axes, x))
    return calls


def test_check_faithful_applies_each_target_unitary_once(monkeypatch):
    """On deferred ff-6 (7 registers) the target side of the check, its
    `linalg.apply` calls less those of the source's walk alone, applies
    each of the target's unitaries exactly once: each a call on the whole
    frontier, and no measurement a call, exact and on four inputs."""
    c = feed_forward_circuit(6)
    r = defer_measurements(c)
    d = r.circuit
    units = sum(not g.is_measure for g in d.gates)
    calls = counting_apply(monkeypatch)
    for inputs in (None, random_pure_inputs(2, 4, 0)):
        assert check_faithful(c, d, r.zeta, inputs).ok
        checked = len(calls)
        semantics.track_stack(c, np.eye(4, dtype=complex) if inputs is None else np.stack(inputs, axis=1))
        assert d.n_registers == 7 and 2 * checked - len(calls) == units
        calls.clear()


def test_aggregate_applies_each_unitary_once(monkeypatch):
    """GHZ-6's six unitaries are six calls, one on each frontier. The greedy
    bouts measure q0 after cx1 and next to cx2, and so on down the chain, so
    the blocks of cx3, cx4 and cx5 lose a settled register each."""
    calls = counting_apply(monkeypatch)
    agg = semantics.aggregate_measurement(ghz_circuit(6))
    assert len(agg.operators) == 64 and calls == [64, 64, 64, 32, 16, 8]


def test_over_cap_terminal_circuit_fails_before_any_operator(monkeypatch):
    monkeypatch.setattr(semantics, "DEFAULT_TRACK_CAP", 15)
    monkeypatch.setattr(linalg, "apply", lambda *args: pytest.fail("an operator was applied"))
    with pytest.raises(semantics.SemanticsError, match="track count exceeds cap 15"):
        semantics.track_stack(ghz_circuit(4), np.eye(16, dtype=complex))


@pytest.mark.parametrize("c", [ghz_circuit(3), measured_twice(), feed_forward_circuit(3)], ids=["ghz3", "twice", "ff3"])
def test_track_operators_from_no_columns(c):
    """From a start with no columns, every coherent track comes, in
    `enumerate_tracks` order, with an empty complex block of 2^n rows."""
    rows = 2**c.n_registers
    ops = semantics.track_operators(c, np.zeros((rows, 0)))
    assert len(ops) in (4, 8) and [f for f, _ in ops] == semantics.enumerate_tracks(c)
    assert all(a.shape == (rows, 0) and a.dtype == complex for _, a in ops)


def test_a_wrong_start_fails_as_in_the_general_walk():
    """Even with no unitary to apply, a start with the wrong row count is
    the general walk's LinalgError."""
    c = QuantumCircuit(("a",), (standard_measure_gate("m", 0),))
    assert settles_all(c)
    with pytest.raises(linalg.LinalgError) as fast:
        semantics.track_operators(c, np.eye(4))
    with pytest.raises(linalg.LinalgError) as slow:
        list(reference_walk.walk_tracks(c, np.eye(4, dtype=complex)))
    assert str(fast.value) == str(slow.value)


def test_unknown_image_is_named_on_a_terminal_target():
    """A sidecar whose label the terminal target never records still names
    the first such source track."""
    c = QuantumCircuit(("q0",), (unitary_gate("h", [0], H), standard_measure_gate("m", 0)))
    assert settles_all(c)
    with pytest.raises(ValueError, match=r"translated track .*'x'.* is not a track of the target"):
        check_faithful(c, c, Commensuration({"m": "m"}, {"m": {"0": "x"}}))
