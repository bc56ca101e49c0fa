"""Measurement-deferral compiler pass and faithful-simulation checker.

`defer_measurements` rewrites a circuit without classically controlled
measurements into one in which every measurement comes after every unitary;
`_plan` is its pre-pass, whose read maps spare rewriting any selector. A
standard measurement, one whose operators are exact 0/1 projectors with one
label per basis state (`Measurement.selects`), stays on its registers; every
other one, one standard only within rounding included, is standardized with
ancillas. A measurement stays one gate throughout, with its own id and
outcome labels, so the commensuration maps gate ids to gate ids.
`check_faithful` is exact by default; sampled inputs are an optional
cross-check. A target in terminal form, as every circuit the pass rewrites
is, is checked as one unitary: its tracks are row groups of
W = U (I (x) |0>), compared in one batched array pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import linalg, semantics
from .circuit import (
    Diagnostic,
    Measurement,
    QuantumCircuit,
    check_valid,
    measure_gate,
    topo_order,
    unitary_gate,
)
from .semantics import Track, _uniforms, track_operators, track_rows
from .serialize import ParseError


class DeferralError(ValueError):
    pass


class ConstraintError(DeferralError):
    """The circuit has classically controlled measurement gates."""

    def __init__(self, gate_ids: Sequence[str]):
        self.gate_ids = tuple(gate_ids)
        super().__init__(
            "classically controlled measurement gates cannot be deferred: "
            + ", ".join(gate_ids)
        )


# --- deferral requirement and constraint -----------------------------------


def red_gates(c: QuantumCircuit) -> set[str]:
    """Unitary gates with a measurement gate among their prerequisites.
    Empty iff the circuit satisfies the deferral requirement."""
    return set(c._red)


def constraint_violations(c: QuantumCircuit) -> list[str]:
    return [g.id for g in c.gates if g.is_measure and g.classical_sources]


# --- commensuration ---------------------------------------------------------


@dataclass(frozen=True)
class Commensuration:
    """Identification of the source circuit's measurement gates with those of
    the deferred circuit. `gates` maps each source measurement gate to the
    target gate that carries its outcome, under the same label unless
    `labels` maps it: a deleted re-measurement is read off the measurement it
    repeats. `absorbed` lists single-outcome measurements realized as
    unitaries, which no target gate carries."""

    gates: dict  # source gate id -> target gate id
    labels: dict = field(default_factory=dict)  # source gate id -> {label: target label}
    absorbed: frozenset = frozenset()

    @classmethod
    def identity(cls, c: QuantumCircuit) -> "Commensuration":
        return cls({g.id: g.id for g in c.gates if g.is_measure})

    def translate(self, f: Track) -> Optional[Track]:
        """The deferred-circuit track identified with `f`, or None when `f`
        gives one target gate two labels (a probability-zero source track)."""
        out: dict[str, str] = {}
        for gid, label in f.outcomes:
            if gid in self.absorbed:
                continue
            label = self.labels.get(gid, {}).get(label, label)
            if out.setdefault(self.gates[gid], label) != label:
                return None
        return Track.from_mapping(out)

    def to_json(self) -> dict:
        return {
            "zeta": dict(self.gates),
            "labels": {gid: dict(table) for gid, table in self.labels.items()},
            "absorbed": sorted(self.absorbed),
        }

    @classmethod
    def from_json(cls, data) -> "Commensuration":
        """Read a sidecar; a malformed one raises ParseError (`bad-sidecar`).
        A sidecar in the older bit-level format is read when it maps every
        gate to one gate; its label maps come from its `detail` tables."""
        zeta = data.get("zeta") if isinstance(data, dict) else None
        if not isinstance(zeta, dict):
            raise _bad_sidecar("expected an object whose zeta maps gate ids to gate ids")
        if any(isinstance(t, list) for t in zeta.values()):
            raise _bad_sidecar(
                "the sidecar splits a measurement over several gates; re-run qcirc defer"
            )
        try:
            labels = _detail_labels(data["detail"], zeta) if "detail" in data else data.get("labels", {})
        except (KeyError, TypeError, ValueError):
            raise _bad_sidecar("unreadable bit-level detail tables; re-run qcirc defer") from None
        absorbed = data.get("absorbed", [])
        if not (
            _str_values(zeta)
            and isinstance(labels, dict)
            and all(_str_values(table) for table in labels.values())
            and isinstance(absorbed, list)
            and all(isinstance(gid, str) for gid in absorbed)
        ):
            raise _bad_sidecar("zeta, labels and absorbed must hold gate ids and labels as strings")
        return cls(dict(zeta), {gid: dict(t) for gid, t in labels.items()}, frozenset(absorbed))


def _bad_sidecar(message: str) -> ParseError:
    return ParseError([Diagnostic("error", "bad-sidecar", "<sidecar>", message)])


def _str_values(table) -> bool:
    return isinstance(table, dict) and all(isinstance(v, str) for v in table.values())


def _detail_labels(detail: dict, zeta: dict) -> dict:
    """Label maps of a bit-level sidecar: each source label's symbols, placed
    at their bit positions of the one target gate, read back as that gate's
    label. Identity maps are left out."""
    out = {}
    for gid, slots in detail["assignments"].items():
        if any(dg != zeta[gid] for dg, _ in slots):
            raise ValueError(gid)
        d_label = {tuple(key): lab for key, lab in detail["d_labels"][zeta[gid]]}
        table = {}
        for lab, syms in detail["label_bits"][gid].items():
            key = {int(pos): sym for (_, pos), sym in zip(slots, syms)}
            table[lab] = d_label[tuple(key[i] for i in range(len(key)))]
        if any(lab != target for lab, target in table.items()):
            out[gid] = table
    return out


@dataclass(frozen=True)
class DeferralResult:
    circuit: QuantumCircuit
    zeta: Commensuration
    ancilla_registers: frozenset  # frozenset[int], appended after the originals


# --- helpers ----------------------------------------------------------------


def _fresh_gate_id(taken, base: str) -> str:
    gid = base
    while gid in taken:
        gid += "_"
    return gid


def _fresh_register_names(existing: Sequence[str], count: int) -> list[str]:
    names = (f"anc{i}" for i in itertools.count(len(existing)))
    return list(itertools.islice((n for n in names if n not in existing), count))


def _dilation(kraus: list, dim_anc: int) -> np.ndarray:
    """The system-environment unitary U (e_j (x) |a>) of Kraus operators A_i
    on dim_anc ancilla levels: at a = 0 it is sum_i A_i e_j (x) |i>, the
    operators stacked, and an orthonormal basis of their complement, the last
    big - dim columns of a complete QR factorization, fills the other columns."""
    dim = kraus[0].shape[0]
    big = dim * dim_anc
    unused = [np.zeros((dim, dim))] * (dim_anc - len(kraus))
    fixed = np.stack(kraus + unused, axis=1).reshape(big, dim) + 0.0  # a zero is written 0.0, not -0.0
    u = np.empty((big, big), dtype=complex)
    free = np.arange(big) % dim_anc != 0
    u[:, ~free], u[:, free] = fixed, np.linalg.qr(fixed, mode="complete")[0][:, dim:]
    if not linalg.is_unitary(u, 1e-7):
        raise DeferralError("standardization produced a non-unitary completion")
    return u


# --- the pass ---------------------------------------------------------------


def _plan(c: QuantumCircuit, order: list[str]) -> tuple[dict, dict, dict, dict, set, int]:
    """The pre-pass, over the gate ids `order`. A measurement is standard
    when `Measurement.selects` gives each of its labels exactly one basis
    state, and its read map is read off `selects`. Any other measurement
    with k >= 2 outcomes, one standard only within rounding included,
    becomes the unitary `<id>__u` of `_dilation` on its registers and
    ceil(log2 k) fresh |0> ancillas, followed by a standard
    measurement of the ancillas that keeps its id and labels; unused ancilla
    states get the labels pad0, pad1, ... and read as the first label. A
    single-outcome measurement becomes a unitary gate and measures no register.
    A standard measurement whose quantum source on every register is one kept
    standard measurement of the same registers is a re-measurement: it is
    dropped and read off the kept one's registers.

    Returns, per measurement id, its registers (a re-measurement shares its
    kept one's list) and its read map, basis index over those registers ->
    the label its consumers' selectors read; the gates each nonstandard
    measurement becomes; {re-measurement: kept}; the output's gate ids so
    far; and the register count with the ancillas."""
    regs, read, expand, kept = {}, {}, {}, {}
    taken, n = set(c._by_id), c.n_registers
    for g in map(c.gate, order):
        if not g.is_measure:
            continue
        (m,) = g.measurements.values()
        sel = m.selects
        if sel is not None and len(sel) == len(m.outcomes) == len(set(sel.tolist())):  # standard
            at = dict(zip(m.outcomes, np.argsort(sel).tolist()))  # label -> the basis index it selects
            s, *more = set(c.quantum_sources(g.id).values())
            a = None if more or s is None else c.gate(kept.get(s, s))
            if a is not None and a.is_measure and a.id not in expand and set(a.registers) == set(g.registers):
                kept[g.id], regs[g.id] = a.id, regs[a.id]
            else:
                a, regs[g.id] = g, list(g.registers)
            read[g.id] = {linalg.reindex(i, g.registers, a.registers): lab for lab, i in at.items()}
            continue
        labels = list(m.outcomes)
        ell = math.ceil(math.log2(len(labels)))  # 0 for a single outcome
        pads = [_fresh_gate_id(labels, f"pad{i}") for i in range(2**ell - len(labels))]
        regs[g.id], n = list(range(n, n + ell)), n + ell
        read[g.id] = dict(enumerate(labels + labels[:1] * len(pads)))
        if not ell:
            expand[g.id] = [unitary_gate(g.id, g.registers, m.operators[labels[0]])]
            continue
        u = _dilation([m.operators[lab] for lab in labels], 2**ell)
        uid = _fresh_gate_id(taken, f"{g.id}__u")
        taken.add(uid)
        expand[g.id] = [
            unitary_gate(uid, g.registers + tuple(regs[g.id]), u),
            measure_gate(g.id, regs[g.id], {lab: np.outer(e, e) for lab, e in zip(labels + pads, np.eye(2**ell))}),
        ]
    return regs, read, expand, kept, taken - set(kept), n


def defer_measurements(c: QuantumCircuit) -> DeferralResult:
    """Produce a faithfully-simulating circuit in which no unitary gate has a
    measurement gate as a prerequisite; ConstraintError for a classically
    controlled measurement.

    The pre-pass `_plan` and then one walk go over `topo_order(c)`, so a gate
    list is deferred, byte for byte, as its topological order is. The walk
    moves every measurement to the end. A measurement waits on each of its
    registers. A unitary takes the measurements waiting on each register r it
    acts on; if there are any, a CNOT `<gate>__cp__<last of them>` copies r to
    a fresh |0> ancilla and they move onto the copy. A unitary that got a copy
    or has classical sources becomes a unitary quantum-controlled by the
    registers its sources measure now: block-diagonal, one block per control
    basis state, each the op the selector picks for the labels that state
    reads. One whose sources all became unitaries keeps the op they select.
    Out come the unitaries in walk order, each gate's CNOTs (sorted by id)
    just before it, then the measurements sorted by id. Each of those is
    standard (see `_plan`), so it keeps its operators, the exact 0/1
    projectors, with every zero written +0.0."""
    check_valid(c)
    bad = constraint_violations(c)
    if bad:
        raise ConstraintError(bad)
    if not red_gates(c):
        return DeferralResult(c, Commensuration.identity(c), frozenset())

    order = topo_order(c)
    regs, read, expand, kept, taken, n = _plan(c, order)
    waiting: dict[int, list[str]] = {}
    measures: dict[str, Measurement] = {}
    unitaries = []
    for gid in order:
        for g in expand.get(gid, [c.gate(gid)]):
            if g.is_measure:
                if gid not in kept:
                    (measures[gid],) = g.measurements.values()
                    for r in regs[gid]:
                        waiting.setdefault(r, []).append(gid)
                continue
            cnots = []
            for r in g.registers:
                ms = waiting.pop(r, [])
                if ms:
                    cnots.append(unitary_gate(_fresh_gate_id(taken, f"{g.id}__cp__{ms[-1]}"), (r, n), linalg.CNOT))
                    taken.add(cnots[-1].id)
                    for m in ms:
                        regs[m][regs[m].index(r)] = n
                    n += 1
            unitaries += sorted(cnots, key=lambda h: h.id)
            sources = g.classical_sources
            ctrl = list(dict.fromkeys(w for s in sources for w in regs[s]))
            if cnots or ctrl:
                k, dim = len(ctrl), 2**g.arity
                big = np.zeros((2**k * dim, 2**k * dim), dtype=complex)
                for x in range(2**k):
                    key = tuple(read[s][linalg.reindex(x, ctrl, regs[s])] for s in sources)
                    big[x * dim : (x + 1) * dim, x * dim : (x + 1) * dim] = g.unitaries[g.selector[key]].matrix
                g = unitary_gate(g.id, tuple(ctrl) + g.registers, big)
            elif sources:  # every source became a unitary: keep the op they select
                op = g.selector[tuple(read[s][0] for s in sources)]
                g = replace(g, unitaries={op: g.unitaries[op]}, classical_sources=(), selector={(): op})
            unitaries.append(g)
    out = [measure_gate(m, regs[m], {lab: a + 0.0 for lab, a in x.operators.items()})  # -0.0 written 0.0
           for m, x in sorted(measures.items())]
    names = c.register_names + tuple(_fresh_register_names(c.register_names, n - c.n_registers))
    d = check_valid(QuantumCircuit(names, tuple(unitaries + out)))
    absorbed = frozenset(m for m, rs in regs.items() if not rs)
    targets = {m: kept.get(m, m) for m in order if m in regs and m not in absorbed}
    labels = {b: {lab: read[a][i] for i, lab in read[b].items()} for b, a in kept.items()}
    return DeferralResult(d, Commensuration(targets, labels, absorbed), frozenset(range(c.n_registers, n)))


# --- faithfulness checker ---------------------------------------------------


@dataclass(frozen=True)
class FaithfulnessReport:
    ok: bool
    failures: tuple  # tuple of dicts
    inputs_checked: int
    tracks_checked: int
    method: str  # "exact" or "inputs"

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "method": self.method,
            "inputs_checked": self.inputs_checked,
            "tracks_checked": self.tracks_checked,
            "failures": list(self.failures),
        }


def basis_inputs(n: int) -> list[np.ndarray]:
    return [linalg.basis_ket(i, n) for i in range(2**n)]


def random_pure_inputs(n: int, count: int, seed: int) -> list[np.ndarray]:
    """`count` Haar-random unit kets on n qubits: u0, u1 = `_uniforms([seed], ...)`
    give each amplitude sqrt(-2 log(1 - u0)) e^(2 pi i u1) (Box-Muller), then
    each ket is normalized."""
    u0, u1 = _uniforms([seed], 2 * count * 2**n).reshape(2, count, 2**n)
    kets = np.sqrt(-2 * np.log1p(-u0)) * np.exp(2j * np.pi * u1)
    return list(kets / np.linalg.norm(kets, axis=1, keepdims=True))


def check_faithful(
    c: QuantumCircuit,
    d: QuantumCircuit,
    zeta: Commensuration,
    inputs: Optional[Sequence[np.ndarray]] = None,
    tol: float = linalg.DEFAULT_TOL,
) -> FaithfulnessReport:
    """Verify faithful simulation: every source track's probability and
    principal-register output (ancillas traced out) are reproduced by its
    image under `zeta`, and target tracks outside the image have probability
    <= tol. A `tol` that is not finite and at least 0 raises DeferralError.
    Before any walk, a `zeta` that maps a source measurement to no
    measurement gate of `d`, or absorbs anything but a single-outcome
    measurement of `c`, raises ParseError (`bad-sidecar`).

    Without `inputs` the check is exact, for all inputs at once. Let A be a
    source track's operator, B its image's, and V_a = (I (x) <a|) B (I (x) |0>)
    for each ancilla basis state a. The track is reproduced for every input
    iff every V_a = c_a A with sum |c_a|^2 = 1, for then
    B (psi (x) |0>) = A psi (x) sum_a c_a |a>. With least-squares c_a, the
    squared Frobenius norm of the remainders V_a - c_a A and the gap between
    the masses sum |c_a|^2 |A|^2 and |A|^2 must be <= tol; so must |A|^2 for
    an untranslatable track and |B (I (x) |0>)|^2 for an unmatched target
    track. (A mass |A|^2 is the track's probability summed over basis inputs.)
    Given pure `inputs` (nonempty), the same test is taken on each input psi
    alone, with A psi and V_a psi for A and V_a, and probabilities for
    masses. At tol 0 it compares each track's probability and reduced state
    on the principal registers: sum_a V_a psi psi^dag V_a^dag equals
    A psi psi^dag A^dag iff every V_a psi = c_a A psi with sum |c_a|^2 = 1.
    Basis inputs alone cannot see a lost phase.

    The check holds the source's Tracks and their operators on psi, stacked
    in one array, and walks the target once, on its ancilla-zero columns
    only, through `track_rows`: a terminal-form target is one piece,
    W = U (I (x) |0>) psi with its rows grouped by track, and any other
    target gives one piece per leaf. Each piece's (target track, source
    track) pairs are compared at most `semantics.FRONTIER_BYTES` at a time
    (`_piece_failures`). Failures come by input, then source tracks, then
    unmatched target tracks, each in (gate id, label) order. An input's scale
    (`linalg.rescale`) changes no report byte. An image the walk never
    produces raises DeferralError."""
    if not (math.isfinite(tol) and tol >= 0):
        raise DeferralError(f"tolerance must be finite and at least 0, got {tol}")
    nc, nd = c.n_registers, d.n_registers
    if d.register_names[:nc] != c.register_names:
        raise DeferralError("deferred circuit does not extend the source registers")
    for g in c.gates:
        t = zeta.gates.get(g.id)
        if g.is_measure and g.id not in zeta.absorbed and not (d.has_gate(t) and d.gate(t).is_measure):
            raise _bad_sidecar(f"source measurement {g.id!r} maps to no measurement gate of the target")
    for gid in sorted(zeta.absorbed):
        if not (c.has_gate(gid) and len(c.gate(gid).outcome_labels) == 1):
            raise _bad_sidecar(f"absorbed {gid!r} is not a single-outcome measurement of the source")

    if inputs is not None and not len(inputs):
        raise DeferralError("no inputs to check")
    psi = np.eye(2**nc, dtype=complex) if inputs is None else np.empty((2**nc, len(inputs)), dtype=complex)
    for i, v in enumerate([] if inputs is None else inputs):
        v = np.array(v, dtype=complex).reshape(-1)  # a copy, which `linalg.rescale` writes over
        if v.shape[0] != 2**nc:
            raise DeferralError(f"input {i} has wrong dimension {v.shape[0]}")
        if not (np.isfinite(v).all() and v.any()):
            raise DeferralError(f"input {i} has zero or non-finite norm")
        v, _ = linalg.rescale(v)  # by a power of two, so that v's scale changes no bit of psi
        psi[:, i] = v / np.linalg.norm(v)
    sources = track_operators(c, psi)
    src = np.array([a for _, a in sources]).reshape(-1, *psi.shape)  # A_f psi, stacked
    sources = [f for f, _ in sources]  # the Tracks alone beside src
    cols = [None] if inputs is None else list(range(len(inputs)))  # the inputs compared; None: all at once
    pc = _columns(np.sum(src.real**2 + src.imag**2, axis=1), cols)  # each source track's weight per column
    preimages: dict = {}  # image under zeta (None: untranslatable) -> positions of its source tracks
    for j, f in enumerate(sources):
        preimages.setdefault(zeta.translate(f), []).append(j)
    failures = {}  # (input, 0, source position) or (input, 1, target sort key) -> failure, in report order
    for j in preimages.pop(None, []):
        for q in np.flatnonzero(pc[j] > tol).tolist():
            failures[cols[q], 0, j] = _failure("untranslatable-track-probability", cols[q], sources[j], mass=pc[j, q])
    # B (I (x) |0>) psi: the columns of B for ancilla-zero inputs, 2^nd x (2^nc or K)
    for piece in track_rows(d, np.kron(psi, linalg.basis_ket(0, nd - nc)[:, None])):
        failures.update(_piece_failures(*piece, sources, src, pc, preimages, cols, tol))
    if preimages:  # images that the walk never produced
        first = sources[min(min(js) for js in preimages.values())]
        raise DeferralError(f"translated track {zeta.translate(first).as_dict()} is not a track of the target")
    failures = [failures[k] for k in sorted(failures)]
    method, n_inputs = ("exact", 0) if inputs is None else ("inputs", len(inputs))
    return FaithfulnessReport(not failures, tuple(failures), n_inputs, len(sources), method)


def _columns(p: np.ndarray, cols: list) -> np.ndarray:
    """Weights per track and input column, p, as the check compares them:
    the exact check (`cols` is [None]) has one column, each track's mass."""
    return p.sum(axis=1, keepdims=True) if cols == [None] else p


def _row_sums(index: np.ndarray, x: np.ndarray, count: int, width: int) -> np.ndarray:
    """The rows of x, `width` entries each, summed by `index` into `count`
    rows, each added one at a time in row order (`np.bincount`, over real and
    imaginary parts side by side), so rows of zeros change no sum."""
    x = np.ascontiguousarray(x).reshape(len(index), width)
    parts = x.view(float) if np.iscomplexobj(x) else x
    q = parts.shape[1]
    sums = np.bincount((index[:, None] * q + np.arange(q)).ravel(), parts.ravel(), minlength=count * q)
    return sums.reshape(count, q).view(x.dtype)


def _piece_failures(w, group, tracks, sources, src, pc, preimages, cols, tol) -> dict:
    """The failures, keyed as in `check_faithful`, of the target tracks of a
    `track_rows` piece and of the source tracks, `sources[j]` with A psi =
    src[j] and weights pc[j] per column of `cols`, whose positions they pop
    from `preimages`. w = B (I (x) |0>) psi; principal registers come first,
    so row x * 2^n_anc + a is <x a|. A cell is a track's rows for one a. Each
    sum within a cell has the cell's fixed shape, and sums across rows or
    cells run in their order (`_row_sums`), so a general leaf (one track,
    every cell) gives a terminal piece's bits, and each (target track, source
    track) pair's sums are the same in any chunk of pairs. The pairs are
    compared a chunk at a time: a chunk's cells and its source blocks, each
    counted as one V_a, come to at most `semantics.FRONTIER_BYTES`, or it is
    one pair.

    Per pair of source track A and target track V, and per column: the
    coefficients c_a = <A, V_a> / |A|^2, the image weight sum |c_a|^2 |A|^2
    and the residual |V|^2 - sum |c_a|^2 |A|^2, which is sum |V_a - c_a A|^2
    for least-squares c_a. The exact check's one column takes each inner
    product over all of psi = I at once; an input column, over its own."""
    rows, m = w.shape
    nx = src.shape[1]
    na = (rows // nx).bit_length() - 1
    group = np.zeros(rows, dtype=np.intp) if group is None else group
    pd = _columns(_row_sums(group, w.real**2 + w.imag**2, len(tracks), m), cols)  # each target track's weight
    out, pairs = {}, []
    for k, (key, g) in enumerate(tracks):
        js = preimages.pop(g, [])
        pairs += [(k, j) for j in js]
        if not js:
            for q in np.flatnonzero(pd[k] > tol).tolist():
                out[cols[q], 1, key] = _failure("unmatched-target-track", cols[q], g, mass=pd[k, q])
    if not pairs:
        return out
    kk, jj = np.array(pairs).T
    js, mass, image = jj.tolist(), pc[jj], np.empty((len(kk), len(cols)))
    # the piece's cells (target track k, ancilla state a), sorted; track k's are cells[first[k] : first[k + 1]]
    cells = np.sort(group * 2**na + (np.arange(rows) & (2**na - 1)))
    cells = cells[np.diff(cells, prepend=-1) > 0]  # distinct (not np.unique, which imports numpy.ma)
    first = np.searchsorted(cells >> na, np.arange(len(tracks) + 1))
    counts = first[kk + 1] - first[kk]  # each pair's cells, its target track's
    step = max(1, semantics.FRONTIER_BYTES // (src[0].nbytes * (counts.max() + 1)))
    for q in range(0, len(kk), step):
        n, a, mq = counts[q : q + step], src[jj[q : q + step]], mass[q : q + step]
        p = np.repeat(np.arange(len(n)), n)  # the pair of each (pair, cell of its target track)
        cell = cells[np.repeat(first[kk[q : q + step]] - np.cumsum(n) + n, n) + np.arange(n.sum())]
        at = (cell & (2**na - 1))[:, None] + np.arange(nx) * 2**na  # each cell's rows <x a|
        v = w[at]
        v[group[at] != (cell >> na)[:, None]] = 0  # v[i] = V_a psi, the rows of cell i's track
        dot = np.sum(np.conj(a[p]) * v, axis=(1, 2) if cols == [None] else 1).reshape(len(p), len(cols))
        coef = np.divide(dot, mq[p], out=np.zeros(dot.shape, complex), where=mq[p] > 0)  # c_a = 0 for a massless A
        image[q : q + step] = _row_sums(p, coef.real**2 + coef.imag**2, len(n), len(cols)) * mq
    residual = np.maximum(pd[kk] - image, 0.0)
    for q, i in np.argwhere((residual > tol) | (abs(image - mass) > tol)).tolist():
        out[cols[i], 0, js[q]] = _failure(
            "operator-mismatch" if cols[i] is None else "state-mismatch", cols[i], sources[js[q]],
            residual=residual[q, i], source_mass=mass[q, i], target_mass=image[q, i] + residual[q, i])
    return out


def _failure(kind: str, i: Optional[int], f: Track, **weights) -> dict:
    """Track f's failure in the exact check (i is None), where its weights
    are masses, or on input i, where they are probabilities."""
    at = {} if i is None else {"input": i}
    named = {k if i is None else k.replace("mass", "probability"): float(x) for k, x in weights.items()}
    return {"kind": kind, **at, "track": f.as_dict(), **named}
