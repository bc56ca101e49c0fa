"""Measurement-deferral compiler pass and faithful-simulation checker.

`defer_measurements` rewrites a circuit without classically controlled
measurements into one in which every measurement comes after every unitary,
in one walk whose read maps spare rewriting any selector. A standard
measurement, one whose operators are exact 0/1 projectors with one label per
basis state (`standard_bases`), stays on its registers, and so does a
nonstandard one that ends its registers unread; every other one, one
standard only within rounding included, is standardized with ancillas.
A measurement stays one gate throughout, with its own id and outcome labels,
so the commensuration maps gate ids to gate ids.
`check_faithful` is exact by default; sampled inputs are an optional
cross-check. It holds the source's tracks as one compact stack, and walks
the target piece by piece (`track_rows`), each track only its own rows.
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
    QuantumCircuit,
    check_valid,
    measure_gate,
    standard_bases,
    topo_order,
    unitary_gate,
)
from .semantics import Track, _row_keys, _uniforms, track_rows
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

    def _image(self, gid: str, label: str) -> Optional[tuple[str, str]]:
        """The target (gate id, label) of source gate `gid`'s `label`; None if `gid` is absorbed."""
        return None if gid in self.absorbed else (self.gates[gid], self.labels.get(gid, {}).get(label, label))

    def translate(self, f: Track) -> Optional[Track]:
        """The deferred-circuit track identified with `f`, or None when `f`
        gives one target gate two labels (a probability-zero source track)."""
        out: dict[str, str] = {}
        for gid, label in filter(None, itertools.starmap(self._image, f.outcomes)):
            if out.setdefault(gid, label) != label:
                return None
        return Track.from_mapping(out)

    def _translate_codes(self, source: semantics._Plan, target: semantics._Plan, codes: np.ndarray):
        """`translate` on code rows of `source`, one pass over the rows per
        source column: the images as `target` code rows, and whether each row
        is translatable. A label the target gate lacks gets its own code past
        the gate's labels, so two such labels on one gate conflict; it, like
        a target column that no source column reaches (-1), matches no row."""
        out, ok, index = np.full((len(codes), len(target.labels) + 1), -1), np.ones(len(codes), dtype=bool), {}
        for gid, j in source.column.items():
            images = [self._image(gid, label) for label in source.labels[j].tolist()]
            if images[0] is not None:  # not absorbed
                col = target.column[images[0][0]]
                labels = index.setdefault(col, dict(target.index[col]))  # and the lacking labels seen so far
                v = np.array([labels.setdefault(b, len(labels)) for _, b in images])[codes[:, j]]
                ok &= (out[:, col] < 0) | (out[:, col] == v)
                out[:, col] = v
        return out, ok

    def to_json(self) -> dict:
        return {
            "zeta": dict(self.gates),
            "labels": {gid: dict(table) for gid, table in self.labels.items()},
            "absorbed": sorted(self.absorbed),
        }

    @classmethod
    def from_json(cls, data) -> "Commensuration":
        """Read a sidecar's `zeta`, `labels` and `absorbed`, as `to_json` writes
        them, and no other key; a malformed one raises ParseError (`bad-sidecar`)."""
        zeta = data.get("zeta") if isinstance(data, dict) else None
        if not isinstance(zeta, dict):
            raise _bad_sidecar("expected an object whose zeta maps gate ids to gate ids")
        labels, absorbed = data.get("labels", {}), data.get("absorbed", [])
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


def defer_measurements(c: QuantumCircuit) -> DeferralResult:
    """Produce a faithfully-simulating circuit in which no unitary gate has a
    measurement gate as a prerequisite; ConstraintError for a classically
    controlled measurement.

    One walk goes over `topo_order(c)`, so a gate list is deferred, byte for
    byte, as its topological order is, and decides each measurement when it
    reaches it. A measurement is standard when `standard_bases` gives
    each of its labels its one basis state; its read map, basis index over
    its registers -> the label its consumers' selectors read, is read off
    it. A standard measurement whose quantum source on every register is one
    kept standard measurement of the same registers is a re-measurement: it
    is dropped and read off the kept one's registers. A nonstandard one
    that no gate follows or reads stays: its gate is kept as it is. Any
    other measurement with k >= 2 outcomes, one standard only within
    rounding included, becomes the unitary `<id>__u` of `_dilation` on its
    registers and ceil(log2 k) fresh |0> ancillas, followed by a standard
    measurement of the ancillas that keeps its id and labels; unused ancilla
    states get the labels pad0, pad1, ... and read as the first label. A
    single-outcome one becomes a unitary gate and measures no register.
    These standardization ancillas are numbered in walk order, before every copy.

    The walk moves every measurement to the end. A standard measurement
    waits on each of its registers, from when its own unitary, if any, is
    placed. Every unitary, from the source or from standardization, and
    every measurement that stays takes the measurements waiting on each
    register r it acts on, unless its every operator is exactly
    block-diagonal on r (`linalg.block_diagonal`), so commutes with them,
    and none of its classical sources is measured on r; if it takes any, a
    CNOT `<gate>__cp__<last of them>` copies r to a fresh |0> ancilla and
    they move onto the copy. A unitary that got a copy or has classical sources
    becomes a unitary quantum-controlled by the registers its sources
    measure now: block-diagonal, one block per control basis state, each the
    op the selector picks for the labels that state reads. One whose sources
    all became unitaries keeps the op they select. Out come the unitaries in
    walk order, each gate's CNOTs (sorted by id) just before it, then the
    measurements sorted by id. Each of those is standard, so it keeps its
    operators, the exact 0/1 projectors, with every zero written +0.0; or
    it stayed, and keeps its source gate bit for bit."""
    check_valid(c)
    bad = constraint_violations(c)
    if bad:
        raise ConstraintError(bad)
    if not red_gates(c):
        return DeferralResult(c, Commensuration.identity(c), frozenset())

    taken, std = set(c._by_id), c.n_registers  # std: the next standardization ancilla
    bases = standard_bases(x for g in c.gates for x in g.measurements.values())
    n = std + sum((len(x.outcomes) - 1).bit_length()  # the first copy, after every standardization ancilla
                  for g in c.gates if c._wiring[3][g.id] for x in g.measurements.values() if bases[x] is None)
    regs, read, kept, waiting, measures, unitaries = {}, {}, {}, {}, {}, []
    for g in map(c.gate, topo_order(c)):
        m = None  # a nonstandard measurement, which waits on its ancillas once its unitary g is placed
        if g.is_measure:
            (x,) = g.measurements.values()
            if bases[x] is not None:  # standard
                s, *more = set(c.quantum_sources(g.id).values())
                a = None if more or s is None else kept.get(s, s)
                # g re-measures a if a is on g's registers: regs has source registers only for kept and staying ones
                if set(regs.get(a, ())) == set(g.registers):
                    kept[g.id], regs[g.id] = a, regs[a]
                    taken.discard(g.id)
                else:
                    regs[g.id], measures[g.id] = list(g.registers), x.operators
                    for r in g.registers:
                        waiting.setdefault(r, []).append(g.id)
                read[g.id] = dict(zip(linalg.reindex(bases[x], g.registers, regs[g.id]).tolist(), x.outcomes))
                continue
            if not c._wiring[3][g.id]:  # no gate follows or reads it: it stays as it is
                regs[g.id], measures[g.id] = list(g.registers), None
            else:
                m, labels = g.id, list(x.outcomes)
                ell = (len(labels) - 1).bit_length()  # ceil(log2 k), 0 for a single outcome
                pads = [_fresh_gate_id(labels, f"pad{i}") for i in range(2**ell - len(labels))]
                regs[m], std = list(range(std, std + ell)), std + ell
                read[m] = dict(enumerate(labels + labels[:1] * len(pads)))
                if ell:
                    measures[m] = {lab: np.outer(e, e) for lab, e in zip(labels + pads, np.eye(2**ell))}
                    uid = _fresh_gate_id(taken, f"{m}__u")
                    taken.add(uid)
                    u = _dilation([x.operators[lab] for lab in labels], 2**ell)
                    g = unitary_gate(uid, g.registers + tuple(regs[m]), u)
                else:
                    g = unitary_gate(m, g.registers, x.operators[labels[0]])
        sources, cnots = g.classical_sources, []
        mats = [u.matrix for u in g.unitaries.values()] + [a for y in g.measurements.values() for a in y.operators.values()]
        own = {w for s in sources for w in regs[s]}  # the registers g's sources are measured on
        for r in g.registers:  # a copy of r unless g commutes with the measurements waiting on it
            if r in waiting and (r in own or not linalg.block_diagonal(mats, g.registers.index(r))):
                ms = waiting.pop(r)
                cnots.append(unitary_gate(_fresh_gate_id(taken, f"{g.id}__cp__{ms[-1]}"), (r, n), linalg.CNOT))
                taken.add(cnots[-1].id)
                for w in ms:
                    regs[w][regs[w].index(r)] = n
                n += 1
        unitaries += sorted(cnots, key=lambda h: h.id)
        if g.is_measure:  # it stays as it is
            continue
        ctrl = list(dict.fromkeys(w for s in sources for w in regs[s]))
        if cnots or ctrl:
            k, dim = len(ctrl), 2**g.arity
            big = np.zeros((2**k * dim, 2**k * dim), dtype=complex)
            at = [linalg.reindex(np.arange(2**k), ctrl, regs[s]).tolist() for s in sources]  # i over ctrl, over regs[s]
            for i in range(2**k):
                key = tuple(read[s][j[i]] for s, j in zip(sources, at))
                big[i * dim : (i + 1) * dim, i * dim : (i + 1) * dim] = g.unitaries[g.selector[key]].matrix
            g = unitary_gate(g.id, tuple(ctrl) + g.registers, big)
        elif sources:  # every source became a unitary: keep the op they select
            op = g.selector[tuple(read[s][0] for s in sources)]
            g = replace(g, unitaries={op: g.unitaries[op]}, classical_sources=(), selector={(): op})
        unitaries.append(g)
        for r in regs.get(m, ()):
            waiting.setdefault(r, []).append(m)
    out = [c.gate(m) if ops is None else measure_gate(m, regs[m], {lab: a + 0.0 for lab, a in ops.items()})
           for m, ops in sorted(measures.items())]  # -0.0 written 0.0, but in a measurement that stays
    names = c.register_names + tuple(_fresh_register_names(c.register_names, n - c.n_registers))
    d = check_valid(QuantumCircuit(names, tuple(unitaries + out)))
    absorbed = frozenset(m for m, rs in regs.items() if not rs)
    targets = {m: kept.get(m, m) for m, rs in regs.items() if rs}
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


def check_faithful(c: QuantumCircuit, d: QuantumCircuit, zeta: Commensuration,
                   inputs: Optional[Sequence[np.ndarray]] = None, tol: float = linalg.DEFAULT_TOL) -> FaithfulnessReport:
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

    Tracks are named by their outcome-code rows. The source's A psi come in
    one compact stack in (gate id, label) order (`semantics._stack`), and
    `zeta` translates every row at once (`Commensuration._translate_codes`).
    The target is walked once, on its ancilla-zero columns only, through
    `track_rows`, whose code rows come before any operator is applied: each
    image is paired with its row by sorting, or the first source track
    without one raises DeferralError. Each walk's start is padded to 4k
    columns where that changes no bit (`_padded`), so that it settles. Its
    pieces are compared as they come, each target row with the source row it
    reads (`_piece_failures`), every sum adding rows in order, then columns;
    a `Track` is built only for a failure or that error. Failures come by
    input, then source tracks, then unmatched target tracks, each in (gate
    id, label) order; an input's scale changes no report byte."""
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
    psi = np.eye(*linalg.fits(2**nc, 2**nc), dtype=complex) if inputs is None else np.empty((2**nc, len(inputs)), dtype=complex)
    for i, v in enumerate([] if inputs is None else inputs):
        v = np.array(v, dtype=complex).reshape(-1)  # a copy, which `linalg.rescale` writes over
        if v.shape[0] != 2**nc:
            raise DeferralError(f"input {i} has wrong dimension {v.shape[0]}")
        if not (np.isfinite(v).all() and v.any()):
            raise DeferralError(f"input {i} has zero or non-finite norm")
        v, _ = linalg.rescale(v)  # by a power of two, so that v's scale changes no bit of psi
        psi[:, i] = v / np.linalg.norm(v)
    plan, target = semantics._plan(c), semantics._plan(d)
    codes, placed, src = semantics._stack(c, _padded(c, psi))
    src = src[..., : psi.shape[1]]  # the real columns
    step = max(1, semantics.FRONTIER_BYTES // src[0].nbytes)  # tracks summed at a time
    p = np.concatenate([_weights(a) for a in np.split(src, range(step, len(src), step))])
    cols = [None] if inputs is None else list(range(len(inputs)))  # the inputs compared; None: all at once
    pc = _columns(p, cols)  # each source track's weight per column
    images, ok = zeta._translate_codes(plan, target, codes)
    failures = {}  # (input, 0, source position) or (input, 1, target sort key) -> failure, in report order
    for j, q in np.argwhere(~ok[:, None] & (pc > tol)).tolist():
        failures[cols[q], 0, j] = _failure("untranslatable-track-probability", cols[q], plan, codes[j], mass=pc[j, q])
    # B (I (x) |0>) psi: the columns of B for ancilla-zero inputs, 2^nd x (2^nc or K)
    rows, place, pieces = track_rows(d, _padded(d, np.kron(psi, linalg.basis_ket(0, nd - nc)[:, None])))
    known, images = _row_keys(rows, images)  # keyed with one width, so that they compare
    at = np.minimum(np.searchsorted(known, images), len(known) - 1)  # each image's target row, if it has one
    lost = ok & (known[at] != images)
    if lost.any():
        first = plan.tracks(codes[lost][:1])[0]
        raise DeferralError(f"translated track {zeta.translate(first).as_dict()} is not a track of the target")
    by = np.flatnonzero(ok)[np.argsort(at[ok], kind="stable")]  # the translatable source tracks, by target row
    pairing = (by, np.searchsorted(at[by], np.arange(len(rows) + 1)))
    del known, images, lost, at  # not held while the target is walked
    cells = np.unique(place[1] & (2 ** (nd - nc) - 1), return_inverse=True)  # each compact target row's cell
    for w, keys in pieces:
        failures.update(_piece_failures(w[..., : src.shape[2]], keys, (target, rows, place, cells),
                                         (plan, codes, placed, src, pc), pairing, cols, tol))
    failures = [failures[k] for k in sorted(failures)]
    method, n_inputs = ("exact", 0) if inputs is None else ("inputs", len(inputs))
    return FaithfulnessReport(not failures, tuple(failures), n_inputs, len(codes), method)


def _padded(c: QuantumCircuit, t: np.ndarray) -> np.ndarray:
    """t with zero columns up to a multiple of 4, on which c's walk settles,
    if each product of the walk from t, 2^(n - k) m wide for a gate on k of
    c's n registers, is a multiple of 4 wide already: so no bit changes."""
    m = t.shape[1]
    wide = m % 4 and not any(2 ** (c.n_registers - g.arity) * m % 4 for g in c.gates)
    return np.pad(t, ((0, 0), (0, -m % 4))) if wide else t


def _columns(p: np.ndarray, cols: list) -> np.ndarray:
    """Weights per track and input column, p, as the check compares them:
    the exact check (`cols` is [None]) has one column, each track's mass."""
    return p.sum(axis=1, keepdims=True) if cols == [None] else p


def _weights(w: np.ndarray) -> np.ndarray:
    """Per block of w and column, the squared norm, its rows added in order (`_row_sums`)."""
    return _row_sums(np.repeat(np.arange(len(w)), w.shape[1]), w.real**2 + w.imag**2, len(w), w.shape[2])


def _row_sums(index: np.ndarray, x: np.ndarray, count: int, width: int) -> np.ndarray:
    """The rows of real x, `width` entries each, summed by `index` into
    `count` rows, each added one at a time in row order (`np.bincount`), so
    rows of zeros change no sum."""
    x = np.ascontiguousarray(x).reshape(len(index), width)
    sums = np.bincount((index[:, None] * width + np.arange(width)).ravel(), x.ravel(), minlength=count * width)
    return sums.reshape(count, width)


def _piece_failures(w, keys, target, source, pairing, cols, tol) -> dict:
    """The failures, keyed as in `check_faithful`, of a `track_rows` piece
    of the target = (plan, code rows, placement, (cells, each compact row's
    cell)), w[i] the compact block of target track keys[i], and of the
    source tracks paired with it: by
    `pairing` = (by, start), target row r's are by[start[r] : start[r + 1]].
    Source track j has code row codes[j], compact block src[j] and weights
    pc[j] per column of `cols`. No argument is written. A full target block
    is B (I (x) |0>) psi, in which row x * 2^n_anc + a is <x a|; a cell is
    a target track's rows for one a, V_a. Each compact target row gathers
    A's row x from src[j] (`np.searchsorted` on the source's rowmap), 0
    where A holds none. Every sum adds rows in order, a column at a time
    (`_row_sums`), then the columns (`_columns`), so rows of zeros change
    no sum, and each pair's sums are the same in any chunk of pairs. A
    chunk's arrays, four target blocks a pair, come to at most
    `semantics.FRONTIER_BYTES`, or it is one pair.

    Per pair of source track A and target track V, and per column: the
    coefficients c_a = <A, V_a> / |A|^2, the image weight sum |c_a|^2 |A|^2
    and the residual |V|^2 - sum |c_a|^2 |A|^2 = sum |V_a - c_a A|^2 for
    least-squares c_a, each inner product over psi = I or one input column."""
    (target, target_rows, (offsets, rowmap, rows), (cells, cell)), (plan, codes, (at, held, nx), src, pc) = target, source
    (by, start), tracks, na = pairing, target_rows[keys], (rows // nx).bit_length() - 1
    pd, out = _columns(_weights(w), cols), {}  # the target tracks' weights, and the failures
    lo, hits = start[keys], start[keys + 1] - start[keys]  # track k's source tracks: by[lo[k] : lo[k] + hits[k]]
    for k, q in np.argwhere((hits == 0)[:, None] & (pd > tol)).tolist():
        out[cols[q], 1, int(keys[k])] = _failure("unmatched-target-track", cols[q], target, tracks[k], mass=pd[k, q])
    kk = np.repeat(np.arange(len(hits)), hits)
    jj = by[np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(hits.sum())]
    js, mass, image = jj.tolist(), pc[jj], np.empty((len(kk), len(cols)))
    step, n = max(1, semantics.FRONTIER_BYTES // (4 * w[0].nbytes)), len(cells)
    for q in range(0, len(kk), step):
        k, j, mq = kk[q : q + step], jj[q : q + step], mass[q : q + step]
        p = np.repeat(np.arange(len(k)), n)  # the pair of each (pair, cell)
        x = ((offsets[keys[k], None] | rowmap) >> na) - at[j, None]  # each target row's x, less A's offset
        s = np.minimum(np.searchsorted(held, x), len(held) - 1)
        a = np.where((held[s] == x)[:, :, None], src[j[:, None], s], 0)  # A's row x, 0 where A holds none
        v = np.conj(a) * w[k]  # conj(A) V_a, in a new array: one written over an input can round differently
        dot = _row_sums((np.arange(len(k))[:, None] * n + cell).ravel(), v.view(float), len(p), 2 * v.shape[2])
        dot = _columns(dot.view(complex), cols)  # <A, V_a> per (pair, cell)
        coef = np.divide(dot, mq[p], out=np.zeros(dot.shape, complex), where=mq[p] > 0)  # c_a = 0 for a massless A
        image[q : q + step] = _row_sums(p, coef.real**2 + coef.imag**2, len(k), len(cols)) * mq
    residual = np.maximum(pd[kk] - image, 0.0)
    for q, i in np.argwhere((residual > tol) | (abs(image - mass) > tol)).tolist():
        out[cols[i], 0, js[q]] = _failure(
            "operator-mismatch" if cols[i] is None else "state-mismatch", cols[i], plan, codes[js[q]],
            residual=residual[q, i], source_mass=mass[q, i], target_mass=image[q, i] + residual[q, i])
    return out


def _failure(kind: str, i: Optional[int], plan: semantics._Plan, row: np.ndarray, **weights) -> dict:
    """The failure of the track of `plan`'s code row `row`, built here as a
    `Track`, in the exact check (i is None), where its weights are masses,
    or on input i, where they are probabilities."""
    at = {} if i is None else {"input": i}
    named = {k if i is None else k.replace("mass", "probability"): float(x) for k, x in weights.items()}
    return {"kind": kind, **at, "track": plan.tracks(row[None])[0].as_dict(), **named}
