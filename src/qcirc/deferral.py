"""Measurement-deferral compiler pass and faithful-simulation checker.

`defer_measurements` rewrites a circuit without classically controlled
measurements into one in which every measurement comes after every unitary;
`_plan` is its pre-pass, whose read maps spare rewriting any selector. A
measurement stays one gate throughout, with its own id and outcome labels, so
the commensuration maps gate ids to gate ids. `check_faithful` is exact by
default; sampled inputs are an optional cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .circuit import (
    Diagnostic,
    Gate,
    Measurement,
    QuantumCircuit,
    check_valid,
    measure_gate,
    topo_order,
    unitary_gate,
)
from .semantics import Track, track_operators, walk_tracks
from .serialize import ParseError

TOL = linalg.DEFAULT_TOL


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


# --- measurement classification --------------------------------------------


@dataclass(frozen=True)
class MeasurementClass:
    projective: bool
    complete: bool
    standard: bool


def classify_measurement(m: Measurement, tol: float = TOL) -> MeasurementClass:
    ops = [m.operators[label] for label in m.outcomes]
    dim = ops[0].shape[0]
    projective = all(
        linalg.is_hermitian(a, tol) and linalg.mat_close(a @ a, a, tol) for a in ops
    ) and all(
        linalg.mat_close(a @ b, np.zeros((dim, dim)), tol)
        for a, b in itertools.combinations(ops, 2)
    )
    complete = projective and all(abs(linalg.trace(a).real - 1) <= tol for a in ops)
    standard = complete and all(
        linalg.mat_close(a, _projector(int(np.argmax(np.abs(np.diag(a)))), dim), tol) for a in ops
    )
    return MeasurementClass(projective, complete, standard)


def red_gates(c: QuantumCircuit) -> set[str]:
    """Unitary gates with a measurement gate among their prerequisites.
    Empty iff the circuit satisfies the deferral requirement."""
    measured, prereq = c._mask(g.id for g in c.gates if g.is_measure), c._layers[0]
    return {g.id for g in c.gates if not g.is_measure and prereq[g.id] & measured}


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


def _projector(index: int, dim: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[index, index] = 1.0
    return p


def _basis_labels(g: Gate) -> dict[str, int]:
    """Outcome label -> computational-basis index over the gate's register
    tuple, for a gate carrying one standard measurement."""
    (m,) = g.measurements.values()
    return {lab: int(np.argmax(np.abs(np.diag(a)))) for lab, a in m.operators.items()}


def _dilation(kraus: list, dim_anc: int) -> np.ndarray:
    """The system-environment unitary U (e_j (x) |a>) of Kraus operators A_i
    on dim_anc ancilla levels: at a = 0 it is sum_i A_i e_j (x) |i>, the
    operators stacked, and one Gram-Schmidt pass over the basis vectors, in
    order, fills the other columns."""
    dim = kraus[0].shape[0]
    big = dim * dim_anc
    unused = [np.zeros((dim, dim))] * (dim_anc - len(kraus))
    fixed = np.stack(kraus + unused, axis=1).reshape(big, dim) + 0.0  # a zero is written 0.0, not -0.0
    basis = list(fixed.T)
    for w in np.eye(big, dtype=complex):
        if len(basis) == big:
            break
        for b in basis:
            w = w - (b.conj() @ w) * b
        norm = float(np.linalg.norm(w))
        if norm > 1e-7:
            basis.append(w / norm)
    if len(basis) < big:
        raise DeferralError("failed to complete isometry to a unitary")
    u = np.empty((big, big), dtype=complex)
    free = np.arange(big) % dim_anc != 0
    u[:, ~free], u[:, free] = fixed, np.transpose(basis[dim:])
    if not linalg.is_unitary(u, 1e-7):
        raise DeferralError("standardization produced a non-unitary completion")
    return u


def _reindex(index: int, frm: Sequence[int], to: Sequence[int]) -> int:
    """A basis index over registers `frm` as an index over their permutation `to`."""
    bit = dict(zip(frm, linalg.bits_of(index, len(frm))))
    return linalg.index_of([bit[r] for r in to])


# --- the pass ---------------------------------------------------------------


def _plan(c: QuantumCircuit, order: list[str]) -> tuple[dict, dict, dict, dict, set, int]:
    """The pre-pass, over the gate ids `order`. A nonstandard measurement
    with k >= 2 outcomes becomes the unitary `<id>__u` of `_dilation` on its
    registers and ceil(log2 k) fresh |0> ancillas, followed by a standard
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
        if classify_measurement(m).standard:
            s, *more = set(c.quantum_sources(g.id).values())
            a = None if more or s is None else c.gate(kept.get(s, s))
            if a is not None and a.is_measure and a.id not in expand and set(a.registers) == set(g.registers):
                kept[g.id], regs[g.id] = a.id, regs[a.id]
                read[g.id] = {_reindex(i, g.registers, a.registers): lab for lab, i in _basis_labels(g).items()}
            else:
                regs[g.id] = list(g.registers)
                read[g.id] = {i: lab for lab, i in _basis_labels(g).items()}
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
            measure_gate(g.id, regs[g.id], {lab: _projector(i, 2**ell) for i, lab in enumerate(labels + pads)}),
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
    just before it, then the measurements sorted by id."""
    check_valid(c)
    bad = constraint_violations(c)
    if bad:
        raise ConstraintError(bad)
    if not red_gates(c):
        return DeferralResult(c, Commensuration.identity(c), frozenset())

    order = topo_order(c)
    regs, read, expand, kept, taken, n = _plan(c, order)
    waiting: dict[int, list[str]] = {}
    measures: dict[str, Gate] = {}
    unitaries = []
    for gid in order:
        for g in expand.get(gid, [c.gate(gid)]):
            if g.is_measure:
                if gid not in kept:
                    measures[gid] = g
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
                    bit = dict(zip(ctrl, linalg.bits_of(x, k)))
                    key = tuple(read[s][linalg.index_of([bit[w] for w in regs[s]])] for s in sources)
                    big[x * dim : (x + 1) * dim, x * dim : (x + 1) * dim] = g.unitaries[g.selector[key]].matrix
                g = unitary_gate(g.id, tuple(ctrl) + g.registers, big)
            elif sources:  # every source became a unitary: keep the op they select
                op = g.selector[tuple(read[s][0] for s in sources)]
                g = replace(g, unitaries={op: g.unitaries[op]}, classical_sources=(), selector={(): op})
            unitaries.append(g)
    out = [
        measure_gate(m, regs[m], {lab: _projector(i, 2 ** len(regs[m])) for lab, i in _basis_labels(g).items()})
        for m, g in sorted(measures.items())
    ]
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
    method: str = "inputs"  # "exact" or "inputs"

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
    rng = np.random.default_rng(seed)
    kets = [rng.normal(size=2**n) + 1j * rng.normal(size=2**n) for _ in range(count)]
    return [v / np.linalg.norm(v) for v in kets]


def check_faithful(
    c: QuantumCircuit,
    d: QuantumCircuit,
    zeta: Commensuration,
    inputs: Optional[Sequence[np.ndarray]] = None,
    tol: float = TOL,
) -> FaithfulnessReport:
    """Verify faithful simulation: every source track's probability and
    principal-register output (ancillas traced out) are reproduced by its
    image under `zeta`, and target tracks outside the image have probability
    <= tol. Before any walk, a `zeta` that maps a source measurement to no
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
    Given pure `inputs` (nonempty), both circuits are walked from the stacked
    inputs (the target's with ancillas |0>), and each input's track
    probabilities and principal-register states are compared instead; basis
    inputs alone cannot see a lost phase.

    The source's track operators are held and the target is walked once, on
    its ancilla-zero columns only, each leaf compared as it comes. Failures
    come by input: source tracks in source order, then unmatched target
    tracks. An image the walk never produces raises DeferralError."""
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
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape[0] != 2**nc:
            raise DeferralError(f"input {i} has wrong dimension {v.shape[0]}")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(v)
            if not 0 < norm < np.inf and np.isfinite(v).all() and v.any():  # scale it into range first
                v = v / np.max(np.abs([v.real, v.imag]))
                norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:  # NaN fails both
            raise DeferralError(f"input {i} has zero or non-finite norm")
        psi[:, i] = v / norm
    ops_c = track_operators(c, psi)
    preimages: dict = {}  # image under zeta (None: untranslatable) -> positions of its source tracks
    for j, (f, _) in enumerate(ops_c):
        preimages.setdefault(zeta.translate(f), []).append(j)
    cols = [None] if inputs is None else range(len(inputs))  # None: the exact check
    failures = {}  # (input, 0, source position) or (input, 1, target sort key) -> failure or None, in report order
    for j, i in itertools.product(preimages.pop(None, []), cols):
        f, a = ops_c[j]
        p = float(np.vdot(a, a).real) if i is None else float(np.linalg.norm(a[:, i]) ** 2)
        failures[i, 0, j] = _weight_failure("untranslatable-track-probability", i, f, p, tol)
    # B (I (x) |0>) psi: the columns of B for ancilla-zero inputs, 2^nd x (2^nc or K)
    for key, g, b in walk_tracks(d, np.kron(psi, linalg.basis_ket(0, nd - nc)[:, None])):
        js = preimages.pop(g, [])
        if not js:
            for i in cols:
                p = float(np.sum(np.abs(b) ** 2)) if i is None else float(np.linalg.norm(b[:, i]) ** 2)
                failures[i, 1, key] = _weight_failure("unmatched-target-track", i, g, p, tol)
        for j, i in itertools.product(js, cols):
            failures[i, 0, j] = _track_failure(*ops_c[j], b, i, tol)
    if preimages:  # images that the walk never produced
        first = ops_c[min(min(js) for js in preimages.values())][0]
        raise DeferralError(f"translated track {zeta.translate(first).as_dict()} is not a track of the target")
    failures = [failures[k] for k in sorted(failures) if failures[k]]
    method, n_inputs = ("exact", 0) if inputs is None else ("inputs", len(inputs))
    return FaithfulnessReport(not failures, tuple(failures), n_inputs, len(ops_c), method)


def _weight_failure(kind: str, i: Optional[int], f: Track, p: float, tol: float) -> Optional[dict]:
    """The failure of a track that must weigh at most tol, if p > tol: p is its
    mass in the exact check (i is None), else its probability on input i."""
    at = {"track": f.as_dict(), "mass": p} if i is None else {"input": i, "track": f.as_dict(), "probability": p}
    return {"kind": kind, **at} if p > tol else None


def _track_failure(f: Track, a: np.ndarray, b: np.ndarray, i: Optional[int], tol: float) -> Optional[dict]:
    """The failure of source track f, given its A psi = a and its image's block
    b = B (I (x) |0>) psi, for every input at once (i is None) or on input i.
    Principal registers come first, so row x * 2^n_anc + a of b is <x a|."""
    if i is None:
        mass = float(np.vdot(a, a).real)
        v = b.reshape(a.shape[0], -1, a.shape[1])  # <x a|B|y 0>
        coef = np.einsum("xy,xay->a", a.conj(), v) / mass if mass else np.zeros(v.shape[1])
        image_mass = float(np.vdot(coef, coef).real) * mass
        residual = float(np.sum(np.abs(v - a[:, None, :] * coef[None, :, None]) ** 2))
        if residual > tol or abs(image_mass - mass) > tol:
            return {"kind": "operator-mismatch", "track": f.as_dict(), "residual": residual,
                    "source_mass": mass, "target_mass": image_mass + residual}
        return None
    out_c, at = a[:, i], {"input": i, "track": f.as_dict()}
    p_c, p_d = float(np.linalg.norm(out_c) ** 2), float(np.linalg.norm(b[:, i]) ** 2)
    if abs(p_c - p_d) > tol:
        return {"kind": "probability-mismatch", **at, "source_probability": p_c, "target_probability": p_d}
    if p_c > tol:
        v = b[:, i].reshape(a.shape[0], -1)  # <x a|B|psi 0>: reduced state v v^dag
        err = float(np.max(np.abs(linalg.ket_to_density(out_c) / p_c - v @ v.conj().T / p_d)))
        if err > tol:
            return {"kind": "state-mismatch", **at, "max_entry_error": err}
    return None
