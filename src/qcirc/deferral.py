"""Measurement-deferral compiler pass and faithful-simulation checker.

The pass rejects classically controlled measurement gates, then runs three
phases:

1. standardize: every nonstandard measurement becomes a unitary on its
   registers and fresh |0> ancillas, followed by a standard measurement of the
   ancillas that keeps the original outcome labels (plus pads);
2. delete exact duplicates: a standard measurement that directly re-measures
   the register tuple of an earlier one is dropped, and its consumers read the
   earlier measurement through a label map;
3. defer red gates, innermost first: a unitary gate with measurement
   prerequisites becomes a unitary quantum-controlled by the registers of its
   classical sources, and those measurements move after it. A register the
   gate shares with a measurement is first copied to a fresh |0> ancilla with
   a CNOT, and the run of adjacent measurements ending there moves onto the
   copy.

A measurement stays one gate throughout, with its own id and outcome labels,
so the commensuration maps gate ids to gate ids. The checker is exact by
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
    _toposort,
    topo_order,
    unitary_gate,
)
from .semantics import Track, track_operators
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


def _prune_unreferenced_ops(g: Gate) -> Gate:
    """Drop ops/measurements no selector key can reach (a source was removed
    or collapsed). Non-CC gates must carry exactly one op."""
    used = set(g.selector.values())
    unitaries = {k: v for k, v in g.unitaries.items() if k in used}
    measurements = {k: v for k, v in g.measurements.items() if k in used}
    if len(unitaries) == len(g.unitaries) and len(measurements) == len(g.measurements):
        return g
    return replace(g, unitaries=unitaries, measurements=measurements)


# --- phase 1: standardization -----------------------------------------------


@dataclass(frozen=True)
class StandardizeResult:
    circuit: QuantumCircuit
    ancilla_registers: tuple[int, ...]
    measure_gate_id: Optional[str]  # id of the standard measurement, None if |I|=1
    pad_labels: tuple[str, ...]


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


def standardize_measurement(c: QuantumCircuit, gid: str) -> StandardizeResult:
    """Replace a nonstandard measurement gate by a unitary on its registers
    plus fresh |0> ancillas, followed by a standard projective measurement of
    the ancillas carrying the original outcome labels, padded to a power of
    two. A single-outcome measurement's operator is unitary: it becomes a
    unitary gate, and its consumers drop every slot of the source."""
    g = c.gate(gid)
    if not g.is_measure:
        raise DeferralError(f"gate {gid!r} is not a measurement gate")
    if g.classical_sources:
        raise ConstraintError([gid])
    (m,) = g.measurements.values()
    if classify_measurement(m).standard:
        raise DeferralError(f"measurement of gate {gid!r} is already standard")

    labels = list(m.outcomes)
    ell = math.ceil(math.log2(len(labels)))  # 0 for a single outcome
    anc_regs = tuple(range(c.n_registers, c.n_registers + ell))
    pads = tuple(_fresh_gate_id(labels, f"pad{i}") for i in range(2**ell - len(labels)))
    # the outcomes after the rewrite, each with the label consumers read it
    # as: a pad never fires and routes like the first label
    route = {**{lab: lab for lab in labels}, **{pad: labels[0] for pad in pads}}
    if not ell:
        new = [unitary_gate(gid, g.registers, m.operators[labels[0]])]
    else:
        u = _dilation([m.operators[lab] for lab in labels], 2**ell)
        new = [
            unitary_gate(_fresh_gate_id(c._by_id, f"{gid}__u"), g.registers + anc_regs, u),
            measure_gate(gid, anc_regs, {lab: _projector(i, 2**ell) for i, lab in enumerate(route)}),
        ]
    gates = []
    for h in c.gates:
        if h.id == gid:
            gates += new
            continue
        if gid in h.classical_sources:
            sources = h.classical_sources
            keep = [j for j, s in enumerate(sources) if s != gid or ell]
            selector = {}
            for key in itertools.product(*(route if s == gid else c.gate(s).outcome_labels for s in sources)):
                read = tuple(route[lab] if s == gid else lab for s, lab in zip(sources, key))
                selector[tuple(key[j] for j in keep)] = h.selector[read]
            h = _prune_unreferenced_ops(
                replace(h, classical_sources=tuple(sources[j] for j in keep), selector=selector)
            )
        gates.append(h)
    names = c.register_names + tuple(_fresh_register_names(c.register_names, ell))
    out = check_valid(QuantumCircuit(names, tuple(gates)))
    return StandardizeResult(out, anc_regs, gid if ell else None, pads)


# --- phase 2: exact duplicates ----------------------------------------------


def _reindex(index: int, frm: Sequence[int], to: Sequence[int]) -> int:
    """A basis index over registers `frm` as an index over their permutation `to`."""
    bit = dict(zip(frm, linalg.bits_of(index, len(frm))))
    return linalg.index_of([bit[r] for r in to])


def _delete_duplicate_measurements(c: QuantumCircuit) -> tuple[QuantumCircuit, dict, dict]:
    """Drop every standard measurement whose quantum source on each of its
    registers is one earlier measurement of the same registers; its consumers
    read that measurement instead. Returns the circuit, {dropped: kept} and
    {dropped: {label: kept label}}."""
    kept: dict[str, str] = {}
    labels: dict[str, dict] = {}
    for b in c.gates:
        sources = set(c.quantum_sources(b.id).values()) if b.is_measure else ()
        if len(sources) != 1 or None in sources:
            continue
        (s,) = sources
        a = c.gate(kept.get(s, s))
        if not a.is_measure or set(a.registers) != set(b.registers):
            continue
        kept[b.id] = a.id
        label_at = {i: lab for lab, i in _basis_labels(a).items()}
        labels[b.id] = {
            lab: label_at[_reindex(i, b.registers, a.registers)]
            for lab, i in _basis_labels(b).items()
        }
    gates = []
    for h in c.gates:
        if h.id in kept:
            continue
        if any(s in kept for s in h.classical_sources):
            # a repeated source is fine: only its diagonal selector keys fire
            h = replace(
                h,
                classical_sources=tuple(kept.get(s, s) for s in h.classical_sources),
                selector={
                    tuple(labels[s][lab] if s in kept else lab for s, lab in zip(h.classical_sources, key)): t
                    for key, t in h.selector.items()
                },
            )
        gates.append(h)
    return QuantumCircuit(c.register_names, tuple(gates)), kept, labels


# --- phase 3: deferring past one gate ---------------------------------------


def defer_past_gate(c: QuantumCircuit, gid: str) -> QuantumCircuit:
    """Rewrite one red unitary gate with no red prerequisites into a unitary
    quantum-controlled by the registers of its classical sources (standard
    measurements of any arity), with its measurement prerequisites moved
    after it. Where the gate's quantum source on a register r is a
    measurement, r is first copied to a fresh |0> ancilla with a CNOT and the
    run of adjacent measurements ending there moves onto the copy. On a
    control register the gate does not act on, the gate goes in before the
    run of measurements that holds its source."""
    g = c.gate(gid)
    if g.is_measure:
        raise DeferralError(f"gate {gid!r} is a measurement gate")
    reds = red_gates(c)
    if gid not in reds:
        raise DeferralError(f"gate {gid!r} has no measurement prerequisites")
    if c._layers[0][gid] & c._mask(reds):
        raise DeferralError(f"gate {gid!r} has red prerequisites")

    def run_start(chain: list, i: int) -> int:
        """Start of the run of adjacent measurement gates holding chain[i]."""
        while i > 0 and c.gate(chain[i - 1]).is_measure:
            i -= 1
        return i

    n0 = c.n_registers
    chains = {r: c.register_chain(r) for r in range(n0)}
    taken = set(c._by_id)
    copy_of: dict[int, int] = {}  # copied register -> its ancilla
    cnots = []
    for r, s in c.quantum_sources(gid).items():
        if s is None or not c.gate(s).is_measure:
            continue
        copy_of[r] = a = n0 + len(copy_of)
        cnot = unitary_gate(_fresh_gate_id(taken, f"{gid}__cp__{s}"), (r, a), linalg.CNOT)
        taken.add(cnot.id)
        cnots.append(cnot)
        chain = chains[r]
        j = chain.index(gid)
        i = run_start(chain, j - 1)
        chains[a] = [cnot.id] + chain[i:j]
        chain[i:j] = [cnot.id]
    # every register a moved measurement shares with the gate is copied
    moved = {
        m: tuple(copy_of.get(r, r) for r in c.gate(m).registers)
        for a in copy_of.values()
        for m in chains[a][1:]
    }

    sources = [c.gate(s) for s in g.classical_sources]
    for s in itertools.chain(sources, (c.gate(m) for m in moved)):
        (m,) = s.measurements.values()
        if not classify_measurement(m).standard:
            raise DeferralError(f"measurement of gate {s.id!r} is not standard")
    ctrl: list[int] = []
    for s in sources:
        for w in moved.get(s.id, s.registers):
            if w not in ctrl:
                ctrl.append(w)
                chain = chains[w]
                chain.insert(1 if w >= n0 else run_start(chain, chain.index(s.id)), gid)

    # the controlled unitary: |x>|y> -> |x> (x) U_selector(labels read off x) |y>
    label_at = {s.id: {i: lab for lab, i in _basis_labels(s).items()} for s in sources}
    k, dim = len(ctrl), 2**g.arity
    big = np.zeros((2**k * dim, 2**k * dim), dtype=complex)
    for x in range(2**k):
        bit = dict(zip(ctrl, linalg.bits_of(x, k)))
        key = tuple(
            label_at[s.id][linalg.index_of([bit[w] for w in moved.get(s.id, s.registers)])]
            for s in sources
        )
        big[x * dim : (x + 1) * dim, x * dim : (x + 1) * dim] = g.unitaries[g.selector[key]].matrix

    new = {h.id: h for h in c.gates}
    new[gid] = unitary_gate(gid, tuple(ctrl) + g.registers, big)
    for m, regs in moved.items():
        new[m] = replace(new[m], registers=regs)
    new.update((cn.id, cn) for cn in cnots)
    edges = {e for chain in chains.values() for e in zip(chain, chain[1:])}
    edges.update((s, h.id) for h in new.values() for s in h.classical_sources)

    gpos, cnot_ids, late = c.index_of(gid), {cn.id for cn in cnots}, list(g.classical_sources)

    def priority(v: str):
        if v in cnot_ids:
            return (gpos, 0)
        if v == gid:
            return (gpos, 1)
        if v in moved or v in late:
            return (gpos, 2, late.index(v) if v in late else 99)
        return (c.index_of(v), -1)

    order = _toposort(list(new), edges, key=priority)
    if order is None:
        raise DeferralError("rewrite produced a cyclic source relation")
    names = c.register_names + tuple(_fresh_register_names(c.register_names, len(copy_of)))
    return check_valid(QuantumCircuit(names, tuple(new[v] for v in order)))


# --- the full pass ----------------------------------------------------------


def defer_measurements(c: QuantumCircuit) -> DeferralResult:
    """Produce a faithfully-simulating circuit in which no unitary gate has a
    measurement gate as a prerequisite. Its unitary gates come first, in the
    order the rewrites left them, then its measurement gates sorted by id."""
    check_valid(c)
    bad = constraint_violations(c)
    if bad:
        raise ConstraintError(bad)
    if not red_gates(c):
        return DeferralResult(c, Commensuration.identity(c), frozenset())

    absorbed = set()
    cur = c
    for g in c.gates:
        if g.is_measure and not classify_measurement(next(iter(g.measurements.values()))).standard:
            res = standardize_measurement(cur, g.id)
            cur = res.circuit
            if res.measure_gate_id is None:
                absorbed.add(g.id)

    cur, kept, labels = _delete_duplicate_measurements(cur)

    while True:
        reds = red_gates(cur)
        if not reds:
            break
        cur = defer_past_gate(cur, next(gid for gid in topo_order(cur) if gid in reds))
        assert len(red_gates(cur)) < len(reds)

    measures = sorted((h for h in cur.gates if h.is_measure), key=lambda h: h.id)
    gates = [h for h in cur.gates if not h.is_measure] + [
        measure_gate(h.id, h.registers, {lab: _projector(i, 2**h.arity) for lab, i in _basis_labels(h).items()})
        for h in measures
    ]
    d = check_valid(QuantumCircuit(cur.register_names, tuple(gates)))
    targets = {g.id: kept.get(g.id, g.id) for g in c.gates if g.is_measure and g.id not in absorbed}
    zeta = Commensuration(targets, labels, frozenset(absorbed))
    return DeferralResult(d, zeta, frozenset(range(c.n_registers, d.n_registers)))


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
    <= tol. A `zeta` that maps a source measurement to no measurement gate of
    `d` raises ParseError (`bad-sidecar`).

    Without `inputs` the check is exact, for all inputs at once. Let A be a
    source track's operator, B its image's, and V_a = (I (x) <a|) B (I (x) |0>)
    for each ancilla basis state a. The track is reproduced for every input
    iff every V_a = c_a A with sum |c_a|^2 = 1, for then
    B (psi (x) |0>) = A psi (x) sum_a c_a |a>. With least-squares c_a, the
    squared Frobenius norm of the remainders V_a - c_a A and the gap between
    the masses sum |c_a|^2 |A|^2 and |A|^2 must be <= tol; so must |A|^2 for
    an untranslatable track and |B (I (x) |0>)|^2 for an unmatched target
    track. (A mass |A|^2 is the track's probability summed over basis inputs.)

    Given pure `inputs`, probabilities and traced output states are compared
    input by input instead."""
    nc, nd = c.n_registers, d.n_registers
    if d.register_names[:nc] != c.register_names:
        raise DeferralError("deferred circuit does not extend the source registers")
    for g in c.gates:
        t = zeta.gates.get(g.id)
        if g.is_measure and g.id not in zeta.absorbed and not (d.has_gate(t) and d.gate(t).is_measure):
            raise _bad_sidecar(f"source measurement {g.id!r} maps to no measurement gate of the target")

    n_anc = nd - nc
    ops_c = dict(track_operators(c, np.eye(2**nc, dtype=complex)))
    # B (I (x) |0>): the columns of B for ancilla-zero inputs, 2^nd x 2^nc
    ops_d = dict(track_operators(d, np.kron(np.eye(2**nc), linalg.basis_ket(0, n_anc)[:, None])))
    image = {}
    for f in ops_c:
        g = zeta.translate(f)
        if g is not None:
            if g not in ops_d:
                raise DeferralError(f"translated track {g} is not a track of the target")
            image[f] = g
    covered, n_tracks = set(image.values()), len(ops_c)
    if inputs is None:
        failures = _exact_failures(ops_c, ops_d, image, tol)
        return FaithfulnessReport(not failures, tuple(failures), 0, n_tracks, "exact")

    failures = []
    for i, psi in enumerate(inputs):
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.shape[0] != 2**nc:
            raise DeferralError(f"input {i} has wrong dimension {psi.shape[0]}")
        psi = psi / np.linalg.norm(psi)
        out_d = {g: w @ psi for g, w in ops_d.items()}
        p_d = {g: float(np.linalg.norm(v) ** 2) for g, v in out_d.items()}
        for f, op in ops_c.items():
            out_c = op @ psi
            p_c, g, at = float(np.linalg.norm(out_c) ** 2), image.get(f), {"input": i, "track": f.as_dict()}
            if g is None:
                if p_c > tol:
                    failures.append({"kind": "untranslatable-track-probability", **at, "probability": p_c})
            elif abs(p_c - p_d[g]) > tol:
                failures.append(
                    {"kind": "probability-mismatch", **at,
                     "source_probability": p_c, "target_probability": p_d[g]}
                )
            elif p_c > tol:
                rho_d = linalg.ket_to_density(out_d[g]) / p_d[g]
                if n_anc:
                    rho_d = linalg.partial_trace_matrix(rho_d, nd, list(range(nc)))
                err = float(np.max(np.abs(linalg.ket_to_density(out_c) / p_c - rho_d)))
                if err > tol:
                    failures.append({"kind": "state-mismatch", **at, "max_entry_error": err})
        failures += [
            {"kind": "unmatched-target-track", "input": i, "track": g.as_dict(), "probability": p}
            for g, p in p_d.items()
            if g not in covered and p > tol
        ]
    return FaithfulnessReport(not failures, tuple(failures), len(inputs), n_tracks)


def _exact_failures(ops_c: dict, ops_d: dict, image: dict, tol: float) -> list:
    """The exact check of `check_faithful`, given each target track's block
    B (I (x) |0>); principal registers come first, so its row x * 2^n_anc + a is <x a|."""
    failures = []
    for f, a in ops_c.items():
        mass, g = float(np.vdot(a, a).real), image.get(f)
        if g is None:
            if mass > tol:
                failures.append({"kind": "untranslatable-track-probability", "track": f.as_dict(), "mass": mass})
            continue
        v = ops_d[g].reshape(a.shape[0], -1, a.shape[1])  # <x a|B|y 0>
        coef = np.einsum("xy,xay->a", a.conj(), v) / mass if mass else np.zeros(v.shape[1])
        image_mass = float(np.vdot(coef, coef).real) * mass
        residual = float(np.sum(np.abs(v - a[:, None, :] * coef[None, :, None]) ** 2))
        if residual > tol or abs(image_mass - mass) > tol:
            failures.append(
                {"kind": "operator-mismatch", "track": f.as_dict(), "residual": residual,
                 "source_mass": mass, "target_mass": image_mass + residual}
            )
    covered = set(image.values())
    for g, b in ops_d.items():
        mass = 0.0 if g in covered else float(np.sum(np.abs(b) ** 2))
        if mass > tol:
            failures.append({"kind": "unmatched-target-track", "track": g.as_dict(), "mass": mass})
    return failures
