"""Measurement-deferral compiler pass and faithful-simulation checker.

Pipeline: reject classically controlled measurement gates, turn every
nonstandard measurement into a unitary followed by a standard measurement of
fresh ancillas, split multi-register standard measurements into per-register
bits, delete duplicate re-measurements, then repeatedly rewrite a unitary
gate with measurement prerequisites into a quantum-controlled unitary with
the measurements moved after it. Finally the per-register bits are merged
back into one measurement gate per original measurement, restoring the
original outcome labels, so the commensuration maps gate ids to gate ids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import linalg
from .circuit import (
    CircuitError,
    Gate,
    Measurement,
    QuantumCircuit,
    UnitaryOp,
    check_valid,
    measure_gate,
    _toposort,
    topo_order,
    unitary_gate,
    validate_circuit,
)
from .semantics import Track, aggregate_measurement, enumerate_tracks

TOL = linalg.DEFAULT_TOL

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


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
    standard = False
    if complete:
        standard = True
        for a in ops:
            b = int(np.argmax(np.abs(np.diag(a))))
            basis_proj = np.zeros((dim, dim), dtype=complex)
            basis_proj[b, b] = 1.0
            if not linalg.mat_close(a, basis_proj, tol):
                standard = False
                break
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
    """Identification of the source circuit's measurements with measurements
    of the deferred circuit.

    For each source measurement gate, `label_bits` decomposes an outcome label
    into symbols and `assignments` places each symbol at a (target gate, bit
    position) slot; `d_label_of` turns a target gate's full symbol tuple back
    into its outcome label. In the common case every measurement maps to a
    single target gate with identical labels.
    """

    assignments: dict  # c gate id -> tuple[(d gate id, bit position), ...]
    label_bits: dict  # c gate id -> {label: tuple of symbols}
    d_label_of: dict  # d gate id -> {tuple of symbols: label}
    absorbed: frozenset = frozenset()  # single-outcome gates realized as unitaries

    @classmethod
    def identity(cls, c: QuantumCircuit) -> "Commensuration":
        assignments, label_bits, d_label_of = {}, {}, {}
        for g in c.gates:
            if not g.is_measure:
                continue
            assignments[g.id] = ((g.id, 0),)
            label_bits[g.id] = {lab: (lab,) for lab in g.outcome_labels}
            d_label_of[g.id] = {(lab,): lab for lab in g.outcome_labels}
        return cls(assignments, label_bits, d_label_of)

    def translate(self, f: Track) -> Optional[Track]:
        """The deferred-circuit track identified with `f`, or None when `f`
        forces conflicting bits (a probability-zero source track)."""
        slots: dict[str, dict[int, str]] = {}
        for gid, label in f.outcomes:
            if gid in self.absorbed:
                continue
            syms = self.label_bits[gid][label]
            for (dg, pos), sym in zip(self.assignments[gid], syms):
                got = slots.setdefault(dg, {})
                if pos in got and got[pos] != sym:
                    return None
                got[pos] = sym
        out = {}
        for dg, got in slots.items():
            key = tuple(got[i] for i in range(len(got)))
            out[dg] = self.d_label_of[dg][key]
        return Track.from_mapping(out)

    def zeta_gate_map(self) -> dict[str, list[str]]:
        """Per source measurement gate, the target gate(s) carrying its bits."""
        out = {}
        for gid, slots in self.assignments.items():
            targets = []
            for dg, _ in slots:
                if dg not in targets:
                    targets.append(dg)
            out[gid] = targets
        return out

    def to_json(self) -> dict:
        zeta = {
            gid: (targets[0] if len(targets) == 1 else targets)
            for gid, targets in self.zeta_gate_map().items()
        }
        return {
            "zeta": zeta,
            "absorbed": sorted(self.absorbed),
            "detail": {
                "assignments": {
                    gid: [[dg, pos] for dg, pos in slots]
                    for gid, slots in self.assignments.items()
                },
                "label_bits": {
                    gid: {lab: list(syms) for lab, syms in table.items()}
                    for gid, table in self.label_bits.items()
                },
                "d_labels": {
                    dg: [[list(key), lab] for key, lab in table.items()]
                    for dg, table in self.d_label_of.items()
                },
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Commensuration":
        detail = data["detail"]
        return cls(
            assignments={
                gid: tuple((dg, int(pos)) for dg, pos in slots)
                for gid, slots in detail["assignments"].items()
            },
            label_bits={
                gid: {lab: tuple(syms) for lab, syms in table.items()}
                for gid, table in detail["label_bits"].items()
            },
            d_label_of={
                dg: {tuple(key): lab for key, lab in table}
                for dg, table in detail["d_labels"].items()
            },
            absorbed=frozenset(data.get("absorbed", ())),
        )


@dataclass(frozen=True)
class DeferralResult:
    circuit: QuantumCircuit
    zeta: Commensuration
    ancilla_registers: frozenset  # frozenset[int], appended after the originals


# --- helpers ----------------------------------------------------------------


def _fresh_gate_id(c: QuantumCircuit, base: str) -> str:
    gid = base
    while c.has_gate(gid):
        gid += "_"
    return gid


def _fresh_register_names(existing: Sequence[str], count: int) -> list[str]:
    names, used = [], set(existing)
    i = len(existing)
    while len(names) < count:
        name = f"anc{i}"
        if name not in used:
            used.add(name)
            names.append(name)
        i += 1
    return names


def _rekey_selector(
    gate: Gate,
    c: QuantumCircuit,
    position: int,
    new_sources: Sequence[str],
    component_map,
) -> Gate:
    """Replace the classical source at `position` by `new_sources`; selector
    keys get the old component replaced via component_map(old_label) -> tuple
    of new components."""
    sources = (
        gate.classical_sources[:position]
        + tuple(new_sources)
        + gate.classical_sources[position + 1 :]
    )
    selector = {}
    for key, target in gate.selector.items():
        new_key = key[:position] + component_map(key[position]) + key[position + 1 :]
        selector[new_key] = target
    return Gate(
        gate.id,
        gate.registers,
        unitaries=gate.unitaries,
        measurements=gate.measurements,
        classical_sources=sources,
        selector=selector,
    )


def _bit_of_standard_op(a: np.ndarray) -> int:
    return int(np.argmax(np.abs(np.diag(a))))


@dataclass
class _Family:
    """Bookkeeping for one original measurement gate across pass phases."""

    orig_id: str
    part_refs: list  # part gate ids, in bit order (may reference foreign parts)
    # bits -> label for the final merged gate (covers pads)
    final_labels: dict = field(default_factory=dict)
    # original label -> bits
    orig_label_bits: dict = field(default_factory=dict)


# --- standardization --------------------------------------------------------


@dataclass(frozen=True)
class StandardizeResult:
    circuit: QuantumCircuit
    ancilla_registers: tuple[int, ...]
    measure_gate_id: Optional[str]  # id of the standard measurement, None if |I|=1
    pad_labels: tuple[str, ...]


def standardize_measurement(c: QuantumCircuit, gid: str) -> StandardizeResult:
    """Replace a nonstandard measurement gate by a unitary on its registers
    plus fresh |0> ancillas, followed by a standard projective measurement of
    the ancillas carrying the original outcome labels."""
    g = c.gate(gid)
    if not g.is_measure:
        raise DeferralError(f"gate {gid!r} is not a measurement gate")
    if g.classical_sources:
        raise ConstraintError([gid])
    (m,) = g.measurements.values()
    if classify_measurement(m).standard:
        raise DeferralError(f"measurement of gate {gid!r} is already standard")

    labels = list(m.outcomes)
    k = g.arity
    n0 = c.n_registers

    if len(labels) == 1:
        # the unique operator is unitary; the gate becomes a unitary gate
        new_gate = unitary_gate(gid, g.registers, m.operators[labels[0]])
        gates = []
        for h in c.gates:
            if h.id == gid:
                gates.append(new_gate)
            elif gid in h.classical_sources:
                pos = h.classical_sources.index(gid)
                stripped = _prune_unreferenced_ops(
                    _rekey_selector(h, c, pos, (), lambda _lab: ())
                )
                gates.append(stripped)
            else:
                gates.append(h)
        out = QuantumCircuit(c.register_names, tuple(gates))
        return StandardizeResult(check_valid(out), (), None, ())

    ell = max(1, math.ceil(math.log2(len(labels))))
    dim_anc = 2**ell
    dim = 2**k

    # isometry: |e_j>|0..0>  ->  sum_i (A_i e_j) (x) |i>
    u = np.zeros((dim * dim_anc, dim * dim_anc), dtype=complex)
    fixed_cols = []
    for j in range(dim):
        v = np.zeros(dim * dim_anc, dtype=complex)
        for i, lab in enumerate(labels):
            v += np.kron(m.operators[lab][:, j], linalg.basis_ket(i, ell))
        col = j * dim_anc
        u[:, col] = v
        fixed_cols.append(col)
    # complete to a unitary: Gram-Schmidt over lexicographic candidates
    basis = [u[:, col] for col in fixed_cols]
    free_cols = [col for col in range(dim * dim_anc) if col not in fixed_cols]
    cand = 0
    for col in free_cols:
        while True:
            if cand >= dim * dim_anc:
                raise DeferralError("failed to complete isometry to a unitary")
            w = linalg.basis_ket(cand, k + ell)
            cand += 1
            for b in basis:
                w = w - (b.conj() @ w) * b
            norm = float(np.linalg.norm(w))
            if norm > 1e-7:
                w = w / norm
                break
        u[:, col] = w
        basis.append(w)
    if not linalg.is_unitary(u, 1e-7):
        raise DeferralError("standardization produced a non-unitary completion")

    anc_regs = tuple(range(n0, n0 + ell))
    pad_labels = []
    used = set(labels)
    i = 0
    while len(labels) + len(pad_labels) < dim_anc:
        lab = f"pad{i}"
        while lab in used:
            lab += "_"
        used.add(lab)
        pad_labels.append(lab)
        i += 1
    all_labels = labels + pad_labels
    proj_ops = {}
    for i, lab in enumerate(all_labels):
        p = np.zeros((dim_anc, dim_anc), dtype=complex)
        p[i, i] = 1.0
        proj_ops[lab] = p

    u_gate = unitary_gate(_fresh_gate_id(c, f"{gid}__u"), g.registers + anc_regs, u)
    p_gate = measure_gate(gid, anc_regs, proj_ops)

    first = labels[0]
    pad_set = set(pad_labels)

    gates = []
    for h in c.gates:
        if h.id == gid:
            gates.extend([u_gate, p_gate])
        elif gid in h.classical_sources:
            # make the selector total over the padded outcome set; pads can
            # never fire, route them like the first original label
            pos = h.classical_sources.index(gid)
            selector = {}
            for key, target in h.selector.items():
                selector[key] = target
            extended = {}
            source_sets = []
            for idx, s in enumerate(h.classical_sources):
                if idx == pos:
                    source_sets.append(all_labels)
                else:
                    source_sets.append(list(c.gate(s).outcome_labels))
            for key in itertools.product(*source_sets):
                lookup = tuple(
                    first if (idx == pos and lab in pad_set) else lab
                    for idx, lab in enumerate(key)
                )
                extended[key] = selector[lookup]
            gates.append(
                Gate(
                    h.id,
                    h.registers,
                    unitaries=h.unitaries,
                    measurements=h.measurements,
                    classical_sources=h.classical_sources,
                    selector=extended,
                )
            )
        else:
            gates.append(h)
    out = QuantumCircuit(c.register_names + tuple(_fresh_register_names(c.register_names, ell)), tuple(gates))
    return StandardizeResult(check_valid(out), anc_regs, gid, tuple(pad_labels))


# --- splitting into per-register bits ---------------------------------------


@dataclass(frozen=True)
class SplitResult:
    circuit: QuantumCircuit
    # original measure gate id -> (part gate ids, {orig label: bit string})
    parts: dict


def split_standard_measurements(c: QuantumCircuit) -> SplitResult:
    """Replace every multi-register standard measurement by per-register
    standard bit measurements and normalize all outcome labels to "0"/"1";
    consumers' selectors are re-keyed accordingly."""
    parts: dict[str, tuple[tuple[str, ...], dict]] = {}
    label_to_bits: dict[str, dict[str, tuple[str, ...]]] = {}
    replacement: dict[str, list[Gate]] = {}

    for g in c.gates:
        if not g.is_measure:
            continue
        (m,) = g.measurements.values()
        if not classify_measurement(m).standard:
            raise DeferralError(f"measurement of gate {g.id!r} is not standard")
        k = g.arity
        bits_of_label = {
            lab: tuple(str(b) for b in linalg.bits_of(_bit_of_standard_op(m.operators[lab]), k))
            for lab in m.outcomes
        }
        label_to_bits[g.id] = bits_of_label
        if k == 1 and set(m.outcomes) == {"0", "1"} and bits_of_label["0"] == ("0",):
            parts[g.id] = ((g.id,), bits_of_label)
            continue
        if k == 1:
            part_ids = (g.id,)
            new_gates = [measure_gate(g.id, g.registers, {"0": _P0, "1": _P1})]
        else:
            part_ids = tuple(f"{g.id}__q{j}" for j in range(k))
            for pid in part_ids:
                if c.has_gate(pid):
                    raise DeferralError(f"gate id {pid!r} already in use")
            new_gates = [
                measure_gate(pid, [g.registers[j]], {"0": _P0, "1": _P1})
                for j, pid in enumerate(part_ids)
            ]
        parts[g.id] = (part_ids, bits_of_label)
        replacement[g.id] = new_gates

    gates: list[Gate] = []
    for g in c.gates:
        if g.id in replacement:
            gates.extend(replacement[g.id])
            continue
        if any(s in replacement or s in parts for s in g.classical_sources):
            h = g
            # rewrite positions right-to-left so earlier indices stay valid
            for pos in reversed(range(len(g.classical_sources))):
                src = g.classical_sources[pos]
                if src not in parts:
                    continue
                part_ids, bits_of_label = parts[src]
                if part_ids == (src,) and src not in replacement:
                    continue
                table = bits_of_label
                h = _rekey_selector(h, c, pos, part_ids, lambda lab, t=table: t[lab])
            gates.append(h)
        else:
            gates.append(g)
    out = QuantumCircuit(c.register_names, tuple(gates))
    return SplitResult(check_valid(out), parts)


def _prune_unreferenced_ops(g: Gate) -> Gate:
    """Drop ops/measurements no selector key can reach (a source was removed
    or collapsed). Non-CC gates must carry exactly one op."""
    used = set(g.selector.values())
    unitaries = {k: v for k, v in g.unitaries.items() if k in used}
    measurements = {k: v for k, v in g.measurements.items() if k in used}
    if len(unitaries) == len(g.unitaries) and len(measurements) == len(g.measurements):
        return g
    return Gate(
        g.id,
        g.registers,
        unitaries=unitaries,
        measurements=measurements,
        classical_sources=g.classical_sources,
        selector=g.selector,
    )


def _dedupe_classical_sources(g: Gate) -> Gate:
    """Collapse repeated source slots. Both slots carry the same gate's
    outcome, so only diagonal selector keys are reachable; keep those."""
    srcs = list(g.classical_sources)
    while True:
        dup = next((j for j in range(len(srcs)) if srcs[j] in srcs[:j]), None)
        if dup is None:
            return _prune_unreferenced_ops(g)
        i = srcs.index(srcs[dup])
        selector = {
            key[:dup] + key[dup + 1 :]: target
            for key, target in g.selector.items()
            if key[i] == key[dup]
        }
        del srcs[dup]
        g = Gate(
            g.id,
            g.registers,
            unitaries=g.unitaries,
            measurements=g.measurements,
            classical_sources=tuple(srcs),
            selector=selector,
        )


def _delete_duplicate_measurements(c: QuantumCircuit) -> tuple[QuantumCircuit, dict]:
    """Remove re-measurements of a register with no intervening gate on it
    (second deleted, channels re-sourced to the first). All measurements must
    be single-register with 0/1 labels. Returns circuit + {deleted: kept}."""
    replaced: dict[str, str] = {}
    while True:
        victim = None
        for r in range(c.n_registers):
            chain = c.register_chain(r)
            for a, b in zip(chain, chain[1:]):
                ga, gb = c.gate(a), c.gate(b)
                if ga.is_measure and gb.is_measure:
                    victim = (a, b)
                    break
            if victim:
                break
        if not victim:
            break
        keep, drop = victim
        gates = []
        for g in c.gates:
            if g.id == drop:
                continue
            while drop in g.classical_sources:
                pos = g.classical_sources.index(drop)
                g = _rekey_selector(g, c, pos, (keep,), lambda lab: (lab,))
                g = _dedupe_classical_sources(g)
            gates.append(g)
        c = QuantumCircuit(c.register_names, tuple(gates))
        replaced[drop] = keep
        for d, kept in list(replaced.items()):
            if kept == drop:
                replaced[d] = keep
    return c, replaced


# --- deferring past one gate ------------------------------------------------


@dataclass(frozen=True)
class DeferStep:
    circuit: QuantumCircuit
    ancilla_registers: tuple[int, ...]


def defer_past_gate(c: QuantumCircuit, gid: str) -> DeferStep:
    """Rewrite one red unitary gate (no red prerequisites) into a
    quantum-controlled unitary with its measurement prerequisites moved after
    it; sources sharing a register with the gate are first copied to a fresh
    |0> ancilla with a controlled-NOT."""
    g = c.gate(gid)
    if g.is_measure:
        raise DeferralError(f"gate {gid!r} is a measurement gate")
    reds = red_gates(c)
    if gid not in reds:
        raise DeferralError(f"gate {gid!r} has no measurement prerequisites")
    if c._layers[0][gid] & c._mask(reds):
        raise DeferralError(f"gate {gid!r} has red prerequisites")
    for h in c.gates:
        if h.is_measure:
            (m,) = h.measurements.values()
            if h.arity != 1 or set(m.outcomes) != {"0", "1"}:
                raise DeferralError(
                    "defer_past_gate needs single-register standard measurements "
                    f"with 0/1 labels; gate {h.id!r} is not one"
                )

    qsrc = c.quantum_sources(gid)
    chan_srcs = list(g.classical_sources)
    shared_meas: dict[str, int] = {}  # measurement source -> shared register
    for r, s in qsrc.items():
        if s is not None and c.gate(s).is_measure:
            shared_meas[s] = r
    for s in chan_srcs:
        sr = c.gate(s).registers[0]
        if sr in g.registers and s not in shared_meas:
            raise DeferralError(
                f"channel source {s!r} shares register {sr} with {gid!r} but is "
                "not its quantum source; delete duplicate measurements first"
            )

    n0 = c.n_registers
    copies: list[tuple[str, int, int]] = []  # (source, shared register, ancilla)
    copy_order = sorted(shared_meas, key=lambda s: g.registers.index(shared_meas[s]))
    for s in copy_order:
        copies.append((s, shared_meas[s], n0 + len(copies)))
    anc_of = {s: a for s, _, a in copies}

    ctrl_regs = []
    for s in chan_srcs:
        ctrl_regs.append(anc_of[s] if s in anc_of else c.gate(s).registers[0])

    # the controlled unitary: |bits>|x> -> |bits> (x) U_selector(bits) |x>
    k = g.arity
    mm = len(chan_srcs)
    dim_block = 2**k
    big = np.zeros((2 ** (mm + k), 2 ** (mm + k)), dtype=complex)
    for bits in itertools.product("01", repeat=mm):
        u = g.unitaries[g.selector[bits]].matrix
        b = linalg.index_of([int(x) for x in bits]) if mm else 0
        big[b * dim_block : (b + 1) * dim_block, b * dim_block : (b + 1) * dim_block] = u
    gsigma = unitary_gate(gid, tuple(ctrl_regs) + g.registers, big)

    cnot_gates = {
        s: unitary_gate(_fresh_gate_id(c, f"{gid}__cp__{s}"), (r, a), linalg.CNOT)
        for s, r, a in copies
    }
    moved_meas = {
        s: measure_gate(s, [anc_of[s]], {"0": _P0, "1": _P1}) for s in anc_of
    }
    q_moved = [s for s in chan_srcs if s not in anc_of]

    # intended per-register chains
    chains: dict[int, list[str]] = {r: c.register_chain(r) for r in range(n0)}
    for s, r, a in copies:
        chain = chains[r]
        pos = chain.index(s)
        assert pos + 1 < len(chain) and chain[pos + 1] == gid
        chain[pos] = cnot_gates[s].id
        chains[a] = [cnot_gates[s].id] + ([gid] if s in chan_srcs else []) + [s]
    for s in q_moved:
        w = c.gate(s).registers[0]
        chain = chains[w]
        chain.insert(chain.index(s), gid)

    # rebuild: nodes, edges, stable priorities
    new_gates: dict[str, Gate] = {}
    for h in c.gates:
        if h.id == gid:
            new_gates[gid] = gsigma
        elif h.id in moved_meas:
            new_gates[h.id] = moved_meas[h.id]
        else:
            new_gates[h.id] = h
    for cg in cnot_gates.values():
        new_gates[cg.id] = cg

    edges: set[tuple[str, str]] = set()
    for chain in chains.values():
        edges.update(zip(chain, chain[1:]))
    for h in new_gates.values():
        for s in h.classical_sources:
            edges.add((s, h.id))

    gpos = c.index_of(gid)

    def priority(v: str):
        if v in {cg.id for cg in cnot_gates.values()}:
            return (gpos, 0)
        if v == gid:
            return (gpos, 1)
        if v in anc_of or v in q_moved:
            return (gpos, 2, chan_srcs.index(v) if v in chan_srcs else 99)
        return (c.index_of(v), -1)

    order = _toposort(list(new_gates), edges, key=priority)
    if order is None:
        raise DeferralError("rewrite produced a cyclic source relation")

    names = c.register_names + tuple(
        _fresh_register_names(c.register_names, len(copies))
    )
    out = QuantumCircuit(names, tuple(new_gates[v] for v in order))
    return DeferStep(check_valid(out), tuple(a for _, _, a in copies))


# --- the full pass ----------------------------------------------------------


def defer_measurements(c: QuantumCircuit) -> DeferralResult:
    """Produce a faithfully-simulating circuit in which no unitary gate has a
    measurement gate as a prerequisite."""
    check_valid(c)
    bad = constraint_violations(c)
    if bad:
        raise ConstraintError(bad)

    if not red_gates(c):
        return DeferralResult(c, Commensuration.identity(c), frozenset())

    n_principal = c.n_registers
    families: dict[str, _Family] = {}
    absorbed: set[str] = set()
    cur = c

    # phase 1: standardize nonstandard measurements
    for g in list(cur.gates):
        if not g.is_measure:
            continue
        (m,) = g.measurements.values()
        fam = _Family(g.id, [g.id])
        families[g.id] = fam
        if classify_measurement(m).standard:
            continue
        res = standardize_measurement(cur, g.id)
        cur = res.circuit
        if res.measure_gate_id is None:
            absorbed.add(g.id)
            fam.part_refs = []

    # phase 2: per-register bits with 0/1 labels
    split = split_standard_measurements(cur)
    cur = split.circuit
    for fam in families.values():
        if not fam.part_refs:
            continue
        part_ids, bits_of_label = split.parts[fam.orig_id]
        fam.part_refs = list(part_ids)
        gate_now_labels = bits_of_label  # current-gate label -> bits
        # original labels coincide with the current gate's labels here:
        # standardization kept them (plus pads, which are not original labels)
        fam.orig_label_bits = {
            lab: gate_now_labels[lab]
            for lab in gate_now_labels
            if lab in _original_labels(c, fam.orig_id)
        }
        fam.final_labels = {bits: lab for lab, bits in gate_now_labels.items()}

    # phase 3: duplicate re-measurements
    cur, replaced = _delete_duplicate_measurements(cur)
    if replaced:
        for fam in families.values():
            fam.part_refs = [replaced.get(p, p) for p in fam.part_refs]

    # phase 4: defer red gates, innermost first
    while True:
        reds = red_gates(cur)
        if not reds:
            break
        target = next(gid for gid in topo_order(cur) if gid in reds)
        step = defer_past_gate(cur, target)
        assert len(red_gates(step.circuit)) < len(reds)
        cur = step.circuit

    # phase 5: merge bits back into one gate per original measurement
    part_owner: dict[str, str] = {}
    for fam in families.values():
        for p in fam.part_refs:
            part_owner.setdefault(p, fam.orig_id)
    merged_pos: dict[str, tuple[str, int]] = {}  # part -> (merged gate id, bit pos)
    merged_gates: list[Gate] = []
    drop: set[str] = set()
    for orig_id in sorted(families):
        fam = families[orig_id]
        own = [
            (j, p)
            for j, p in enumerate(fam.part_refs)
            if part_owner.get(p) == orig_id
        ]
        if not own:
            continue
        for h in cur.gates:
            for p_j, p in own:
                if p in h.classical_sources:
                    raise DeferralError(
                        f"measurement {p!r} still has a consumer {h.id!r} after deferral"
                    )
        own_regs = [cur.gate(p).registers[0] for _, p in own]
        if len(own) == len(fam.part_refs):
            label_table = {bits: lab for bits, lab in fam.final_labels.items()}
        else:
            # foreign (duplicate-deleted) positions are dropped; keep one
            # label per own-bit pattern (they agree up to foreign bits)
            label_table = {}
            for bits, lab in sorted(fam.final_labels.items()):
                key = tuple(bits[j] for j, _ in own)
                label_table.setdefault(key, lab)
        ops = {}
        dim = 2 ** len(own)
        for bits, lab in label_table.items():
            p = np.zeros((dim, dim), dtype=complex)
            b = linalg.index_of([int(x) for x in bits])
            p[b, b] = 1.0
            ops[lab] = p
        mg_id = orig_id if (not cur.has_gate(orig_id) or orig_id in {p for _, p in own}) else _fresh_gate_id(cur, orig_id)
        merged_gates.append(measure_gate(mg_id, own_regs, ops))
        for pos, (_, p) in enumerate(own):
            merged_pos[p] = (mg_id, pos)
        drop.update(p for _, p in own)

    gates = [g for g in cur.gates if g.id not in drop]
    gates.extend(merged_gates)
    cur = check_valid(QuantumCircuit(cur.register_names, tuple(gates)))

    assignments = {}
    label_bits = {}
    d_label_of: dict[str, dict] = {}
    for orig_id, fam in families.items():
        if orig_id in absorbed:
            continue
        assignments[orig_id] = tuple(merged_pos[p] for p in fam.part_refs)
        label_bits[orig_id] = dict(fam.orig_label_bits)
    for mg in merged_gates:
        (m,) = mg.measurements.values()
        table = {}
        for lab in m.outcomes:
            b = _bit_of_standard_op(m.operators[lab])
            table[tuple(str(x) for x in linalg.bits_of(b, mg.arity))] = lab
        d_label_of[mg.id] = table

    zeta = Commensuration(assignments, label_bits, d_label_of, frozenset(absorbed))
    anc = frozenset(range(n_principal, cur.n_registers))
    assert not red_gates(cur)
    return DeferralResult(cur, zeta, anc)


def _original_labels(c: QuantumCircuit, gid: str) -> tuple[str, ...]:
    return c.gate(gid).outcome_labels


# --- faithfulness checker ---------------------------------------------------


@dataclass(frozen=True)
class FaithfulnessReport:
    ok: bool
    failures: tuple  # tuple of dicts
    inputs_checked: int
    tracks_checked: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "inputs_checked": self.inputs_checked,
            "tracks_checked": self.tracks_checked,
            "failures": list(self.failures),
        }


def basis_inputs(n: int) -> list[np.ndarray]:
    return [linalg.basis_ket(i, n) for i in range(2**n)]


def random_pure_inputs(n: int, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        out.append(v / np.linalg.norm(v))
    return out


def check_faithful(
    c: QuantumCircuit,
    d: QuantumCircuit,
    zeta: Commensuration,
    inputs: Sequence[np.ndarray],
    tol: float = TOL,
) -> FaithfulnessReport:
    """Verify faithful simulation: per pure input and per source track, equal
    realization probability and equal principal-register output (ancillas
    traced out, states compared after trace normalization); deferred-circuit
    tracks outside the commensuration image must have probability <= tol."""
    nc, nd = c.n_registers, d.n_registers
    if d.register_names[:nc] != c.register_names:
        raise DeferralError("deferred circuit does not extend the source registers")
    n_anc = nd - nc

    agg_c = aggregate_measurement(c)
    agg_d = aggregate_measurement(d)
    image = {}
    for f in agg_c.operators:
        g = zeta.translate(f)
        if g is not None:
            if g not in agg_d.operators:
                raise DeferralError(f"translated track {g} is not a track of the target")
            image[f] = g

    failures = []
    anc_zero = linalg.basis_ket(0, n_anc) if n_anc else np.ones(1, dtype=complex)
    keep = list(range(nc))
    for i, psi in enumerate(inputs):
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.shape[0] != 2**nc:
            raise DeferralError(f"input {i} has wrong dimension {psi.shape[0]}")
        psi = psi / np.linalg.norm(psi)
        phi = np.kron(psi, anc_zero)
        probs_d = {}
        for g, op in agg_d.operators.items():
            probs_d[g] = float(np.linalg.norm(op @ phi) ** 2)
        for f, op_c in agg_c.operators.items():
            out_c = op_c @ psi
            p_c = float(np.linalg.norm(out_c) ** 2)
            g = image.get(f)
            if g is None:
                if p_c > tol:
                    failures.append(
                        {
                            "kind": "untranslatable-track-probability",
                            "input": i,
                            "track": f.as_dict(),
                            "probability": p_c,
                        }
                    )
                continue
            out_d = agg_d.operators[g] @ phi
            p_d = probs_d[g]
            if abs(p_c - p_d) > tol:
                failures.append(
                    {
                        "kind": "probability-mismatch",
                        "input": i,
                        "track": f.as_dict(),
                        "source_probability": p_c,
                        "target_probability": p_d,
                    }
                )
                continue
            if p_c > tol:
                rho_c = linalg.ket_to_density(out_c) / p_c
                rho_d_full = linalg.ket_to_density(out_d) / p_d
                rho_d = linalg.partial_trace_matrix(rho_d_full, nd, keep) if n_anc else rho_d_full
                err = float(np.max(np.abs(rho_c - rho_d)))
                if err > tol:
                    failures.append(
                        {
                            "kind": "state-mismatch",
                            "input": i,
                            "track": f.as_dict(),
                            "max_entry_error": err,
                        }
                    )
        covered = set(image.values())
        for g, p in probs_d.items():
            if g not in covered and p > tol:
                failures.append(
                    {
                        "kind": "unmatched-target-track",
                        "input": i,
                        "track": g.as_dict(),
                        "probability": p,
                    }
                )
    return FaithfulnessReport(
        not failures, tuple(failures), len(inputs), len(agg_c.operators)
    )
