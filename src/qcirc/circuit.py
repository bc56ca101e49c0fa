"""Circuit data model: gates with measurement families, classical channels,
register wiring, validation, stages, and truncation."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

import numpy as np

from . import linalg


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    where: str  # gate id or location
    message: str

    def to_json(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "where": self.where,
            "message": self.message,
        }


@dataclass(frozen=True, eq=False, init=False)
class Measurement:
    """Indexed family of operators {A_i} with sum A_i^dag A_i = I."""

    id: str
    operators: Mapping[str, np.ndarray]

    def __init__(self, id: str, operators: Mapping[str, np.ndarray]):
        self.__dict__.update(id=id, operators=operators)

    @cached_property
    def outcomes(self) -> tuple[str, ...]:
        return tuple(sorted(self.operators))

    def completeness_defect(self) -> float:
        return linalg.completeness_defect(self.operators.values())


def standard_bases(ms: Iterable[Measurement]) -> dict[Measurement, Optional[np.ndarray]]:
    """Per measurement, per label in `outcomes`, the basis index its operator projects onto if the measurement
    is standard (exact projectors onto distinct basis states), else None: one pass per d over those of d d x d."""
    groups: dict[int, list] = {}  # d -> its measurements; 0: not d operators of d x d
    for m in ms:
        d = len(m.operators)
        groups.setdefault(d if all(a.shape == (d, d) for a in m.operators.values()) else 0, []).append(m)
    out = dict.fromkeys(groups.pop(0, ()))
    for d, group in groups.items():
        q = np.array([m.operators[label] for m in group for label in m.outcomes]).reshape(len(group), d, d * d)
        at = q[..., :: d + 1].real.argmax(axis=2)  # where each flat operator's one 1 must be, on its diagonal
        hot = np.arange(d * d) == at[..., None] * (d + 1)  # the projectors onto those basis states
        ok = (q == hot).all(axis=(1, 2)) & (hot.sum(axis=1)[:, :: d + 1] == 1).all(axis=1)  # each state once
        out.update(zip(group, [a if k else None for a, k in zip(at, ok.tolist())]))
    return out


@dataclass(frozen=True, eq=False, init=False)
class UnitaryOp:
    id: str
    matrix: np.ndarray

    def __init__(self, id: str, matrix: np.ndarray):
        self.__dict__.update(id=id, matrix=matrix)


@dataclass(frozen=True, eq=False, init=False)  # as for UnitaryOp and Measurement: __init__ fills __dict__ at once
class Gate:
    """One circuit gate.

    Exactly one of `unitaries` / `measurements` is non-empty; `selector` maps
    tuples of source outcome labels (one per classical source, in order) to an
    op or measurement id. Non-CC gates carry the empty-tuple selector.
    """

    id: str
    registers: tuple[int, ...]
    unitaries: Mapping[str, UnitaryOp] = field(default_factory=dict)
    measurements: Mapping[str, Measurement] = field(default_factory=dict)
    classical_sources: tuple[str, ...] = ()
    selector: Mapping[tuple[str, ...], str] = field(default_factory=dict)

    def __init__(self, id, registers, unitaries=None, measurements=None, classical_sources=(), selector=None):
        self.__dict__.update(id=id, registers=registers, unitaries=unitaries or {}, measurements=measurements or {},
                             classical_sources=classical_sources, selector=selector or {})

    @property
    def kind(self) -> str:
        return "measure" if self.measurements else "unitary"

    @property
    def is_measure(self) -> bool:
        return bool(self.measurements)

    @property
    def arity(self) -> int:
        return len(self.registers)

    @cached_property
    def outcome_labels(self) -> tuple[str, ...]:
        """All G-outcomes, across every measurement of the gate."""
        return tuple(sorted(label for m in self.measurements.values() for label in m.operators))


def unitary_gate(gid: str, registers: Iterable[int], matrix: np.ndarray) -> Gate:
    op = UnitaryOp(gid, np.asarray(matrix, dtype=complex))
    return Gate(gid, tuple(registers), unitaries={gid: op}, selector={(): gid})


def measure_gate(
    gid: str, registers: Iterable[int], operators: Mapping[str, np.ndarray]
) -> Gate:
    m = Measurement(gid, {k: np.asarray(v, dtype=complex) for k, v in operators.items()})
    return Gate(gid, tuple(registers), measurements={gid: m}, selector={(): gid})


def standard_measure_gate(gid: str, register: int) -> Gate:
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return measure_gate(gid, [register], {"0": p0, "1": p1})


def controlled_unitary_gate(
    gid: str,
    registers: Iterable[int],
    sources: Iterable[str],
    ops: Mapping[str, np.ndarray],
    selector: Mapping[tuple[str, ...], str],
) -> Gate:
    return Gate(
        gid,
        tuple(registers),
        unitaries={k: UnitaryOp(k, np.asarray(v, dtype=complex)) for k, v in ops.items()},
        classical_sources=tuple(sources),
        selector=dict(selector),
    )


@dataclass(frozen=True, eq=False)
class QuantumCircuit:
    """Registers plus a gate sequence. Its structure (register chains, each
    gate's sources, a topological order, each gate's prerequisites as a
    bitmask over gate positions and its longest-path depth, and the unitaries
    that follow a measurement) and its validation diagnostics are derived
    once, on first use, and cached on the instance; the structural functions
    and `validate_circuit` read them. That is sound only because the instance
    and its operators are not modified."""

    register_names: tuple[str, ...]
    gates: tuple[Gate, ...]

    @property
    def n_registers(self) -> int:
        return len(self.register_names)

    def gate(self, gid: str) -> Gate:
        try:
            return self._by_id[gid]
        except KeyError:
            raise CircuitError(f"unknown gate id {gid!r}") from None

    def has_gate(self, gid: str) -> bool:
        return gid in self._by_id

    def index_of(self, gid: str) -> int:
        self.gate(gid)
        return self._index[gid]

    @cached_property
    def _by_id(self) -> dict[str, Gate]:
        return {g.id: g for g in self.gates}

    @cached_property
    def _index(self) -> dict[str, int]:
        return {g.id: i for i, g in enumerate(self.gates)}

    @cached_property
    def _wiring(self) -> tuple[dict, dict, dict, dict]:
        """(register -> chain of gate ids, gate -> quantum sources, gate ->
        direct sources, quantum and classical, gate -> direct dependants)."""
        chains: dict[int, list[str]] = {}
        quantum: dict[str, dict[int, Optional[str]]] = {}
        direct: dict[str, set[str]] = {}
        dependants: dict[str, list[str]] = {g.id: [] for g in self.gates}
        for g in self.gates:
            gid = g.id
            quantum[gid] = sources = dict.fromkeys(g.registers)
            for r in sources:
                chain = chains.get(r)
                if chain:
                    sources[r] = chain[-1]
                    chain.append(gid)
                else:
                    chains[r] = [gid]
            direct[gid] = srcs = set(sources.values())
            srcs.discard(None)
            if g.classical_sources:
                srcs.update(s for s in g.classical_sources if s in self._by_id)
            for s in srcs:
                dependants[s].append(gid)
        return chains, quantum, direct, dependants

    @cached_property
    def _order(self) -> Optional[list[str]]:
        """Topological order by Kahn's algorithm, taking ready gates by
        sequence position; None if cyclic. A quantum source always comes
        before its gate, so when every known classical source does too (and
        no id repeats), that order is the sequence, read without `_wiring`."""
        index = self._index
        if len(index) == len(self.gates) and all(
            index.get(s, -1) < i for i, g in enumerate(self.gates) for s in g.classical_sources
        ):
            return [g.id for g in self.gates]
        _, _, direct, dependants = self._wiring
        unfired = {gid: len(srcs) for gid, srcs in direct.items()}
        ready = [index[gid] for gid, n in unfired.items() if not n]
        heapq.heapify(ready)
        out = []
        while ready:
            out.append(self.gates[heapq.heappop(ready)].id)
            for d in dependants[out[-1]]:
                unfired[d] -= 1
                if not unfired[d]:
                    heapq.heappush(ready, index[d])
        return out if len(out) == len(self.gates) else None

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_diagnose(self))

    @cached_property
    def _prereq(self) -> dict[str, int]:
        """Per gate, its prerequisites as a bitmask over gate positions.
        Raises CircuitError if the relation is cyclic."""
        prereq = {}
        for gid in topo_order(self):
            srcs = self._wiring[2][gid]
            prereq[gid] = self._mask(srcs)
            for s in srcs:
                prereq[gid] |= prereq[s]
        return prereq

    @cached_property
    def _depth(self) -> dict[str, int]:
        """Per gate, its longest-path depth. Raises CircuitError if the relation is cyclic."""
        depth, last = {}, {}  # last: per register, the depth of its last gate so far, the next one's quantum source
        for g in map(self._by_id.__getitem__, topo_order(self)):
            below = [last.get(r, -1) for r in g.registers] + [depth.get(s, -1) for s in g.classical_sources]
            depth[g.id] = 1 + max(below, default=-1)
            last.update(dict.fromkeys(g.registers, depth[g.id]))
        return depth

    @cached_property
    def _red(self) -> frozenset:
        """Unitary gates with a measurement gate among their prerequisites.
        Raises CircuitError if the relation is cyclic."""
        measured, prereq = self._mask(g.id for g in self.gates if g.is_measure), self._prereq
        return frozenset(g.id for g in self.gates if not g.is_measure and prereq[g.id] & measured)

    def _mask(self, ids: Iterable[str]) -> int:
        """Bitmask over gate positions of the known gate ids among `ids`."""
        return sum(1 << self._index[i] for i in set(ids) if i in self._index)

    def _ids(self, mask: int) -> set[str]:
        """Gate ids at the set bits of a position bitmask."""
        return {self.gates[i].id for i, b in enumerate(reversed(bin(mask))) if b == "1"}

    def register_chain(self, r: int) -> list[str]:
        """Gate ids touching register r, in sequence order."""
        return list(self._wiring[0].get(r, ()))

    def quantum_sources(self, gid: str) -> dict[int, Optional[str]]:
        """Per register of the gate: the previous producer on that register
        (a gate id, or None for the circuit input)."""
        return dict(self._wiring[1][self.gate(gid).id])

    def direct_sources(self, gid: str) -> set[str]:
        """Gates G' with G' < G in the source relation (quantum or classical)."""
        return set(self._wiring[2][self.gate(gid).id])

    def edges(self) -> set[tuple[str, str]]:
        return {(s, gid) for gid, srcs in self._wiring[2].items() for s in srcs}


def topo_order(c: QuantumCircuit) -> list[str]:
    """Gate ids in a topological order of the source relation, stable with
    respect to the circuit's gate sequence."""
    if len(c._by_id) < len(c.gates):  # a repeated id: its first gate is not at its last position
        dup = next(g.id for i, g in enumerate(c.gates) if c._index[g.id] != i)
        raise CircuitError(f"duplicate gate id {dup!r}")
    if c._order is None:
        raise CircuitError("source relation is cyclic")
    return list(c._order)


def prerequisites(c: QuantumCircuit, gid: str) -> set[str]:
    """Transitive closure of the source relation below the gate."""
    return c._ids(c._prereq[c.gate(gid).id])


def _verdicts(c: QuantumCircuit) -> tuple[dict[int, bool], dict[int, float]]:
    """By `id`: whether each operator of its gate's shape is finite, and each
    measurement's and unitary's max |sum A^dag A - I| (read only when all its
    operators have that shape), from one `linalg.gram_defects` pass per
    dimension over each gate's measurements, or its unitaries if it has none,
    as the walk takes them (validation reads those of gates of one kind)."""
    groups: dict[int, tuple[list, list, list]] = {}  # dim -> (families, their operators of that shape, how many each)
    for g in c.gates:
        dim = 2 ** len(g.registers)
        shape = (dim, dim)
        families, ops, counts = groups.get(dim) or groups.setdefault(dim, ([], [], []))
        for m in g.measurements.values():
            before = len(ops)
            for a in m.operators.values():
                if a.shape == shape:
                    ops.append(a)
            if len(ops) > before:
                families.append(m)
                counts.append(len(ops) - before)
        if not g.measurements:
            for u in g.unitaries.values():
                if u.matrix.shape == shape:
                    families.append(u)
                    ops.append(u.matrix)
                    counts.append(1)
    finite, defects = {}, {}
    for dim, (families, ops, counts) in groups.items():
        if ops:
            stack = ops[0][None] if len(ops) == 1 else np.concatenate(ops).reshape(-1, dim, dim)  # one is not copied
            ok, defect = linalg.gram_defects(stack, counts)
            finite.update(zip(map(id, ops), ok.tolist()))
            defects.update(zip(map(id, families), defect.tolist()))
    return finite, defects


def validate_circuit(c: QuantumCircuit) -> list[Diagnostic]:
    """The circuit's diagnostics, in gate order; computed once per instance."""
    return list(c._diagnostics)


def _diagnose(c: QuantumCircuit) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    finite, defects = _verdicts(c)

    def err(code: str, where: str, message: str) -> None:
        diags.append(Diagnostic("error", code, where, message))

    if len(c._by_id) < len(c.gates):  # a repeated id
        seen_ids: set[str] = set()
        for g in c.gates:
            if g.id in seen_ids:
                err("duplicate-gate-id", g.id, f"gate id {g.id!r} appears more than once")
            seen_ids.add(g.id)

    n = c.n_registers
    for g in c.gates:
        gid, registers, unitaries, measurements = g.id, g.registers, g.unitaries, g.measurements
        if not registers:
            err("empty-registers", gid, "gate touches no register")
        if len(registers) > 1 and len(set(registers)) != len(registers):
            err("duplicate-register", gid, f"registers {registers} repeat")
        for r in registers:
            if r < 0 or r >= n:
                err("register-out-of-range", gid, f"register {r} out of range")
        if bool(unitaries) == bool(measurements):
            err("bad-gate-kind", gid, "gate must carry unitaries xor measurements")
            continue

        dim = 2 ** len(registers)
        shape = (dim, dim)
        labels_seen: set[str] = set()  # across the gate's measurements
        for m in measurements.values():
            if not m.operators:
                err("empty-measurement", gid, f"measurement {m.id!r} has no outcome")
                continue
            bad_ops = False
            for label, a in m.operators.items():
                if label == "" or "," in label:
                    err("bad-label", gid, f"outcome label {label!r} is reserved")
                if label in labels_seen:
                    err("outcome-labels-overlap", gid, f"outcome label {label!r} appears in two measurements")
                labels_seen.add(label)
                if a.shape != shape:
                    err(
                        "operator-dim-mismatch",
                        gid,
                        f"operator for outcome {label!r} has shape {a.shape}, expected {dim}x{dim}",
                    )
                    bad_ops = True
                elif not finite[id(a)]:
                    err("non-finite-entry", gid, f"operator for outcome {label!r} is not finite")
                    bad_ops = True
            if bad_ops:
                continue
            defect = defects[id(m)]
            if not defect <= linalg.DEFAULT_TOL:  # NaN when the sum overflows
                err("measurement-incomplete", gid, f"sum A^dag A differs from identity by {defect:.2e}")
        for u in unitaries.values():
            if u.matrix.shape != shape:
                err("operator-dim-mismatch", gid, f"unitary {u.id!r} has shape {u.matrix.shape}, expected {dim}x{dim}")
            elif not finite[id(u.matrix)]:
                err("non-finite-entry", gid, f"unitary {u.id!r} is not finite")
            elif not defects[id(u)] <= linalg.DEFAULT_TOL:
                err("non-unitary-op", gid, f"operator {u.id!r} is not unitary")

        # classical sources and selector totality
        sources, selector = g.classical_sources, g.selector
        if not sources:
            if len(unitaries or measurements) != 1:
                err(
                    "non-cc-multiple-ops",
                    gid,
                    f"gate without classical sources must carry exactly one op, has {len(unitaries or measurements)}",
                )
            if len(selector) != 1 or () not in selector:
                err("selector-not-total", gid, "non-CC gate needs the empty-tuple selector")
        else:
            label_sets: list[set[str]] = []
            for s in sources:
                src = c._by_id.get(s)
                if src is None:
                    err("unknown-classical-source", gid, f"classical source {s!r} not found")
                elif not src.is_measure:
                    err("classical-source-not-measure", gid, f"classical source {s!r} is not a measurement gate")
                else:
                    label_sets.append(set(src.outcome_labels))
            if len(label_sets) == len(sources):
                # total: every key holds one label of each source, and there are
                # as many keys as label combinations; no product is built for that
                extra = [
                    k for k in selector if len(k) != len(label_sets) or not all(map(set.__contains__, label_sets, k))
                ]
                if extra or len(selector) != math.prod(map(len, label_sets)):
                    combos = itertools.product(*map(sorted, label_sets))
                    missing = list(itertools.islice((k for k in combos if k not in selector), 3))
                    extra = sorted(extra)[:3]
                    err("selector-not-total", gid, f"selector domain mismatch (missing {missing}, extra {extra})")
        for key, target in selector.items():
            if target not in unitaries and target not in measurements:
                err("selector-unknown-target", gid, f"selector {key} -> unknown id {target!r}")

    if not diags and c._order is None:
        err("cycle", "<circuit>", "combined source relation is cyclic")
    return diags


def check_valid(c: QuantumCircuit) -> QuantumCircuit:
    diags = c._diagnostics  # not `validate_circuit`, so that a walk's cached check counts as no validation
    if diags:
        raise CircuitError("; ".join(f"{d.code}@{d.where}: {d.message}" for d in diags))
    return c


# --- stages ----------------------------------------------------------------


def is_stage(c: QuantumCircuit, s: Iterable[str]) -> bool:
    s = {c.gate(gid).id for gid in s}
    fired, prereq = c._mask(s), c._prereq
    return all(not prereq[gid] & ~fired for gid in s)


def stage_exits(c: QuantumCircuit, s: Iterable[str]) -> set[tuple[int, Optional[str]]]:
    """One exit per register: (register, last producer within the stage),
    where the producer is a gate id or None for the circuit input."""
    s = set(s)
    if not is_stage(c, s):
        raise CircuitError("gate set is not a stage")
    return {
        (r, next((gid for gid in reversed(c.register_chain(r)) if gid in s), None))
        for r in range(c.n_registers)
    }


def truncate(c: QuantumCircuit, s: Iterable[str]) -> QuantumCircuit:
    s = set(s)
    if not is_stage(c, s):
        raise CircuitError("gate set is not a stage")
    return QuantumCircuit(c.register_names, tuple(g for g in c.gates if g.id in s))
