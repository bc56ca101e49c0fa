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

TOL = linalg.DEFAULT_TOL


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


@dataclass(frozen=True, eq=False)
class Measurement:
    """Indexed family of operators {A_i} with sum A_i^dag A_i = I."""

    id: str
    operators: Mapping[str, np.ndarray]

    @property
    def outcomes(self) -> tuple[str, ...]:
        return tuple(sorted(self.operators))

    def completeness_defect(self) -> float:
        return linalg.completeness_defect(self.operators.values())


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    id: str
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
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

    @property
    def kind(self) -> str:
        return "measure" if self.measurements else "unitary"

    @property
    def is_measure(self) -> bool:
        return bool(self.measurements)

    @property
    def arity(self) -> int:
        return len(self.registers)

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        """All G-outcomes, across every measurement of the gate."""
        labels = []
        for m in self.measurements.values():
            labels.extend(m.operators)
        return tuple(sorted(labels))


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
    gate's sources, a topological order, and each gate's prerequisites as a
    bitmask over gate positions and its longest-path depth) is derived once,
    on first use, and cached on the instance; the structural functions read
    it. That is sound only because the instance is immutable."""

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
    def _wiring(self) -> tuple[dict, dict, dict]:
        """(register -> chain of gate ids, gate -> quantum sources, gate ->
        direct sources, quantum and classical)."""
        chains: dict[int, list[str]] = {}
        quantum: dict[str, dict[int, Optional[str]]] = {}
        direct: dict[str, set[str]] = {}
        for g in self.gates:
            quantum[g.id] = {r: chains[r][-1] if r in chains else None for r in g.registers}
            direct[g.id] = {s for s in quantum[g.id].values() if s is not None}
            direct[g.id].update(s for s in g.classical_sources if s in self._by_id)
            for r in quantum[g.id]:
                chains.setdefault(r, []).append(g.id)
        return chains, quantum, direct

    @cached_property
    def _order(self) -> Optional[list[str]]:
        """Topological order, stable in the gate sequence; None if cyclic."""
        return _toposort([g.id for g in self.gates], self.edges(), key=self._index.get)

    @cached_property
    def _layers(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per gate: its prerequisites as a bitmask over gate positions, and
        its longest-path depth. Raises CircuitError if the relation is cyclic."""
        prereq, depth = {}, {}
        for gid in topo_order(self):
            srcs = self._wiring[2][gid]
            prereq[gid] = self._mask(srcs)
            for s in srcs:
                prereq[gid] |= prereq[s]
            depth[gid] = max((depth[s] + 1 for s in srcs), default=0)
        return prereq, depth

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


def _toposort(nodes: list[str], edges: set[tuple[str, str]], key) -> Optional[list[str]]:
    """Kahn's algorithm with a priority tie-break; None if cyclic."""
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    heap = [(key(v), v) for v in nodes if indeg[v] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, v = heapq.heappop(heap)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (key(w), w))
    return out if len(out) == len(nodes) else None


def topo_order(c: QuantumCircuit) -> list[str]:
    """Gate ids in a topological order of the source relation, stable with
    respect to the circuit's gate sequence."""
    if c._order is None:
        raise CircuitError("source relation is cyclic")
    return list(c._order)


def prerequisites(c: QuantumCircuit, gid: str) -> set[str]:
    """Transitive closure of the source relation below the gate."""
    return c._ids(c._layers[0][c.gate(gid).id])


def validate_circuit(c: QuantumCircuit) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def err(code: str, where: str, message: str) -> None:
        diags.append(Diagnostic("error", code, where, message))

    seen_ids: set[str] = set()
    for g in c.gates:
        if g.id in seen_ids:
            err("duplicate-gate-id", g.id, f"gate id {g.id!r} appears more than once")
        seen_ids.add(g.id)

    for g in c.gates:
        if not g.registers:
            err("empty-registers", g.id, "gate touches no register")
        if len(set(g.registers)) != len(g.registers):
            err("duplicate-register", g.id, f"registers {g.registers} repeat")
        for r in g.registers:
            if r < 0 or r >= c.n_registers:
                err("register-out-of-range", g.id, f"register {r} out of range")
        if bool(g.unitaries) == bool(g.measurements):
            err("bad-gate-kind", g.id, "gate must carry unitaries xor measurements")
            continue

        dim = 2**g.arity
        labels_seen: set[str] = set()
        for m in g.measurements.values():
            if not m.operators:
                err("empty-measurement", g.id, f"measurement {m.id!r} has no outcome")
                continue
            bad_ops = False
            for label, a in m.operators.items():
                if label == "" or "," in label:
                    err("bad-label", g.id, f"outcome label {label!r} is reserved")
                if label in labels_seen:
                    err(
                        "outcome-labels-overlap",
                        g.id,
                        f"outcome label {label!r} appears in two measurements",
                    )
                labels_seen.add(label)
                if a.shape != (dim, dim):
                    err(
                        "operator-dim-mismatch",
                        g.id,
                        f"operator for outcome {label!r} has shape {a.shape}, expected {dim}x{dim}",
                    )
                    bad_ops = True
                elif not np.all(np.isfinite(a)):
                    err("non-finite-entry", g.id, f"operator for outcome {label!r} is not finite")
                    bad_ops = True
            if bad_ops:
                continue
            defect = m.completeness_defect()
            if not defect <= TOL:  # NaN when the sum overflows
                err("measurement-incomplete", g.id, f"sum A^dag A differs from identity by {defect:.2e}")
        for u in g.unitaries.values():
            if u.matrix.shape != (dim, dim):
                err(
                    "operator-dim-mismatch",
                    g.id,
                    f"unitary {u.id!r} has shape {u.matrix.shape}, expected {dim}x{dim}",
                )
            elif not np.all(np.isfinite(u.matrix)):
                err("non-finite-entry", g.id, f"unitary {u.id!r} is not finite")
            elif not linalg.is_unitary(u.matrix, TOL):
                err("non-unitary-op", g.id, f"operator {u.id!r} is not unitary")

        # classical sources and selector totality
        source_outcome_sets: list[tuple[str, ...]] = []
        sources_ok = True
        for s in g.classical_sources:
            if not c.has_gate(s):
                err("unknown-classical-source", g.id, f"classical source {s!r} not found")
                sources_ok = False
                continue
            src = c.gate(s)
            if not src.is_measure:
                err(
                    "classical-source-not-measure",
                    g.id,
                    f"classical source {s!r} is not a measurement gate",
                )
                sources_ok = False
                continue
            source_outcome_sets.append(src.outcome_labels)
        if not g.classical_sources:
            choices = dict(g.unitaries) or dict(g.measurements)
            if len(choices) != 1:
                err(
                    "non-cc-multiple-ops",
                    g.id,
                    f"gate without classical sources must carry exactly one op, has {len(choices)}",
                )
            if set(g.selector) != {()}:
                err("selector-not-total", g.id, "non-CC gate needs the empty-tuple selector")
        elif sources_ok:
            # total: every key holds one label of each source, and there are
            # as many keys as label combinations; no product is built for that
            label_sets = [set(labels) for labels in source_outcome_sets]
            extra = [
                k for k in g.selector
                if len(k) != len(label_sets) or not all(lab in labs for lab, labs in zip(k, label_sets))
            ]
            if extra or len(g.selector) != math.prod(map(len, label_sets)):
                combos = itertools.product(*map(sorted, label_sets))
                missing = list(itertools.islice((k for k in combos if k not in g.selector), 3))
                extra = sorted(extra)[:3]
                err(
                    "selector-not-total",
                    g.id,
                    f"selector domain mismatch (missing {missing}, extra {extra})",
                )
        valid_targets = set(g.unitaries) | set(g.measurements)
        for key, target in g.selector.items():
            if target not in valid_targets:
                err("selector-unknown-target", g.id, f"selector {key} -> unknown id {target!r}")

    if not diags and c._order is None:
        err("cycle", "<circuit>", "combined source relation is cyclic")
    return diags


def check_valid(c: QuantumCircuit) -> QuantumCircuit:
    diags = validate_circuit(c)
    if diags:
        raise CircuitError("; ".join(f"{d.code}@{d.where}: {d.message}" for d in diags))
    return c


# --- stages ----------------------------------------------------------------


def is_stage(c: QuantumCircuit, s: Iterable[str]) -> bool:
    s = {c.gate(gid).id for gid in s}
    fired, prereq = c._mask(s), c._layers[0]
    return all(not prereq[gid] & ~fired for gid in s)


def ready_gates(c: QuantumCircuit, s: Iterable[str]) -> set[str]:
    """Gates outside s whose prerequisites all lie in s; unknown ids in s
    are ignored."""
    s = set(s)
    fired, prereq = c._mask(s), c._layers[0]
    return {g.id for g in c.gates if g.id not in s and not prereq[g.id] & ~fired}


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
