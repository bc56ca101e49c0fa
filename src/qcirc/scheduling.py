"""Schedules (sequences of gate bouts) and coherent linear orders on posets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .circuit import QuantumCircuit, prerequisites, topo_order

Bout = frozenset  # frozenset[str]


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    bouts: tuple[Bout, ...]

    def __len__(self):  # the bout count, which perfbench/spans.py reads
        return len(self.bouts)

    def gate_ids(self) -> set[str]:
        out: set[str] = set()
        for b in self.bouts:
            out |= b
        return out


def in_bout_order(c: QuantumCircuit, bouts: Iterable[Iterable[str]]) -> list[list[str]]:
    """Each bout's gate ids in circuit order, the one order of gates inside a
    bout, a bout of one known gate taken as it is; the first id, in iteration
    order, that `c` lacks raises CircuitError."""
    try:
        return [b if len(b) == 1 and b[0] in c._index else sorted(b, key=c._index.__getitem__) for b in map(list, bouts)]
    except KeyError as e:
        c.gate(e.args[0])  # raises, as `QuantumCircuit.index_of` does
        raise


def is_antichain(c: QuantumCircuit, gates: Iterable[str]) -> bool:
    gates = set(gates)
    return all(not (prerequisites(c, g) & gates) for g in gates)


def validate_schedule(c: QuantumCircuit, x: Schedule) -> bool:
    """True iff the bouts are nonempty, disjoint sets of the circuit's gates that
    cover every gate and fire each gate's direct sources in strictly earlier
    bouts; then every prefix-union is a stage and each bout an antichain of gates
    ready at the stage before."""
    fired: set[str] = set()
    for bout in x.bouts:
        known = bout and all(map(c.has_gate, bout))
        if not known or bout & fired or not all(c._wiring[2][gid] <= fired for gid in bout):
            return False
        fired |= bout
    return fired == {g.id for g in c.gates}


def greedy_schedule(c: QuantumCircuit) -> Schedule:
    """Canonical schedule: each bout fires every ready gate, so bout t holds
    exactly the gates whose longest source path has t edges."""
    return Schedule(tuple(map(frozenset, greedy_bouts(c))))


def greedy_bouts(c: QuantumCircuit) -> list[list[str]]:
    """`greedy_schedule`'s bouts, each in `in_bout_order`, from the gates'
    longest-path depths alone. Raises CircuitError if the relation is cyclic."""
    return [list(b) for _, b in itertools.groupby(sorted(c._index, key=c._depth.__getitem__), c._depth.__getitem__)]


def linear_schedule(order: Sequence[str]) -> Schedule:
    return Schedule(tuple(frozenset([g]) for g in order))


def enumerate_linear_schedules(
    c: QuantumCircuit, limit: Optional[int] = 1000
) -> list[Schedule]:
    """All linear extensions of the prerequisite relation as singleton-bout
    schedules, depth-first with lexicographic tie-breaking on gate id. The
    ready set and each gate's count of unfired direct sources follow the
    prefix as gates are pushed and popped, so a step costs the gate's
    dependants plus the sort of the ready set."""
    (_, _, direct, dependants), gids = c._wiring, topo_order(c)  # topo_order rejects a cyclic relation
    unfired = {g: len(direct[g]) for g in gids}
    ready = {g for g in gids if not unfired[g]}
    out: list[Schedule] = []
    prefix: list[str] = []
    stack = [iter(sorted(ready))]  # the gates still to try after each prefix
    while stack and (limit is None or len(out) < limit):
        if len(prefix) == len(gids):
            out.append(linear_schedule(prefix))
        gid = next(stack[-1], None)
        if gid is None:
            stack.pop()
            if prefix:  # nothing to undo once the root is done
                gid = prefix.pop()
                ready.add(gid)
                for d in dependants[gid]:
                    ready.discard(d)
                    unfired[d] += 1
        else:
            prefix.append(gid)
            ready.remove(gid)
            for d in dependants[gid]:
                unfired[d] -= 1
                if not unfired[d]:
                    ready.add(d)
            stack.append(iter(sorted(ready)))
    return out


def split_bout(x: Schedule, t: int, b1: Iterable[str], b2: Iterable[str]) -> Schedule:
    """Replace bout X_t by the pair (b1; b2); b1, b2 must disjointly cover it."""
    b1, b2 = frozenset(b1), frozenset(b2)
    if not (0 <= t < len(x.bouts)):
        raise ScheduleError(f"bout index {t} out of range")
    if not b1 or not b2 or (b1 & b2) or (b1 | b2) != x.bouts[t]:
        raise ScheduleError("b1, b2 must be a disjoint nonempty cover of the bout")
    return Schedule(x.bouts[:t] + (b1, b2) + x.bouts[t + 1 :])


# --- posets and coherent linear orders -------------------------------------


@dataclass(frozen=True)
class Poset:
    """Finite strict partial order, stored transitively closed."""

    elements: tuple[str, ...]
    less: frozenset  # frozenset[tuple[str, str]]

    @classmethod
    def from_pairs(
        cls, elements: Iterable[str], pairs: Iterable[tuple[str, str]]
    ) -> "Poset":
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ScheduleError("duplicate poset elements")
        n, pos = len(elements), {e: i for i, e in enumerate(elements)}
        rows = [0] * n  # rows[i]: bitmask of the elements above elements[i]
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise ScheduleError(f"pair ({a!r}, {b!r}) uses unknown elements")
            rows[pos[a]] |= 1 << pos[b]
        # Warshall closure
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        if any(row >> i & 1 for i, row in enumerate(rows)):
            raise ScheduleError("relation is not a strict partial order (cycle)")
        less = {(a, elements[j]) for a, r in zip(elements, rows) for j in range(n) if r >> j & 1}
        return cls(elements, frozenset(less))

    def lt(self, a: str, b: str) -> bool:
        return (a, b) in self.less

    def coherent(self, order: Sequence[str]) -> bool:
        """Linear extension check: a < b in the order whenever a precedes b
        in the poset."""
        if sorted(order) != sorted(self.elements):
            return False
        pos = {e: i for i, e in enumerate(order)}
        return all(pos[a] < pos[b] for a, b in self.less)


def differentiating_pairs(frm: Sequence[str], to: Sequence[str]) -> int:
    """Number of pairs ordered one way by `frm` and the other way by `to`."""
    pos = {e: i for i, e in enumerate(to)}
    count = 0
    for i in range(len(frm)):
        for j in range(i + 1, len(frm)):
            if pos[frm[i]] > pos[frm[j]]:
                count += 1
    return count


def transposition_path(
    p: Poset, frm: Sequence[str], to: Sequence[str]
) -> list[tuple[str, ...]]:
    """Path of coherent linear orders from `frm` to `to`, each step one
    adjacent transposition; the step count equals the number of
    differentiating pairs."""
    frm, to = tuple(frm), tuple(to)
    if not p.coherent(frm):
        raise ScheduleError("`frm` is not coherent with the poset")
    if not p.coherent(to):
        raise ScheduleError("`to` is not coherent with the poset")
    pos = {e: i for i, e in enumerate(to)}
    path = [frm]
    cur = list(frm)
    while tuple(cur) != to:
        for i in range(len(cur) - 1):
            if pos[cur[i]] > pos[cur[i + 1]]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                path.append(tuple(cur))
                break
        else:  # pragma: no cover - impossible for coherent inputs
            raise ScheduleError("no adjacent differentiating pair found")
    return path
