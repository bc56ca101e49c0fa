"""Denotational and operational semantics: tracks, cumulative operators, the
aggregate measurement, schedule equivalence, and a seeded stochastic executor.

Post-measurement states are kept un-normalized; normalization happens only
when sampling or reporting.

Every walk, the sampler's included, is one breadth-first frontier walk
over the circuit's compiled `_Plan`: a stack of states with a row of integer
outcome codes each, and each gate's selected operators applied once to all
the states that select them, through the one kernel `linalg.apply` on
the stack that `linalg.operators` checks; each bout is walked in
`scheduling.in_bout_order`. The tracks are counted on the codes before any
operator is applied. A circuit in terminal form, whose unitaries all precede
its standard-basis measurements (every circuit `defer` rewrites, and
GHZ-style circuits), is by the deferred-measurement principle one unitary U
followed by a measurement in the standard basis: `track_rows` applies only
its plan's unitary moves, to t0 alone, and each track is the rows of U @ t0
that its labels select, its basis index over a measurement's registers
read by `linalg.reindex`.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from . import linalg
from .circuit import Gate, QuantumCircuit
from .scheduling import Schedule, ScheduleError, greedy_schedule, in_bout_order, validate_schedule

DEFAULT_TRACK_CAP = 2**16  # the tracks a walk may count; more is a SemanticsError
# The one bound on transient memory, read at call time: what a walk's frontier,
# `sample`'s live nodes at a time, or `check_faithful`'s pair comparisons at a time may hold.
FRONTIER_BYTES = 2**18


class SemanticsError(ValueError):
    pass


@dataclass(frozen=True)
class Track:
    """Coherent assignment of an outcome label to every measurement gate,
    stored as (gate id, label) pairs sorted by gate id."""

    outcomes: tuple[tuple[str, str], ...]

    @classmethod
    def from_mapping(cls, assignment: Mapping[str, str]) -> "Track":
        return cls(tuple(sorted(assignment.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.outcomes)

    def get(self, gid: str) -> str:
        return self.as_dict()[gid]


@dataclass(frozen=True, eq=False)
class AggregateMeasurement:
    """The circuit's denotation: track -> cumulative operator."""

    n_qubits: int
    operators: dict  # Track -> np.ndarray

    def completeness_defect(self) -> float:
        return linalg.completeness_defect(self.operators.values())


@dataclass(frozen=True, eq=False)
class RunResult:
    track: Track
    final_state: linalg.DensityOperator
    step_log: tuple  # ((gate ids...), (outcome labels...), probability)


def _require_fit(c: QuantumCircuit, *schedules: Schedule) -> None:
    if not all(validate_schedule(c, x) for x in schedules):
        raise ScheduleError("schedule does not fit the circuit")


class _Step(NamedTuple):
    """A gate compiled for the frontier walk (`_Plan`). A pick is the
    position of one of its unitaries or measurements, -1 for none."""

    gate: Gate
    column: int  # of outcome codes; -1 for a unitary gate
    axes: tuple  # `linalg._axes` of its registers
    ops: np.ndarray  # unitary j is ops[j]; measurement j's, labels sorted, are ops[first[j] : first[j + 1]]
    finite: bool  # all ops finite (the validation verdicts)
    first: tuple
    codes: np.ndarray  # per measurement operator, its label's code
    pick: int  # without classical sources
    sources: tuple = ()  # columns of the classical sources (-1: not a measurement gate)
    selector: tuple = ()  # (place values, table): mixed-radix code of their labels -> pick


class _Plan:
    """A circuit compiled once for the frontier walk: a `_Step` per gate, and
    per measurement gate, in gate-id order, a column of outcome codes, a
    label's code being its position in the gate's sorted `outcome_labels`
    (-1: none), so that code rows sort as their tracks do, and its (gate id,
    label) pair, which the Tracks that hold it share; a last column of -1 is
    read by a source that is no measurement gate."""

    def __init__(self, c: QuantumCircuit):
        depth = c._layers[1]  # CircuitError for a repeated gate id or a cyclic source relation
        measures = [g for g in map(c.gate, sorted(depth)) if g.is_measure]
        self.column = {g.id: j for j, g in enumerate(measures)}
        self.labels = [np.array(g.outcome_labels, dtype=object) for g in measures]
        self.index = [dict(zip(labels.tolist(), range(len(labels)))) for labels in self.labels]
        self.pairs = [np.fromiter(zip(itertools.repeat(g.id), g.outcome_labels), object, len(g.outcome_labels))
                      for g in measures]
        n, finite = c.n_registers, c._verdicts[0]
        self.steps = {g.id: self._compile(g, n, finite) for g in c.gates}

    def _compile(self, g: Gate, n: int, finite: dict) -> _Step:
        choices, column = g.measurements or g.unitaries, self.column.get(g.id, -1)
        if column < 0:
            ops, first, codes = [u.matrix for u in choices.values()], (), None
        else:
            ops = [m.operators[label] for m in choices.values() for label in m.outcomes]
            first = (0, *itertools.accumulate([len(m.outcomes) for m in choices.values()]))
            codes = np.array([self.index[column][label] for m in choices.values() for label in m.outcomes])
        stack = linalg.operators(ops, g.arity)  # the arity check; `linalg._axes` checks the registers
        step = (g, column, linalg._axes(g.registers, n), stack, all(finite[id(a)] for a in ops), first, codes)
        if not g.classical_sources:
            return _Step(*step, list(choices).index(g.selector[()]) if g.selector.get(()) in choices else -1)
        position = {cid: j for j, cid in enumerate(choices)}
        sources = tuple(self.column.get(s, -1) for s in g.classical_sources)
        index = [self.index[j] if j >= 0 else {} for j in sources]
        places = [math.prod(map(len, index[i + 1 :])) for i in range(len(index))]
        table = [-1] * math.prod(map(len, index))
        for key, target in g.selector.items():
            if len(key) == len(index) and target in position and all(map(operator.contains, index, key)):
                table[sum(map(operator.mul, map(dict.__getitem__, index, key), places))] = position[target]
        return _Step(*step, -1, sources, (np.array(places), np.array(table)))

    def codes_of(self, assignment: Mapping[str, str]) -> np.ndarray:
        """A row of codes of the assignment's labels, -2 for a label that
        its gate lacks, then a last -1, the code of a source that is no
        measurement gate (its column is -1)."""
        row = np.full((1, len(self.labels) + 1), -1, dtype=np.intp)
        for gid, label in assignment.items():
            if gid in self.column:
                row[0, self.column[gid]] = self.index[self.column[gid]].get(label, -2)
        return row

    def labels_of(self, codes: np.ndarray, columns) -> list[tuple]:
        return list(zip(*(self.labels[j][codes[:, j]].tolist() for j in columns))) if columns else [()] * len(codes)

    def tracks(self, codes: np.ndarray) -> list[tuple]:
        """(key, track) per row of codes that labels every measurement, the
        key the row's rank among the rows sorted by code (one `np.lexsort`),
        which is their tracks' (gate id, label) order."""
        key = np.empty(len(codes), dtype=np.intp)
        key[np.lexsort(codes.T[::-1])] = np.arange(len(codes))
        pairs = zip(*(table[codes[:, j]].tolist() for j, table in enumerate(self.pairs)))
        return list(zip(key.tolist(), map(Track, pairs) if self.pairs else [Track(())] * len(codes)))


def _plan(c: QuantumCircuit) -> _Plan:
    """The circuit's plan, kept on the instance like its cached structure."""
    if "_plan" not in vars(c):
        vars(c)["_plan"] = _Plan(c)
    return vars(c)["_plan"]


def _pick(plan: _Plan, s: _Step, codes: np.ndarray, held: Optional[Mapping[str, str]]):
    """Per frontier row, the selector's pick; an int if all rows agree."""
    g = s.gate
    if not s.sources or not len(codes):
        if s.pick < 0 and len(codes):
            raise SemanticsError(f"gate {g.id!r}: selector has no entry for ()")
        return s.pick if len(codes) else np.zeros(0, dtype=np.intp)
    src = codes[:, s.sources]
    pick = s.selector[1][src @ s.selector[0]] if src.min() >= 0 else np.full(len(codes), -1)
    low = pick.min()
    if low < 0:
        row = src[np.flatnonzero(pick < 0)[0]].tolist()
        if -1 in row:
            raise SemanticsError(f"gate {g.id!r}: no outcome recorded for classical source {g.classical_sources[row.index(-1)]!r}")
        labels = tuple(plan.labels[j][k] if k >= 0 else held[gid] for gid, j, k in zip(g.classical_sources, s.sources, row))
        raise SemanticsError(f"gate {g.id!r}: selector has no entry for {labels}")
    return int(low) if low == pick.max() else pick


def _expand(plan: _Plan, order, codes: np.ndarray, cap: Optional[int] = None,
            held: Optional[Mapping[str, str]] = None):
    """The frontier walk over the gates `order` on outcome codes alone, from
    a row per row of `codes`: (moves, codes, roots), the last two the
    leaves'. A measurement replaces each row by a child per label of the
    measurement picked, in depth-first leaf order; with the `held`
    assignment, which must label each measurement reached, its label. A move
    (step, ops, parents) makes the next frontier: each row takes each
    operator of the slice `ops`, or row i is operator ops[i] on row
    parents[i] (on row i if parents is None). Raises SemanticsError as soon
    as the frontier exceeds `cap`."""
    moves, roots = [], np.arange(len(codes))
    for gid in order:
        s = plan.steps[gid]
        ops, parents = _pick(plan, s, codes, held), None
        if isinstance(ops, int) and s.column >= 0:
            lo, width = s.first[ops], s.first[ops + 1] - s.first[ops]
            if held is not None:
                own = codes[0, s.column]
                if own == -1:
                    raise SemanticsError(f"track is incoherent at gate {gid!r}: no outcome for a reached measurement")
                lo += next((i for i in range(width) if s.codes[lo + i] == own), width)
                if lo == s.first[ops + 1]:
                    raise SemanticsError(f"track is incoherent at gate {gid!r}: outcome {held[gid]!r} not offered"
                                         " by the selected measurement")
                width = 1
            f, codes, roots = len(codes), np.repeat(codes, width, axis=0), np.repeat(roots, width)
            codes.reshape(f, width, codes.shape[1])[:, :, s.column] = s.codes[lo : lo + width]
            ops = slice(lo, lo + width)
        elif isinstance(ops, int):
            ops = slice(ops, ops + 1)
        elif s.column >= 0:  # rows pick different measurements
            first = np.array(s.first)
            counts = first[ops + 1] - first[ops]
            parents = np.repeat(np.arange(len(codes)), counts)
            ops = first[ops][parents] + np.arange(len(parents)) - (np.cumsum(counts) - counts)[parents]
            codes, roots = codes[parents], roots[parents]
            codes[:, s.column] = s.codes[ops]
        moves.append((s, ops, parents))
        if cap is not None and len(codes) > cap:
            raise SemanticsError(f"track count exceeds cap {cap}")
    return moves, codes, roots


def _rows(moves, a: int, b: int) -> list:
    """The moves restricted to rows a..b of the frontier they start from."""
    out = []
    for s, ops, parents in moves:
        if isinstance(ops, slice):
            out.append((s, ops, None))
            a, b = a * (ops.stop - ops.start), b * (ops.stop - ops.start)
        elif parents is None:
            out.append((s, ops[a:b], None))
        else:
            lo, hi = np.searchsorted(parents, [a, b]).tolist()
            out.append((s, ops[lo:hi], parents[lo:hi] - a))
            a, b = lo, hi
    return out


def _run(moves, t: np.ndarray):
    """The moves applied to a frontier t of (2^n, m) blocks: the leaves, in
    order, as stacks. A frontier whose next one would pass FRONTIER_BYTES is
    split in two, and the halves are walked in turn, so that the walk holds
    little beyond the leaves that its caller keeps."""
    for i, (s, ops, parents) in enumerate(moves):
        size = len(t) * (ops.stop - ops.start) if isinstance(ops, slice) else len(ops)
        if len(t) > 1 and size * t[0].nbytes > FRONTIER_BYTES:
            yield from _run(_rows(moves[i:], 0, len(t) // 2), t[: len(t) // 2])
            yield from _run(_rows(moves[i:], len(t) // 2, len(t)), t[len(t) // 2 :])
            return
        if not s.finite:
            raise linalg.LinalgError("matrix has non-finite entries")
        a = s.ops[ops] if isinstance(ops, slice) else s.ops[ops][:, None]  # each block by each, or block i by ops[i]
        t = linalg.apply(a, s.axes, t if parents is None else t[parents])
    yield t


def _walk_plan(c: QuantumCircuit, bouts, t0: np.ndarray, held: Optional[Mapping[str, str]] = None):
    """The frontier walk over the gates of `bouts` (`_expand`), each bout in
    `in_bout_order`: its moves, its leaves' codes, counted (at most
    DEFAULT_TRACK_CAP) before any operator is applied, and the checked t0 as
    a frontier of one for `_run`; with `held`, the one leaf of that assignment."""
    plan = _plan(c)
    order = itertools.chain.from_iterable(in_bout_order(c, bouts))
    moves, codes, _ = _expand(plan, order, plan.codes_of(held or {}), DEFAULT_TRACK_CAP, held)
    t = np.asarray(t0, dtype=complex)
    if t.ndim != 2 or t.shape[0] != 2**c.n_registers:
        raise linalg.LinalgError(f"expected {2**c.n_registers} rows, got shape {t.shape}")
    return moves, codes, t[None]


def _track_leaf(
    c: QuantumCircuit, bouts: Iterable[Iterable[str]], t: np.ndarray,
    assignment: Mapping[str, str],
) -> np.ndarray:
    """A @ t over `bouts` along a track that labels each measurement reached."""
    moves, _, t = _walk_plan(c, bouts, t, held=assignment)
    return next(_run(moves, t))[0]


def bout_operator(
    c: QuantumCircuit, b: Iterable[str], assignment: Mapping[str, str]
) -> np.ndarray:
    """Full-space operator of a bout under the given outcome assignment: the
    product of each gate's selected operator acting on its registers."""
    return _track_leaf(c, [b], np.eye(2**c.n_registers, dtype=complex), assignment)


def track_rows(c: QuantumCircuit, t0: np.ndarray):
    """The walk's leaves from t0 as row groups: pieces (w, group, tracks) in
    which track k, tracks[k] = (key, f), holds A_f @ t0 = w with the rows r
    where group[r] != k zeroed; group is None when every track is all of w.
    Every circuit starts from one `_walk_plan` over greedy order, which
    counts the tracks (labels sorted, the cap checked) and checks t0 before
    any operator is applied; tracks come in its walk order.

    A circuit in terminal form (`QuantumCircuit._terminal`) is one piece:
    w = U @ t0, the plan's unitary moves run on t0 alone, and group[r] the
    track whose labels select row r (`_row_tracks`), so its tracks partition
    w's rows (the product of the label sets, incoherent tracks included).
    Any other circuit gives one piece per leaf of the walk (`_run`), in
    depth-first leaf order."""
    moves, codes, t = _walk_plan(c, greedy_schedule(c).bouts, t0)
    tracks = _plan(c).tracks(codes)
    if not c._terminal:
        leaves = itertools.chain.from_iterable(_run(moves, t))
        yield from ((leaf, None, [track]) for leaf, track in zip(leaves, tracks))
        return
    w = next(_run([move for move in moves if move[0].column < 0], t))[0]
    yield w, _row_tracks(c, moves, len(w)) if len(tracks) > 1 else None, tracks


def _row_tracks(c: QuantumCircuit, moves: list, rows: int) -> np.ndarray:
    """Per basis row, the walk-order position of the track whose labels
    select it: for each measurement move in walk order, the position in its
    measurement's `outcomes` of the label that `Measurement.selects` gives
    the row's basis index over the gate's registers."""
    everyone, index = range(c.n_registers), np.arange(rows)
    group = np.zeros(rows, dtype=np.intp)
    for g in (s.gate for s, _, _ in moves if s.column >= 0):
        m = g.measurements[g.selector[()]]
        group = group * len(m.outcomes) + m.selects[linalg.reindex(index, everyone, g.registers)]
    return group


def walk_tracks(c: QuantumCircuit, t0: np.ndarray):
    """(key, f, A_f @ t0) for every coherent track f in `track_rows` order,
    each a full block: a terminal-form track is its rows of U @ t0 and zeros."""
    for w, group, tracks in track_rows(c, t0):
        blocks = [w] * len(tracks) if group is None else np.zeros((len(tracks), *w.shape), dtype=complex)
        if group is not None:
            blocks[group, np.arange(len(w))] = w  # row r into the block of track group[r]
        yield from ((key, f, t) for (key, f), t in zip(tracks, blocks))


def track_operators(c: QuantumCircuit, t0: np.ndarray) -> list[tuple[Track, np.ndarray]]:
    """(f, A_f @ t0) for every coherent track f: `walk_tracks` in (gate id, label) order, by key."""
    return [(f, t) for _, f, t in sorted(walk_tracks(c, t0), key=lambda leaf: leaf[0])]


def enumerate_tracks(c: QuantumCircuit) -> list[Track]:
    """All coherent tracks in (gate id, label) order: the walk's outcome
    codes from a block of no columns, to which no operator is applied."""
    codes = _walk_plan(c, greedy_schedule(c).bouts, np.zeros((2**c.n_registers, 0)))[1]
    return [f for _, f in sorted(_plan(c).tracks(codes))]


def cumulative_operator(c: QuantumCircuit, x: Schedule, f: Track) -> np.ndarray:
    _require_fit(c, x)
    return _track_leaf(c, x.bouts, np.eye(2**c.n_registers, dtype=complex), f.as_dict())


def aggregate_measurement(c: QuantumCircuit) -> AggregateMeasurement:
    ops = dict(track_operators(c, np.eye(2**c.n_registers, dtype=complex)))
    return AggregateMeasurement(c.n_registers, ops)


def schedules_equivalent(
    c: QuantumCircuit, x: Schedule, y: Schedule, tol: float = linalg.DEFAULT_TOL
) -> bool:
    """Whether every track's cumulative operator under x is within tol of its
    operator under y (each bit-identical to `cumulative_operator`'s),
    matched by outcome codes. An invalid schedule raises ScheduleError."""
    _require_fit(c, x, y)
    eye = np.eye(2**c.n_registers, dtype=complex)
    moves, codes, t = _walk_plan(c, x.bouts, eye)
    ops = list(itertools.chain.from_iterable(_run(moves, t)))
    at = {row: i for i, row in enumerate(map(tuple, codes.tolist()))}
    moves, codes, t = _walk_plan(c, y.bouts, eye)
    ops_y = itertools.chain.from_iterable(_run(moves, t))
    return all(linalg.mat_close(ops[at[tuple(row)]], b, tol) for row, b in zip(codes.tolist(), ops_y))


def track_probability(c: QuantumCircuit, f: Track, rho: linalg.DensityOperator) -> float:
    return probability_on(cumulative_operator(c, greedy_schedule(c), f), rho)


def check_state(rho: linalg.DensityOperator, n: int) -> None:
    """SemanticsError unless rho is a state of the circuit's n registers."""
    if rho.n_qubits != n:
        raise SemanticsError(f"state has {rho.n_qubits} qubits, circuit has {n} registers")


def probability_on(op: np.ndarray, rho: linalg.DensityOperator) -> float:
    """tr(A rho A^dag) / tr(rho) for a track's cumulative operator A, clamped
    to [0, 1]: ||A K||_F^2 / ||K||_F^2 on rho's factor K, first scaled by a
    power of two (`linalg.rescale`), so that p does not depend on rho's scale."""
    check_state(rho, op.shape[0].bit_length() - 1)
    k, _ = linalg.rescale(rho.factor.copy())
    p = linalg.squared_norm(op @ k) / linalg.squared_norm(k)
    return float(min(max(p, 0.0), 1.0))


def replay(
    c: QuantumCircuit, x: Schedule, f: Track, rho: linalg.DensityOperator
) -> tuple[list[float], np.ndarray]:
    """Deterministically walk a schedule along a fixed track, returning the
    stepwise conditional probabilities and the un-normalized final state;
    SemanticsError when the track's probability is 0 before its last bout.
    rho = K K^dag is walked as 2^-e K (`linalg.rescale`), as in `sample`."""
    _require_fit(c, x)
    assignment = f.as_dict()
    k, e = linalg.rescale(rho.factor.copy())
    probs: list[float] = []
    for t, bout in enumerate(x.bouts):
        before = linalg.squared_norm(k)
        if before == 0.0:
            raise SemanticsError(f"zero-probability track before bout {t}")
        k = _track_leaf(c, [bout], k, assignment)
        probs.append(linalg.squared_norm(k) / before)
    k, _ = linalg.rescale(k, -e)
    return probs, k @ k.conj().T


def _seed(s) -> int:
    """`s` as a Python int; TypeError for a non-integer or a bool."""
    if isinstance(s, (bool, np.bool_)):
        raise TypeError("a seed must be an integer, not a bool")
    return operator.index(s)


def splitmix64(seeds, count: int) -> np.ndarray:
    """Z[i, t]: output t + 1 of SplitMix64 (Steele, Lea & Flood 2014) from state
    seeds[i], for all seeds and t < count in uint64 arithmetic (which wraps
    modulo 2**64). Seeds are integers in [0, 2**64): TypeError for another
    type, a bool included, ValueError outside. Every seeded draw comes from here."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype.kind == "u"):
        seeds = [_seed(s) for s in seeds]
        if not all(0 <= s < 2**64 for s in seeds):
            raise ValueError("seeds must be integers in [0, 2**64)")
    x = np.array(seeds, dtype=np.uint64)[:, None]
    x = x + np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    z = (x ^ x >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return z ^ z >> 31


def _uniforms(seeds, count: int) -> np.ndarray:
    """U[i, t] = (Z[i, t] >> 11) * 2**-53 of `splitmix64`, a double in [0, 1)."""
    return (splitmix64(seeds, count) >> 11) * 2.0**-53


def sample(
    c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seeds: Iterable[int]
) -> list[RunResult]:
    """One shot per seed: fire the schedule's bouts in order, sampling
    measurement outcomes with their conditional probabilities. Bout t of the
    shot with seed s draws u (`_uniforms`) and picks the first outcome
    combination of positive weight whose running weight sum reaches
    u * total (so a draw u = 0 skips leading combinations of weight 0); a
    path whose trace falls to 1e-300 times the input's raises SemanticsError.
    A live node holds the shots that took the same combinations so far; a
    bout's live nodes are expanded as one frontier (`_settle`), so each shot
    comes out as it would alone. rho = K K^dag is walked as 2^-e K
    (`linalg.rescale`): a path with cumulative operator A holds A K, weighed
    by ||A K||_F^2, and ends as a factored state times 2^e. Memory: the live
    nodes (one per returned state at most), and the children of FRONTIER_BYTES of them at a time."""
    check_state(rho, c.n_registers)
    _require_fit(c, x)
    plan = _plan(c)
    bouts = list(map(tuple, in_bout_order(c, x.bouts)))
    u = _uniforms(seeds, len(bouts))
    results: list = [None] * len(u)
    k0, e = linalg.rescale(rho.factor.copy())  # so that no pick or weight depends on rho's scale
    floor = 1e-300 * linalg.squared_norm(k0)
    size = max(1, FRONTIER_BYTES // k0.nbytes)  # nodes expanded at a time
    # blocks of live nodes: (outcome codes, A K, step logs, shot indices), one row or item per node
    live = [(plan.codes_of({}), k0[None], [()], [np.arange(len(u))])] if len(u) else []
    for t, bout in enumerate(bouts):
        blocks, live = collections.deque(live), []
        while blocks:  # a block is dropped once its nodes are settled
            block = blocks.popleft()
            live += [_settle(plan, bout, t, [part[a : a + size] for part in block], u, floor)
                     for a in range(0, len(block[0]), size)]
    for codes, states, logs, shots in live:
        states, _ = linalg.rescale(states, -e)
        for (_, track), k, log, mine in zip(plan.tracks(codes), states, logs, shots):
            if linalg.squared_norm(k) <= math.ldexp(floor, 2 * e):  # the floor at rho's scale, 0 where that underflows
                raise SemanticsError("final state has zero trace")
            result = RunResult(track, linalg.DensityOperator(c.n_registers, factor=k), log)
            for i in mine.tolist():
                results[i] = result
    return results


def _settle(plan: _Plan, bout: tuple[str, ...], t: int, block: list, u: np.ndarray, floor: float) -> tuple:
    """The block of live nodes after bout t: the children of the given ones
    that their shots pick, in order, each weighed by `linalg.squared_norm`."""
    codes, states, logs, shots = block
    befores = [linalg.squared_norm(k) for k in states]
    if min(befores) <= floor:
        raise SemanticsError(f"zero-trace state before bout {t}")
    moves, codes, roots = _expand(plan, bout, codes)
    kids = list(_run(moves, states))
    kids = kids[0] if len(kids) == 1 else np.concatenate(kids)
    combos = plan.labels_of(codes, [plan.column[gid] for gid in bout if gid in plan.column])
    bounds = np.searchsorted(roots, np.arange(len(befores) + 1)).tolist()
    rows, picked = [], []
    for p, (log, mine) in enumerate(zip(logs, shots)):
        weights = [linalg.squared_norm(k) / befores[p] for k in kids[bounds[p] : bounds[p + 1]]]
        total = sum(weights)
        if total <= 0.0:
            raise SemanticsError(f"all outcomes of bout {t} have zero probability")
        if len(weights) == 1:  # a lone child of positive weight takes every draw
            rows.append(bounds[p])
            picked.append((log + ((bout, combos[bounds[p]], weights[0]),), mine))
            continue
        picks = np.searchsorted(list(itertools.accumulate(weights)), u[mine, t] * total, side="left")
        picks = np.minimum(picks, len(weights) - 1)
        if weights[0] == 0.0:  # u = 0 picks leaf 0 and only u = 0 picks a leaf of weight 0
            picks = np.maximum(picks, next(i for i, w in enumerate(weights) if w > 0.0))
        for j in np.flatnonzero(np.bincount(picks)).tolist():
            rows.append(bounds[p] + j)
            picked.append((log + ((bout, combos[bounds[p] + j], weights[j]),), mine[picks == j]))
    if len(rows) < len(kids):  # drop the children no shot picked
        codes, kids = codes[rows], kids[rows]
    return codes, kids, [log for log, _ in picked], [mine for _, mine in picked]


def run(
    c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seed: int
) -> RunResult:
    """One shot of `sample`."""
    return sample(c, x, rho, [seed])[0]
