"""Denotational and operational semantics: tracks, cumulative operators, the
aggregate measurement, schedule equivalence, and a seeded stochastic executor.
Post-measurement states are kept un-normalized; normalization happens only
when sampling or reporting.

Every walk, each bout of a sampled block included, is one breadth-first
frontier walk over the `_Plan` compiled once for a valid circuit (else
CircuitError): a stack of states, each named by its row of integer outcome
codes, and each gate's selected operators applied once to all the states that
select them (`linalg.apply`); each bout is walked in
`scheduling.in_bout_order`, and the tracks are counted on the codes before any
operator is applied; `sample` and `tally` settle blocks of shots depth first,
bout by bout, on full blocks (`_leaves`). A code row is a track's one
identity, and a `Track` is built only for a public return value or a report. Outside this module the
walk is read through `track_rows`, its pieces as they come, and `track_stack`,
every track's block in (gate id, label) order; the faithfulness checker pairs
tracks by their code rows. A standard measurement that ends its registers
settles them (the deferred-measurement principle read backwards): a track's
block is 0 off the rows that its label selects, and every other walk keeps
only those (`_walk_plan`), in every circuit, terminal form included.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from . import linalg
from .circuit import Gate, QuantumCircuit, check_valid, standard_bases
from .scheduling import Schedule, ScheduleError, greedy_bouts, greedy_schedule, in_bout_order, validate_schedule

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
    """A gate compiled for the frontier walk (`_Plan`). A pick is the position
    of one of its unitaries or measurements, 0 without classical sources."""

    gate: Gate
    column: int  # of outcome codes; -1 for a unitary gate
    ops: np.ndarray  # unitary j is ops[j]; measurement j's, labels sorted, are ops[first[j] : first[j + 1]]
    first: tuple
    codes: np.ndarray  # per measurement operator, its label's code
    sources: tuple = ()  # columns of the classical sources
    selector: tuple = ()  # (place values, table): mixed-radix code of their labels -> pick


class _Plan:
    """A valid circuit compiled once for the frontier walk: a `_Step` per
    gate; per measurement gate, in gate-id order, a column of outcome codes
    (a label's code is its position in the gate's sorted `outcome_labels`,
    -1: none, so that code rows sort as their tracks do) and its (gate id,
    label) pairs, shared by the Tracks that hold them; then a last column of
    -1, so that no row is empty."""

    def __init__(self, c: QuantumCircuit):
        measures = sorted((g for g in c.gates if g.measurements), key=operator.attrgetter("id"))
        self.column = {g.id: j for j, g in enumerate(measures)}
        self.labels = [np.array(g.outcome_labels, dtype=object) for g in measures]
        self.index = [dict(zip(g.outcome_labels, itertools.count())) for g in measures]
        self.pairs = [np.fromiter(zip(itertools.repeat(g.id), g.outcome_labels), object, len(g.outcome_labels))
                      for g in measures]
        self.steps = {g.id: self._compile(g) for g in c.gates}

    def _compile(self, g: Gate) -> _Step:
        choices, column = g.measurements or g.unitaries, self.column.get(g.id, -1)
        if column < 0:
            ops, first, codes = [u.matrix for u in choices.values()], (), None
        else:
            ops = [m.operators[label] for m in choices.values() for label in m.outcomes]
            first = (0, *itertools.accumulate([len(m.outcomes) for m in choices.values()]))
            codes = np.array([self.index[column][label] for m in choices.values() for label in m.outcomes])
        step = (g, column, np.array(ops, complex), first, codes)  # of the shape that validation checked
        if not g.classical_sources:
            return _Step(*step)
        sources = tuple(map(self.column.__getitem__, g.classical_sources))
        index = [self.index[j] for j in sources]
        places = [math.prod(map(len, index[i + 1 :])) for i in range(len(index))]
        table = [0] * math.prod(map(len, index))  # every entry written: the selector is total
        for key, target in g.selector.items():
            table[sum(map(operator.mul, map(dict.__getitem__, index, key), places))] = list(choices).index(target)
        return _Step(*step, sources, (np.array(places), np.array(table)))

    @cached_property
    def keeps(self) -> dict:
        """Per settled measurement (the last gate on each of its registers,
        each measurement it can pick standard: `standard_bases`), per
        label code, the basis state of its registers that the label keeps."""
        last = {r: gid for gid, s in self.steps.items() for r in s.gate.registers}
        ends = [s.gate for gid, s in self.steps.items() if s.column >= 0 and all(last[r] == gid for r in s.gate.registers)]
        bases = standard_bases(m for g in ends for m in g.measurements.values())
        ends = {g.id: [bases[m] for m in g.measurements.values()] for g in ends}  # one measurement's codes: 0, 1, ...
        return {gid: b[0] if len(b) == 1 else np.concatenate(b)[np.argsort(self.steps[gid].codes)]
                for gid, b in ends.items() if all(x is not None for x in b)}

    def codes_of(self, assignment: Mapping[str, str]) -> np.ndarray:
        """A row of codes of the assignment's labels, -2 for a label that its gate lacks, then the last -1."""
        row = np.full((1, len(self.labels) + 1), -1, dtype=np.intp)
        for gid, label in assignment.items():
            if gid in self.column:
                row[0, self.column[gid]] = self.index[self.column[gid]].get(label, -2)
        return row

    def labels_of(self, codes: np.ndarray, columns) -> list[tuple]:
        return list(zip(*(self.labels[j][codes[:, j]].tolist() for j in columns))) if columns else [()] * len(codes)

    def tracks(self, codes: np.ndarray) -> list[Track]:
        """The track of each row of codes that labels every measurement."""
        pairs = zip(*(table[codes[:, j]].tolist() for j, table in enumerate(self.pairs)))
        return list(map(Track, pairs)) if self.pairs else [Track(())] * len(codes)


def _row_keys(*codes: np.ndarray) -> list[np.ndarray]:
    """Each code row of each array as one scalar, the big-endian bytes of its
    codes + 1 in the narrowest unsigned type that holds every code + 1 of the
    call. Keys of one call are equal as the rows are and sort as their
    tracks do: no code is below -1, so each is a nonnegative number whose
    bytes sort as it does."""
    t = np.min_scalar_type(max(int(x.max(initial=-1)) for x in codes) + 1).newbyteorder(">")
    return [np.add(x, 1, out=np.empty(x.shape, t), casting="unsafe").view(f"V{t.itemsize * x.shape[1]}")[:, 0] for x in codes]


def _plan(c: QuantumCircuit) -> _Plan:
    """The plan of a circuit that `check_valid` passes (else its
    CircuitError), kept on the instance like its cached structure."""
    if "_plan" not in vars(c):
        vars(c)["_plan"] = _Plan(check_valid(c))
    return vars(c)["_plan"]


def _pick(plan: _Plan, s: _Step, codes: np.ndarray, held: Optional[Mapping[str, str]]):
    """Per frontier row, the selector's pick; an int if all rows agree. A source's code is -1 if
    neither the walk nor `held` labels it, -2 if `held` gives it a label that it lacks."""
    if not s.sources:
        return 0
    g, src = s.gate, codes[:, s.sources]
    if src.min() < 0:
        row = src[(src < 0).any(axis=1).argmax()].tolist()
        if -1 in row:
            raise SemanticsError(f"gate {g.id!r}: no outcome recorded for classical source {g.classical_sources[row.index(-1)]!r}")
        labels = tuple(plan.labels[j][k] if k >= 0 else held[gid] for gid, j, k in zip(g.classical_sources, s.sources, row))
        raise SemanticsError(f"gate {g.id!r}: selector has no entry for {labels}")
    pick = s.selector[1][src @ s.selector[0]]
    return int(pick[0]) if (pick == pick[0]).all() else pick


def _expand(plan: _Plan, order, codes: np.ndarray, cap: Optional[int] = None,
            held: Optional[Mapping[str, str]] = None):
    """The frontier walk over the gates `order` on outcome codes alone, from
    a row per row of `codes`: (moves, codes, roots), the last two the
    leaves'. A measurement replaces each row by a child per label of the
    measurement picked, in depth-first leaf order; with the `held`
    assignment, which must label each measurement reached, its label. A move
    (step, ops, parents) makes the next frontier: each row takes each
    operator of the slice `ops`, or row i is operator ops[i] on row
    parents[i] (on row i if parents is None), on its registers, keeping no
    rows (`_run`). Raises SemanticsError as soon as the frontier exceeds `cap`."""
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
            f, codes, roots = len(codes), codes.repeat(width, axis=0), roots.repeat(width)
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
        moves.append((s, ops, parents, s.gate.registers, None))
        if cap is not None and len(codes) > cap:
            raise SemanticsError(f"track count exceeds cap {cap}")
    return moves, codes, roots


def _rows(moves, a: int, b: int) -> list:
    """The moves restricted to rows a..b of the frontier they start from."""
    out = []
    for s, ops, parents, *rest in moves:
        if isinstance(ops, slice):
            out.append((s, ops, None, *rest))
            a, b = a * (ops.stop - ops.start), b * (ops.stop - ops.start)
        elif parents is None:
            out.append((s, ops[a:b], None, *rest))
        else:
            lo, hi = np.searchsorted(parents, [a, b]).tolist()
            out.append((s, ops[lo:hi], parents[lo:hi] - a, *rest))
            a, b = lo, hi
    return out


def _run(moves, t: np.ndarray):
    """The moves (step, ops, parents, positions, keep) on the live registers
    at `positions` of a frontier t of (2^L, m) blocks, a settled one keeping
    rows (`_cut`): the leaves, in order, as stacks. A frontier whose next one
    would pass FRONTIER_BYTES is split in two, and the halves are walked in
    turn, so that the walk holds little beyond the leaves its caller keeps."""
    for i, (s, ops, parents, pos, keep) in enumerate(moves):
        size = len(t) * (ops.stop - ops.start) if isinstance(ops, slice) else len(ops)
        if len(t) > 1 and size * t[0].nbytes >> (0 if keep is None else len(pos)) > FRONTIER_BYTES:
            half, parts = len(t) // 2, [t[: len(t) // 2], t[len(t) // 2 :].copy()]
            del t  # so that no frame holds the frontier once the first half moves on
            yield from _run(_rows(moves[i:], 0, half), parts.pop(0))
            yield from _run(_rows(moves[i:], half, half + len(parts[0])), parts.pop())
            return
        if keep is not None:
            t = _cut(t, pos, keep[s.codes[ops]], parents)
            continue
        a = s.ops[ops] if isinstance(ops, slice) else s.ops[ops][:, None]  # each block by each, or block i by ops[i]
        t = linalg.apply(a, linalg._axes(pos, t.shape[1].bit_length() - 1), t if parents is None else t[parents])
    yield t


def _cut(t: np.ndarray, pos: tuple, keep: np.ndarray, parents) -> np.ndarray:
    """A settled move: child i is the rows of its parent (parents[i], or each
    block by each of `keep`) in which the registers at `pos` hold basis state
    keep[i], without their axes, -0.0 written +0.0 as a product writes it."""
    f, rows, m = t.shape
    x = t.reshape(f, *(2,) * (rows.bit_length() - 1), m)
    index = [np.arange(f)[:, None] if parents is None else parents] + [slice(None)] * (x.ndim - 1)
    for j, p in enumerate(pos):
        index[p + 1] = keep >> (len(pos) - 1 - j) & 1
    return (x[tuple(index)] + 0.0).reshape(f * len(keep) if parents is None else len(parents), rows >> len(pos), m)


def _walk_plan(c: QuantumCircuit, bouts, t0: Optional[np.ndarray], held: Optional[Mapping[str, str]] = None):
    """The frontier walk (`_expand`) over the gates of `bouts` (greedy if
    None), each bout in `in_bout_order`: its moves, its leaves' codes,
    counted (at most DEFAULT_TRACK_CAP) before any operator is applied, the
    checked t0 (I, built once they are counted, if None) as a frontier of
    one for `_run`, and the leaves' placement (offsets, rowmap, 2^n); with
    `held`, the one leaf of that assignment. From a t0 of 4k columns, a
    settled measurement (`_Plan.keeps`) keeps rows: every product then has
    4k' columns, whose bits `np.matmul` writes as in the dense walk's (not
    so below 4). Register chains keep their order, so rows share live sets."""
    plan, n = _plan(c), c.n_registers
    order = itertools.chain.from_iterable(greedy_bouts(c) if bouts is None else in_bout_order(c, bouts))
    moves, codes, _ = _expand(plan, order, plan.codes_of(held or {}), DEFAULT_TRACK_CAP, held)
    t = np.eye(*linalg.fits(2**n, 2**n), dtype=complex) if t0 is None else np.asarray(t0, dtype=complex)
    if t.ndim != 2 or t.shape[0] != 2**n:
        raise linalg.LinalgError(f"expected {2**n} rows, got shape {t.shape}")
    live, fixed, bits = list(range(n)), [], np.zeros(len(codes), dtype=np.intp)  # bits: of the settled registers
    for i, (s, ops, parents, regs, _) in enumerate(moves if t.shape[1] % 4 == 0 else ()):
        moves[i] = (s, ops, parents, tuple(map(live.index, regs)), keep := plan.keeps.get(s.gate.id))
        if keep is not None:
            bits = bits << len(regs) | keep[codes[:, s.column]]
            live, fixed = [r for r in live if r not in regs], fixed + list(regs)
    at = linalg.reindex(np.concatenate([bits, np.arange(2 ** len(live)) << len(fixed)]), live + fixed, range(n))
    return moves, codes, t[None], (at[: len(codes)], at[len(codes) :], 2**n)  # offsets, then rowmap


def _track_leaf(c: QuantumCircuit, bouts: Iterable[Iterable[str]], t: Optional[np.ndarray],
                assignment: Mapping[str, str]) -> np.ndarray:
    """A @ t (A if t is None) over `bouts` along a track that labels each measurement reached."""
    moves, _, t, place = _walk_plan(c, bouts, t, held=assignment)
    return _full(place, next(_run(moves, t)), [0])[0]


def bout_operator(c: QuantumCircuit, b: Iterable[str], assignment: Mapping[str, str]) -> np.ndarray:
    """Full-space operator of a bout under the given outcome assignment: the
    product of each gate's selected operator acting on its registers."""
    return _track_leaf(c, [b], None, assignment)


def track_rows(c: QuantumCircuit, t0: Optional[np.ndarray] = None, bouts=None):
    """The walk from t0 (I when None) over `bouts` (greedy when None) as
    (codes, place, pieces): codes holds the code row of each track, in (gate
    id, label) order (`_row_keys`); `pieces` yields (w, keys), each stack
    of leaves as the walk (`_run`) makes it, w[i] the compact block of track
    keys[i], without the rows that its settled measurements leave 0: by
    place = (offsets, rowmap, 2^n), its A_f @ t0 is w[i] at rows
    offsets[keys[i]] + rowmap, 0 elsewhere (`_full`)."""
    moves, codes, t, (offsets, rows, n) = _walk_plan(c, bouts, t0)
    order = _row_keys(codes)[0].argsort()
    return codes[order], (offsets[order], rows, n), _pieces(_run(moves, t), order.argsort())  # keys: in walk order


def _pieces(leaves, keys: np.ndarray):
    """`track_rows`' pieces: each stack of `leaves`, with its tracks' keys."""
    for w in leaves:
        yield w, keys[: len(w)]
        keys = keys[len(w) :]


def _stack(c: QuantumCircuit, t0: Optional[np.ndarray] = None, bouts=None) -> tuple:
    """(codes, place, a): `track_rows`' codes and placement, and a[k] the compact block of track k."""
    codes, place, pieces = track_rows(c, t0, bouts)
    a = np.empty((len(codes), len(place[1]), 2**c.n_registers if t0 is None else np.shape(t0)[1]), dtype=complex)
    for w, keys in pieces:
        a[keys] = w
    return codes, place, a


def _full(place: tuple, w: np.ndarray, keys) -> np.ndarray:
    """Full blocks of tracks `keys` from compact ones w (`track_rows`), +0.0 off their rows."""
    offsets, rows, n = place
    a = np.zeros((len(w), n, w.shape[2]), dtype=complex)
    a[np.arange(len(w))[:, None], offsets[keys][:, None] + rows] = w
    return a


def track_stack(c: QuantumCircuit, t0: Optional[np.ndarray] = None, bouts=None) -> tuple[np.ndarray, np.ndarray]:
    """(codes, a): `track_rows`' code rows, and a[k] = A_f @ t0 (A_f when t0
    is None) for the track f of row k, each a full block."""
    codes, place, a = _stack(c, t0, bouts)
    return codes, _full(place, a, np.arange(len(a)))


def track_operators(c: QuantumCircuit, t0: Optional[np.ndarray]) -> list[tuple[Track, np.ndarray]]:
    """(f, A_f @ t0) for every coherent track f in (gate id, label) order: `track_stack`."""
    codes, a = track_stack(c, t0)
    return list(zip(_plan(c).tracks(codes), a))


def enumerate_tracks(c: QuantumCircuit) -> list[Track]:
    """All coherent tracks in (gate id, label) order: `track_rows`' codes
    from a block of no columns, to which no operator is applied."""
    return _plan(c).tracks(track_rows(c, np.zeros((2**c.n_registers, 0)))[0])


def cumulative_operator(c: QuantumCircuit, x: Schedule, f: Track) -> np.ndarray:
    _require_fit(c, x)
    return _track_leaf(c, x.bouts, None, f.as_dict())


def aggregate_measurement(c: QuantumCircuit) -> AggregateMeasurement:
    return AggregateMeasurement(c.n_registers, dict(track_operators(c, None)))


def schedules_equivalent(c: QuantumCircuit, x: Schedule, y: Schedule, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Whether every track's cumulative operator under x is within tol of its
    operator under y, entry by entry: x's compact blocks (`_stack`) against
    y's `track_rows` pieces as they come. Every schedule settles the same
    measurements, so a track's compact block has the same rows under each,
    and is 0 off them. An invalid schedule raises ScheduleError."""
    _require_fit(c, x, y)
    a = _stack(c, None, x.bouts)[2]
    return all(np.abs(a[keys] - w).max() <= tol for w, keys in track_rows(c, None, y.bouts)[2])


def track_probability(c: QuantumCircuit, f: Track, rho: linalg.DensityOperator) -> float:
    return probability_on(cumulative_operator(c, greedy_schedule(c), f), rho)


def check_state(rho: linalg.DensityOperator, n: int) -> None:
    """SemanticsError unless rho is a state of the circuit's n registers."""
    if rho.n_qubits != n:
        raise SemanticsError(f"state has {rho.n_qubits} qubits, circuit has {n} registers")


def probability_on(op: np.ndarray, rho: linalg.DensityOperator) -> float:
    """tr(A rho A^dag) / tr(rho) for a track's cumulative operator A, clamped
    to [0, 1]: ||A K||_F^2 / ||K||_F^2 on rho's factor K, first scaled by a
    power of two (`rho.scaled`), so that p does not depend on rho's scale."""
    check_state(rho, op.shape[0].bit_length() - 1)
    k, _ = rho.scaled
    p = linalg.squared_norm(op @ k) / linalg.squared_norm(k)
    return float(min(max(p, 0.0), 1.0))


def replay(c: QuantumCircuit, x: Schedule, f: Track, rho: linalg.DensityOperator) -> tuple[list[float], np.ndarray]:
    """Deterministically walk a schedule along a fixed track, returning the
    stepwise conditional probabilities and the un-normalized final state;
    SemanticsError when the track's probability is 0 before its last bout.
    rho = K K^dag is walked as 2^-e K (`rho.scaled`), as in `sample`."""
    _require_fit(c, x)
    assignment = f.as_dict()
    k, e = rho.scaled
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
    seeds[i], for all seeds and t < count, mixed in place in uint64 (modulo 2**64).
    Seeds are integers in [0, 2**64): TypeError for another type, a bool
    included, ValueError outside. MemoryError past `linalg.fits`. Every
    seeded draw comes from here."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype.kind == "u"):
        seeds = [_seed(s) for s in seeds]
        if not all(0 <= s < 2**64 for s in seeds):
            raise ValueError("seeds must be integers in [0, 2**64)")
    linalg.fits(len(seeds), count)
    z = np.array(seeds, dtype=np.uint64)[:, None] + np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    scratch = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= factor
    z ^= np.right_shift(z, 31, out=scratch)
    return z


def _uniforms(seeds, count: int) -> np.ndarray:
    """U[i, t] = (Z[i, t] >> 11) * 2**-53 of `splitmix64`, a double in [0, 1)."""
    z = splitmix64(seeds, count)
    return np.multiply(np.right_shift(z, 11, out=z), 2.0**-53)


def _leaves(c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seeds: Iterable[int], logs: bool):
    """The loop of `sample` and `tally`: a stack of (bout index, block of
    live nodes), each block's first FRONTIER_BYTES of nodes settled (`_settle`)
    and their children pushed above the rest. Yields each leaf block, once its
    states pass the zero-trace check, as (tracks, states, shots[, step logs])."""
    check_state(rho, c.n_registers)
    _require_fit(c, x)
    plan = _plan(c)
    bouts = list(map(tuple, in_bout_order(c, x.bouts)))
    u = _uniforms(seeds, len(bouts))
    k0, e = rho.scaled  # so that no pick or weight depends on rho's scale
    floor = 1e-300 * linalg.squared_norm(k0)
    size = max(1, FRONTIER_BYTES // k0.nbytes)  # nodes settled at a time
    # a block: outcome codes, A K, shot indices and, if kept, step logs, one row or item per node
    stack = [(0, [plan.codes_of({}), k0[None], [np.arange(len(u))]] + ([[()]] if logs else []))] if len(u) else []
    while stack:
        t, block = stack.pop()
        if t < len(bouts):
            if len(block[0]) > size:
                stack.append((t, [part[size:] for part in block]))
            stack.append((t + 1, _settle(plan, bouts[t], t, [part[:size] for part in block], u, floor)))
            continue
        states, _ = linalg.rescale(block[1], -e)
        if min(map(linalg.squared_norm, states)) <= math.ldexp(floor, 2 * e):  # the floor at rho's scale, 0 where that underflows
            raise SemanticsError("final state has zero trace")
        yield plan.tracks(block[0]), states, *block[2:]


def sample(c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seeds: Iterable[int]) -> list[RunResult]:
    """One shot per seed: fire the schedule's bouts in order, sampling
    measurement outcomes with their conditional probabilities. Bout t of the
    shot with seed s draws u (`_uniforms`) and picks the first outcome
    combination of positive weight whose running weight sum reaches u * total
    (so a draw u = 0 skips leading combinations of weight 0); a path whose
    trace falls to 1e-300 times the input's raises SemanticsError, that of the
    first failing block met depth first. A live node holds the shots that took
    the same combinations so far; blocks of them are settled depth first, each
    bout as one frontier (`_leaves`), so each shot comes out as it would alone.
    rho = K K^dag is walked as 2^-e K (`rho.scaled`): a path with cumulative
    operator A holds A K, weighed by ||A K||_F^2, and ends as a factored state
    times 2^e. Memory: the returned states, the draws, and one root-to-leaf
    path of live blocks, each with its pending rest."""
    results: dict = {}
    for tracks, states, shots, logs in _leaves(c, x, rho, seeds, True):
        for track, k, mine, log in zip(tracks, states, shots, logs):
            results.update(dict.fromkeys(mine.tolist(), RunResult(track, linalg.DensityOperator(c.n_registers, factor=k), log)))
    return [results[i] for i in range(len(results))]


def tally(c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seeds: Iterable[int]) -> dict[Track, int]:
    """{track: count} of `sample`'s shots for each track that occurs, in (gate
    id, label) order: the same loop, draws, picks and errors, keeping no step
    log, label or final state, each leaf block counted and dropped as reached.
    A bout whose nodes have one child each takes no draw and is not weighed: it
    applies only complete one-operator families (validation holds them to
    1e-9) to nodes above the floor. Memory: the draws and `sample`'s path."""
    counts = [(track, len(mine)) for tracks, _, shots in _leaves(c, x, rho, seeds, False)
              for track, mine in zip(tracks, shots)]  # no two leaves share a track
    return dict(sorted(counts, key=lambda item: item[0].outcomes))


def _settle(plan: _Plan, bout: tuple[str, ...], t: int, block: list, u: np.ndarray, floor: float) -> list:
    """The block of live nodes after bout t: the children of the given ones
    that their shots pick, in order, each weighed by `linalg.squared_norm`, and
    their step logs if kept; without logs, one child per node is not weighed."""
    codes, states, shots, *logs = block
    befores = [linalg.squared_norm(k) for k in states]
    if min(befores) <= floor:
        raise SemanticsError(f"zero-trace state before bout {t}")
    moves, codes, roots = _expand(plan, bout, codes)
    kids = list(_run(moves, states))
    kids = kids[0] if len(kids) == 1 else np.concatenate(kids)
    if not logs and len(kids) == len(states):  # no draw is taken (see `tally`)
        return [codes, kids, shots]
    bounds = np.searchsorted(roots, np.arange(len(befores) + 1)).tolist()
    picked = []  # per child kept: its row, its shots, its parent and its weight
    for p, mine in enumerate(shots):
        weights = [linalg.squared_norm(k) / befores[p] for k in kids[bounds[p] : bounds[p + 1]]]
        total = sum(weights)
        if total <= 0.0:
            raise SemanticsError(f"all outcomes of bout {t} have zero probability")
        if len(weights) == 1:  # a lone child of positive weight takes every draw
            picked.append((bounds[p], mine, p, weights[0]))
            continue
        picks = np.searchsorted(list(itertools.accumulate(weights)), u[mine, t] * total, side="left")
        picks = np.minimum(picks, len(weights) - 1)
        if weights[0] == 0.0:  # u = 0 picks leaf 0 and only u = 0 picks a leaf of weight 0
            picks = np.maximum(picks, next(i for i, w in enumerate(weights) if w > 0.0))
        picked += [(bounds[p] + j, mine[picks == j], p, weights[j]) for j in np.flatnonzero(np.bincount(picks)).tolist()]
    rows, shots, parents, weights = map(list, zip(*picked))
    if len(rows) < len(kids):  # drop the children no shot picked
        codes, kids = codes[rows], kids[rows]
    if logs:
        combos = plan.labels_of(codes, [plan.column[gid] for gid in bout if gid in plan.column])
        logs = [[logs[0][p] + ((bout, combo, w),) for p, w, combo in zip(parents, weights, combos)]]
    return [codes, kids, shots, *logs]


def run(c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seed: int) -> RunResult:
    """One shot of `sample`."""
    return sample(c, x, rho, [seed])[0]
