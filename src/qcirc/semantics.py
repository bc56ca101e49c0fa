"""Denotational and operational semantics: tracks, cumulative operators, the
aggregate measurement, schedule equivalence, and a seeded stochastic executor.

Post-measurement states are kept un-normalized; normalization happens only
when sampling or reporting.

Track operators come from one of two walks (`track_rows`). The general walk
branches on each measurement's outcomes. A circuit in terminal form, whose
unitaries all precede its standard-basis measurements (every circuit
`defer` rewrites, and GHZ-style circuits), is by the deferred-measurement
principle one unitary U followed by a measurement in the standard basis:
U @ t0 is built once and each track is the rows its labels select.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from . import linalg
from .circuit import (
    CircuitError,
    Gate,
    Measurement,
    QuantumCircuit,
    UnitaryOp,
    topo_order,
)
from .scheduling import Bout, Schedule, ScheduleError, greedy_schedule, validate_schedule

TOL = linalg.DEFAULT_TOL
DEFAULT_TRACK_CAP = 2**16


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


def source_outcomes(g: Gate, assignment: Mapping[str, str]) -> tuple[str, ...]:
    try:
        return tuple(assignment[s] for s in g.classical_sources)
    except KeyError as e:
        raise SemanticsError(
            f"gate {g.id!r}: no outcome recorded for classical source {e.args[0]!r}"
        ) from None


def select_measurement(
    c: QuantumCircuit, gid: str, sources: tuple[str, ...]
) -> Union[Measurement, UnitaryOp]:
    """The measurement or unitary picked by the gate's selector for the given
    source outcomes."""
    g = c.gate(gid)
    if len(sources) != len(g.classical_sources):
        raise SemanticsError(
            f"gate {gid!r}: expected {len(g.classical_sources)} source outcomes, got {len(sources)}"
        )
    try:
        target = g.selector[tuple(sources)]
    except KeyError:
        raise SemanticsError(f"gate {gid!r}: selector has no entry for {sources}") from None
    if g.is_measure:
        return g.measurements[target]
    return g.unitaries[target]


def _order(c: QuantumCircuit, bouts: Iterable[Iterable[str]]) -> tuple[str, ...]:
    """The bouts' gate ids, bout by bout, in sequence order inside each bout."""
    return tuple(gid for b in bouts for gid in sorted(b, key=c.index_of))


def _require_fit(c: QuantumCircuit, *schedules: Schedule) -> None:
    if not all(validate_schedule(c, x) for x in schedules):
        raise ScheduleError("schedule does not fit the circuit")


def _walk(c: QuantumCircuit, order, t: np.ndarray, assignment: dict):
    """The leaves (assignment, A @ t) of the outcome tree over the gates `order`
    from t with outcomes `assignment`, depth first, each selected operator
    applied with `linalg.apply`. A measurement branches on its `outcomes`, or
    follows the one that `assignment` already holds. Pending siblings share
    their parent's state and apply their own operator when popped."""
    stack = [(0, t, assignment, None)]  # (next gate index, state, outcomes, operator not yet applied)
    while stack:
        start, t, assignment, pending = stack.pop()
        if pending is not None and t.size:
            t = linalg.apply(*pending, t, c.n_registers)
        for i in range(start, len(order)):
            g = c.gate(order[i])
            chosen = select_measurement(c, g.id, source_outcomes(g, assignment))
            if isinstance(chosen, UnitaryOp):
                t = linalg.apply(chosen.matrix, g.registers, t, c.n_registers) if t.size else t
                continue
            held = assignment.get(g.id)
            if held is not None and held not in chosen.operators:
                raise SemanticsError(
                    f"track is incoherent at gate {g.id!r}: outcome {held!r} not offered "
                    f"by the selected measurement"
                )
            for label in reversed(chosen.outcomes) if held is None else [held]:
                stack.append((i + 1, t, {**assignment, g.id: label}, (chosen.operators[label], g.registers)))
            break
        else:
            yield assignment, t


def _track_leaf(
    c: QuantumCircuit, bouts: Iterable[Iterable[str]], t: np.ndarray,
    assignment: Mapping[str, str],
) -> np.ndarray:
    """The one leaf of the walk over `bouts` from t along a track that labels
    every measurement it reaches; only the first leaf is built."""
    leaf, out = next(_walk(c, _order(c, bouts), t, assignment))
    unlabelled = [gid for gid in leaf if gid not in assignment]
    if unlabelled:
        raise SemanticsError(
            f"track is incoherent at gate {unlabelled[0]!r}: no outcome for a reached measurement"
        )
    return out


def bout_operator(
    c: QuantumCircuit, b: Iterable[str], assignment: Mapping[str, str]
) -> np.ndarray:
    """Full-space operator of a bout under the given outcome assignment: the
    product of each gate's selected operator acting on its registers."""
    return _track_leaf(c, [b], np.eye(2**c.n_registers, dtype=complex), assignment)


def _leaves(c: QuantumCircuit, order, t0: np.ndarray, cap: Optional[int]):
    """The `linalg.apply` walk's leaves (assignment, A @ t0) over `order`, as
    they come. Tracks are counted first, on an empty column slice of t0, so an
    over-cap circuit fails before any operator is built."""
    stop = None if cap is None else cap + 1
    if len(list(itertools.islice(_walk(c, order, t0[:, :0], {}), stop))) == stop:
        raise SemanticsError(f"track count exceeds cap {cap}")
    yield from _walk(c, order, t0, {})


def track_rows(c: QuantumCircuit, t0: np.ndarray, cap: Optional[int] = DEFAULT_TRACK_CAP):
    """The walk's leaves from t0 as row groups: pieces (w, group, tracks) in
    which track k, tracks[k] = (key, f), holds A_f @ t0 = w with the rows r
    where group[r] != k zeroed; group is None when every track is all of w.
    Tracks come in walk order (greedy order, labels sorted, the cap checked
    first); sorting by key gives `enumerate_tracks` order.

    A circuit in terminal form (`QuantumCircuit._terminal`) is one piece:
    w = U @ t0, with each unitary applied once in greedy order, and group[r]
    the track whose labels select row r, so its tracks partition w's rows
    (the product of the label sets, incoherent tracks included). Any other
    circuit gives one piece per leaf of the general walk, which shares
    `linalg.apply` calls along outcome prefixes and holds one path."""
    order = _order(c, greedy_schedule(c).bouts)
    measures = [gid for gid in topo_order(c) if c.gate(gid).is_measure]
    if not c._terminal:
        for a, t in _leaves(c, order, t0, cap):
            yield t, None, [(tuple(map(a.get, measures)), Track.from_mapping(a))]
        return
    walked = [(c.gate(gid), select_measurement(c, gid, ())) for gid in order]
    measured = [(g, m) for g, m in walked if isinstance(m, Measurement)]
    if cap is not None and math.prod(len(m.operators) for _, m in measured) > cap:
        raise SemanticsError(f"track count exceeds cap {cap}")
    w = np.asarray(t0, dtype=complex)
    if w.ndim != 2 or w.shape[0] != 2**c.n_registers:  # as `linalg.apply` says, with no unitary to apply
        raise linalg.LinalgError(f"expected {2**c.n_registers} rows, got shape {w.shape}")
    for g, u in walked:
        if isinstance(u, UnitaryOp) and w.size:
            w = linalg.apply(u.matrix, g.registers, w, c.n_registers)
    tracks = []
    for labels in itertools.product(*(m.outcomes for _, m in measured)):
        a = dict(zip((g.id for g, _ in measured), labels))
        tracks.append((tuple(map(a.get, measures)), Track.from_mapping(a)))
    yield w, _row_tracks(c, measured, w.shape[0]) if w.size and len(tracks) > 1 else None, tracks


def _row_tracks(c: QuantumCircuit, measured: list, rows: int) -> np.ndarray:
    """Per basis row, the walk-order position of the track whose labels
    select it: for each (gate, measurement) in walk order, the position in
    `outcomes` of the label that `Measurement.selects` gives the row's basis
    index over the gate's registers."""
    n, index = c.n_registers, np.arange(rows)
    group = np.zeros(rows, dtype=np.intp)
    for g, m in measured:
        local = sum((index >> (n - 1 - r) & 1) << (g.arity - 1 - k) for k, r in enumerate(g.registers))
        group = group * len(m.outcomes) + m.selects[local]
    return group


def walk_tracks(c: QuantumCircuit, t0: np.ndarray, cap: Optional[int] = DEFAULT_TRACK_CAP):
    """(key, f, A_f @ t0) for every coherent track f in `track_rows` order,
    each a full block: a terminal-form track is its rows of U @ t0 and zeros."""
    for w, group, tracks in track_rows(c, t0, cap):
        if group is None:
            yield from ((key, f, w) for key, f in tracks)
            continue
        order = np.argsort(group, kind="stable")  # track k's rows, ascending, are order[bounds[k] : bounds[k + 1]]
        bounds = np.searchsorted(group[order], np.arange(len(tracks) + 1))
        for k, (key, f) in enumerate(tracks):
            rows = order[bounds[k] : bounds[k + 1]]
            t = np.zeros(w.shape, dtype=complex)
            t[rows] = w[rows]
            yield key, f, t


def track_operators(
    c: QuantumCircuit, t0: np.ndarray, cap: Optional[int] = DEFAULT_TRACK_CAP
) -> list[tuple[Track, np.ndarray]]:
    """(f, A_f @ t0) for every coherent track f: `walk_tracks` in `enumerate_tracks` order."""
    return [(f, t) for _, f, t in sorted(walk_tracks(c, t0, cap), key=lambda leaf: leaf[0])]


def enumerate_tracks(c: QuantumCircuit, cap: Optional[int] = DEFAULT_TRACK_CAP) -> list[Track]:
    """All coherent tracks, depth first over topo_order(c), labels sorted."""
    return [f for f, _ in track_operators(c, np.zeros((2**c.n_registers, 0), dtype=complex), cap)]


def cumulative_operator(c: QuantumCircuit, x: Schedule, f: Track) -> np.ndarray:
    _require_fit(c, x)
    return _track_leaf(c, x.bouts, np.eye(2**c.n_registers, dtype=complex), f.as_dict())


def aggregate_measurement(
    c: QuantumCircuit, cap: Optional[int] = DEFAULT_TRACK_CAP
) -> AggregateMeasurement:
    ops = dict(track_operators(c, np.eye(2**c.n_registers, dtype=complex), cap))
    return AggregateMeasurement(c.n_registers, ops)


def schedules_equivalent(
    c: QuantumCircuit, x: Schedule, y: Schedule, tol: float = TOL
) -> bool:
    """Whether every track's cumulative operator under x is within tol of its
    operator under y. x's outcome tree is walked into its operators (each
    bit-identical to `cumulative_operator`'s), then y's leaves are compared
    against them as they come. An invalid schedule raises ScheduleError."""
    _require_fit(c, x, y)
    eye = np.eye(2**c.n_registers, dtype=complex)
    ops = {Track.from_mapping(a): t for a, t in _leaves(c, _order(c, x.bouts), eye, DEFAULT_TRACK_CAP)}
    for a, t in _walk(c, _order(c, y.bouts), eye, {}):
        if not linalg.mat_close(ops.pop(Track.from_mapping(a)), t, tol):
            return False
    return True


def track_probability(c: QuantumCircuit, f: Track, rho: linalg.DensityOperator) -> float:
    return probability_on(cumulative_operator(c, greedy_schedule(c), f), rho)


def check_state(rho: linalg.DensityOperator, n: int) -> None:
    """SemanticsError unless rho is a state of the circuit's n registers."""
    if rho.n_qubits != n:
        raise SemanticsError(f"state has {rho.n_qubits} qubits, circuit has {n} registers")


def probability_on(op: np.ndarray, rho: linalg.DensityOperator) -> float:
    """tr(A rho A^dag) / tr(rho) for a track's cumulative operator A."""
    check_state(rho, op.shape[0].bit_length() - 1)
    p = linalg.trace(op @ rho.matrix @ op.conj().T).real / linalg.trace(rho.matrix).real
    return float(min(max(p, 0.0), 1.0))


def replay(
    c: QuantumCircuit, x: Schedule, f: Track, rho: linalg.DensityOperator
) -> tuple[list[float], np.ndarray]:
    """Deterministically walk a schedule along a fixed track, returning the
    stepwise conditional probabilities and the un-normalized final state;
    SemanticsError when the track's probability is 0 before its last bout."""
    _require_fit(c, x)
    assignment = f.as_dict()
    k = rho.factor
    probs: list[float] = []
    for t, bout in enumerate(x.bouts):
        before = linalg.squared_norm(k)
        if before == 0.0:
            raise SemanticsError(f"zero-probability track before bout {t}")
        k = _track_leaf(c, [bout], k, assignment)
        probs.append(linalg.squared_norm(k) / before)
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
    combination whose running weight sum reaches u * total; a path whose
    trace falls to 1e-300 raises SemanticsError. The outcome tree is settled
    depth first: a node holds the shots that picked the same combinations so
    far and is expanded once for all of them, so each shot comes out as it
    would alone.

    The input rho = K K^dag is walked as its factor K: a path with cumulative
    operator A holds A K, weighed by ||A K||_F^2 (= tr(A rho A^dag)), and ends
    as a factored state. Memory: one root-to-leaf path of nodes with their
    pending siblings (2^n x r arrays; a bout with m measurements expands to
    its 2^m leaves at once), the returned states, and the draws."""
    check_state(rho, c.n_registers)
    _require_fit(c, x)
    bouts = [_order(c, [b]) for b in x.bouts]
    u = _uniforms(seeds, len(bouts))
    results: list = [None] * len(u)
    # (bout index, assignment, A K, step log, indices of its shots) per pending node
    stack = [(0, {}, rho.factor, (), np.arange(len(u)))] if len(u) else []
    while stack:
        t, assignment, k, log, shots = stack.pop()
        before = linalg.squared_norm(k)
        if before <= 1e-300:
            raise SemanticsError(
                f"zero-trace state before bout {t}" if t < len(bouts) else "final state has zero trace"
            )
        if t == len(bouts):
            state = linalg.DensityOperator(c.n_registers, factor=k)
            result = RunResult(Track.from_mapping(assignment), state, log)
            for i in shots.tolist():
                results[i] = result
            continue
        leaves = list(_walk(c, bouts[t], k, assignment))
        weights = [linalg.squared_norm(a) / before for _, a in leaves]
        total = sum(weights)
        if total <= 0.0:
            raise SemanticsError(f"all outcomes of bout {t} have zero probability")
        picks = np.searchsorted(list(itertools.accumulate(weights)), u[shots, t] * total, side="left")
        picks = np.minimum(picks, len(leaves) - 1)
        measured = [gid for gid in bouts[t] if c.gate(gid).is_measure]
        for k in reversed(np.flatnonzero(np.bincount(picks)).tolist()):
            child, state = leaves[k]
            combo = tuple(child[gid] for gid in measured)
            stack.append((t + 1, child, state, log + ((bouts[t], combo, weights[k]),), shots[picks == k]))
        del leaves  # drop the unpicked leaves before the next expansion
    return results


def run(
    c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seed: int
) -> RunResult:
    """One shot of `sample`."""
    return sample(c, x, rho, [seed])[0]
