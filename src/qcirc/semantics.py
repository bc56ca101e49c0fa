"""Denotational and operational semantics: tracks, cumulative operators, the
aggregate measurement, schedule equivalence, and a seeded stochastic executor.

Post-measurement states are kept un-normalized; normalization happens only
when sampling or reporting.
"""

from __future__ import annotations

import itertools
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


def _walk(c: QuantumCircuit, order, start: int, t: np.ndarray, assignment: dict, kernel):
    """The leaves (assignment, A @ t) below the outcome-tree node about to apply
    gate order[start] with outcomes `assignment`, each selected operator applied
    with `kernel` (`linalg.apply` for A t, `linalg.conjugate` for A t A^dag). A
    measurement branches on its labels, sorted, or follows the one that
    `assignment` already holds. (A recursive closure would sit in a reference
    cycle that holds every leaf.)"""
    for i in range(start, len(order)):
        g = c.gate(order[i])
        chosen = select_measurement(c, g.id, source_outcomes(g, assignment))
        if isinstance(chosen, UnitaryOp):
            t = kernel(chosen.matrix, g.registers, t, c.n_registers) if t.size else t
            continue
        held = assignment.get(g.id)
        if held is not None and held not in chosen.operators:
            raise SemanticsError(
                f"track is incoherent at gate {g.id!r}: outcome {held!r} not offered "
                f"by the selected measurement"
            )
        for label in sorted(chosen.operators) if held is None else [held]:
            a = kernel(chosen.operators[label], g.registers, t, c.n_registers) if t.size else t
            yield from _walk(c, order, i + 1, a, {**assignment, g.id: label}, kernel)
        return
    yield assignment, t


def _track_leaf(
    c: QuantumCircuit, bouts: Iterable[Iterable[str]], t: np.ndarray,
    assignment: Mapping[str, str], kernel,
) -> np.ndarray:
    """The one leaf of the walk over `bouts` from t along a track that labels
    every measurement it reaches; only the first leaf is built."""
    leaf, out = next(_walk(c, _order(c, bouts), 0, t, assignment, kernel))
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
    return _track_leaf(c, [b], np.eye(2**c.n_registers, dtype=complex), assignment, linalg.apply)


def _leaves(c: QuantumCircuit, order, t0: np.ndarray, cap: Optional[int]) -> list:
    """The `linalg.apply` walk's leaves (assignment, A @ t0) over `order`. Tracks
    are counted first, on an empty column slice of t0, so an over-cap circuit
    fails before any operator is built."""
    stop = None if cap is None else cap + 1
    if len(list(itertools.islice(_walk(c, order, 0, t0[:, :0], {}, linalg.apply), stop))) == stop:
        raise SemanticsError(f"track count exceeds cap {cap}")
    return list(_walk(c, order, 0, t0, {}, linalg.apply))


def track_operators(
    c: QuantumCircuit, t0: np.ndarray, cap: Optional[int] = DEFAULT_TRACK_CAP
) -> list[tuple[Track, np.ndarray]]:
    """(f, A_f @ t0) for every coherent track f, in `enumerate_tracks` order, from one
    depth-first walk that shares `cumulative_operator`'s `linalg.apply` calls (greedy
    order, from t0) along common outcome prefixes, with the cap checked first."""
    leaves = _leaves(c, _order(c, greedy_schedule(c).bouts), t0, cap)
    measures = [gid for gid in topo_order(c) if c.gate(gid).is_measure]
    leaves.sort(key=lambda leaf: tuple(map(leaf[0].get, measures)))
    return [(Track.from_mapping(a), t) for a, t in leaves]


def enumerate_tracks(c: QuantumCircuit, cap: Optional[int] = DEFAULT_TRACK_CAP) -> list[Track]:
    """All coherent tracks, depth first over topo_order(c), labels sorted."""
    return [f for f, _ in track_operators(c, np.zeros((2**c.n_registers, 0), dtype=complex), cap)]


def cumulative_operator(c: QuantumCircuit, x: Schedule, f: Track) -> np.ndarray:
    _require_fit(c, x)
    return _track_leaf(
        c, x.bouts, np.eye(2**c.n_registers, dtype=complex), f.as_dict(), linalg.apply
    )


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
    for a, t in _walk(c, _order(c, y.bouts), 0, eye, {}, linalg.apply):
        if not linalg.mat_close(ops.pop(Track.from_mapping(a)), t, tol):
            return False
    return True


def track_probability(c: QuantumCircuit, f: Track, rho: linalg.DensityOperator) -> float:
    return probability_on(cumulative_operator(c, greedy_schedule(c), f), rho)


def probability_on(op: np.ndarray, rho: linalg.DensityOperator) -> float:
    """tr(A rho A^dag) / tr(rho) for a track's cumulative operator A."""
    n = op.shape[0].bit_length() - 1
    if rho.n_qubits != n:
        raise SemanticsError(f"state has {rho.n_qubits} qubits, circuit has {n} registers")
    p = linalg.trace(op @ rho.matrix @ op.conj().T).real / linalg.trace(rho.matrix).real
    return float(min(max(p, 0.0), 1.0))


def replay(
    c: QuantumCircuit, x: Schedule, f: Track, rho: linalg.DensityOperator
) -> tuple[list[float], np.ndarray]:
    """Deterministically walk a schedule along a fixed track, returning the
    stepwise conditional probabilities and the un-normalized final state."""
    _require_fit(c, x)
    assignment = f.as_dict()
    sigma = rho.matrix
    probs: list[float] = []
    for bout in x.bouts:
        tr_before = linalg.trace(sigma).real
        sigma = _track_leaf(c, [bout], sigma, assignment, linalg.conjugate)
        probs.append(linalg.trace(sigma).real / tr_before)
    return probs, sigma


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants. The
# hash constant advances once per hashmix call in a fixed order, so each
# call's xor and multiplier are fixed numbers.
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The xors and the multipliers of n successive hashmix calls, shape (2, n, 1)."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _M32
        mults.append(init)
    return np.array([xors, mults], dtype=np.uint32)[:, :, None]


_MIX_IN = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # entropy into the pool
_MIX_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state(4, uint64)
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_DRAW_BLOCK = 2**14  # (seed, bout) pairs per vectorized pass, to bound temporaries


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult  # uint32, so modulo 2**32
    return v ^ v >> 16


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """(hi, lo) * MULT + inc modulo 2**128 on uint64 halves; the carry out of
    the low halves' product comes from 32-bit limbs."""
    a0, a1 = lo & _M32, lo >> 32
    m0, m1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    new_lo = (mid << 32 | p00 & _M32) + inc_lo
    new_hi = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_hi += hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg64_first_doubles(seeds: np.ndarray, n_bouts: int) -> np.ndarray:
    """default_rng((s, t)).random() for uint64 seeds s and t < n_bouts <= 2**32."""
    s = np.repeat(seeds, n_bouts)
    t = np.tile(np.arange(n_bouts, dtype=np.uint32), len(seeds))
    two = s > _M32  # s takes two entropy words
    words = np.zeros((4, len(s)), dtype=np.uint32)  # entropy, zero-padded to the pool
    words[0] = s & _M32
    words[1] = np.where(two, s >> 32, t)
    words[2] = np.where(two, t, 0)
    pool = _hashmix(words, *_MIX_IN[:, 0:4])
    k = 4
    for src in range(4):  # each pool word mixed into every other one
        dst = [d for d in range(4) if d != src]
        r = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[src], *_MIX_IN[:, k : k + 3])
        pool[dst] = r ^ r >> 16
        k += 3
    w = _hashmix(np.concatenate([pool, pool]), *_MIX_OUT).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = w[0::2] | w[1::2] << 32
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + init_lo  # seeding: state = inc + initstate, then one step
    hi, lo = _pcg64_step(inc_hi + init_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)  # the draw's own step
    x, rot = hi ^ lo, hi >> 58  # XSL-RR output
    x = x >> rot | x << (64 - rot & 63)
    return ((x >> 11) * 2.0**-53).reshape(len(seeds), n_bouts)


def _uniforms(seeds, n_bouts: int) -> np.ndarray:
    """U[i, t] == np.random.default_rng((seeds[i], t)).random(), bit for bit.

    numpy's SeedSequence hash of the entropy words of (s, t) (one or two for s,
    one for t), PCG64 seeding and one step (a 128-bit LCG) and its XSL-RR
    output are computed over arrays. A seed that is not an integer in
    [0, 2**64) goes through default_rng itself, which also raises for it."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind == "u":
        ported = np.ones(len(seeds), dtype=bool)
        words = seeds.astype(np.uint64)
    else:
        seeds = list(seeds)
        ported = np.array(
            [isinstance(s, (int, np.integer)) and 0 <= s < 2**64 for s in seeds], dtype=bool
        )
        words = np.array([int(s) if p else 0 for s, p in zip(seeds, ported)], dtype=np.uint64)
    ported &= n_bouts <= 2**32  # t takes one entropy word
    rows = np.flatnonzero(ported)
    out = np.empty((len(seeds), n_bouts))
    step = max(1, _DRAW_BLOCK // max(n_bouts, 1))
    for i in range(0, len(rows), step):
        out[rows[i : i + step]] = _pcg64_first_doubles(words[rows[i : i + step]], n_bouts)
    for j in np.flatnonzero(~ported):
        out[j] = [np.random.default_rng((seeds[j], t)).random() for t in range(n_bouts)]
    return out


def sample(
    c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seeds: Iterable[int]
) -> list[RunResult]:
    """One shot per seed: fire the schedule's bouts in order, sampling
    measurement outcomes with their conditional probabilities. Deterministic
    per seed; bout t of the shot with seed s draws u =
    default_rng((s, t)).random() (all draws in one `_uniforms` pass) and picks
    the first outcome combination whose running weight sum reaches u * total.

    The outcome tree is settled depth first: a node holds the shots that picked
    the same combinations so far and is expanded once for all of them.

    A factored input rho = K K^dag is walked as K: a path with cumulative
    operator A holds A K, weighed by ||A K||_F^2 (= tr(A rho A^dag)), and ends
    as a factored state. Any other input is walked as A rho A^dag, weighed by
    its trace. Memory: one root-to-leaf path of nodes with their pending
    siblings (2^n x r arrays, 2^n x 2^n unfactored), the returned states, and
    the len(seeds) x bouts draws."""
    if rho.n_qubits != c.n_registers:
        raise SemanticsError(f"state has {rho.n_qubits} qubits, circuit has {c.n_registers} registers")
    _require_fit(c, x)
    n, factored = c.n_registers, rho.factor is not None
    if factored:
        kernel, mass = linalg.apply, linalg.squared_norm
    else:
        kernel, mass = linalg.conjugate, lambda sigma: linalg.trace(sigma).real
    bouts = [_order(c, [b]) for b in x.bouts]
    u = _uniforms(seeds, len(bouts))
    results: list = [None] * len(u)
    # (bout index, assignment, state, step log, indices of its shots) per pending node
    stack = [(0, {}, rho.factor if factored else rho.matrix, (), np.arange(len(u)))] if len(u) else []
    while stack:
        t, assignment, sigma, log, shots = stack.pop()
        before = mass(sigma)
        if before <= 1e-300:
            raise SemanticsError(
                f"zero-trace state before bout {t}" if t < len(bouts) else "final state has zero trace"
            )
        if t == len(bouts):
            state = linalg.DensityOperator(n, factor=sigma) if factored else linalg.DensityOperator(n, sigma)
            result = RunResult(Track.from_mapping(assignment), state, log)
            for i in shots.tolist():
                results[i] = result
            continue
        leaves = list(_walk(c, bouts[t], 0, sigma, assignment, kernel))
        weights = [max(mass(s) / before, 0.0) for _, s in leaves]
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
