"""The depth-first outcome-tree walker that `semantics` used before its
frontier walk, kept verbatim as the reference the frontier walk is tested
against: `source_outcomes` and `select_measurement` resolve a gate's
selector per node through label dicts, `_walk` yields the leaves depth
first with one `apply` call per node, `walk_tracks` is the general case of
`semantics.walk_tracks` on that walk, keyed by each track's position in
(gate id, label) order, and `sample` the executor that expanded one tree
node at a time. `apply` is the `np.dot` kernel that `linalg.apply`
replaced, kept as the reference for its bits."""

import itertools
from typing import Iterable, Mapping, Union

import numpy as np

from qcirc import linalg
from qcirc.circuit import Gate, Measurement, QuantumCircuit, UnitaryOp
from qcirc.scheduling import Schedule, greedy_schedule, in_bout_order
from qcirc.semantics import RunResult, SemanticsError, Track, _require_fit, _uniforms, check_state


def apply(op: np.ndarray, registers, t: np.ndarray, n: int) -> np.ndarray:
    """embed(op, registers, n) @ t for a 2^n x m array t, bit for bit the
    product `np.tensordot` forms: one transpose (cached by `linalg._axes`)
    brings the registers' tensor axes to the front, and one `np.dot`
    contracts them."""
    op = linalg.as_matrix(op)
    k = len(registers)
    if op.shape != (2**k, 2**k):
        raise linalg.LinalgError(f"operator shape {op.shape} does not match arity {k}")
    if t.ndim != 2 or t.shape[0] != 2**n:
        raise linalg.LinalgError(f"expected {2**n} rows, got shape {t.shape}")
    perm, inverse = linalg._axes(tuple(registers), n)
    x = t.reshape((1,) + (2,) * n + (t.shape[1],)).transpose(perm)
    out = np.dot(op, x.reshape(2**k, 2 ** (n - k) * t.shape[1]))
    return out.reshape(x.shape).transpose(inverse).reshape(t.shape)


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


def _walk(c: QuantumCircuit, order, t: np.ndarray, assignment: dict):
    """The leaves (assignment, A @ t) of the outcome tree over the gates `order`
    from t with outcomes `assignment`, depth first, each selected operator
    applied with `apply`. A measurement branches on its `outcomes`, or
    follows the one that `assignment` already holds. Pending siblings share
    their parent's state and apply their own operator when popped."""
    stack = [(0, t, assignment, None)]  # (next gate index, state, outcomes, operator not yet applied)
    while stack:
        start, t, assignment, pending = stack.pop()
        if pending is not None and t.size:
            t = apply(*pending, t, c.n_registers)
        for i in range(start, len(order)):
            g = c.gate(order[i])
            chosen = select_measurement(c, g.id, source_outcomes(g, assignment))
            if isinstance(chosen, UnitaryOp):
                t = apply(chosen.matrix, g.registers, t, c.n_registers) if t.size else t
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


def walk_tracks(c: QuantumCircuit, t0: np.ndarray):
    """(key, f, A_f @ t0) for every leaf of the general walk in greedy
    order, the key f's position among the leaves' tracks sorted by their
    (gate id, label) pairs: what `semantics.walk_tracks` yields for a
    circuit outside terminal form."""
    order = list(itertools.chain.from_iterable(in_bout_order(c, greedy_schedule(c).bouts)))
    leaves = [(Track.from_mapping(a), t) for a, t in _walk(c, order, t0, {})]
    key = {f: k for k, f in enumerate(sorted((f for f, _ in leaves), key=lambda f: f.outcomes))}
    for f, t in leaves:
        yield key[f], f, t


def sample(
    c: QuantumCircuit, x: Schedule, rho: linalg.DensityOperator, seeds: Iterable[int]
) -> list[RunResult]:
    """`semantics.sample` settling the outcome tree depth first, one node at
    a time, each expanded by `_walk`."""
    check_state(rho, c.n_registers)
    _require_fit(c, x)
    bouts = list(map(tuple, in_bout_order(c, x.bouts)))
    u = _uniforms(seeds, len(bouts))
    results: list = [None] * len(u)
    floor = 1e-300 * linalg.squared_norm(rho.factor)  # relative, so any valid state's scale can run
    # (bout index, assignment, A K, step log, indices of its shots) per pending node
    stack = [(0, {}, rho.factor, (), np.arange(len(u)))] if len(u) else []
    while stack:
        t, assignment, k, log, shots = stack.pop()
        before = linalg.squared_norm(k)
        if before <= floor:
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
        if weights[0] == 0.0:  # u = 0 picks leaf 0 and only u = 0 picks a leaf of weight 0
            picks = np.maximum(picks, next(i for i, w in enumerate(weights) if w > 0.0))
        measured = [gid for gid in bouts[t] if c.gate(gid).is_measure]
        for k in reversed(np.flatnonzero(np.bincount(picks)).tolist()):
            child, state = leaves[k]
            combo = tuple(child[gid] for gid in measured)
            stack.append((t + 1, child, state, log + ((bouts[t], combo, weights[k]),), shots[picks == k]))
        del leaves  # drop the unpicked leaves before the next expansion
    return results
