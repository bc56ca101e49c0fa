"""Independent reference answers for the benchmark's checks.

Nothing here imports qcirc: the oracles read the same JSON files the library
reads and recompute what the library's answers must be, with a plain ket
simulator and plain graph code.
"""

from __future__ import annotations

import math

import numpy as np


def decode(m: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in m["entries"]], dtype=complex)
    return flat.reshape(m["rows"], m["cols"])


def decode_ket(state: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in state["ket"]], dtype=complex)


def _apply(psi: np.ndarray, op: np.ndarray, regs: list) -> np.ndarray:
    """Apply a 2^k x 2^k operator to the listed tensor axes of an n-axis ket
    (axis j is register j, register 0 the most significant bit)."""
    k = len(regs)
    t = np.tensordot(op.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), regs))
    return np.moveaxis(t, list(range(k)), regs)


def _choice(gate: dict, track: dict) -> str:
    return gate["selector"][",".join(track[s] for s in gate["controls"])]


def track_probabilities(c: dict, state: dict) -> dict:
    """Exact probability of every coherent track on the input ket, keyed by a
    sorted tuple of (measurement gate id, label). Gates are applied in file
    order, which respects every source relation."""
    n = len(c["registers"])
    gates = [(g, {k: decode(m) for k, m in g.get("ops", {}).items()},
              {mid: {lab: decode(a) for lab, a in fam["outcomes"].items()}
               for mid, fam in g.get("measurements", {}).items()})
             for g in c["gates"]]
    out: dict = {}

    def walk(i: int, psi: np.ndarray, track: dict) -> None:
        if i == len(gates):
            out[tuple(sorted(track.items()))] = float(np.vdot(psi, psi).real)
            return
        g, ops, fams = gates[i]
        if g["kind"] == "unitary":
            walk(i + 1, _apply(psi, ops[_choice(g, track)], g["registers"]), track)
            return
        for lab, a in sorted(fams[_choice(g, track)].items()):
            walk(i + 1, _apply(psi, a, g["registers"]), {**track, g["id"]: lab})

    walk(0, decode_ket(state).reshape((2,) * n), {})
    return out


def track_probability(c: dict, state: dict, track: dict) -> float:
    """Probability of one given track (a dict gate id -> label)."""
    n = len(c["registers"])
    psi = decode_ket(state).reshape((2,) * n)
    for g in c["gates"]:
        target = _choice(g, track)
        if g["kind"] == "unitary":
            op = decode(g["ops"][target])
        else:
            op = decode(g["measurements"][target]["outcomes"][track[g["id"]]])
        psi = _apply(psi, op, g["registers"])
    return float(np.vdot(psi, psi).real)


# --- binomial check ---------------------------------------------------------


def binomial_tail(count: int, shots: int, p: float) -> float:
    """Smaller one-sided tail P(X <= count) or P(X >= count), X ~ Bin(shots, p)."""
    if p <= 0.0:
        return 1.0 if count == 0 else 0.0
    if p >= 1.0:
        return 1.0 if count == shots else 0.0
    lp, lq = math.log(p), math.log1p(-p)

    def pmf(k: int) -> float:
        return math.exp(math.lgamma(shots + 1) - math.lgamma(k + 1)
                        - math.lgamma(shots - k + 1) + k * lp + (shots - k) * lq)

    low = sum(pmf(k) for k in range(count + 1))
    high = sum(pmf(k) for k in range(count, shots + 1))
    return min(low, high)


def frequencies_fit(freqs: list, shots: int, exact: dict, alpha: float = 1e-9) -> list:
    """Problems with sampled `frequencies` (the `run --shots` list) against
    exact track probabilities; empty when every count is a plausible draw
    from Bin(shots, p) at two-sided level `alpha`."""
    problems = []
    counts = {tuple(sorted(f["outcomes"].items())): f["count"] for f in freqs}
    if sum(counts.values()) != shots:
        problems.append(f"counts sum to {sum(counts.values())}, not {shots}")
    for track in counts:
        if track not in exact:
            problems.append(f"sampled track {track} is not a track of the circuit")
    for track, p in exact.items():
        p = 0.0 if p < 1e-12 else p
        n = counts.get(track, 0)
        if not 0 <= n <= shots:
            problems.append(f"track {track}: count {n} out of range")
        elif binomial_tail(n, shots, p) < alpha / 2:
            problems.append(f"track {track}: {n}/{shots} is implausible for p={p:.6f}")
    return problems


# --- structure --------------------------------------------------------------


def sources(c: dict) -> dict:
    """Direct sources of every gate: the previous gate on each register it
    touches, and its classical controls."""
    last: dict = {}
    out = {}
    for g in c["gates"]:
        src = set(g["controls"])
        for r in g["registers"]:
            if r in last:
                src.add(last[r])
            last[r] = g["id"]
        out[g["id"]] = src
    return out


def depths(c: dict) -> dict:
    """Longest-path layer of every gate (1 for gates without sources)."""
    src = sources(c)
    depth: dict = {}
    for g in c["gates"]:  # file order is topological
        depth[g["id"]] = 1 + max((depth[s] for s in src[g["id"]]), default=0)
    return depth


def closure(c: dict) -> dict:
    """All prerequisites (transitive sources) of every gate."""
    src = sources(c)
    pre: dict = {}
    for g in c["gates"]:
        acc = set()
        for s in src[g["id"]]:
            acc |= pre[s] | {s}
        pre[g["id"]] = acc
    return pre


def red_gates(c: dict) -> list:
    """Unitary gates that have a measurement gate among their prerequisites."""
    pre = closure(c)
    measures = {g["id"] for g in c["gates"] if g["kind"] == "measure"}
    return sorted(g["id"] for g in c["gates"] if g["kind"] == "unitary" and pre[g["id"]] & measures)


def greedy_problems(c: dict, bouts: list) -> list:
    """The greedy schedule fires every ready gate per bout, so its bouts are
    exactly the longest-path layers."""
    depth = depths(c)
    want = max(depth.values(), default=0)
    if len(bouts) != want:
        return [f"{len(bouts)} bouts, longest path has {want} layers"]
    for t, bout in enumerate(bouts, 1):
        wrong = sorted(g for g in bout if depth.get(g) != t)
        if wrong:
            return [f"bout {t} holds gates of other layers: {wrong[:3]}"]
    return []


def count_linear_extensions(c: dict, limit: int) -> int:
    """Number of linear extensions of the prerequisite order, up to `limit`."""
    src = sources(c)
    ids = [g["id"] for g in c["gates"]]
    placed: set = set()
    found = 0

    def rec() -> None:
        nonlocal found
        if found >= limit:
            return
        if len(placed) == len(ids):
            found += 1
            return
        for g in ids:
            if g not in placed and src[g] <= placed:
                placed.add(g)
                rec()
                placed.discard(g)
                if found >= limit:
                    return

    rec()
    return found


def linear_schedule_problems(c: dict, schedules: list, limit: int) -> list:
    """Each schedule must fire one gate per bout, every gate once, sources
    first; the schedules must be distinct and as many as exist up to
    `limit`."""
    src = sources(c)
    ids = {g["id"] for g in c["gates"]}
    seen = set()
    for x in schedules:
        bouts = x["bouts"]
        order = tuple(b[0] for b in bouts)
        if any(len(b) != 1 for b in bouts) or set(order) != ids or len(order) != len(ids):
            return ["a schedule is not a permutation of singleton bouts"]
        pos = {g: i for i, g in enumerate(order)}
        if any(pos[s] > pos[g] for g in ids for s in src[g]):
            return ["a schedule fires a gate before one of its sources"]
        seen.add(order)
    if len(seen) != len(schedules):
        return ["enumerated schedules repeat"]
    want = count_linear_extensions(c, limit)
    if len(schedules) != want:
        return [f"{len(schedules)} schedules, {want} linear extensions up to the limit"]
    return []
