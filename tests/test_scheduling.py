import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import chain_circuit, random_circuit, random_coherent_order, random_poset
from qcirc.scheduling import (
    Poset,
    Schedule,
    ScheduleError,
    differentiating_pairs,
    enumerate_linear_schedules,
    greedy_schedule,
    is_antichain,
    linear_schedule,
    split_bout,
    transposition_path,
    validate_schedule,
)


def sched(*bouts):
    return Schedule(tuple(frozenset(b) for b in bouts))


# --- schedule validation ----------------------------------------------------


def test_teleport_greedy_schedule(teleport):
    assert greedy_schedule(teleport).bouts == (
        frozenset({"CNOT"}),
        frozenset({"H", "N"}),
        frozenset({"M", "XN"}),
        frozenset({"ZM"}),
    )


def test_teleport_valid_schedules(teleport):
    assert validate_schedule(
        teleport, sched(["CNOT"], ["H"], ["M", "N"], ["XN"], ["ZM"])
    )
    assert validate_schedule(teleport, greedy_schedule(teleport))
    assert validate_schedule(
        teleport, linear_schedule(["CNOT", "N", "H", "XN", "M", "ZM"])
    )


def test_teleport_invalid_schedules(teleport):
    # H fired before its prerequisite CNOT
    assert not validate_schedule(teleport, sched(["H"], ["CNOT"], ["M", "N"], ["XN"], ["ZM"]))
    # repeated gate
    assert not validate_schedule(teleport, sched(["CNOT"], ["CNOT", "H"], ["M", "N"], ["XN"], ["ZM"]))
    # empty bout
    assert not validate_schedule(teleport, sched(["CNOT"], [], ["H", "N"], ["M", "XN"], ["ZM"]))
    # not total
    assert not validate_schedule(teleport, sched(["CNOT"], ["H", "N"]))
    # M and its prerequisite H in one bout (not an antichain of ready gates)
    assert not validate_schedule(teleport, sched(["CNOT"], ["H", "M", "N"], ["XN"], ["ZM"]))


def test_is_antichain(teleport):
    assert is_antichain(teleport, {"M", "XN"})
    assert not is_antichain(teleport, {"CNOT", "H"})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_schedule_validates(seed):
    c = random_circuit(np.random.default_rng(seed))
    assert validate_schedule(c, greedy_schedule(c))


def linear_extension_count_oracle(c):
    ids = [g.id for g in c.gates]
    edges = c.edges()
    count = 0
    for perm in itertools.permutations(ids):
        pos = {g: i for i, g in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in edges):
            count += 1
    return count


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_enumerate_linear_schedules_matches_permutation_oracle(seed):
    c = random_circuit(np.random.default_rng(seed), max_gates=5)
    scheds = enumerate_linear_schedules(c, limit=None)
    assert len(scheds) == linear_extension_count_oracle(c)
    seen = set()
    for x in scheds:
        assert validate_schedule(c, x)
        assert all(len(b) == 1 for b in x.bouts)
        seen.add(x.bouts)
    assert len(seen) == len(scheds)


def test_enumerate_respects_limit(teleport):
    assert len(enumerate_linear_schedules(teleport, limit=3)) == 3


def test_enumerate_a_chain_longer_than_the_recursion_limit():
    """The enumeration keeps an explicit stack, not a frame per gate."""
    c = chain_circuit(1100)
    (x,) = enumerate_linear_schedules(c, limit=1)
    assert validate_schedule(c, x)


# --- bout splitting ---------------------------------------------------------


def test_split_bout(teleport):
    x = greedy_schedule(teleport)
    y = split_bout(x, 1, ["H"], ["N"])
    assert y.bouts[1:3] == (frozenset({"H"}), frozenset({"N"}))
    assert validate_schedule(teleport, y)


def test_split_bout_rejects_bad_cover(teleport):
    x = greedy_schedule(teleport)
    with pytest.raises(ScheduleError):
        split_bout(x, 1, ["H"], ["H", "N"])
    with pytest.raises(ScheduleError):
        split_bout(x, 1, ["H"], [])
    with pytest.raises(ScheduleError):
        split_bout(x, 9, ["H"], ["N"])


# --- posets -----------------------------------------------------------------


def closure_oracle(elements, pairs):
    """Boolean matrix powers, independent of the Warshall loop."""
    idx = {e: i for i, e in enumerate(elements)}
    k = len(elements)
    m = np.zeros((k, k), dtype=bool)
    for a, b in pairs:
        m[idx[a], idx[b]] = True
    reach = m.copy()
    for _ in range(k):
        reach = reach | (reach @ m)
    return {
        (elements[i], elements[j]) for i in range(k) for j in range(k) if reach[i, j]
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_poset_closure_matches_matrix_oracle(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    elems = [f"e{i}" for i in range(k)]
    pairs = [
        (elems[i], elems[j])
        for i in range(k)
        for j in range(i + 1, k)
        if rng.random() < 0.4
    ]
    p = Poset.from_pairs(elems, pairs)
    assert set(p.less) == closure_oracle(elems, pairs)


def test_poset_rejects_cycles_and_duplicates():
    with pytest.raises(ScheduleError):
        Poset.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ScheduleError):
        Poset.from_pairs(["a", "a"], [])
    with pytest.raises(ScheduleError):
        Poset.from_pairs(["a"], [("a", "x")])


def test_coherent():
    p = Poset.from_pairs(["a", "b", "c"], [("a", "b")])
    assert p.coherent(["a", "b", "c"])
    assert p.coherent(["c", "a", "b"])
    assert not p.coherent(["b", "a", "c"])
    assert not p.coherent(["a", "b"])


# --- transposition paths ----------------------------------------------------


def inversion_oracle(frm, to):
    """Insertion-sort swap count of frm mapped into to's positions."""
    pos = {e: i for i, e in enumerate(to)}
    seq = [pos[e] for e in frm]
    swaps = 0
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            swaps += 1
            j -= 1
    return swaps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_transposition_path_properties(seed):
    rng = np.random.default_rng(seed)
    p = random_poset(rng)
    frm = random_coherent_order(rng, p)
    to = random_coherent_order(rng, p)
    path = transposition_path(p, frm, to)
    assert path[0] == frm and path[-1] == to
    assert len(path) - 1 == differentiating_pairs(frm, to) == inversion_oracle(frm, to)
    for prev, cur in zip(path, path[1:]):
        assert p.coherent(cur)
        diff = [i for i in range(len(prev)) if prev[i] != cur[i]]
        assert len(diff) == 2 and diff[1] == diff[0] + 1
        assert prev[diff[0]] == cur[diff[1]] and prev[diff[1]] == cur[diff[0]]


def test_transposition_path_rejects_incoherent():
    p = Poset.from_pairs(["a", "b"], [("a", "b")])
    with pytest.raises(ScheduleError):
        transposition_path(p, ("b", "a"), ("a", "b"))
    with pytest.raises(ScheduleError):
        transposition_path(p, ("a", "b"), ("b", "a"))


def test_transposition_path_trivial():
    p = Poset.from_pairs(["a", "b"], [])
    assert transposition_path(p, ("a", "b"), ("a", "b")) == [("a", "b")]
