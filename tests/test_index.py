"""The circuit's structural index (wiring, prerequisites, stages, greedy
bouts, schedule validity) against oracles derived from the gate list alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_circuit
from qcirc.circuit import (
    CircuitError,
    QuantumCircuit,
    controlled_unitary_gate,
    is_stage,
    prerequisites,
    stage_exits,
    standard_measure_gate,
    topo_order,
    unitary_gate,
)
from qcirc.linalg import CNOT, X
from qcirc.deferral import red_gates
from qcirc.scheduling import (
    Schedule,
    enumerate_linear_schedules,
    greedy_bouts,
    greedy_schedule,
    validate_schedule,
)


def sources_oracle(c):
    """Per gate: the previous gate on each of its registers, plus its
    classical sources. Assumes every control points to an earlier gate."""
    last, out = {}, {}
    for g in c.gates:
        out[g.id] = {last[r] for r in g.registers if r in last} | set(g.classical_sources)
        for r in g.registers:
            last[r] = g.id
    return out


def below_oracle(c):
    """Per gate: its prerequisites, by depth-first search over the sources."""
    srcs = sources_oracle(c)
    below = {}
    for gid in srcs:
        seen, stack = set(), list(srcs[gid])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(srcs[v])
        below[gid] = seen
    return below


def layers_oracle(c):
    """Longest-path layers: the gates grouped by the number of edges on their
    longest source path, relaxed in sequence order."""
    srcs = sources_oracle(c)
    depth = {}
    for g in c.gates:
        depth[g.id] = max((depth[s] + 1 for s in srcs[g.id]), default=0)
    n_layers = max(depth.values(), default=-1) + 1
    return tuple(frozenset(g for g, d in depth.items() if d == t) for t in range(n_layers))


def topo_oracle(c):
    """Kahn's algorithm over the sources, taking the ready gate that comes
    first in the gate sequence; None if the relation is cyclic."""
    srcs, pos, order = sources_oracle(c), {g.id: i for i, g in enumerate(c.gates)}, []
    while len(order) < len(srcs):
        ready = [g for g in srcs if g not in order and srcs[g] <= set(order)]
        if not ready:
            return None
        order.append(min(ready, key=pos.get))
    return order


def validate_schedule_oracle(c, x):
    """The stage-by-stage definition: each bout is a nonempty set of gates
    ready at the union of the earlier bouts, that union plus the bout is a
    stage, and the bouts cover the circuit."""
    below = below_oracle(c)
    fired = set()
    for bout in x.bouts:
        if not bout or bout & fired:
            return False
        if not all(below[g] <= fired for g in bout):
            return False
        fired |= bout
        if not all(below[g] <= fired for g in fired):
            return False
    return fired == set(below)


def corrupt(rng, bouts, ids):
    """Apply a few random edits: swap two bouts, merge two, split one, or
    repeat a gate in another bout."""
    bouts = list(bouts)
    for _ in range(int(rng.integers(1, 4))):
        if not bouts:
            break
        i, j = (int(k) for k in rng.integers(len(bouts), size=2))
        edit = int(rng.integers(4))
        if edit == 0:
            bouts[i], bouts[j] = bouts[j], bouts[i]
        elif edit == 1 and i != j:
            bouts[i] |= bouts[j]
            del bouts[j]
        elif edit == 2 and len(bouts[i]) > 1:
            gates = sorted(bouts[i])
            cut = int(rng.integers(1, len(gates)))
            bouts[i : i + 1] = [frozenset(gates[:cut]), frozenset(gates[cut:])]
        elif edit == 3:
            bouts[i] |= {ids[int(rng.integers(len(ids)))]}
    return Schedule(tuple(bouts))


def random_linear_order(rng, c):
    below, order = below_oracle(c), []
    while len(order) < len(c.gates):
        ready = sorted(g for g in below if g not in order and below[g] <= set(order))
        order.append(ready[int(rng.integers(len(ready)))])
    return order


# --- oracle agreement on random circuits ------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_wiring_matches_oracle(seed):
    c = random_circuit(np.random.default_rng(seed))
    srcs, below = sources_oracle(c), below_oracle(c)
    assert c.edges() == {(s, g) for g in srcs for s in srcs[g]}
    for g in c.gates:
        assert c.direct_sources(g.id) == srcs[g.id]
        assert prerequisites(c, g.id) == below[g.id]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_topo_order_matches_oracle(seed):
    """On the random circuit, and on its gates in a shuffled sequence, where
    controls may point to later gates, several gates become ready at once
    and the relation may be cyclic."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, max_gates=10)
    shuffled = QuantumCircuit(c.register_names, tuple(c.gates[i] for i in rng.permutation(len(c.gates))))
    for circuit in (c, shuffled):
        expected = topo_oracle(circuit)
        if expected is None:
            with pytest.raises(CircuitError, match="cyclic"):
                topo_order(circuit)
        else:
            assert topo_order(circuit) == expected


def test_topo_order_takes_gates_ready_together_by_position():
    # m fires last in sequence but first in order; a, b, c wait for it and
    # become ready together
    sel = {("0",): "u", ("1",): "u"}
    gates = tuple(controlled_unitary_gate(gid, [r], ["m"], {"u": X}, sel) for gid, r in (("c", 1), ("a", 2), ("b", 3)))
    c = QuantumCircuit(tuple(f"r{j}" for j in range(4)), (*gates, standard_measure_gate("m", 0)))
    assert topo_order(c) == topo_oracle(c) == ["m", "c", "a", "b"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_bouts_are_longest_path_layers(seed):
    c = random_circuit(np.random.default_rng(seed), max_gates=10)
    assert greedy_schedule(c).bouts == layers_oracle(c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["sequence", "reversed", "shuffled"]))
def test_depth_only_walk_order_is_the_layers_in_circuit_order(seed, layout):
    """The walk order, `greedy_bouts`, reads depths alone: on random circuits
    with classically controlled gates, it is `layers_oracle`'s layers, each in
    circuit order, and `prerequisites` and `red_gates` still read the
    prerequisite bitmasks. Reversed or shuffled, a circuit's classical
    sources may come later in the sequence, and its relation may be cyclic:
    then each of them raises CircuitError."""
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, max_gates=10, p_cc=0.6)
    gates = {"sequence": c.gates, "reversed": c.gates[::-1], "shuffled": tuple(rng.permutation(c.gates))}[layout]
    c = QuantumCircuit(c.register_names, gates)
    below, position = below_oracle(c), {g.id: i for i, g in enumerate(c.gates)}
    if any(g in below[g] for g in below):  # cyclic
        for structural in (greedy_bouts, lambda c: prerequisites(c, c.gates[0].id), red_gates):
            with pytest.raises(CircuitError, match="cyclic"):
                structural(c)
        return
    order = random_linear_order(rng, c)  # a topological order, in which the layers oracle can relax
    layers = layers_oracle(QuantumCircuit(c.register_names, tuple(sorted(c.gates, key=lambda g: order.index(g.id)))))
    assert greedy_bouts(c) == [sorted(layer, key=position.get) for layer in layers]
    assert all(prerequisites(c, g) == below[g] for g in below)
    measured = {g.id for g in c.gates if g.is_measure}
    assert red_gates(c) == {g.id for g in c.gates if not g.is_measure and below[g.id] & measured}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_validate_schedule_matches_stage_oracle(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, max_gates=8)
    ids = [g.id for g in c.gates]
    linear = Schedule(tuple(frozenset([g]) for g in random_linear_order(rng, c)))
    for x in (greedy_schedule(c), linear):
        assert validate_schedule(c, x) and validate_schedule_oracle(c, x)
        for _ in range(5):
            y = corrupt(rng, x.bouts, ids)
            assert validate_schedule(c, y) == validate_schedule_oracle(c, y)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_stages_and_exits_match_oracle(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, max_gates=8)
    below = below_oracle(c)
    order = random_linear_order(rng, c)
    subsets = [set(order[:k]) for k in range(len(order) + 1)]
    subsets += [{g for g in order if rng.random() < 0.5} for _ in range(5)]
    for s in subsets:
        stage = all(below[g] <= s for g in s)
        assert is_stage(c, s) == stage
        if stage:
            exits = {
                (r, next((g.id for g in reversed(c.gates) if r in g.registers and g.id in s), None))
                for r in range(c.n_registers)
            }
            assert stage_exits(c, s) == exits
        else:
            with pytest.raises(CircuitError):
                stage_exits(c, s)


# --- edge cases ---------------------------------------------------------------


def cyclic_circuit():
    # g consumes m's outcome but acts before m on the same register
    g = controlled_unitary_gate("g", [0], ["m"], {"u": X}, {("0",): "u", ("1",): "u"})
    return QuantumCircuit(("r0",), (g, standard_measure_gate("m", 0)))


@pytest.mark.parametrize(
    "structural",
    [topo_order, lambda c: prerequisites(c, "g"), greedy_schedule],
    ids=["topo_order", "prerequisites", "greedy_schedule"],
)
def test_cyclic_circuit_raises(structural):
    with pytest.raises(CircuitError, match="cyclic"):
        structural(cyclic_circuit())


@pytest.mark.parametrize(
    "structural",
    [
        topo_order, lambda c: prerequisites(c, "a"), greedy_schedule, enumerate_linear_schedules,
    ],
    ids=["topo_order", "prerequisites", "greedy_schedule", "enumerate_linear_schedules"],
)
def test_duplicate_gate_id_raises(structural):
    """A circuit built in Python with a repeated id names it; nothing is cyclic."""
    gates = (unitary_gate("b", [2], X), unitary_gate("a", [0], X), unitary_gate("a", [1], X))
    c = QuantumCircuit(("r0", "r1", "r2"), gates)
    with pytest.raises(CircuitError, match="^duplicate gate id 'a'$"):
        structural(c)


def test_cyclic_circuit_has_no_valid_schedule():
    c = cyclic_circuit()
    assert not validate_schedule(c, Schedule((frozenset({"g"}), frozenset({"m"}))))
    assert not validate_schedule(c, Schedule((frozenset({"g", "m"}),)))


def test_is_stage_rejects_unknown_ids(teleport):
    with pytest.raises(CircuitError):
        is_stage(teleport, {"CNOT", "nope"})


def test_long_chain_greedy_and_validation():
    rng = np.random.default_rng(5)
    gates = []
    for i in range(2000):
        regs = [int(r) for r in rng.choice(6, size=int(rng.integers(1, 3)), replace=False)]
        gates.append(unitary_gate(f"g{i}", regs, X if len(regs) == 1 else CNOT))
    c = QuantumCircuit(tuple(f"r{j}" for j in range(6)), tuple(gates))
    x = greedy_schedule(c)
    assert x.bouts == layers_oracle(c)
    assert validate_schedule(c, x)
    assert validate_schedule(c, Schedule(tuple(frozenset([g.id]) for g in c.gates)))
    assert not validate_schedule(c, Schedule((x.bouts[1], x.bouts[0]) + x.bouts[2:]))
