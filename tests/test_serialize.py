"""`serialize.dumps` against `json.dumps(..., indent=2)`, the encoding it
replaces, `matrix_to_json` against its per-entry definition, and circuit files
against both."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    feed_forward_circuit,
    kraus_correction_circuit,
    random_circuit,
    random_deferrable_circuit,
)
from qcirc.deferral import defer_measurements
from qcirc.serialize import dumps, matrix_to_json, serialize_circuit

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf]
ESCAPED = ["", '"', "\\", "/", "\n\r\t\b\f", "\x00\x1f\x7f", "é", " ", "😀", 'a"b\\c']

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
strings = st.text() | st.sampled_from(ESCAPED)
scalars = st.none() | st.booleans() | st.integers() | floats | strings
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(strings, inner, max_size=4),
    max_leaves=40,
)


@st.composite
def matrices(draw):
    """Complex matrices: 1x1 and non-square shapes, non-finite entries, and
    non-contiguous views."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
    view = draw(st.sampled_from(["plain", "transpose", "strided"]))
    if view == "transpose":
        return m.T
    if view == "strided":
        return m[:, ::2]
    return m


def _per_entry_matrix_json(m):
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": [[z.real, z.imag] for z in m.reshape(-1)]}


@settings(max_examples=300, deadline=None)
@given(values)
def test_dumps_matches_json(x):
    assert dumps(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize(
    "x",
    [[], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}], {"b": [{}]}], ()],
    ids=["list", "dict", "list-list", "list-dict", "dict-list", "dict-dict", "deep", "tuple"],
)
def test_dumps_nested_empty_containers(x):
    assert dumps(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("x", [*SPECIAL_FLOATS, *ESCAPED, 0, -1, 10**30, True, False, None])
def test_dumps_scalars(x):
    assert dumps(x) == json.dumps(x, indent=2)
    assert dumps([x, {"k": x}]) == json.dumps([x, {"k": x}], indent=2)


def test_dumps_non_str_keys_as_json_writes_them():
    x = {1: "a", 2.5: "b", True: "c", None: "d", -0.0: "e", math.inf: "f"}
    assert dumps(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize(
    "x",
    [object(), {1, 2}, np.int64(3), np.zeros(3), np.zeros((2, 2, 2)), 1j, b"x", {(1, 2): 3}],
    ids=["object", "set", "np-int", "1-d-array", "3-d-array", "complex", "bytes", "tuple-key"],
)
def test_dumps_unsupported_type_raises_type_error(x):
    with pytest.raises(TypeError):
        json.dumps(x, indent=2)
    with pytest.raises(TypeError):
        dumps(x)
    with pytest.raises(TypeError):
        dumps({"nested": [x]})


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_dumps_matrix_matches_matrix_to_json(m):
    wrapped = {"tracks": [{"operator": m}], "top": m}
    expected = {"tracks": [{"operator": matrix_to_json(m)}], "top": matrix_to_json(m)}
    assert dumps(wrapped) == json.dumps(expected, indent=2)
    assert dumps(m) == json.dumps(matrix_to_json(m), indent=2)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_matrix_to_json_matches_per_entry_definition(m):
    assert json.dumps(matrix_to_json(m), indent=2) == json.dumps(_per_entry_matrix_json(m), indent=2)


@pytest.mark.parametrize(
    "m",
    [
        np.zeros((0, 0), dtype=complex),
        np.zeros((0, 3), dtype=complex),
        np.zeros((3, 0), dtype=complex),
        np.eye(2),
        np.array([[np.nan + 1j * np.inf, -np.inf]]),
    ],
    ids=["0x0", "0x3", "3x0", "real", "non-finite"],
)
def test_dumps_matrix_edge_shapes(m):
    assert dumps([m]) == json.dumps([matrix_to_json(m)], indent=2)
    assert json.dumps(matrix_to_json(m)) == json.dumps(_per_entry_matrix_json(m))


def _per_entry_circuit_json(c):
    """A circuit file's object, with every matrix in its per-entry form."""
    gates = []
    for g in c.gates:
        obj = {"id": g.id, "registers": list(g.registers), "kind": g.kind}
        if g.is_measure:
            obj["measurements"] = {
                mid: {"outcomes": {lab: _per_entry_matrix_json(a) for lab, a in sorted(m.operators.items())}}
                for mid, m in sorted(g.measurements.items())
            }
        else:
            obj["ops"] = {uid: _per_entry_matrix_json(u.matrix) for uid, u in sorted(g.unitaries.items())}
        obj["controls"] = list(g.classical_sources)
        obj["selector"] = {",".join(key): target for key, target in sorted(g.selector.items())}
        gates.append(obj)
    return {"version": "qcirc-1", "registers": list(c.register_names), "gates": gates}


def _writer_cases():
    for seed in range(12):
        yield pytest.param(random_circuit(np.random.default_rng(seed), max_gates=8), id=f"random-{seed}")
    for seed in range(6):  # classically controlled gates choosing among several ops or measurements
        c = random_circuit(np.random.default_rng([5, seed]), max_gates=8, p_cc=0.9)
        yield pytest.param(c, id=f"multi-op-{seed}")
    for k in range(1, 7):
        yield pytest.param(defer_measurements(feed_forward_circuit(k)).circuit, id=f"deferred-ff{k}")
    for seed in range(8):
        c = random_deferrable_circuit(np.random.default_rng(seed))
        yield pytest.param(defer_measurements(c).circuit, id=f"deferred-random-{seed}")
    for seed in range(4):  # a nonstandard Kraus measurement, deferred through its dilation
        c = kraus_correction_circuit(np.random.default_rng(seed))
        yield pytest.param(defer_measurements(c).circuit, id=f"deferred-kraus-{seed}")


@pytest.mark.parametrize("c", list(_writer_cases()))
def test_serialize_circuit_matches_per_entry_encoding(c):
    expected = json.dumps(_per_entry_circuit_json(c), indent=2) + "\n"
    assert serialize_circuit(c) == expected
