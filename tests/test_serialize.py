"""`serialize.dumps` against `json.dumps(..., indent=2)`, the encoding it
replaces, `matrix_to_json` against its per-entry definition, and circuit files
against both."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    aggregate_document,
    feed_forward_circuit,
    ghz_circuit,
    kraus_correction_circuit,
    random_circuit,
    random_deferrable_circuit,
)
from qcirc.circuit import CircuitError
from qcirc.deferral import defer_measurements
from qcirc.linalg import DensityOperator
from qcirc.scheduling import Schedule
from qcirc.serialize import CHUNK, dumps, matrix_to_json, schedule_to_json, serialize_circuit

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


@pytest.mark.parametrize(
    "x",
    [
        ["a", 1, 2.5, None, True, -0.0, "é"],
        {"bouts": [["b"], ["a"], ["\n"]]},
        [["a", "b"], ["c"], ("d", "e")],
        [[1], [math.nan, math.inf], [None, False]],
        [[["a"]], [["b"], []]],
        {"s": [{"bouts": [["x"], ["y"]]}, {"bouts": [["x", "y"]]}]},
    ],
    ids=["scalars", "singleton-rows", "rows", "number-rows", "deeper", "schedules"],
)
def test_dumps_lists_of_scalars_and_of_rows_match_json(x):
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


# --- documents with several matrices -----------------------------------------

SUBNORMALS = [5e-324, -5e-324, 2.2250738585072e-308, -1.5e-310, 4.9e-320]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, *SUBNORMALS])


@st.composite
def document_matrices(draw, min_side=0):
    """Matrices as documents hold them: random finite entries, all +0.0, all
    -0.0 or subnormals; 0xn and nx0 shapes; plain, transposed and strided."""
    rows, cols = draw(st.integers(min_side, 4)), draw(st.integers(min_side, 4))
    size = 2 * rows * cols
    fill = draw(st.sampled_from(["random", "zeros", "negative-zeros", "subnormals"]))
    if fill == "zeros":
        parts = [0.0] * size
    elif fill == "negative-zeros":
        parts = [-0.0] * size
    else:
        entries = finite_floats if fill == "random" else st.sampled_from(SUBNORMALS)
        parts = draw(st.lists(entries, min_size=size, max_size=size))
    m = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
    view = draw(st.sampled_from(["plain", "transpose", "strided"]))
    if view == "transpose":
        return m.T
    if view == "strided":
        return m[:, ::2]
    return m


@st.composite
def non_finite_matrices(draw):
    """A finite matrix with NaN, inf or -inf in some of its floats."""
    m = np.ascontiguousarray(draw(document_matrices(min_side=1)), dtype=complex)
    parts = m.view(np.float64).reshape(-1)
    for i in draw(st.lists(st.integers(0, parts.size - 1), min_size=1, max_size=3)):
        parts[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return m


document_trees = st.recursive(
    scalars | document_matrices(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def documents(draw):
    """Several matrices at different depths next to scalars and strings, and
    at most one matrix with non-finite entries among finite ones."""
    doc = {
        "top": draw(document_matrices()),
        "tracks": [{"operator": draw(document_matrices()), "p": draw(floats)}, draw(document_trees)],
        "deep": [[{"m": draw(document_matrices()), "s": draw(strings)}]],
    }
    if draw(st.booleans()):
        doc["tracks"].insert(1, {"operator": draw(non_finite_matrices())})
    return doc


def _with_matrix_objects(x):
    """`x` with every array replaced by its `matrix_to_json` object."""
    if isinstance(x, np.ndarray):
        return matrix_to_json(x)
    if isinstance(x, dict):
        return {k: _with_matrix_objects(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_with_matrix_objects(v) for v in x]
    return x


@settings(max_examples=200, deadline=None)
@given(documents())
def test_dumps_document_of_several_matrices_matches_json(doc):
    assert dumps(doc) == json.dumps(_with_matrix_objects(doc), indent=2)


@pytest.fixture(scope="module")
def ghz6_aggregate():
    """What `qcirc aggregate --input` prints for GHZ-6 from |0...0>: 64 tracks
    of 64x64 operators, 524160 of their 524288 floats zero."""
    psi = np.zeros(64, dtype=complex)
    psi[0] = 1.0
    return aggregate_document(ghz_circuit(6), DensityOperator.from_ket(psi))


def test_dumps_ghz6_aggregate_document_matches_json(ghz6_aggregate):
    floats = np.concatenate([t["operator"].ravel() for t in ghz6_aggregate["tracks"]]).view(np.float64)
    assert (floats.size, np.count_nonzero(floats == 0.0)) == (524288, 524160)
    assert dumps(ghz6_aggregate) == json.dumps(_with_matrix_objects(ghz6_aggregate), indent=2)


def test_dumps_ghz6_aggregate_peak_memory(ghz6_aggregate):
    """The writer's working arrays stay below the text it returns: the
    tracemalloc peak of one call is at most twice the text plus 4 MiB."""
    chars = len(dumps(ghz6_aggregate))
    tracemalloc.start()
    try:
        text = dumps(ghz6_aggregate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == chars
    assert peak <= 2 * chars + 4 * 2**20


# --- chunks of +0.0 entries ----------------------------------------------------

CHUNK_PAIRS = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]
LONE_FLOATS = [-0.0, math.nan, math.inf, -math.inf, *SUBNORMALS]


def _boundary_floats(pairs):
    """Float positions at the ends of the chunks of a matrix of `pairs` entries."""
    edges = {0, 1, 2 * pairs - 2, 2 * pairs - 1}
    for start in range(2 * CHUNK, 2 * pairs, 2 * CHUNK):
        edges |= {start - 2, start - 1, start, start + 1}
    return sorted(edges)


def _shaped(parts, rows, cols, view):
    """The floats `parts` as a rows x cols complex matrix: a plain array, the
    transpose of a cols x rows one, or every other column of a wider array
    whose skipped columns hold 7.0."""
    m = np.array(parts, dtype=float).view(complex)
    if view == "transpose":
        return m.reshape(cols, rows).T
    if view == "strided":
        wide = np.full((rows, 2 * cols), 7.0 + 7.0j)
        wide[:, ::2] = m.reshape(rows, cols)
        return wide[:, ::2]
    return m.reshape(rows, cols)


@st.composite
def sparse_matrices(draw):
    """Matrices of CHUNK - 1, CHUNK, CHUNK + 1 and 2 CHUNK + 1 entries, all
    +0.0 but for at most three floats, each a lone -0.0, NaN, +-inf,
    subnormal or random finite float, often at a chunk's end; with none, an
    all-+0.0 matrix. Plain, transposed and strided."""
    pairs = draw(st.sampled_from(CHUNK_PAIRS))
    rows = draw(st.sampled_from([d for d in range(1, pairs + 1) if pairs % d == 0]))
    parts = [0.0] * (2 * pairs)
    where = st.integers(0, 2 * pairs - 1) | st.sampled_from(_boundary_floats(pairs))
    for i in draw(st.lists(where, max_size=3)):
        parts[i] = draw(st.sampled_from(LONE_FLOATS) | finite_floats)
    return _shaped(parts, rows, pairs // rows, draw(st.sampled_from(["plain", "transpose", "strided"])))


@st.composite
def sparse_documents(draw):
    """Sparse matrices at three depths, so their indents differ, next to a
    small matrix of `document_matrices` and scalars."""
    return {
        "top": draw(sparse_matrices()),
        "tracks": [{"operator": draw(sparse_matrices()), "p": draw(floats)}, draw(document_matrices())],
        "deep": [[{"m": draw(sparse_matrices()), "s": draw(strings)}]],
    }


@settings(max_examples=300, deadline=None)
@given(sparse_documents())
def test_dumps_sparse_matrices_across_chunks_match_json(doc):
    assert dumps(doc) == json.dumps(_with_matrix_objects(doc), indent=2)


@pytest.mark.parametrize("pairs", CHUNK_PAIRS)
@pytest.mark.parametrize("lone", [None, *LONE_FLOATS, 0.5], ids=repr)
def test_dumps_lone_float_at_each_chunk_end_matches_json(pairs, lone):
    """Each float position at a chunk's end holds the lone float in turn (or
    none: an all-+0.0 matrix), in a matrix at two depths and in a 1 x n row."""
    for i in _boundary_floats(pairs) if lone is not None else [None]:
        parts = [0.0] * (2 * pairs)
        if i is not None:
            parts[i] = lone
        for view in ["plain", "transpose", "strided"]:
            m = _shaped(parts, pairs, 1, view)
            doc = {"m": m, "deep": [{"m": m}], "row": m.reshape(1, pairs)}
            assert dumps(doc) == json.dumps(_with_matrix_objects(doc), indent=2)


def test_dumps_ghz6_aggregate_peak_memory_above_text(ghz6_aggregate):
    """The chunks of +0.0 entries are shared strings, so the tracemalloc
    peak of one call is at most the text it returns plus 2 MiB."""
    chars = len(dumps(ghz6_aggregate))
    tracemalloc.start()
    try:
        text = dumps(ghz6_aggregate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == chars
    assert peak <= chars + 2 * 2**20


@settings(max_examples=100, deadline=None)
@given(st.lists(floats, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_dumps_matrix_of_repeated_signed_magnitudes_matches_json(values, seed):
    """Entries drawn from a few magnitudes with either sign, as a Hermitian
    state's are: each distinct magnitude is spelled once."""
    rng = np.random.default_rng(seed)
    picks = np.copysign(rng.choice(np.array(values), size=(2, 5, 5)), rng.choice([-1.0, 1.0], size=(2, 5, 5)))
    m = np.empty((5, 5), dtype=complex)
    m.real, m.imag = picks
    doc = {"state": m, "conjugate": m.conj().T}
    assert dumps(doc) == json.dumps(_with_matrix_objects(doc), indent=2)


def test_schedule_to_json_orders_each_bout_by_circuit_position(teleport):
    bouts = (frozenset({"H", "CNOT"}), frozenset({"ZM", "N", "M", "XN"}))
    assert schedule_to_json(Schedule(bouts), teleport) == {"bouts": [["CNOT", "H"], ["M", "N", "XN", "ZM"]]}


def test_schedule_to_json_unknown_id_raises_as_index_of(teleport):
    with pytest.raises(CircuitError) as raised:
        teleport.index_of("nope")
    with pytest.raises(CircuitError, match=str(raised.value)):
        schedule_to_json(Schedule((frozenset({"H"}), frozenset({"M", "nope"}))), teleport)
