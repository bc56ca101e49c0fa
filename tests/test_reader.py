"""The batched entry reader against the per-entry reference.

`reference_reader` keeps the reader that built one `complex(re, im)` per
entry and converted each matrix as it was read. The batched reader checks and
converts the entries of a whole document at once, so it must accept and
reject exactly the same entry lists, matrix objects, circuit files and state
files, report the same diagnostics (the first bad matrix in reading order,
with its code and `where`), and give the same bits when it accepts.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reader
from qcirc import serialize
from qcirc.serialize import ParseError

TELEPORT = json.loads((Path(__file__).parent / "fixtures" / "teleport.json").read_text())

SPECIAL = [
    10**400, -(10**400), 2**53 + 1, 2**64, -(2**63) - 1, 0, -0.0, 5e-324, 1e-310,
    2.2250738585072014e-308, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from(SPECIAL),
)
ODD = st.one_of(  # anything else a JSON value can be
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(NUMBERS, max_size=2),
    st.dictionaries(st.text(max_size=1), NUMBERS, max_size=2),
)
PAIRS = st.one_of(
    st.tuples(NUMBERS, NUMBERS).map(list),
    st.tuples(NUMBERS, NUMBERS).map(list),
    st.tuples(NUMBERS, NUMBERS).map(list),
    st.tuples(NUMBERS, ODD).map(list),
    st.tuples(ODD, NUMBERS).map(list),
    st.lists(st.one_of(NUMBERS, ODD), max_size=3),  # 0 to 3 items, some not numbers
    ODD,
)
ENTRIES = st.one_of(st.lists(PAIRS, max_size=9), st.lists(PAIRS, max_size=9), ODD)
DIMS = st.one_of(
    st.integers(-2, 4), st.integers(0, 3), st.sampled_from([True, 2.0, "2", None, 10**400, 2**62, 2**59 - 1])
)


@st.composite
def matrix_objects(draw):
    """A matrix object: mostly well formed, with rows * cols that usually
    matches its entries; sometimes a key is missing or it is no object."""
    rows, cols = draw(DIMS), draw(DIMS)
    if draw(st.booleans()) and type(rows) is int and type(cols) is int and 0 <= rows * cols <= 9:
        entries = draw(st.lists(PAIRS, min_size=rows * cols, max_size=rows * cols))
    else:
        entries = draw(ENTRIES)
    obj = {"rows": rows, "cols": cols, "entries": entries}
    if draw(st.integers(0, 9)) == 0:
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj if draw(st.integers(0, 19)) else draw(ODD)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def outcome(read, *args):
    """What a reader does with its input: ("ok", value) or ("error", its
    diagnostics, or the type and message of any other exception)."""
    try:
        return "ok", read(*args)
    except ParseError as e:
        return "error", e.diagnostics
    except Exception as e:  # noqa: BLE001 - compared, not hidden
        return "error", (type(e), str(e))


@settings(max_examples=400, deadline=None)
@given(ENTRIES)
def test_entry_lists_match_the_reference(pairs):
    got, want = serialize._complex_entries(pairs), reference_reader._complex_entries(pairs)
    assert (got is None) == (want is None)
    if want is not None:
        assert same_bits(got, want)


@settings(max_examples=400, deadline=None)
@given(matrix_objects())
def test_matrix_objects_match_the_reference(obj):
    got, want = outcome(serialize.matrix_from_json, obj, "m"), outcome(reference_reader.matrix_from_json, obj, "m")
    assert got[0] == want[0]
    if want[0] == "ok":
        assert same_bits(got[1], want[1])
    else:
        assert got[1] == want[1]


def operator_slots(doc: dict) -> list:
    """(gate position, dict holding a matrix object, its key) for every matrix
    of a circuit document, in reading order."""
    slots = []
    for i, g in enumerate(doc["gates"]):
        if g["kind"] == "measure":
            for m in g["measurements"].values():
                slots += [(i, m["outcomes"], label) for label in m["outcomes"]]
        else:
            slots += [(i, g["ops"], uid) for uid in g["ops"]]
    return slots


RESPELL = {0.0: [0.0, 0, -0.0], 1.0: [1.0, 1], -1.0: [-1.0, -1]}
BREAKS = [("kind", "bogus"), ("registers", "r"), ("controls", [1]), ("selector", []), ("id", 7)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_circuit_files_match_the_reference(data):
    """Teleport with its entries respelled, some of its matrices replaced by
    drawn ones, and sometimes one gate's structure broken, so that a bad
    matrix can come before or after another error: both readers raise the
    same diagnostics or read the same bits."""
    doc = copy.deepcopy(TELEPORT)
    slots = operator_slots(doc)
    for _, holder, key in slots:  # the same values spelled as ints and -0.0 as well
        entries = holder[key]["entries"]
        holder[key]["entries"] = [[data.draw(st.sampled_from(RESPELL.get(x, [x]))) for x in p] for p in entries]
    for _ in range(data.draw(st.integers(0, 3))):
        _, holder, key = data.draw(st.sampled_from(slots))
        holder[key] = data.draw(matrix_objects())
    if data.draw(st.booleans()):
        gate = data.draw(st.sampled_from(doc["gates"]))
        key, value = data.draw(st.sampled_from(BREAKS))
        gate[key] = value
    got, want = outcome(serialize.circuit_from_json, doc), outcome(reference_reader.circuit_from_json, doc)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]
        return
    assert [g.id for g in got[1].gates] == [g.id for g in want[1].gates]
    for g, h in zip(got[1].gates, want[1].gates):
        for u, v in zip(g.unitaries.values(), h.unitaries.values()):
            assert same_bits(u.matrix, v.matrix)
        for m, n in zip(g.measurements.values(), h.measurements.values()):
            assert list(m.operators) == list(n.operators)
            assert all(same_bits(a, b) for a, b in zip(m.operators.values(), n.operators.values()))


KETS = st.one_of(
    st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(list), min_size=1, max_size=8),
    st.lists(PAIRS, max_size=8),
    ODD,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(KETS.map(lambda k: {"ket": k}), matrix_objects()))
def test_state_files_match_the_reference(obj):
    """`--input` states, kets and matrices, through the same entry rule."""
    got, want = outcome(serialize.state_from_json, obj, "s"), outcome(reference_reader.state_from_json, obj, "s")
    assert got[0] == want[0]
    if want[0] == "ok":
        assert same_bits(got[1].matrix, want[1].matrix)
    else:
        assert got[1] == want[1]
