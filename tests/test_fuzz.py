"""Mutation fuzzing of every file reader through `qcirc.cli.main`.

Each example takes one fixture kind (circuit, ket and matrix state,
schedule, poset, order, sidecar), applies one to three mutations at random
places in its JSON tree (a dropped key or item, a value of another type,
NaN, Infinity or an integer too large for a float, extra nesting), and runs
the commands that read it. Each must return 0, 1 or 2 with no exception
escaping, and on exit 1 every stderr line is a JSON object with a `code`.

Every input stays small, since nothing guards dense sizes yet: mutated
circuits only go through `validate` and `schedules --enumerate --limit 3`,
mutated states only through `aggregate` of the teleport fixture, replacement
lists hold at most 4 items, and replacement strings never name a fixture
gate, so no `controls` list can grow a selector product.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcirc.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TELEPORT = str(FIXTURES / "teleport.json")
PSI = str(FIXTURES / "psi.json")
POSET = str(FIXTURES / "poset.json")
ORDER_A, ORDER_B = str(FIXTURES / "order_a.json"), str(FIXTURES / "order_b.json")

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**64])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    SPECIAL,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="abxyz01,", max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(alphabet="abc", max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    """Every node's key path, the root's included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _mutate(data, obj):
    path = data.draw(st.sampled_from(list(_paths(obj))))
    how = data.draw(st.sampled_from(["drop", "replace", "special", "nest"]))
    if not path:
        return {} if how == "drop" else _changed(data, how, obj)
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _changed(data, how, parent[path[-1]])
    return obj


def _changed(data, how: str, value):
    if how == "replace":
        return data.draw(VALUES)
    if how == "special":
        return data.draw(SPECIAL)
    return data.draw(st.sampled_from([[value], {"a": value}]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fixture documents by kind, and the deferred teleport circuit and sidecar."""
    d = tmp_path_factory.mktemp("fuzz")
    deferred = str(d / "deferred.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["defer", TELEPORT, "-o", deferred]) == 0
    psi = np.array([complex(*p) for p in json.loads(Path(PSI).read_text())["ket"]])
    rho = np.outer(psi, psi.conj()).reshape(-1)
    docs = {
        "circuit": TELEPORT,
        "ket": PSI,
        "schedule": str(FIXTURES / "schedule.json"),
        "poset": POSET,
        "order": ORDER_A,
        "sidecar": str(d / "deferred.zeta.json"),
    }
    docs = {kind: Path(path).read_text() for kind, path in docs.items()}
    docs["matrix"] = json.dumps({"rows": 8, "cols": 8, "entries": [[z.real, z.imag] for z in rho]})
    return d, deferred, docs


def _commands(kind: str, path: str, deferred: str) -> list:
    return {
        "circuit": [["validate", path], ["schedules", path, "--enumerate", "--limit", "3"]],
        "ket": [["aggregate", TELEPORT, "--input", path]],
        "matrix": [["aggregate", TELEPORT, "--input", path]],
        "schedule": [["run", TELEPORT, "--input", PSI, "--seed", "1", "--schedule", path]],
        "poset": [["transpose-path", path, "--from", ORDER_A, "--to", ORDER_B]],
        "order": [
            ["transpose-path", POSET, "--from", path, "--to", ORDER_B],
            ["transpose-path", POSET, "--from", ORDER_A, "--to", path],
        ],
        "sidecar": [["check-faithful", TELEPORT, deferred, "--zeta", path]],
    }[kind]


@pytest.mark.parametrize("kind", ["circuit", "ket", "matrix", "schedule", "poset", "order", "sidecar"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_file_ends_in_a_diagnostic(files, kind, data):
    d, deferred, docs = files
    obj = json.loads(docs[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _mutate(data, obj)
    path = d / f"mutated_{kind}.json"
    path.write_text(json.dumps(obj))
    for argv in _commands(kind, str(path), deferred):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code
        assert rc in (0, 1, 2), (argv, rc)
        if rc == 1:
            for line in err.getvalue().splitlines():
                diag = json.loads(line)
                assert isinstance(diag, dict) and "code" in diag, line
