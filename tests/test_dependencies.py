"""The runtime dependency is numpy only: every module of the package imports
from the standard library, numpy, or the package itself."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "qcirc"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "qcirc" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_qcirc(path):
    roots = set(_imported_roots(ast.parse(path.read_text(), str(path))))
    assert roots, "no import found"
    allowed = sys.stdlib_module_names | {"numpy", "qcirc"}
    assert roots <= allowed, f"{path.name} imports {sorted(roots - allowed)}"


def _numpy_random_uses(tree):
    """Line numbers of `np.random`/`numpy.random` attributes and of imports
    that bring in `numpy.random` (`import numpy.random`, `from numpy.random
    import ...`, `from numpy import random`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.random") for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names)
            ):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_draws_nothing_from_numpy_random(path):
    """Every seeded draw comes from `semantics.splitmix64`, whose bits no numpy
    release can change; `numpy.random`'s `Generator` methods are not frozen."""
    lines = list(_numpy_random_uses(ast.parse(path.read_text(), str(path))))
    assert not lines, f"{path.name} uses numpy.random on lines {lines}"


def _unused_imports(tree):
    """Names that the module's imports bind (`from __future__` aside) and
    that no name in the module reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_module_uses_every_name_it_imports(path):
    """No import is left behind by an edit, in the package, the tests or the
    scripts; `__init__.py` imports to re-export."""
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, f"{path.name} imports {unused} without using them"


_PRODUCTS = {"matmul", "dot", "tensordot", "einsum"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"), ids=lambda p: p.name)
def test_only_linalg_calls_numpy_products(path):
    """`linalg.apply` is the one kernel that applies operators to states:
    no other module calls `np.matmul`, `np.dot`, `np.tensordot` or
    `np.einsum` (the `@` operator is not a call and is not counted)."""
    lines = [
        node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in _PRODUCTS
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert not lines, f"{path.name} calls a numpy product on lines {lines}"


def _names(tree):
    """Every name the module reads, its attributes and what it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "semantics.py"] + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_only_semantics_runs_the_walk(path):
    """The walk's internals stay in `semantics`: every other module and
    script reads the walk through `track_rows` and `track_stack`, or its
    compact stack (`_stack`) as it is, and none rebuilds a full block from
    compact ones (`_full`): the checker compares compact rows."""
    named = {"_walk_plan", "_run", "_expand", "_full"} & set(_names(ast.parse(path.read_text(), str(path))))
    assert not named, f"{path.name} names {sorted(named)}"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "circuit.py"] + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_only_circuit_reads_the_validation_verdicts(path):
    """Validation's verdicts have one owner, `circuit`: every other module
    and script asks `validate_circuit` or `check_valid`, and no walk
    re-derives a verdict of its own."""
    named = {"_verdicts", "_diagnostics"} & set(_names(ast.parse(path.read_text(), str(path))))
    assert not named, f"{path.name} names {sorted(named)}"


# Module-level functions that no package code names and `__all__` does not
# export, each kept for a stated reason.
_UNREFERENCED_KEPT = {
    "bout_operator": "paper: the operator of one bout under one assignment",
    "replay": "paper: a track's step-by-step probabilities under a schedule",
    "schedules_equivalent": "paper: schedule independence, checked by the acceptance gate",
    "split_bout": "paper: one step of the transposition path between schedules",
    "differentiating_pairs": "paper: the length of the transposition path",
    "matrix_to_json": "perfbench/spans.py times it as a serialize span",
}


def test_every_package_function_has_a_user():
    """Each module-level function of the package is named by package code
    outside its own `def`, exported by `__all__`, or kept in
    `_UNREFERENCED_KEPT` with its reason: a helper that only tests call is
    deleted, not carried."""
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    named = Counter(name for tree in trees for name in _names(tree))
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = next(
        ast.literal_eval(node.value) for node in init.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    orphans = sorted(
        node.name for tree in trees for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and named[node.name] == Counter(_names(node))[node.name]
        and node.name not in exported and node.name not in _UNREFERENCED_KEPT
    )
    assert not orphans, f"no package code uses {orphans}"
