"""The runtime dependency is numpy only: every module of the package imports
from the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "qcirc"


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
