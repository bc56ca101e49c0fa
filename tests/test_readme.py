"""README.md is checked, not trusted: its diagnostics table against the codes
`src/qcirc` emits, its `check-faithful` failure kinds against those
`deferral.py` emits, its Python quick start and its CLI examples by running
them, its text against every subcommand and option of the parser, and its
scripts list against `scripts/`."""

import argparse
import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from qcirc.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
EMITTERS = {"err": 0, "_diag": 0, "_error": 0, "Diagnostic": 1}  # callee -> position of the code


def emitted_codes() -> set:
    """String literals that `src/qcirc` passes as the code to a diagnostic
    constructor, positionally or as `code=`."""
    codes = set()
    for path in (ROOT / "src" / "qcirc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in EMITTERS:
                continue
            args = node.args[EMITTERS[name]:EMITTERS[name] + 1]
            args += [k.value for k in node.keywords if k.arg == "code"]
            codes.update(a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return codes


def table_rows() -> list:
    """(code, source, meaning) of each row of the README's diagnostics table."""
    section = README.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([a-z-]+)` \| ([^|]+?) \| (.+?) \|$", section, re.M)


def fenced(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_diagnostics_table_lists_exactly_the_emitted_codes():
    rows = table_rows()
    codes = [code for code, _, _ in rows]
    assert len(codes) == len(set(codes)), "a code has two rows"
    assert all(source.strip() and meaning.strip() for _, source, meaning in rows)
    emitted = emitted_codes()
    assert set(codes) - emitted == set(), "rows for codes src/qcirc never emits"
    assert emitted - set(codes) == set(), "codes src/qcirc emits without a row"


def emitted_failure_kinds() -> set:
    """String literals that `deferral.py` writes as a failure's `"kind"`:
    in a dict literal, or in the kind passed to `_failure` (a literal, or
    either branch of a conditional expression)."""
    kinds = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "qcirc" / "deferral.py").read_text())):
        if isinstance(node, ast.Dict):
            kinds.update(v.value for k, v in zip(node.keys, node.values)
                         if isinstance(k, ast.Constant) and k.value == "kind" and isinstance(v, ast.Constant))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_failure":
            kinds.update(a.value for a in ast.walk(node.args[0])
                         if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return kinds


def listed_failure_kinds() -> list:
    """The kinds named before the colon of each bullet of the README's
    `check-faithful` failure list."""
    section = README.split("\n### `check-faithful ", 1)[1].split("\n### ", 1)[0]
    bullets = section.split("Each failure has a `kind`", 1)[1].split("\n\n")[1]
    return [kind for head in re.findall(r"^- ([^:\n]*):", bullets, re.M) for kind in re.findall(r"`([a-z-]+)`", head)]


def test_failure_kind_list_names_exactly_the_emitted_kinds():
    listed, emitted = listed_failure_kinds(), emitted_failure_kinds()
    assert len(listed) == len(set(listed)), "a kind is listed twice"
    assert set(listed) - emitted == set(), "kinds deferral.py never emits"
    assert emitted - set(listed) == set(), "kinds deferral.py emits without a bullet"
    assert len(emitted) >= 4


def test_every_code_is_quoted_by_another_test():
    others = [p.read_text() for p in Path(__file__).parent.glob("test_*.py") if p.name != Path(__file__).name]
    unquoted = sorted(c for c in emitted_codes() if not any(f'"{c}"' in text for text in others))
    assert unquoted == []


def test_python_quick_start_runs():
    (block,) = fenced("python")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), {})


def cli_examples() -> list:
    """The argv of each `qcirc ...` line of the README's sh blocks, with `\\`
    continuations joined and `#` comments dropped."""
    lines = "\n".join(fenced("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("qcirc ")]


def test_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    examples = cli_examples()
    assert len(examples) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        argv = [str(ROOT / a) if a.startswith("tests/fixtures/") else a for a in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_every_subcommand_and_option_is_documented():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [name for name in sub.choices if f"`{name} " not in README]
    for name, parser in sub.choices.items():
        for action in parser._actions:
            missing += [o for o in action.option_strings if not re.search(rf"(?<![\w-]){o}(?![\w-])", README)]
    assert missing == []


def test_scripts_list_names_exactly_the_scripts():
    """The "Tests, benchmark and scripts" list names each file of
    `scripts/*.py` and no other, so a deleted script does not stay documented."""
    section = README.split("\n## Tests, benchmark and scripts\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"scripts/(\w+\.py)", section))
    assert named == {p.name for p in (ROOT / "scripts").glob("*.py")}
