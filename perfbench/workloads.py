"""The four workloads: seeded job corpora, their input files and their
oracle checks.

A job is a list of `qcirc` command lines run in order inside the work
directory (all paths are relative, so job output does not depend on where the
directory is). `build(name, seed, call)` writes every input file into the
current directory and returns the jobs; `call(argv)` runs one command and
returns (exit code, stdout), which set-up needs for the compile workload's
broken-correction control. A job's `check(outputs)` returns the problems found
in its [(exit code, stdout), ...], compared with answers that `oracle`
computed independently during set-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import gen
import oracle

NAMES = ("shots", "denote", "compile", "structure")
SHOTS = 100  # shots per `run` job
ENUM_LIMIT = 10  # `schedules --enumerate --limit`
RANDOM_INPUTS = 4  # `check-faithful --inputs random:K`
KNOWN_DEFECT = ("check-faithful with its default basis inputs accepts the dropped-Z target, "
                "whose error is a phase that basis states cannot see")

# Seconds one pass over each corpus took when the benchmark was defined (2-vCPU
# x86-64 VM, Python 3.11, numpy 2.4 with OpenBLAS, host not contended). A run makes
# a fixed number of whole passes derived from --seconds and these constants,
# so every run of a workload has the same job mix and sample count and its
# latency quantiles fall at the same ranks; it lasts about --seconds there.
PASS_SECONDS = {"shots": 4.7, "denote": 4.2, "compile": 2.6, "structure": 3.5}


def passes(name: str, seconds: float) -> int:
    """Whole passes for a run of about `seconds`; at least two, so that every
    job runs twice and its repeat is checked byte for byte."""
    return max(2, math.floor(seconds / PASS_SECONDS[name] + 0.5))


@dataclass
class Job:
    name: str
    commands: list
    check: Callable[[list], list]
    known_defect: Optional[Callable[[list], bool]] = None


def _write(name: str, obj) -> str:
    Path(name).write_text(json.dumps(obj) + "\n")
    return name


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(workload)])


def _shape(slot: int) -> np.random.Generator:
    """Constant stream for a random circuit's skeleton (see gen). Jobs of one
    size class share a skeleton, so their costs match. The class counts are
    chosen so that, at the fixed pass count, the median and the tail
    percentile fall inside a class rather than on the edge between two."""
    return np.random.default_rng([1000, slot])


def _seed(rng) -> str:
    return str(int(rng.integers(2**31)))


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as e:
        return None, [f"stdout is not JSON: {e}"]


def _ok(outputs: list) -> list:
    return [f"command {i} exited {rc}" for i, (rc, _) in enumerate(outputs) if rc != 0]


# --- shots ------------------------------------------------------------------


def _shots(seed: int) -> list:
    rng = _rng(seed, "shots")
    cases = [("teleport", *gen.teleport()), ("teleport", *gen.teleport())]
    cases += [(f"ghz{n}", gen.ghz(n), gen.zero_ket(n)) for n in (4, 4, 5, 5, 5, 5, 6)]
    cases += [(f"ff{k}", gen.feed_forward(k), gen.zero_ket(2)) for k in (2, 3, 4)]
    for _ in range(5):
        c = gen.random_mixed(_shape(2), rng, 4, 7, cc_measure_min=1)
        cases.append(("mixed", c, gen.random_ket(rng, 4)))
    jobs = []
    for i, (family, c, state) in enumerate(cases):
        cpath, spath = _write(f"s{i}.json", c), _write(f"s{i}.in.json", state)
        exact = oracle.track_probabilities(c, state)
        argv = ["run", cpath, "--input", spath, "--seed", _seed(rng), "--shots", str(SHOTS)]
        jobs.append(Job(f"shots/{i}/{family}", [argv], _check_shots(exact)))
    return jobs


def _check_shots(exact: dict):
    def check(outputs):
        problems = _ok(outputs)
        if problems:
            return problems
        out, bad = _parse(outputs[0][1])
        if bad:
            return bad
        if out["shots"] != SHOTS:
            return [f"reported {out['shots']} shots"]
        for f in out["frequencies"]:
            if f["frequency"] != f["count"] / SHOTS:
                return [f"frequency {f['frequency']} is not {f['count']}/{SHOTS}"]
        return oracle.frequencies_fit(out["frequencies"], SHOTS, exact)

    return check


# --- denote -----------------------------------------------------------------


def _denote(seed: int) -> list:
    rng = _rng(seed, "denote")
    cases = [(f"ghz{n}", gen.ghz(n), gen.zero_ket(n)) for n in (3, 4, 5, 5, 5, 5, 6)]
    cases.append(("teleport", *gen.teleport()))
    cases += [(f"ff{k}", gen.feed_forward(k), gen.zero_ket(2)) for k in (2, 3, 4)]
    for _ in range(6):
        c = gen.random_mixed(_shape(12), rng, 3, 6, cc_measure_min=1)
        cases.append(("mixed", c, gen.random_ket(rng, 3)))
    jobs = []
    for i, (family, c, state) in enumerate(cases):
        cpath, spath = _write(f"d{i}.json", c), _write(f"d{i}.in.json", state)
        exact = oracle.track_probabilities(c, state)
        if family.startswith("ghz"):
            known = {t: 0.5 if len({lab for _, lab in t}) == 1 else 0.0 for t in exact}
        elif family == "teleport":
            known = {t: 0.25 for t in exact}
        else:
            known = exact
        dim = 2 ** len(c["registers"])
        jobs.append(Job(f"denote/{i}/{family}", [["aggregate", cpath, "--input", spath]],
                        _check_denote(known, dim)))
    return jobs


def _check_denote(known: dict, dim: int, tol: float = 1e-9):
    def check(outputs):
        problems = _ok(outputs)
        if problems:
            return problems
        out, bad = _parse(outputs[0][1])
        if bad:
            return bad
        got = {tuple(sorted(t["outcomes"].items())): t["probability_on"] for t in out["tracks"]}
        if set(got) != set(known):
            return [f"{len(got)} tracks reported, {len(known)} expected"]
        if any(t["operator"]["rows"] != dim or t["operator"]["cols"] != dim for t in out["tracks"]):
            return [f"an operator is not {dim}x{dim}"]
        problems = [f"track {t}: probability {p!r}, expected {known[t]!r}"
                    for t, p in got.items() if abs(p - known[t]) > tol]
        total = sum(got.values())
        if abs(total - 1.0) > tol:
            problems.append(f"probabilities sum to {total!r}")
        return problems

    return check


# --- compile ----------------------------------------------------------------


def compile_sources(seed: int) -> tuple[list, np.random.Generator]:
    """(family, source circuit) of every compile job, in job order, and the
    generator that then draws the jobs' `--seed` values."""
    rng = _rng(seed, "compile")
    cases = [(f"ff{k}", gen.feed_forward(k)) for k in (1, 2, 3, 4, 5, 5, 5)]
    cases.append(("teleport", gen.teleport()[0]))
    for slot, n in (20, 2), (20, 2), (20, 2), (27, 3), (27, 3), (27, 3):
        cases.append((f"deferrable{n}", gen.random_deferrable(_shape(slot), rng, n, 5)))
    cases.append(("dropped_z", gen.dropped_z_pair()[0]))
    cases.append(("broken_ff3", gen.feed_forward(3)))
    return cases, rng


def _compile(seed: int, call) -> list:
    cases, rng = compile_sources(seed)
    jobs = []
    for i, (family, c) in enumerate(cases):
        cpath, dpath = _write(f"c{i}.json", c), f"c{i}.out.json"
        zpath = f"c{i}.out.zeta.json"
        target, zeta, faithful = dpath, zpath, True
        if family == "dropped_z":
            _, tgt, z = gen.dropped_z_pair()
            target, zeta, faithful = _write(f"c{i}.t.json", tgt), _write(f"c{i}.t.zeta.json", z), False
        elif family == "broken_ff3":
            rc, _ = call(["defer", cpath, "-o", f"c{i}.full.json"])
            full = json.loads(Path(f"c{i}.full.json").read_text())
            if rc != 0 or not any(g["id"] == "x1" for g in full["gates"]):
                raise RuntimeError("set-up: deferred ff3 has no correction x1 to remove")
            full["gates"] = [g for g in full["gates"] if g["id"] != "x1"]
            target, zeta, faithful = _write(f"c{i}.t.json", full), f"c{i}.full.zeta.json", False
        check = ["check-faithful", cpath, target, "--zeta", zeta]
        cmds = [["defer", cpath, "-o", dpath], check,
                check + ["--inputs", f"random:{RANDOM_INPUTS}", "--seed", _seed(rng)]]
        jobs.append(Job(f"compile/{i}/{family}", cmds, _check_compile(dpath, faithful),
                        _dropped_z_false_accept if family == "dropped_z" else None))
    return jobs


def _verdict(rc: int, stdout: str):
    out, bad = _parse(stdout)
    if bad or rc not in (0, 1) or out.get("ok") is not (rc == 0):
        return None
    return out["ok"]


def _check_compile(dpath: str, faithful: bool):
    def check(outputs):
        problems = _ok(outputs[:1])
        if problems:
            return problems
        out, bad = _parse(outputs[0][1])
        if bad:
            return bad
        red = oracle.red_gates(json.loads(Path(dpath).read_text()))
        if out["red_gates"] or red:
            problems.append(f"deferred circuit has red gates {red or out['red_gates']}")
        for name, (rc, stdout) in zip(("default inputs", "random inputs"), outputs[1:]):
            verdict = _verdict(rc, stdout)
            if verdict is None:
                problems.append(f"check-faithful ({name}) gave no verdict (exit {rc})")
            elif verdict != faithful:
                problems.append(f"check-faithful ({name}) says faithful={verdict}, "
                                f"the known answer is {faithful}")
        return problems

    return check


def _dropped_z_false_accept(problems: list) -> bool:
    """Is the only problem the known default-input false accept?"""
    return problems == ["check-faithful (default inputs) says faithful=True, "
                        "the known answer is False"]


def deferred_size(seed: int, call) -> tuple[int, int]:
    """Registers and gates of `qcirc defer` output summed over the compile
    corpus of this seed: the size of the generated code."""
    regs = gates = 0
    for i, (_, c) in enumerate(compile_sources(seed)[0]):
        src, out = _write(f"size{i}.json", c), f"size{i}.out.json"
        rc, _ = call(["defer", src, "-o", out])
        if rc != 0:
            raise RuntimeError(f"defer failed on compile source {i}")
        d = json.loads(Path(out).read_text())
        regs += len(d["registers"])
        gates += len(d["gates"])
    return regs, gates


# --- structure --------------------------------------------------------------


def _structure(seed: int) -> list:
    rng = _rng(seed, "structure")
    state = _write("zero6.json", gen.zero_ket(6))
    jobs = []
    for i, n_gates in enumerate((30,) * 6 + (40,) * 4 + (70,)):
        c = gen.random_long(_shape(n_gates), rng, 6, n_gates)
        cpath = _write(f"l{i}.json", c)
        cmds = [["validate", cpath], ["schedules", cpath],
                ["schedules", cpath, "--enumerate", "--limit", str(ENUM_LIMIT)],
                ["run", cpath, "--input", state, "--seed", _seed(rng)]]
        want = oracle.count_linear_extensions(c, ENUM_LIMIT)
        jobs.append(Job(f"structure/{i}/g{n_gates}", cmds, _check_structure(c, state, want)))
    return jobs


def _check_structure(c: dict, state_path: str, extensions: int):
    state = json.loads(Path(state_path).read_text())

    def check(outputs):
        problems = _ok(outputs)
        if problems:
            return problems
        parsed = []
        for _, stdout in outputs:
            out, bad = _parse(stdout)
            if bad:
                return bad
            parsed.append(out)
        valid, greedy, linear, shot = parsed
        if valid != {"ok": True}:
            problems.append(f"validate printed {valid}")
        if len(greedy["schedules"]) != 1:
            return problems + ["schedules printed more than one greedy schedule"]
        bouts = greedy["schedules"][0]["bouts"]
        problems += oracle.greedy_problems(c, bouts)
        problems += oracle.linear_schedule_problems(c, linear["schedules"], extensions)
        if [sorted(s["bout"]) for s in shot["steps"]] != [sorted(b) for b in bouts]:
            problems.append("run did not fire the greedy bouts")
        p = oracle.track_probability(c, state, shot["track"])
        walked = float(np.prod([s["probability"] for s in shot["steps"]]))
        if not p > 1e-12 or abs(walked - p) > 1e-9 * max(1.0, p):
            problems.append(f"sampled track has probability {p!r}, steps multiply to {walked!r}")
        return problems

    return check


def build(name: str, seed: int, call) -> list:
    if name == "shots":
        return _shots(seed)
    if name == "denote":
        return _denote(seed)
    if name == "compile":
        return _compile(seed, call)
    return _structure(seed)
