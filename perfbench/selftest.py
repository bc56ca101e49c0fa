"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks that a run emits exactly the metrics BENCHMARK.json names, that each
workload's oracle accepts a real output and rejects a deliberately corrupted
one, that a job whose output changes between runs fails, and that the
benchmark refuses to run without the qcirc sources.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refcases  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qcirc import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_SCRATCH = []


def _scratch() -> Path:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    _SCRATCH.append(Path(tempfile.mkdtemp(prefix="selftest-", dir=base)))
    return _SCRATCH[-1]


def teardown_module():
    for path in _SCRATCH:
        shutil.rmtree(path, ignore_errors=True)


def _result(argv: list) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], **json.loads(lines[-1])}


def test_every_metric_is_emitted():
    names = {"--trace 0": {m["name"] for m in SPEC["end_to_end"]},
             "--trace 1": {m["name"] for m in SPEC["per_layer"]}}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    saved = run.REF_TOTAL_S
    run.REF_TOTAL_S = 0.0  # skip the slow reference cases here
    try:
        for trace in (0, 1):
            res = _result(["--workload", "compile", "--seed", "1", "--seconds", "0.1",
                           "--trace", str(trace)])
            assert set(res["metrics"]) == names[f"--trace {trace}"], trace
            for name, metric in res["metrics"].items():
                assert metric["unit"] == units[name], name
            assert res["correct"] and res["attempted"] >= 1
        refs = res["report"]["reference_cases"]
        assert set(refs) == set(refcases.CASES)
        assert all(r == {"skipped": "budget"} for r in refs.values())
    finally:
        run.REF_TOTAL_S = saved


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(x) for x in range(1, 21)]) == (50, 10.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def _jobs(name: str) -> tuple[run.Runner, dict]:
    runner = run.Runner(cli)
    os.chdir(_scratch())
    return runner, {job.name.split("/", 2)[2] + "/" + job.name.split("/")[1]: job
                    for job in workloads.build(name, 5, runner.call)}


def _find(jobs: dict, family: str):
    return next(job for key, job in jobs.items() if key.startswith(family + "/"))


def _rewrite(outputs: list, index: int, edit) -> list:
    rc, stdout = outputs[index]
    obj = json.loads(stdout)
    new_rc = edit(obj)
    rc = rc if new_rc is None else new_rc
    out = list(outputs)
    out[index] = (rc, json.dumps(obj))
    return out


def _accepts_then_rejects(runner, job, corrupt) -> None:
    _, outputs, error = runner.execute(job)
    assert error is None and job.check(outputs) == [], job.name
    assert job.check(corrupt(outputs)), f"{job.name}: corrupted output accepted"


def test_oracles_reject_corrupted_outputs():
    home = os.getcwd()
    try:
        runner, jobs = _jobs("shots")

        def shift(obj):  # move every shot of the likeliest track to another
            freqs = sorted(obj["frequencies"], key=lambda f: -f["count"])
            freqs[1]["count"] += freqs[0]["count"]
            freqs[0]["count"] = 0
            for f in freqs:
                f["frequency"] = f["count"] / obj["shots"]

        _accepts_then_rejects(runner, _find(jobs, "teleport"), lambda o: _rewrite(o, 0, shift))

        runner, jobs = _jobs("denote")

        def nudge(obj):
            obj["tracks"][0]["probability_on"] += 1e-6

        for family in ("ghz3", "teleport", "mixed"):
            _accepts_then_rejects(runner, _find(jobs, family), lambda o: _rewrite(o, 0, nudge))

        runner, jobs = _jobs("compile")

        def flip(obj):
            obj["ok"] = not obj["ok"]
            return 0 if obj["ok"] else 1

        def redden(obj):
            obj["red_gates"] = ["h0"]

        ff2 = _find(jobs, "ff2")
        _accepts_then_rejects(runner, ff2, lambda o: _rewrite(o, 2, flip))
        _accepts_then_rejects(runner, ff2, lambda o: _rewrite(o, 0, redden))
        _accepts_then_rejects(runner, _find(jobs, "broken_ff3"), lambda o: _rewrite(o, 1, flip))
        dropped = _find(jobs, "dropped_z")
        _, outputs, _ = runner.execute(dropped)
        assert runner.judge(dropped, outputs, None) in ("ok", "known")
        wrong = _rewrite(outputs, 2, flip)
        assert not dropped.known_defect(dropped.check(wrong))

        runner, jobs = _jobs("structure")

        def merge(obj):  # fire the first two greedy bouts as one
            bouts = obj["schedules"][0]["bouts"]
            bouts[:2] = [bouts[0] + bouts[1]]

        def repeat(obj):
            obj["schedules"][-1] = obj["schedules"][0]

        g30 = _find(jobs, "g30")
        _accepts_then_rejects(runner, g30, lambda o: _rewrite(o, 1, merge))
        _accepts_then_rejects(runner, g30, lambda o: _rewrite(o, 2, repeat))
    finally:
        os.chdir(home)


def test_changed_output_fails():
    home = os.getcwd()
    try:
        runner, jobs = _jobs("compile")
        job = _find(jobs, "ff1")
        _, outputs, _ = runner.execute(job)
        assert runner.judge(job, outputs, None) == "ok"
        assert runner.judge(job, outputs, None) == "ok"
        assert runner.judge(job, [(rc, out + " ") for rc, out in outputs], None) == "fail"
    finally:
        os.chdir(home)


def test_refuses_to_run_without_sources():
    bare = _scratch()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "shots",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == "", proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
    teardown_module()
