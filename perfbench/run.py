#!/usr/bin/env python3
"""qcirc benchmark: seeded CLI job workloads, closed loop with one client.

    python3 perfbench/run.py --workload shots --seed 1 --seconds 16 --trace 0

Run from the repository root. Each job is one or more real `qcirc`
subcommands, run in-process through `qcirc.cli.main(argv)` with stdout
captured, on input files generated from `--seed` in a temporary directory
under `.perfbench_work/`. Every job's output is checked against an
independent oracle (see workloads.py).

With `--trace 0` the run measures a fixed number of whole passes over the job
corpus, about `--seconds` worth (see `workloads.passes`), and prints the
end-to-end metrics, every time calibrated for the host's speed (see
CALIBRATION_REF_S below). With `--trace 1` it runs every job once untraced
and once traced, prints the per-layer metrics of the traced runs and the
tracing overhead, and times the reference cases of ROADMAP.md (see
refcases.py). The last stdout line is the result object; the line before it
is a report with provenance, output digest, tail percentile, error rate,
raw wall-clock figures and failures.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REF_BUDGET_S = 10.0  # per reference case
REF_TOTAL_S = 45.0

# The speed of a shared VM drifts by 30% and more over tens of seconds: a
# fixed pure-Python loop alternates between about 20 and 28 ms on the 2-vCPU
# VM where this benchmark was defined, and whole runs land in one state or
# the other. So `host_slowdown()` runs before every job (outside its timing),
# and every reported time t becomes t / s, where s is the median slowdown
# over the five measurements nearest the job: the job's time on that VM when
# not contended. These are the three calibration loops' times there. Raw
# wall-clock figures are in the report line.
CALIBRATION_REF_S = (1.4e-3, 2.0e-3, 1.45e-3)


def parse_args(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- running jobs -----------------------------------------------------------


class Runner:
    """Runs `qcirc` commands in-process and judges job outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.seen = {}  # job name -> (output digest, status, problems)

    def call(self, argv: list) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 2
        return rc, out.getvalue()

    def execute(self, job) -> tuple[float, list, str | None]:
        """(seconds, [(exit code, stdout), ...], error) of one job."""
        outputs, error = [], None
        start = time.perf_counter()
        try:
            for argv in job.commands:
                outputs.append(self.call(argv))
        except Exception:  # a crash is a failed job, not a failed benchmark
            error = traceback.format_exc(limit=3)
        return time.perf_counter() - start, outputs, error

    def judge(self, job, outputs: list, error) -> str:
        """'ok', 'known' (a listed program defect) or 'fail'. A job seen
        before must repeat its exit codes and stdout byte for byte."""
        digest = fingerprint(outputs)
        if job.name in self.seen:
            first, status, problems = self.seen[job.name]
            if digest == first:
                return status
            self.seen[job.name] = (first, "fail", problems + ["output differs from an earlier run"])
            return "fail"
        if error is not None:
            problems = [error]
        else:
            try:
                problems = job.check(outputs)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
                problems = [f"malformed output: {e!r}"]
        if not problems:
            status = "ok"
        elif job.known_defect is not None and job.known_defect(problems):
            status = "known"
        else:
            status = "fail"
        self.seen[job.name] = (digest, status, problems)
        return status


def fingerprint(outputs: list) -> tuple:
    """(exit code, sha256 of stdout) of each command of a job."""
    return tuple((rc, hashlib.sha256(stdout.encode()).hexdigest()) for rc, stdout in outputs)


def output_digest(runner: Runner, jobs: list) -> str:
    """sha256 over the stdout digests of every command of every job, in
    corpus order; it changes whenever any job's seeded stdout changes."""
    h = hashlib.sha256()
    for job in jobs:
        for _, sha in runner.seen[job.name][0]:
            h.update(sha.encode())
    return h.hexdigest()


# --- set-up -----------------------------------------------------------------


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the CLI module."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import qcirc.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def set_up(name: str, seed: int, runner: Runner, base: Path) -> tuple[list, Path, float]:
    """Import, generate the corpus, write its files and warm up on the first
    job. Returns (jobs, work directory, seconds)."""
    import workloads

    start = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    os.chdir(work)
    jobs = workloads.build(name, seed, runner.call)
    runner.execute(jobs[0])
    return jobs, work, time.perf_counter() - start + import_seconds()


def host_slowdown() -> float:
    """How many times slower than uncontended the host runs now: the mean,
    over three fixed loops (Python arithmetic, building and JSON-encoding a
    list, small numpy products), of each loop's time over its reference."""
    import numpy as np

    m = (np.arange(1024.0).reshape(32, 32) % 7) / 7 + 0j
    marks = [time.perf_counter()]
    acc = 0
    for i in range(20000):
        acc += i * i
    marks.append(time.perf_counter())
    json.dumps([[float(i), -float(i)] for i in range(2500)])
    marks.append(time.perf_counter())
    for _ in range(30):
        np.kron(m[:4, :4], m[:8, :8]) @ m
    marks.append(time.perf_counter())
    return statistics.mean((b - a) / ref for a, b, ref in zip(marks, marks[1:], CALIBRATION_REF_S))


def calibrated(times: list, slowdowns: list) -> list:
    """Divide each time by the median of the five nearest slowdowns."""
    return [t / statistics.median(slowdowns[max(0, i - 2):i + 3]) for i, t in enumerate(times)]


def tail(latencies: list) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, and the nearest-rank sample there."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = math.floor(100 * (n - 10) / n)
    return p, xs[max(math.ceil(p / 100 * n), 1) - 1]


# --- the two kinds of run ---------------------------------------------------


def closed_loop(runner: Runner, jobs: list, passes: int, seed: int) -> tuple[list, list, list]:
    """`passes` whole passes over the corpus, each in a seeded order.
    Returns every job's latency, status and preceding host slowdown, in the
    order run."""
    import numpy as np

    order = np.random.default_rng([seed, 99])
    lat, statuses, slowdowns = [], [], []
    for _ in range(passes):
        for j in order.permutation(len(jobs)):
            job = jobs[j]
            slowdowns.append(host_slowdown())
            t, outputs, error = runner.execute(job)
            lat.append(t)
            statuses.append(runner.judge(job, outputs, error))
    return lat, statuses, slowdowns


def paired_pass(runner: Runner, jobs: list, tracer) -> tuple[float, float, int]:
    """Run every job once untraced and once traced, back to back in
    alternating order so that both see the same machine state. Returns
    (untraced seconds, traced seconds, traced stdout bytes)."""
    plain = traced = 0.0
    nbytes = 0
    for i, job in enumerate(jobs):
        for on in (False, True) if i % 2 == 0 else (True, False):
            if on:
                tracer.install()
            try:
                t, outputs, error = runner.execute(job)
            finally:
                if on:
                    tracer.uninstall()
            runner.judge(job, outputs, error)
            if on:
                traced += t
                nbytes += sum(len(stdout.encode()) for _, stdout in outputs)
            else:
                plain += t
    return plain, traced, nbytes


# --- provenance -------------------------------------------------------------


def blas_info() -> dict:
    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(seed: int) -> dict:
    import numpy as np

    rev = None  # a checkout without .git (an export) has no rev; src_sha256 still pins it
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "qcirc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
            "cpu_count": os.cpu_count(), "platform": platform.platform(), "git_rev": rev,
            "src_sha256": src.hexdigest(), "seed": seed}


# --- main -------------------------------------------------------------------


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE)]
    args = parse_args(argv)
    if not (SRC / "qcirc" / "cli.py").is_file():
        print(f"perfbench: no qcirc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from qcirc import cli

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    home = os.getcwd()
    runner = Runner(cli)
    works = []
    try:
        if args.trace:
            jobs, work, _ = set_up(args.workload, args.seed, runner, base)
            works.append(work)
            result = traced_run(runner, jobs)
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                runner.seen.clear()
                slowdown = statistics.median(host_slowdown() for _ in range(5))
                jobs, work, seconds = set_up(args.workload, args.seed, runner, base)
                works.append(work)
                setups.append((seconds, slowdown))
            setup_s = statistics.median(t / s for t, s in setups)
            result = timed_run(runner, jobs, args, setup_s)
            result["report"]["raw_setup_runs_s"] = [t for t, _ in setups]
    finally:
        os.chdir(home)
        for work in works:
            shutil.rmtree(work, ignore_errors=True)
    statuses = [s for _, s, _ in runner.seen.values()]
    failures = {name: problems[:3] for name, (_, status, problems) in runner.seen.items()
                if status != "ok"}
    report = {"workload": args.workload, "trace": args.trace, **result["report"],
              "failures": failures, "known_defects": [workloads.KNOWN_DEFECT]
              if "known" in statuses else [], "provenance": provenance(args.seed)}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": "fail" not in statuses, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in result["metrics"].items()}}))
    return 0


def timed_run(runner: Runner, jobs: list, args, setup_s: float) -> dict:
    import workloads

    passes = workloads.passes(args.workload, args.seconds)
    raw, statuses, slowdowns = closed_loop(runner, jobs, passes, args.seed)
    lat = calibrated(raw, slowdowns)
    regs, gates = workloads.deferred_size(args.seed, runner.call)
    p, tail_s = tail(lat)
    failed = sum(s != "ok" for s in statuses)
    metrics = {
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
        "deferred_registers": (regs, "count"),
        "deferred_gates": (gates, "count"),
    }
    report = {"metrics": {k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()},
              "job_tail_percentile": p, "job_samples": len(lat), "passes": passes,
              "raw_jobs_per_s": len(raw) / sum(raw), "raw_job_p50_ms": statistics.median(raw) * 1e3,
              "raw_job_tail_ms": tail(raw)[1] * 1e3,
              "host_slowdown": statistics.median(slowdowns),
              "error_rate": failed / len(lat), "stdout_sha256": output_digest(runner, jobs)}
    return {"metrics": metrics, "attempted": len(lat), "failed": failed, "report": report}


def traced_run(runner: Runner, jobs: list) -> dict:
    import refcases
    from spans import LAYERS, Tracer

    tracer = Tracer()
    plain, traced, nbytes = paired_pass(runner, jobs, tracer)
    tracer.counters["serialize.output_bytes"] = nbytes
    metrics = tracer.metrics()
    metrics["trace.jobs_ms"] = (traced * 1e3, "ms")
    metrics["trace.overhead_pct"] = (100 * (traced / plain - 1), "%")
    failed = sum(s != "ok" for _, s, _ in runner.seen.values())
    main_ms = metrics["cli.main_ms"][0]
    shares = {layer: round(100 * metrics[f"{layer}.from_cli_ms"][0] / main_ms, 1)
              for layer in LAYERS if layer != "cli"}
    shares["cli"] = round(100 * metrics["cli.self_ms"][0] / main_ms, 1)
    report = {"from_cli_share_pct": shares, "reference_cases":
              refcases.run_all(REF_BUDGET_S, REF_TOTAL_S)}
    return {"metrics": metrics, "attempted": len(jobs), "failed": failed, "report": report}


if __name__ == "__main__":
    sys.exit(main())
