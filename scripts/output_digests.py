#!/usr/bin/env python3
"""Output digests of every benchmark workload, for byte-identity checks.

    python3 scripts/output_digests.py [CHECKOUT [OTHER]]

Runs `perfbench/run.py --workload W --seed S --seconds 0 --trace 0` in
CHECKOUT (default: this repository) for the four workloads at seeds 3, 5 and
11, one run at a time, and prints one table row per run: the `stdout_sha256`
of the run's report, its failed job count and the deferred sizes. Two
checkouts print the same digests exactly when every job printed the same
bytes. A `defer-files` row per seed follows: `defer` prints only file paths,
so its digest is the sha256 over every circuit and sidecar file that `qcirc
defer` writes for that seed's compile corpus (`defer_files_digest`). A
`defer-cc` row per seed does the same for the shots and denote corpora's
circuits that hold a classically controlled measurement; it reads `refused`
where `defer` exits non-zero on one of them. Given OTHER as well, each row
holds both checkouts' columns and says whether the digest is the same or
changed. Under the table it prints each checkout's `src/qcirc/*.py` line
count, as `wc -l` totals it. It takes about a minute per checkout on a
2-vCPU VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("shots", "denote", "compile", "structure")
SEEDS = (3, 5, 11)


def digest_row(root: Path, workload: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    report, result = map(json.loads, proc.stdout.splitlines()[-2:])
    metrics = result["metrics"]
    return (workload, seed, report["report"]["stdout_sha256"], result["failed"],
            metrics["deferred_registers"]["value"], metrics["deferred_gates"]["value"])


def defer_files_digest(root: Path, seed: int, corpus: str = "compile") -> str:
    """The sha256 over the files that `qcirc defer` writes for each source of
    a corpus, in job order: each file's name and bytes; `refused` if `defer`
    exits non-zero on one. The `compile` corpus is
    `perfbench/workloads.compile_sources(seed)`; the `cc` corpus is the
    circuits of the seed's shots jobs, then its denote jobs, that hold a
    classically controlled measurement. A child process runs `defer` through
    `cli.main` on CHECKOUT's own `src` and `perfbench`, in a temporary directory."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(root / d) for d in ("src", "perfbench"))}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, __file__, "--defer-files", corpus, str(seed)],
                              cwd=work, env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def _defer_files(corpus: str, seed: int) -> str:
    """`defer_files_digest` inside the child process, in the working directory."""
    from qcirc.cli import main
    import workloads

    if corpus == "compile":
        sources = [json.dumps(c) + "\n" for _, c in workloads.compile_sources(seed)[0]]
    else:  # each job's circuit, as the workload wrote it
        jobs = [job for w in ("shots", "denote") for job in workloads.build(w, seed, None)]
        texts = [Path(job.commands[0][1]).read_text() for job in jobs]
        cc = [any(g["kind"] == "measure" and g.get("controls") for g in json.loads(t)["gates"]) for t in texts]
        sources = [t for t, held in zip(texts, cc) if held]
    digest = hashlib.sha256()
    for i, text in enumerate(sources):
        Path(f"c{i}.json").write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):  # `defer` prints only the paths
            rc = main(["defer", f"c{i}.json", "-o", f"c{i}.out.json"])
        if rc != 0:
            return "refused"
        for name in f"c{i}.out.json", f"c{i}.out.zeta.json":
            digest.update(name.encode() + b"\0" + Path(name).read_bytes())
    return digest.hexdigest()


def src_lines(root: Path) -> int:
    """The newline count of `src/qcirc/*.py`, the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "qcirc").glob("*.py"))


def main(argv: list) -> int:
    if argv[:1] == ["--defer-files"]:
        print(_defer_files(argv[1], int(argv[2])))
        return 0
    if len(argv) > 2:
        sys.exit(__doc__)
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1]]
    cols = ["stdout_sha256", "failed", "deferred registers/gates"]
    head = cols if len(roots) == 1 else [f"{c} ({r})" for r in roots for c in cols] + ["digest"]
    print("| workload | seed | " + " | ".join(head) + " |")
    print("|---" * (2 + len(head)) + "|")
    for workload in WORKLOADS:
        for seed in SEEDS:
            rows = [digest_row(root, workload, seed) for root in roots]
            cells = [f"{d} | {failed} | {regs}/{gates}" for _, _, d, failed, regs, gates in rows]
            if len(rows) == 2:
                cells.append("same" if rows[0][2] == rows[1][2] else "changed")
            print(f"| {workload} | {seed} | " + " | ".join(cells) + " |", flush=True)
    for row, corpus in ("defer-files", "compile"), ("defer-cc", "cc"):
        for seed in SEEDS:
            digests = [defer_files_digest(root, seed, corpus) for root in roots]
            cells = [f"{d} | - | -" for d in digests]
            if len(digests) == 2:
                cells.append("same" if digests[0] == digests[1] else "changed")
            print(f"| {row} | {seed} | " + " | ".join(cells) + " |", flush=True)
    print()
    for root in roots:
        print(f"src/qcirc/*.py lines ({root}): {src_lines(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
