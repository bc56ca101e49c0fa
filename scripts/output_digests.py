#!/usr/bin/env python3
"""Output digests of every benchmark workload, for byte-identity checks.

    python3 scripts/output_digests.py [CHECKOUT [OTHER]]

Runs `perfbench/run.py --workload W --seed S --seconds 0 --trace 0` in
CHECKOUT (default: this repository) for the four workloads at seeds 3, 5 and
11, one run at a time, and prints one table row per run: the `stdout_sha256`
of the run's report, its failed job count and the deferred sizes. Two
checkouts print the same digests exactly when every job printed the same
bytes. Given OTHER as well, each row holds both checkouts' columns and says
whether the digest is the same or changed. It takes about a minute per
checkout on a 2-vCPU VM.
"""

from __future__ import annotations

import json
import subprocess
import sys
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


def main(argv: list) -> int:
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
