"""The reference cases of ROADMAP.md's open items, each timed once in its own
process.

`python3 perfbench/refcases.py CASE` runs one case and prints
{"case": CASE, "seconds": ...}; `run_all(budget_s, total_s)` runs every case
under a per-case and a total time budget and records an over-budget case as
{"skipped": "budget"}.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = ("ghz6_aggregate", "ghz8_one_shot", "teleport_4000_shots", "ff6_check_faithful",
         "chain50_greedy", "chain50_validate", "chain100_greedy", "chain100_validate",
         "chain200_greedy", "chain200_validate")


def _circuit(obj: dict):
    from qcirc.serialize import parse_circuit

    return parse_circuit(json.dumps(obj))


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(case: str) -> float:
    """Seconds the case's timed call takes."""
    import numpy as np

    import gen
    from qcirc import cli, deferral, semantics
    from qcirc.linalg import DensityOperator
    from qcirc.scheduling import greedy_schedule, validate_schedule

    if case == "ghz6_aggregate":
        c = _circuit(gen.ghz(6))
        return _time(lambda: semantics.aggregate_measurement(c))
    if case == "ghz8_one_shot":
        c = _circuit(gen.ghz(8))
        x, psi = greedy_schedule(c), np.eye(2**8)[0]
        rho = DensityOperator.from_ket(psi)
        return _time(lambda: semantics.run(c, x, rho, 7))
    if case == "teleport_4000_shots":
        fixtures = gen.FIXTURES
        argv = ["run", str(fixtures / "teleport.json"), "--input", str(fixtures / "psi.json"),
                "--seed", "7", "--shots", "4000"]
        with redirect_stdout(io.StringIO()):
            return _time(lambda: cli.main(argv))
    if case == "ff6_check_faithful":
        c = _circuit(gen.feed_forward(6))
        result = deferral.defer_measurements(c)
        inputs = deferral.basis_inputs(c.n_registers)
        return _time(lambda: deferral.check_faithful(c, result.circuit, result.zeta, inputs))
    size, what = case[len("chain"):].split("_")
    c = _circuit(gen.chain(int(size)))
    if what == "greedy":
        return _time(lambda: greedy_schedule(c))
    x = greedy_schedule(c)
    return _time(lambda: validate_schedule(c, x))


def run_all(budget_s: float, total_s: float) -> dict:
    """Every case in its own process. A case that would overrun its budget or
    the remaining total is stopped and recorded as skipped."""
    out, start = {}, time.perf_counter()
    for case in CASES:
        left = min(budget_s, total_s - (time.perf_counter() - start))
        if left <= 0:
            out[case] = {"skipped": "budget"}
            continue
        try:
            proc = subprocess.run([sys.executable, str(HERE / "refcases.py"), case],
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            out[case] = {"skipped": "budget"}
            continue
        if proc.returncode != 0:
            out[case] = {"error": proc.stderr.strip().splitlines()[-1:]}
        else:
            out[case] = {"ms": json.loads(proc.stdout)["seconds"] * 1e3}
    return out


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    print(json.dumps({"case": sys.argv[1], "seconds": measure(sys.argv[1])}))
