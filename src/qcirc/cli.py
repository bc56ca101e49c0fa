"""Command-line surface: validate, aggregate, run, schedules, defer,
check-faithful, transpose-path. Results go to stdout as JSON; diagnostics go
to stderr as JSON lines. Exit codes: 0 success, 1 semantic failure, 2 usage."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from pathlib import Path

from . import deferral, linalg, scheduling, semantics, serialize
from .circuit import CircuitError
from .linalg import DensityOperator, LinalgError
from .scheduling import ScheduleError
from .semantics import SemanticsError


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def tolerance(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def inputs_spec(text: str):
    """`basis` as is, `random:K` as K (at least 1)."""
    if text == "basis":
        return text
    if not text.startswith("random:"):
        raise argparse.ArgumentTypeError(f"unknown inputs spec {text!r} (use basis or random:K)")
    return positive_int(text[len("random:"):])


def _emit(obj) -> None:
    serialize.write(obj, sys.stdout)


def _diag_lines(diags) -> None:
    for d in diags:
        sys.stderr.write(json.dumps(d.to_json()) + "\n")


def _error(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"severity": "error", "code": code, "message": message}) + "\n")
    return 1


def _load_json(path: str):
    """A JSON file's value; nesting too deep to parse is a ValueError (`io-error`)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_circuit(path: str):
    return serialize.parse_circuit(Path(path).read_text(encoding="utf-8"))


def _load_state(path: str) -> DensityOperator:
    return serialize.state_from_json(_load_json(path), path)


def cmd_validate(args) -> int:
    try:
        _load_circuit(args.circuit)
    except serialize.ParseError as e:
        _diag_lines(e.diagnostics)
        return 1
    _emit({"ok": True})
    return 0


def cmd_aggregate(args) -> int:
    c = _load_circuit(args.circuit)
    rho = _load_state(args.input) if args.input else None
    if rho is not None:
        semantics.check_state(rho, c.n_registers)  # before any track operator is built
    tracks = []
    for f, op in semantics.aggregate_measurement(c).operators.items():  # in (gate id, label) order
        entry = {"outcomes": f.as_dict(), "operator": op}
        if rho is not None:
            entry["probability_on"] = semantics.probability_on(op, rho)
        tracks.append(entry)
    _emit({"tracks": tracks})
    return 0


def _schedule_for(c, spec: str):
    if spec == "greedy":
        return scheduling.greedy_schedule(c)
    return serialize.schedule_from_json(_load_json(spec))


def cmd_run(args) -> int:
    c = _load_circuit(args.circuit)
    rho = _load_state(args.input)
    x = _schedule_for(c, args.schedule)
    if not scheduling.validate_schedule(c, x):
        return _error("invalid-schedule", "schedule does not fit the circuit")
    if args.shots is None:
        result = semantics.run(c, x, rho, args.seed)
        _emit(
            {
                "track": result.track.as_dict(),
                "final_state_raw": result.final_state.matrix,
                "final_state_normalized": result.final_state.normalized(),
                "steps": [
                    {"bout": list(b), "outcomes": list(o), "probability": p}
                    for b, o, p in result.step_log
                ],
            }
        )
        return 0
    counts = semantics.tally(c, x, rho, semantics.splitmix64([args.seed], args.shots)[0])
    _emit(
        {
            "shots": args.shots,
            "frequencies": [
                {"outcomes": track.as_dict(), "count": n, "frequency": n / args.shots}
                for track, n in counts.items()
            ],
        }
    )
    return 0


def cmd_schedules(args) -> int:
    c = _load_circuit(args.circuit)
    if args.enumerate:
        scheds = scheduling.enumerate_linear_schedules(c, limit=args.limit)
    else:
        scheds = [scheduling.greedy_schedule(c)]
    _emit({"schedules": [serialize.schedule_to_json(x, c) for x in scheds]})
    return 0


def cmd_defer(args) -> int:
    zeta_path = args.zeta or _default_zeta_path(args.output)
    # Path.resolve raises on a symlink loop; realpath does not
    src, out, zeta = map(os.path.realpath, (args.circuit, args.output, zeta_path))
    if zeta == out:
        args.usage_error("--zeta names the same file as -o")
    if src in (out, zeta):
        args.usage_error(f"{'-o' if src == out else 'the sidecar path'} names the CIRCUIT file")
    c = _load_circuit(args.circuit)
    result = deferral.defer_measurements(c)
    serialize.write(serialize.circuit_to_json(result.circuit), args.output)
    sidecar = result.zeta.to_json()
    sidecar["ancillas"] = sorted(result.ancilla_registers)
    try:
        serialize.write(sidecar, zeta_path)
    except Exception:
        Path(args.output).unlink()  # a deferred circuit without its sidecar cannot be checked
        raise
    _emit(
        {
            "output": args.output,
            "zeta": zeta_path,
            "ancillas": sorted(result.ancilla_registers),
            "red_gates": sorted(deferral.red_gates(result.circuit)),
        }
    )
    return 0


def _default_zeta_path(output: str) -> str:
    if output.endswith(".json"):
        return output[: -len(".json")] + ".zeta.json"
    return output + ".zeta.json"


def cmd_check_faithful(args) -> int:
    c = _load_circuit(args.source)
    d = _load_circuit(args.target)
    zeta = deferral.Commensuration.from_json(_load_json(args.zeta))
    n, spec = c.n_registers, args.inputs
    if spec is None:
        inputs = None  # the exact check
    elif spec == "basis":
        inputs = deferral.basis_inputs(n)
    else:
        inputs = deferral.random_pure_inputs(n, spec, args.seed)
    report = deferral.check_faithful(c, d, zeta, inputs, tol=args.tol)
    _emit(report.to_json())
    return 0 if report.ok else 1


def cmd_transpose_path(args) -> int:
    p = serialize.poset_from_json(_load_json(args.poset))
    frm = serialize.order_from_json(_load_json(args.frm), args.frm)
    to = serialize.order_from_json(_load_json(args.to), args.to)
    path = scheduling.transposition_path(p, frm, to)
    _emit({"steps": len(path) - 1, "orders": [list(o) for o in path]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcirc")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a circuit file")
    p.add_argument("circuit")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("aggregate", help="compute the aggregate measurement")
    p.add_argument("circuit")
    p.add_argument("--input", help="state file; adds per-track probabilities")
    p.set_defaults(fn=cmd_aggregate)

    p = sub.add_parser("run", help="execute the circuit stochastically")
    p.add_argument("circuit")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--shots", type=positive_int)
    p.add_argument("--schedule", default="greedy", help="greedy or a schedule file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("schedules", help="emit schedules of a circuit")
    p.add_argument("circuit")
    p.add_argument("--enumerate", action="store_true", help="all linear schedules")
    p.add_argument("--limit", type=positive_int, default=1000)
    p.set_defaults(fn=cmd_schedules)

    p = sub.add_parser("defer", help="run the measurement-deferral pass")
    p.add_argument("circuit")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--zeta", help="sidecar path (default: <output>.zeta.json)")
    p.set_defaults(fn=cmd_defer, usage_error=p.error)

    p = sub.add_parser("check-faithful", help="verify faithful simulation")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--zeta", required=True)
    p.add_argument(
        "--inputs", type=inputs_spec, help="sample basis or random:K inputs instead of the exact check"
    )
    p.add_argument("--tol", type=tolerance, default=linalg.DEFAULT_TOL)
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(fn=cmd_check_faithful)

    p = sub.add_parser("transpose-path", help="coherent adjacent-transposition path")
    p.add_argument("poset")
    p.add_argument("--from", dest="frm", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(fn=cmd_transpose_path)
    return ap


_parser = cache(build_parser)  # reused by `main`: a parse leaves it as built, and building costs far more


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except serialize.ParseError as e:
        _diag_lines(e.diagnostics)
        return 1
    except (CircuitError, ScheduleError, SemanticsError, LinalgError, deferral.DeferralError) as e:
        return _error("semantic-error", str(e))
    except (OSError, json.JSONDecodeError, ValueError) as e:
        return _error("io-error", str(e))
    except MemoryError as e:
        return _error("too-large", str(e) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
