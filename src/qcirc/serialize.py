"""JSON encodings for matrices, circuits, schedules, states, and posets.

Circuit files carry the version tag "qcirc-1". Selector keys are
comma-joined outcome labels in `controls` order; the empty string keys the
no-controls case. Floats round-trip bit-exactly (shortest-repr decimals).
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .circuit import (
    Diagnostic,
    Gate,
    Measurement,
    QuantumCircuit,
    UnitaryOp,
    validate_circuit,
)
from .linalg import DensityOperator, ket_to_density
from .scheduling import Poset, Schedule

CIRCUIT_VERSION = "qcirc-1"


class ParseError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(f"{d.code}@{d.where}: {d.message}" for d in diagnostics))


def _diag(code: str, where: str, message: str) -> Diagnostic:
    return Diagnostic("error", code, where, message)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[z.real, z.imag] for z in m.reshape(-1)],
    }


def matrix_from_json(obj: dict, where: str = "<matrix>") -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
        if len(entries) != rows * cols:
            raise ValueError
        flat = [complex(float(re), float(im)) for re, im in entries]
    except (KeyError, TypeError, ValueError):
        raise ParseError([_diag("bad-matrix", where, "malformed matrix object")]) from None
    return np.array(flat, dtype=complex).reshape(rows, cols)


def _selector_to_json(g: Gate) -> dict:
    return {",".join(key): target for key, target in sorted(g.selector.items())}


def _selector_from_json(obj: dict) -> dict:
    out = {}
    for key, target in obj.items():
        out[tuple(key.split(",")) if key else ()] = target
    return out


def gate_to_json(g: Gate) -> dict:
    out = {"id": g.id, "registers": list(g.registers), "kind": g.kind}
    if g.is_measure:
        out["measurements"] = {
            mid: {
                "outcomes": {
                    lab: matrix_to_json(op) for lab, op in sorted(m.operators.items())
                }
            }
            for mid, m in sorted(g.measurements.items())
        }
    else:
        out["ops"] = {
            uid: matrix_to_json(u.matrix) for uid, u in sorted(g.unitaries.items())
        }
    out["controls"] = list(g.classical_sources)
    out["selector"] = _selector_to_json(g)
    return out


def gate_from_json(obj: dict) -> Gate:
    where = str(obj.get("id", "<gate>"))
    try:
        gid = obj["id"]
        registers = tuple(int(r) for r in obj["registers"])
        kind = obj["kind"]
        controls = tuple(obj.get("controls", ()))
        selector = _selector_from_json(obj.get("selector", {}))
    except (KeyError, TypeError, ValueError):
        raise ParseError([_diag("bad-gate", where, "malformed gate object")]) from None
    if kind == "measure":
        measurements = {}
        for mid, mobj in obj.get("measurements", {}).items():
            ops = {
                lab: matrix_from_json(mat, where)
                for lab, mat in mobj.get("outcomes", {}).items()
            }
            measurements[mid] = Measurement(mid, ops)
        return Gate(gid, registers, measurements=measurements, classical_sources=controls, selector=selector)
    if kind == "unitary":
        unitaries = {
            uid: UnitaryOp(uid, matrix_from_json(mat, where))
            for uid, mat in obj.get("ops", {}).items()
        }
        return Gate(gid, registers, unitaries=unitaries, classical_sources=controls, selector=selector)
    raise ParseError([_diag("bad-gate-kind", where, f"unknown gate kind {kind!r}")])


def circuit_to_json(c: QuantumCircuit) -> dict:
    return {
        "version": CIRCUIT_VERSION,
        "registers": list(c.register_names),
        "gates": [gate_to_json(g) for g in c.gates],
    }


def circuit_from_json(obj: dict) -> QuantumCircuit:
    if not isinstance(obj, dict) or obj.get("version") != CIRCUIT_VERSION:
        raise ParseError(
            [_diag("bad-version", "<circuit>", f"expected version {CIRCUIT_VERSION!r}")]
        )
    try:
        registers = tuple(str(r) for r in obj["registers"])
        gate_objs = obj["gates"]
    except (KeyError, TypeError):
        raise ParseError([_diag("bad-circuit", "<circuit>", "malformed circuit object")]) from None
    c = QuantumCircuit(registers, tuple(gate_from_json(g) for g in gate_objs))
    diags = validate_circuit(c)
    if diags:
        raise ParseError(diags)
    return c


def serialize_circuit(c: QuantumCircuit) -> str:
    return json.dumps(circuit_to_json(c), indent=2) + "\n"


def parse_circuit(text: str) -> QuantumCircuit:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError([_diag("bad-json", "<circuit>", str(e))]) from None
    return circuit_from_json(obj)


# --- schedules, posets, states ---------------------------------------------


def schedule_to_json(x: Schedule, c: Optional[QuantumCircuit] = None) -> dict:
    key = c.index_of if c is not None else None
    return {"bouts": [sorted(b, key=key) for b in x.bouts]}


def schedule_from_json(obj: dict) -> Schedule:
    try:
        return Schedule(tuple(frozenset(b) for b in obj["bouts"]))
    except (KeyError, TypeError):
        raise ParseError([_diag("bad-schedule", "<schedule>", "malformed schedule object")]) from None


def poset_from_json(obj: dict) -> Poset:
    try:
        return Poset.from_pairs(
            [str(e) for e in obj["elements"]],
            [(str(a), str(b)) for a, b in obj["less_than"]],
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError([_diag("bad-poset", "<poset>", f"malformed poset object: {e}")]) from None


def poset_to_json(p: Poset) -> dict:
    return {"elements": list(p.elements), "less_than": sorted([a, b] for a, b in p.less)}


def state_from_json(obj: dict, where: str = "<state>") -> DensityOperator:
    if isinstance(obj, dict) and "ket" in obj:
        try:
            vec = np.array(
                [complex(float(re), float(im)) for re, im in obj["ket"]], dtype=complex
            )
        except (TypeError, ValueError):
            raise ParseError([_diag("bad-state", where, "malformed ket")]) from None
        n = int(np.log2(len(vec)).round()) if len(vec) else -1
        if n < 0 or 2**n != len(vec):
            raise ParseError([_diag("bad-state", where, "ket length is not a power of two")])
        mat = ket_to_density(vec)
    else:
        mat = matrix_from_json(obj, where)
        n = int(round(np.log2(mat.shape[0])))
        if mat.shape[0] != mat.shape[1] or 2**n != mat.shape[0]:
            raise ParseError([_diag("bad-state", where, "state matrix is not 2^n x 2^n")])
    if not np.all(np.isfinite(mat)):
        raise ParseError([_diag("non-finite-entry", where, "state has a NaN or infinite entry")])
    return DensityOperator(n, mat)


def state_to_json(rho: DensityOperator) -> dict:
    return matrix_to_json(rho.matrix)
