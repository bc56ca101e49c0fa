"""The circuit and state reader that `serialize` used before its batched
entry reader, kept verbatim as the reference the batched reader is tested
against: `_complex_entries` builds one Python `complex(re, im)` per entry,
`matrix_from_json` converts each matrix as it is read, and `gate_from_json`
builds each gate with its arrays at once."""

from typing import Optional

import numpy as np

from qcirc.circuit import Gate, Measurement, QuantumCircuit, UnitaryOp, validate_circuit
from qcirc.linalg import DensityOperator, qubits, squared_norm
from qcirc.serialize import CIRCUIT_VERSION, ParseError, _diag, _selector_from_json, _strings

_NUMBERS = (int, float)  # the types of JSON numbers; a bool is not one


def _complex_entries(pairs) -> Optional[np.ndarray]:
    """The complex numbers of a JSON list of [re, im] pairs of numbers (ints or
    floats, not bools); None for anything else, or a number too large for a float."""
    if type(pairs) is not list:
        return None
    try:
        values = [complex(re, im) for re, im in pairs if type(re) in _NUMBERS and type(im) in _NUMBERS]
    except (TypeError, ValueError, OverflowError):  # not a pair, or too large
        return None
    return np.array(values, dtype=complex) if len(values) == len(pairs) else None


def matrix_from_json(obj: dict, where: str = "<matrix>") -> np.ndarray:
    try:
        rows, cols = obj["rows"], obj["cols"]
        if not all(type(d) is int and d >= 0 for d in (rows, cols)):
            raise ValueError
        entries = _complex_entries(obj["entries"])
        if entries is None or len(entries) != rows * cols:
            raise ValueError
        return entries.reshape(rows, cols)
    except (KeyError, TypeError, ValueError):
        raise ParseError([_diag("bad-matrix", where, "malformed matrix object")]) from None


def _object(obj: dict, name: str, where: str) -> dict:
    """`obj[name]`, default {}, which must be a JSON object (`bad-gate`)."""
    value = obj.get(name, {}) if isinstance(obj, dict) else None
    if not isinstance(value, dict):
        raise ParseError([_diag("bad-gate", where, f"{name!r} must be a JSON object")])
    return value


def gate_from_json(obj: dict) -> Gate:
    if not isinstance(obj, dict):
        raise ParseError([_diag("bad-gate", "<gate>", "gate is not a JSON object")])
    where = str(obj.get("id", "<gate>"))
    try:
        gid, registers, kind = obj["id"], obj["registers"], obj["kind"]
    except KeyError:
        raise ParseError([_diag("bad-gate", where, "malformed gate object")]) from None
    controls = obj.get("controls", [])
    selector = _object(obj, "selector", where)
    if not isinstance(gid, str) or not (
        isinstance(controls, list) and all(isinstance(s, str) for s in controls)
    ):
        raise ParseError([_diag("bad-gate", where, "gate id and controls must be JSON strings")])
    if not (isinstance(registers, list) and all(type(r) is int for r in registers)):
        raise ParseError([_diag("bad-gate", where, "registers must be a list of JSON integers")])
    if not all(isinstance(t, str) for t in selector.values()):
        raise ParseError([_diag("bad-gate", where, "selector targets must be JSON strings")])
    registers, controls, selector = tuple(registers), tuple(controls), _selector_from_json(selector)
    if kind == "measure":
        measurements = {}
        for mid, mobj in _object(obj, "measurements", where).items():
            ops = {
                lab: matrix_from_json(mat, where)
                for lab, mat in _object(mobj, "outcomes", where).items()
            }
            measurements[mid] = Measurement(mid, ops)
        return Gate(gid, registers, measurements=measurements, classical_sources=controls, selector=selector)
    if kind == "unitary":
        unitaries = {
            uid: UnitaryOp(uid, matrix_from_json(mat, where))
            for uid, mat in _object(obj, "ops", where).items()
        }
        return Gate(gid, registers, unitaries=unitaries, classical_sources=controls, selector=selector)
    raise ParseError([_diag("bad-gate-kind", where, f"unknown gate kind {kind!r}")])


def circuit_from_json(obj: dict) -> QuantumCircuit:
    if not isinstance(obj, dict) or obj.get("version") != CIRCUIT_VERSION:
        raise ParseError(
            [_diag("bad-version", "<circuit>", f"expected version {CIRCUIT_VERSION!r}")]
        )
    registers, gate_objs = obj.get("registers"), obj.get("gates")
    if not (_strings(registers) and isinstance(gate_objs, list)):
        message = "registers must be a list of strings and gates a list"
        raise ParseError([_diag("bad-circuit", "<circuit>", message)])
    c = QuantumCircuit(tuple(registers), tuple(gate_from_json(g) for g in gate_objs))
    diags = validate_circuit(c)
    if diags:
        raise ParseError(diags)
    return c


def state_from_json(obj: dict, where: str = "<state>") -> DensityOperator:
    """A state file's ket (kept as the factor of its density operator) or
    matrix. Non-finite entries, and finite ones whose trace overflows, are
    `non-finite-entry`."""
    ket = isinstance(obj, dict) and "ket" in obj
    if ket:
        entries = _complex_entries(obj["ket"])
        if entries is None:
            raise ParseError([_diag("bad-state", where, "malformed ket")])
        if qubits(len(entries)) is None:
            raise ParseError([_diag("bad-state", where, "ket length is not a power of two")])
    else:
        entries = matrix_from_json(obj, where)
        n = qubits(entries.shape[0])
        if entries.shape[0] != entries.shape[1] or n is None:
            raise ParseError([_diag("bad-state", where, "state matrix is not 2^n x 2^n")])
    if not np.all(np.isfinite(entries)):
        raise ParseError([_diag("non-finite-entry", where, "state has a NaN or infinite entry")])
    with np.errstate(over="ignore"):
        tr = squared_norm(entries) if ket else np.trace(entries).real
    if not np.isfinite(tr):
        raise ParseError([_diag("non-finite-entry", where, "state too large: its trace overflows")])
    return DensityOperator.from_ket(entries) if ket else DensityOperator(n, entries)
