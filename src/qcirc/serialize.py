"""JSON encodings for matrices, circuits, schedules, states, and posets.

Circuit files carry the version tag "qcirc-1". Selector keys are
comma-joined outcome labels in `controls` order; the empty string keys the
no-controls case. Floats round-trip bit-exactly (shortest-repr decimals).
Every JSON document qcirc writes goes through `dumps`.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
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
from .linalg import DensityOperator, qubits, squared_norm
from .scheduling import Poset, Schedule

CIRCUIT_VERSION = "qcirc-1"
_NUMBERS = (int, float)  # the types of JSON numbers; a bool is not one


class ParseError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(f"{d.code}@{d.where}: {d.message}" for d in diagnostics))


def _diag(code: str, where: str, message: str) -> Diagnostic:
    return Diagnostic("error", code, where, message)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _float_pairs(m: np.ndarray) -> np.ndarray:
    """The entries of a matrix, row-major, as a (rows * cols, 2) float array of
    (re, im) pairs."""
    return np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(-1, 2)


def matrix_to_json(m: np.ndarray) -> dict:
    """A matrix's JSON object, entries as nested lists: the reference `dumps` writes arrays to match."""
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": _float_pairs(m).tolist()}


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


# --- writing ----------------------------------------------------------------


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for dicts, lists, tuples,
    str, int, float, bool and None. A 2-D `np.ndarray` is written as its
    `matrix_to_json` object would be, formatted straight from the array.
    Any other type raises TypeError, as `json` does.

    `json.dumps` with an indent never uses CPython's C encoder, so each float
    of a matrix would go through its pure-Python generator; `_with_entries`
    spells the floats of all matrices of the document in one array pass."""
    out: list[str] = []
    matrices: list = []
    _write(obj, "\n", out, matrices)
    return "".join(_with_entries(out, matrices) if matrices else out)


def _write(o, nl: str, out: list, matrices: list) -> None:
    """Append the JSON text of `o` to `out`; `nl` is a newline plus the
    indent of the line `o` starts on. A nonempty matrix's entries list is left
    out, and (its position in `out`, the array, nl) is added to `matrices`."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        sep, inner = "[", nl + "  "
        for v in o:
            out.append(sep + inner)
            _write(v, inner, out, matrices)
            sep = ","
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        sep, inner = "{", nl + "  "
        for k, v in o.items():
            out.append(f"{sep}{inner}{encode_basestring_ascii(_key(k))}: ")
            _write(v, inner, out, matrices)
            sep = ","
        out.append(nl + "}")
    elif isinstance(o, np.ndarray) and o.ndim == 2:
        i1 = nl + "  "
        out.append(f'{{{i1}"rows": {o.shape[0]},{i1}"cols": {o.shape[1]},{i1}"entries": ')
        if o.size:
            matrices.append((len(out), o, nl))
        else:
            out.append("[]")
        out.append(nl + "}")
    else:
        text = _scalar(o)
        if text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        out.append(text)


def _with_entries(out: list, matrices: list) -> list:
    """`out` with each recorded matrix's entries list spliced in, as tokens.

    The floats of all matrices, (re, im) pair by pair, are classified in one
    array pass: +0.0 and -0.0 (most entries of the projector-like aggregate
    operators) take constant strings, and only the others go
    through `repr` (or `_float`, when any float is NaN or infinite), in one
    `map`. A matrix's tokens interleave those spellings with the brackets,
    commas and indents between them, so the document is joined once."""
    floats = np.concatenate([_float_pairs(m).ravel() for _, m, _ in matrices])
    nonzero = floats != 0.0
    negative_zero = np.signbit(floats) & ~nonzero
    spell = float.__repr__ if np.isfinite(floats).all() else _float
    spelled = np.array(list(map(spell, floats[nonzero].tolist())), dtype=object)
    del floats  # freed before the token list grows, so that the two never add up
    tokens: list[str] = []
    prev = start = done = 0
    for at, m, nl in matrices:
        n = 2 * m.size
        i2, i3 = nl + "    ", nl + "      "
        text = np.empty(2 * n + 1, dtype=object)
        text[0:-1:4] = f"{i2}],{i2}[{i3}"
        text[2::4] = "," + i3
        text[0] = f"[{i2}[{i3}"
        text[-1] = f"{i2}]{nl}  ]"
        entries = text[1::2]
        entries.fill("0.0")
        entries[negative_zero[start : start + n]] = "-0.0"
        spell_here = nonzero[start : start + n]
        count = np.count_nonzero(spell_here)
        entries[spell_here] = spelled[done : done + count]
        tokens += out[prev:at]
        tokens += text.tolist()
        prev, start, done = at, start + n, done + count
    tokens += out[prev:]
    return tokens


def _float(x: float) -> str:
    """A float as `json` spells it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(o) -> Optional[str]:
    """The JSON text of None, a bool, an int or a float; None for any other type."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    return None


def _key(k) -> str:
    """A dict key as `json` writes it: str as is; None, bool, int and float as
    their JSON text."""
    if isinstance(k, str):
        return k
    text = _scalar(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return text


def _selector_to_json(g: Gate) -> dict:
    return {",".join(key): target for key, target in sorted(g.selector.items())}


def _selector_from_json(obj: dict) -> dict:
    out = {}
    for key, target in obj.items():
        out[tuple(key.split(",")) if key else ()] = target
    return out


def _object(obj: dict, name: str, where: str) -> dict:
    """`obj[name]`, default {}, which must be a JSON object (`bad-gate`)."""
    value = obj.get(name, {}) if isinstance(obj, dict) else None
    if not isinstance(value, dict):
        raise ParseError([_diag("bad-gate", where, f"{name!r} must be a JSON object")])
    return value


def gate_to_json(g: Gate) -> dict:
    """The gate's JSON object, its operators held as arrays for `dumps`."""
    out = {"id": g.id, "registers": list(g.registers), "kind": g.kind}
    if g.is_measure:
        out["measurements"] = {
            mid: {"outcomes": dict(sorted(m.operators.items()))}
            for mid, m in sorted(g.measurements.items())
        }
    else:
        out["ops"] = {uid: u.matrix for uid, u in sorted(g.unitaries.items())}
    out["controls"] = list(g.classical_sources)
    out["selector"] = _selector_to_json(g)
    return out


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
    registers, gate_objs = obj.get("registers"), obj.get("gates")
    if not (_strings(registers) and isinstance(gate_objs, list)):
        message = "registers must be a list of strings and gates a list"
        raise ParseError([_diag("bad-circuit", "<circuit>", message)])
    c = QuantumCircuit(tuple(registers), tuple(gate_from_json(g) for g in gate_objs))
    diags = validate_circuit(c)
    if diags:
        raise ParseError(diags)
    return c


def serialize_circuit(c: QuantumCircuit) -> str:
    return dumps(circuit_to_json(c)) + "\n"


def parse_circuit(text: str) -> QuantumCircuit:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError([_diag("bad-json", "<circuit>", str(e))]) from None
    return circuit_from_json(obj)


# --- schedules, posets, states ---------------------------------------------


def schedule_to_json(x: Schedule, c: Optional[QuantumCircuit] = None) -> dict:
    key = c.index_of if c is not None else None
    return {"bouts": [sorted(b, key=key) for b in x.bouts]}


def schedule_from_json(obj: dict) -> Schedule:
    bouts = obj.get("bouts") if isinstance(obj, dict) else None
    if not (isinstance(bouts, list) and all(_strings(b) for b in bouts)):
        raise ParseError([_diag("bad-schedule", "<schedule>", "bouts must be a list of lists of gate ids")])
    return Schedule(tuple(frozenset(b) for b in bouts))


def poset_from_json(obj: dict) -> Poset:
    obj = obj if isinstance(obj, dict) else {}
    elements, less = obj.get("elements"), obj.get("less_than")
    if not (_strings(elements) and isinstance(less, list) and all(_strings(p) and len(p) == 2 for p in less)):
        message = "elements must be a list of strings and less_than a list of string pairs"
        raise ParseError([_diag("bad-poset", "<poset>", message)])
    try:
        return Poset.from_pairs(elements, [tuple(p) for p in less])
    except ValueError as e:
        raise ParseError([_diag("bad-poset", "<poset>", f"malformed poset object: {e}")]) from None


def order_from_json(obj, where: str = "<order>") -> list[str]:
    """A linear order of poset elements: a JSON list of strings (`bad-order`)."""
    if not _strings(obj):
        raise ParseError([_diag("bad-order", where, "an order must be a JSON list of strings")])
    return obj


def poset_to_json(p: Poset) -> dict:
    return {"elements": list(p.elements), "less_than": sorted([a, b] for a, b in p.less)}


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
