"""JSON encodings for matrices, circuits, schedules, states, and posets.

Circuit files carry the version tag "qcirc-1". Selector keys are
comma-joined outcome labels in `controls` order; the empty string keys the
no-controls case. Floats round-trip bit-exactly (shortest-repr decimals).
Every JSON document qcirc writes goes through `write`, in the pieces of
`chunks`; `dumps` joins them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
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
from .linalg import MAX_ENTRIES, DensityOperator, qubits, squared_norm
from .scheduling import Poset, Schedule, in_bout_order

CIRCUIT_VERSION = "qcirc-1"
_NUMBERS = {int, float}  # the types of JSON numbers; a bool is not one
_PAIR, _STR, _INT = {2}, {str}, {int}  # an [re, im] pair's length; the types of ids and of registers
_SCALARS = {str, int, float, bool, type(None)}  # the types `_scalars_text` writes a list of as one token
_LISTS, _ONE = {list, tuple}, {1}
CHUNK = 64  # (re, im) pairs per chunk of a written matrix's entries; see `_with_entries`


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


def _numbers(lists: list) -> Optional[np.ndarray]:
    """The complex entries of JSON lists of [re, im] pairs, all the lists
    concatenated: each pair a list of two numbers (ints or floats, not bools),
    converted as `complex(re, im)` converts them. None for anything else, or
    for an int too large for a float. Each check is one C-level pass over the
    items of all the lists, and one `np.array` converts every number, so a
    document's matrices cost a few passes, not a Python call per entry."""
    pairs = list(itertools.chain.from_iterable(lists))
    try:
        if not set(map(len, pairs)) <= _PAIR:
            return None
    except TypeError:  # a pair that is a number, a bool or null
        return None
    numbers = list(itertools.chain.from_iterable(pairs))  # a str or object pair gives str items
    if not set(map(type, numbers)) <= _NUMBERS:
        return None
    try:
        return np.array(numbers, dtype=float).view(complex)
    except OverflowError:  # an int out of float range, as `float(n)` raises
        return None


def _complex_entries(pairs) -> Optional[np.ndarray]:
    """The complex numbers of a JSON list of [re, im] pairs (see `_numbers`)."""
    return _numbers([pairs]) if type(pairs) is list else None


class _Matrices:
    """The matrices of one document, read in two steps so that the entries
    of all of them are checked and converted in one `_numbers` pass. `add`
    checks a matrix object's rows, cols and entry count and returns its own
    array, whose entries `fill` writes later. A matrix is `bad-matrix` at the
    `where` it was added under, and the first bad one in reading order is the
    one reported, whichever check finds it."""

    def __init__(self) -> None:
        self.wheres: list[str] = []
        self.entries: list[list] = []
        self.arrays: list[np.ndarray] = []

    def add(self, obj, where: str) -> np.ndarray:
        try:
            rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        except (KeyError, TypeError):
            self.fail(where)
        if not (
            type(rows) is int and type(cols) is int and 0 <= rows <= MAX_ENTRIES and 0 <= cols <= MAX_ENTRIES
            and type(entries) is list and len(entries) == rows * cols
        ):
            self.fail(where)
        self.wheres.append(where)
        self.entries.append(entries)
        self.arrays.append(np.empty((rows, cols), dtype=complex))
        return self.arrays[-1]

    def fail(self, where: Optional[str]) -> None:
        """Raise `bad-matrix` at the first matrix added whose entries are
        malformed, or else at `where` (None: raise nothing)."""
        bad = (at for at, entries in zip(self.wheres, self.entries) if _numbers([entries]) is None)
        where = next(bad, where)
        if where is not None:
            raise ParseError([_diag("bad-matrix", where, "malformed matrix object")])

    def fill(self) -> None:
        """Write the entries of every matrix added into its array."""
        values = _numbers(self.entries)
        if values is None:
            self.fail(None)
        start = 0
        for a in self.arrays:
            a.flat = values[start : start + a.size]
            start += a.size


def matrix_from_json(obj: dict, where: str = "<matrix>") -> np.ndarray:
    matrices = _Matrices()
    m = matrices.add(obj, where)
    matrices.fill()
    return m


# --- writing ----------------------------------------------------------------


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte: the join of `chunks(obj)`."""
    return "".join(chunks(obj))


def write(obj, file) -> None:
    """`dumps(obj)` and a newline, written to `file` chunk by chunk: a text
    stream, or a path, opened (so truncated) only once every chunk is built,
    so that a document that cannot be built writes no byte."""
    pieces = chunks(obj)
    with open(file, "w") if isinstance(file, (str, os.PathLike)) else contextlib.nullcontext(file) as f:
        f.writelines(pieces)
        f.write("\n")


def chunks(obj) -> list[str]:
    """The text of `json.dumps(obj, indent=2)` in pieces, for dicts, lists,
    tuples, str, int, float, bool and None. A 2-D `np.ndarray` is written as
    its `matrix_to_json` object would be, formatted straight from the array.
    Any other type raises TypeError, as `json` does.

    `json.dumps` with an indent never uses CPython's C encoder, so each float
    of a matrix would go through its pure-Python generator. `_with_entries`
    spells the floats of all matrices of the document in one array pass, and
    each chunk of CHUNK entries that are all +0.0 is one shared string, so the
    cost of a sparse matrix follows its nonzero entries. The pieces are the
    writer's own units, and none is as long as a document of many matrices."""
    out: list[str] = []
    matrices: list = []
    _write(obj, "\n", out, matrices)
    return _with_entries(out, matrices) if matrices else ["".join(out)]


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
        text = _scalars_text(o, nl)
        if text is not None:
            out.append(text)
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
    """`out` with each recorded matrix's entries list spliced in, as pieces.

    A matrix's (re, im) pairs are cut into chunks of CHUNK pairs, the last
    one possibly shorter. One array pass over the floats of all matrices
    finds the chunks whose floats are all +0.0 (most of the projector-like
    aggregate operators): each is one shared `_zeros` string, held by
    reference. The floats of the other chunks, and only those, are
    classified in one more pass: +0.0 and -0.0 take constant strings, and
    only the others are spelled, by `_spellings`. One object array
    interleaves those spellings with the brackets, commas and indents
    between them, and the runs of consecutive chunks of one kind in one
    matrix are found before the loop that makes one piece of each mixed run.
    The structural text between two matrices' entries is one piece too."""
    pairs = np.array([m.size for _, m, _ in matrices])
    floats = np.concatenate([_float_pairs(m).ravel() for _, m, _ in matrices])
    counts = -(-pairs // CHUNK)  # chunks per matrix
    first = np.cumsum(counts) - counts  # each matrix's first chunk
    lengths = np.full(first[-1] + counts[-1], CHUNK)  # pairs per chunk
    lengths[first + counts - 1] = pairs - CHUNK * (counts - 1)
    # +0.0 is the one float whose bits are all 0: a chunk whose largest bit
    # pattern is 0 holds only +0.0 (a sum of the bits could wrap to 0)
    mixed = np.maximum.reduceat(floats.view(np.uint64), 2 * (np.cumsum(lengths) - lengths)) != 0
    opens = np.zeros(len(mixed), dtype=bool)
    opens[first] = True
    runs = np.flatnonzero(opens | np.concatenate(([False], mixed[1:] != mixed[:-1])))  # each run's first chunk
    if not mixed.all():
        floats = floats[np.repeat(mixed, 2 * lengths)]
    spans = np.add.reduceat(lengths * mixed, first)  # per matrix, the pairs of its mixed chunks
    text = np.empty((floats.size // 2, 4), dtype=object)  # per pair: the text before re, re, before im, im
    text[:, 0::2] = np.repeat(np.array([_marks(nl)[:2] for _, _, nl in matrices], dtype=object), spans, axis=0)
    text = text.reshape(-1)
    nonzero = floats != 0.0
    entries = text[1::2]
    entries.fill("0.0")
    entries[np.signbit(floats) & ~nonzero] = "-0.0"
    entries[nonzero] = _spellings(floats[nonzero])
    del floats, nonzero  # freed before the pieces grow, so that the two never add up
    pieces: list[str] = []
    prev, pair, close, matrix = 0, 0, "", iter(matrices)
    for opening, is_mixed, span in zip(opens[runs].tolist(), mixed[runs].tolist(),
                                       np.add.reduceat(lengths, runs).tolist()):
        if opening:  # the text up to the first pair's real part, in place of that pair's separator
            at, _, nl = next(matrix)
            pieces.append(close + "".join(out[prev:at]) + _marks(nl)[2])
            prev, close = at, _marks(nl)[3]
        if is_mixed:
            pieces.append("".join(text[4 * pair + opening : 4 * (pair + span)].tolist()))
            pair += span
            continue
        if opening:
            pieces.append(_zeros(nl, min(span, CHUNK), True))
            span -= min(span, CHUNK)
        pieces += [_zeros(nl, CHUNK)] * (span // CHUNK)
        if span % CHUNK:
            pieces.append(_zeros(nl, span % CHUNK))
    pieces.append(close + "".join(out[prev:]))
    return pieces


def _spellings(values: np.ndarray) -> np.ndarray:
    """The JSON text of each float, as an object array. When all are finite,
    `repr` spells each distinct magnitude once (a 17-digit `repr` is a bignum
    conversion, and a state's entries repeat their magnitudes), and a negative
    float is its magnitude's text after "-", as `repr` writes it."""
    if not np.isfinite(values).all():
        return np.array(list(map(_float, values.tolist())), dtype=object)
    magnitudes, inverse = np.unique(np.abs(values), return_inverse=True)
    spelled = np.array(list(map(float.__repr__, magnitudes.tolist())), dtype=object)[inverse]
    negative = values < 0
    spelled[negative] = "-" + spelled[negative]
    return spelled


@functools.lru_cache
def _marks(nl: str) -> tuple[str, str, str, str]:
    """The text around the entries of a matrix whose object starts on a line
    indented `nl`: before a pair's real part, before its imaginary part,
    before the first pair's real part, and after the last pair."""
    i2, i3 = nl + "    ", nl + "      "
    return f"{i2}],{i2}[{i3}", "," + i3, f"[{i2}[{i3}", f"{i2}]{nl}  ]"


@functools.lru_cache
def _zeros(nl: str, pairs: int, first: bool = False) -> str:
    """`pairs` entries (+0.0, +0.0) of a matrix whose object starts on a line
    indented `nl`, each after the separator that closes the previous pair;
    with `first`, the matrix's first pairs, the first without its separator."""
    sep, re_im = _marks(nl)[:2]
    return (f"{sep}0.0{re_im}0.0" * pairs)[len(sep) if first else 0 :]


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


def _scalars_text(o, nl: str) -> Optional[str]:
    """The JSON text of a nonempty list or tuple `o` whose items are all str,
    int, float, bool or None, or all nonempty lists or tuples of those, as a
    schedule's bouts are, built by joins instead of a `_write` call per
    item; None for any other `o`. `nl` is as for `_write`."""
    types, inner = set(map(type, o)), nl + "  "
    if types <= _SCALARS:
        texts = map(encode_basestring_ascii, o) if types == _STR else map(_scalar_text, o)
        return f"[{inner}" + f",{inner}".join(texts) + f"{nl}]"
    if not (types <= _LISTS and all(o)):
        return None
    types, item = set(map(type, itertools.chain.from_iterable(o))), inner + "  "
    if not types <= _SCALARS:
        return None
    spell = encode_basestring_ascii if types == _STR else _scalar_text
    if set(map(len, o)) == _ONE:  # rows of one item, as a linear schedule's bouts are: one join
        texts = map(spell, itertools.chain.from_iterable(o))
        return f"[{inner}[{item}" + f"{inner}],{inner}[{item}".join(texts) + f"{inner}]{nl}]"
    rows = [f"[{item}" + f",{item}".join(map(spell, v)) + f"{inner}]" for v in o]
    return f"[{inner}" + f",{inner}".join(rows) + f"{nl}]"


def _scalar_text(o) -> str:
    """The JSON text of a str, None, a bool, an int or a float."""
    return encode_basestring_ascii(o) if type(o) is str else _scalar(o)


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


def gate_from_json(obj: dict, matrices: _Matrices) -> Gate:
    """A gate object's gate; its matrices are added to `matrices`, which
    writes their entries later."""
    if not isinstance(obj, dict):
        raise ParseError([_diag("bad-gate", "<gate>", "gate is not a JSON object")])
    where = str(obj.get("id", "<gate>"))
    try:
        gid, registers, kind = obj["id"], obj["registers"], obj["kind"]
    except KeyError:
        raise ParseError([_diag("bad-gate", where, "malformed gate object")]) from None
    controls = obj.get("controls", [])
    selector = _object(obj, "selector", where)
    if type(gid) is not str or not (type(controls) is list and _STR.issuperset(map(type, controls))):
        raise ParseError([_diag("bad-gate", where, "gate id and controls must be JSON strings")])
    if not (type(registers) is list and _INT.issuperset(map(type, registers))):
        raise ParseError([_diag("bad-gate", where, "registers must be a list of JSON integers")])
    if not _STR.issuperset(map(type, selector.values())):
        raise ParseError([_diag("bad-gate", where, "selector targets must be JSON strings")])
    registers, controls, selector = tuple(registers), tuple(controls), _selector_from_json(selector)
    if kind == "measure":
        measurements = {}
        for mid, mobj in _object(obj, "measurements", where).items():
            ops = {}
            for label, mat in _object(mobj, "outcomes", where).items():
                ops[label] = matrices.add(mat, where)
            measurements[mid] = Measurement(mid, ops)
        return Gate(gid, registers, measurements=measurements, classical_sources=controls, selector=selector)
    if kind == "unitary":
        unitaries = {}
        for uid, mat in _object(obj, "ops", where).items():
            unitaries[uid] = UnitaryOp(uid, matrices.add(mat, where))
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
    matrices = _Matrices()
    try:
        gates = tuple([gate_from_json(g, matrices) for g in gate_objs])
    except ParseError:
        matrices.fail(None)  # a bad matrix read before the error is reported first
        raise
    matrices.fill()
    c = QuantumCircuit(tuple(registers), gates)
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


def schedule_to_json(x: Schedule, c: QuantumCircuit) -> dict:
    """Each bout's gate ids, in `in_bout_order` (an id not in `c` raises
    `CircuitError`)."""
    return {"bouts": in_bout_order(c, x.bouts)}


def schedule_from_json(obj: dict) -> Schedule:
    bouts = obj.get("bouts") if isinstance(obj, dict) else None
    if not (isinstance(bouts, list) and all(_strings(b) and len(set(b)) == len(b) for b in bouts)):
        raise ParseError([_diag("bad-schedule", "<schedule>", "bouts must be lists of gate ids, none twice in one")])
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
