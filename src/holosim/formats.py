"""JSON file formats for schedules, circuits and reports.

All files are plain JSON.  Complex numbers are serialized as [re, im]
pairs; matrices as nested lists of those pairs.  Report writing goes
through a deterministic emitter (fixed key order, floats rendered with 17
significant digits) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from typing import get_args, get_type_hints

import numpy as np

from .compiler import Gate
from .pulses import Pulse

__all__ = [
    "FormatError",
    "dumps",
    "complex_pair",
    "matrix_pairs",
    "pulse_to_dict",
    "pulse_from_dict",
    "schedule_to_obj",
    "schedule_from_obj",
    "loads_schedule",
    "gate_to_dict",
    "gate_from_dict",
    "circuit_from_obj",
    "loads_circuit",
]


class FormatError(ValueError):
    """Raised for malformed schedule/circuit documents, with field context."""


# ---------------------------------------------------------------------------
# Deterministic JSON emission
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(x, ".17g")
    return text


def dumps(value, indent: int = 2) -> str:
    """Render ``value`` as JSON with fixed key order and float formatting."""
    pieces = []
    _emit(value, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(value, out, indent, level):
    pad = " " * (indent * (level + 1))
    closing_pad = " " * (indent * level)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _emit(item, out, indent, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(closing_pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if scalars:
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad)
            _emit(item, out, indent, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(closing_pad + "]")
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_pairs(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[complex_pair(z) for z in row] for row in M]


# ---------------------------------------------------------------------------
# Pulse and gate documents: a tag (``type`` or ``kind``) holding the class's ``kind``,
# then each dataclass field in order, typed by its annotation, optional if it has a default
# ---------------------------------------------------------------------------

_VECTOR3 = tuple[float, float, float]
# the shape of a document field of each array-capable annotation (a batch has others)
_SHAPES = {float: (), _VECTOR3: (3,)}


def _float(value) -> float:
    """float(value), with an int beyond the float range mapped to +-inf instead of raising."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _field(obj: dict, name: str, where: str, expected=None, default=MISSING):
    """``obj[name]`` checked against the type ``expected``; a field with a default is optional."""
    if name not in obj:
        if default is MISSING:
            raise FormatError(f"{where}: missing field {name!r}")
        return default
    value = obj[name]
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"{where}.{name}: expected an integer, got {value!r}")
    elif expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{where}.{name}: expected a number, got {value!r}")
        value = _float(value)
        if not math.isfinite(value):
            raise FormatError(f"{where}.{name}: value must be finite")
    elif expected is str and not isinstance(value, str):
        raise FormatError(f"{where}.{name}: expected a string, got {value!r}")
    elif expected == _VECTOR3:
        if (not isinstance(value, list) or len(value) != 3
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
            raise FormatError(f"{where}.{name}: expected a 3-vector of numbers")
        value = tuple(_float(v) for v in value)
    return value


_PULSES = {cls.kind: cls for cls in get_args(Pulse)}
_GATES = {cls.kind: cls for cls in get_args(Gate)}
# (name, annotation, default) of each field, in declaration order
_FIELDS = {cls: [(f.name, get_type_hints(cls)[f.name], f.default) for f in fields(cls)]
           for cls in (*_PULSES.values(), *_GATES.values())}


def _to_dict(obj, tag: str, noun: str, union) -> dict:
    if not isinstance(obj, union):
        raise TypeError(f"not a {noun}: {obj!r}")
    doc = {tag: obj.kind}
    for name, annotation, _ in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        shape = _SHAPES.get(annotation)
        if shape is not None and np.shape(value) != shape:
            raise ValueError(f"{noun} field {name!r} has shape {np.shape(value)}, expected {shape}: "
                             f"a document holds single {noun}s, not batches")
        if annotation is float:
            value = float(value)
        elif annotation == _VECTOR3:
            value = [float(v) for v in value]
        doc[name] = value
    return doc


def _from_dict(obj, where: str, tag: str, noun: str, classes: dict):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    name = _field(obj, tag, where, str)
    if name not in classes:
        raise FormatError(f"{where}.{tag}: unknown {noun} {tag} {name!r}")
    cls = classes[name]
    values = {f: _field(obj, f, where, annotation, default) for f, annotation, default in _FIELDS[cls]}
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def pulse_to_dict(pulse) -> dict:
    return _to_dict(pulse, "type", "pulse", Pulse)


def pulse_from_dict(obj, where: str = "pulse"):
    return _from_dict(obj, where, "type", "pulse", _PULSES)


def gate_to_dict(gate) -> dict:
    return _to_dict(gate, "kind", "gate", Gate)


def gate_from_dict(obj, where: str = "gate"):
    return _from_dict(obj, where, "kind", "gate", _GATES)


# ---------------------------------------------------------------------------
# Schedule and circuit documents
# ---------------------------------------------------------------------------

def schedule_to_obj(schedule) -> dict:
    return {"pulses": [pulse_to_dict(p) for p in schedule]}


def schedule_from_obj(obj) -> list:
    if not isinstance(obj, dict) or "pulses" not in obj:
        raise FormatError("schedule document must be an object with a 'pulses' array")
    pulses = obj["pulses"]
    if not isinstance(pulses, list):
        raise FormatError("'pulses' must be an array")
    return [pulse_from_dict(p, f"pulses[{i}]") for i, p in enumerate(pulses)]


def _parse(text: str):
    """json.loads, with a malformed or too deeply nested document raised as FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


def loads_schedule(text: str) -> list:
    return schedule_from_obj(_parse(text))


def circuit_from_obj(obj) -> list:
    if not isinstance(obj, dict) or "gates" not in obj:
        raise FormatError("circuit document must be an object with a 'gates' array")
    gates = obj["gates"]
    if not isinstance(gates, list):
        raise FormatError("'gates' must be an array")
    return [gate_from_dict(g, f"gates[{i}]") for i, g in enumerate(gates)]


def loads_circuit(text: str) -> list:
    return circuit_from_obj(_parse(text))
