"""JSON file formats for schedules, circuits and reports.

All files are plain JSON.  Complex numbers are serialized as [re, im]
pairs; matrices as nested lists of those pairs.  Report writing goes
through a deterministic emitter (fixed key order, floats rendered with 17
significant digits) so identical inputs produce byte-identical files.  It
renders each leaf from a table keyed by its exact type (float, complex, int,
bool, str, None), with an isinstance chain only for NumPy scalars and
subclasses.  A complex number is a leaf whose text is its [re, im] pair, one
format operation for finite parts, so a matrix is written from ``tolist()``
with no pair lists built.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from json.encoder import encode_basestring_ascii
from typing import get_args, get_type_hints

import numpy as np

from .compiler import Gate
from .linalg import float_or_inf
from .pulses import Pulse

__all__ = [
    "FormatError",
    "dumps",
    "pulse_to_dict",
    "pulse_from_dict",
    "schedule_to_obj",
    "schedule_from_obj",
    "loads_schedule",
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
    return "%.17g" % x


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if math.isfinite(re) and math.isfinite(im):
        return "[%.17g, %.17g]" % (re, im)
    return f"[{_fmt_float(re)}, {_fmt_float(im)}]"  # raises for the non-finite part


def dumps(value) -> str:
    """Render ``value`` as JSON with fixed key order and float formatting, indented by two spaces."""
    return _render(value, "") + "\n"


def _render(value, margin: str) -> str:
    """The JSON text of ``value``, with ``margin`` before each of its lines after the first."""
    render = _LEAVES.get(type(value))
    if render is not None:
        return render(value)
    if not isinstance(value, (dict, list, tuple)):
        return _leaf(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = margin + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(str(key))}: {_render(item, inner)}" for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + margin + "}"
    items = [_render(item, inner) for item in value]
    # every item a leaf other than a complex number: one line; a complex item, an [re, im] pair, is laid out
    # as a list of two floats is
    if not any(isinstance(item, (dict, list, tuple, complex, np.complexfloating)) for item in value):
        return "[" + ", ".join(items) + "]"
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + margin + "]"


# The renderer of each exact leaf type; json.dumps(str) is encode_basestring_ascii
_LEAVES = {float: _fmt_float, complex: _fmt_complex, int: str, bool: lambda value: "true" if value else "false",
           str: encode_basestring_ascii, type(None): lambda value: "null"}


def _leaf(value) -> str:
    """The JSON text of a leaf whose type is not a key of ``_LEAVES``: a NumPy scalar or a
    subclass of a leaf type."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return _fmt_complex(complex(value))
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


# ---------------------------------------------------------------------------
# Pulse and gate documents: a tag (``type`` or ``kind``) holding the class's ``kind``,
# then each dataclass field in order, typed by its annotation, optional if it has a default;
# any other key is refused
# ---------------------------------------------------------------------------

_VECTOR3 = tuple[float, float, float]


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
        if type(value) is not float:  # JSON gives a float or an int
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise FormatError(f"{where}.{name}: expected a number, got {value!r}")
            value = float_or_inf(value)
        if not math.isfinite(value):
            raise FormatError(f"{where}.{name}: value must be finite")
    elif expected is str:
        if not isinstance(value, str):
            raise FormatError(f"{where}.{name}: expected a string, got {value!r}")
    elif expected == _VECTOR3:
        if (not isinstance(value, list) or len(value) != 3
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
            raise FormatError(f"{where}.{name}: expected a 3-vector of numbers")
        value = tuple(float_or_inf(v) for v in value)
    return value


_PULSES = {cls.kind: cls for cls in get_args(Pulse)}
_GATES = {cls.kind: cls for cls in get_args(Gate)}
# name -> (annotation, default) of each field, in declaration order
_FIELDS = {cls: {f.name: (get_type_hints(cls)[f.name], f.default) for f in fields(cls)}
           for cls in (*_PULSES.values(), *_GATES.values())}


def _from_dict(obj, where: str, tag: str, noun: str, classes: dict):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    name = _field(obj, tag, where, str)
    if name not in classes:
        raise FormatError(f"{where}.{tag}: unknown {noun} {tag} {name!r}")
    cls = classes[name]
    unknown = [key for key in obj if key != tag and key not in _FIELDS[cls]]
    if unknown:  # a misspelled optional field would otherwise fall back to its default unseen
        raise FormatError(f"{where}: unknown field {unknown[0]!r}")
    values = {f: _field(obj, f, where, *spec) for f, spec in _FIELDS[cls].items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def pulse_to_dict(pulse) -> dict:
    if not isinstance(pulse, Pulse):
        raise TypeError(f"not a pulse: {pulse!r}")
    doc = {"type": pulse.kind}
    for name, (annotation, _) in _FIELDS[type(pulse)].items():
        value = getattr(pulse, name)
        if annotation is float and type(value) is not float:  # a float is written as it is
            if np.shape(value) != ():
                raise ValueError(f"pulse field {name!r} has shape {np.shape(value)}, expected (): "
                                 "a document holds single pulses, not batches")
            value = float(value)
        doc[name] = value
    return doc


def pulse_from_dict(obj, where: str = "pulse"):
    return _from_dict(obj, where, "type", "pulse", _PULSES)


def gate_from_dict(obj, where: str = "gate"):
    return _from_dict(obj, where, "kind", "gate", _GATES)


# ---------------------------------------------------------------------------
# Schedule and circuit documents
# ---------------------------------------------------------------------------

def schedule_to_obj(schedule) -> dict:
    return {"pulses": [pulse_to_dict(p) for p in schedule]}


def _items(obj, noun: str, key: str, read) -> list:
    """The items of a document's ``key`` array, item i read as ``read(item, "key[i]")``."""
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{noun} document must be an object with a '{key}' array")
    items = obj[key]
    if not isinstance(items, list):
        raise FormatError(f"'{key}' must be an array")
    return [read(item, f"{key}[{i}]") for i, item in enumerate(items)]


def schedule_from_obj(obj) -> list:
    return _items(obj, "schedule", "pulses", pulse_from_dict)


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
    return _items(obj, "circuit", "gates", gate_from_dict)


def loads_circuit(text: str) -> list:
    return circuit_from_obj(_parse(text))
