"""JSON file formats for schedules, circuits and reports.

All files are plain JSON.  Complex numbers are serialized as [re, im]
pairs; matrices as nested lists of those pairs.  Report writing goes
through a deterministic emitter (fixed key order, floats rendered with 17
significant digits) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .compiler import Reflection, Rotation, XYGate
from .pulses import OneQubitPulse, ThreeSitePulse

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
            out.append(f'{pad}"{key}": ')
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
    if isinstance(value, bool):
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
# Schedule documents
# ---------------------------------------------------------------------------

def pulse_to_dict(pulse) -> dict:
    if isinstance(pulse, OneQubitPulse):
        return {
            "type": "one_qubit",
            "qubit": pulse.qubit,
            "theta": float(pulse.theta),
            "phi": float(pulse.phi),
            "area": float(pulse.area),
            "envelope": pulse.envelope,
            "duration": float(pulse.duration),
        }
    if isinstance(pulse, ThreeSitePulse):
        return {
            "type": "three_site",
            "pair": pulse.pair,
            "vartheta": float(pulse.vartheta),
            "area": float(pulse.area),
            "envelope": pulse.envelope,
            "duration": float(pulse.duration),
        }
    raise TypeError(f"not a pulse: {pulse!r}")


def _float(value) -> float:
    """float(value), with an int beyond the float range mapped to +-inf instead of raising."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _field(obj: dict, name: str, where: str, kind=None, default=None):
    """``obj[name]`` checked against ``kind``; a field with a default is optional."""
    if name not in obj:
        if default is None:
            raise FormatError(f"{where}: missing field {name!r}")
        return default
    value = obj[name]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormatError(f"{where}.{name}: expected an integer, got {value!r}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{where}.{name}: expected a number, got {value!r}")
        value = _float(value)
        if not math.isfinite(value):
            raise FormatError(f"{where}.{name}: value must be finite")
    elif kind is str and not isinstance(value, str):
        raise FormatError(f"{where}.{name}: expected a string, got {value!r}")
    return value


def pulse_from_dict(obj, where: str = "pulse"):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _field(obj, "type", where, str)
    if kind == "one_qubit":
        cls, required = OneQubitPulse, (("qubit", int), ("theta", float), ("phi", float))
    elif kind == "three_site":
        cls, required = ThreeSitePulse, (("pair", int), ("vartheta", float))
    else:
        raise FormatError(f"{where}.type: unknown pulse type {kind!r}")
    fields = {name: _field(obj, name, where, k) for name, k in required}
    fields.update(area=_field(obj, "area", where, float, math.pi),
                  envelope=_field(obj, "envelope", where, str, "square"),
                  duration=_field(obj, "duration", where, float, 1.0))
    try:
        return cls(**fields)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


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


# ---------------------------------------------------------------------------
# Circuit documents
# ---------------------------------------------------------------------------

def _vector3(obj, name, where):
    value = _field(obj, name, where)
    if (not isinstance(value, list) or len(value) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise FormatError(f"{where}.{name}: expected a 3-vector of numbers")
    return tuple(_float(v) for v in value)


def gate_from_dict(obj, where: str = "gate"):
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _field(obj, "kind", where, str)
    if kind == "rotation":
        return Rotation(
            qubit=_field(obj, "qubit", where, int),
            axis=_vector3(obj, "axis", where),
            angle=_field(obj, "angle", where, float),
        )
    if kind == "reflection":
        return Reflection(qubit=_field(obj, "qubit", where, int), n=_vector3(obj, "n", where))
    if kind == "xy":
        return XYGate(pair=_field(obj, "pair", where, int), vartheta=_field(obj, "vartheta", where, float))
    raise FormatError(f"{where}.kind: unknown gate kind {kind!r}")


def gate_to_dict(gate) -> dict:
    if isinstance(gate, Rotation):
        return {"kind": "rotation", "qubit": gate.qubit,
                "axis": [float(v) for v in gate.axis], "angle": float(gate.angle)}
    if isinstance(gate, Reflection):
        return {"kind": "reflection", "qubit": gate.qubit, "n": [float(v) for v in gate.n]}
    if isinstance(gate, XYGate):
        return {"kind": "xy", "pair": gate.pair, "vartheta": float(gate.vartheta)}
    raise TypeError(f"not a gate: {gate!r}")


def circuit_from_obj(obj) -> list:
    if not isinstance(obj, dict) or "gates" not in obj:
        raise FormatError("circuit document must be an object with a 'gates' array")
    gates = obj["gates"]
    if not isinstance(gates, list):
        raise FormatError("'gates' must be an array")
    return [gate_from_dict(g, f"gates[{i}]") for i, g in enumerate(gates)]


def loads_circuit(text: str) -> list:
    return circuit_from_obj(_parse(text))
