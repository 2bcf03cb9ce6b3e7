"""Compilation of logical circuits into pulse schedules.

Gate set: reflections (one pi pulse), rotations about an arbitrary axis
(two pi pulses, via the two-reflection decomposition), and the XY-block
gate on adjacent logical pairs (one pi-area three-site pulse).  Compilation
is deterministic and performs no optimization, so the emitted schedule can
be audited pulse-by-pulse against its source gates.

Each gate class owns its circuit-document name ``kind``, its compile ``rule``,
the number of logical qubits it acts on (``qubits``), its ``pulses`` and its
closed-form ``logical`` operator (first qubit, matrix).

A gate's parameters may be arrays that broadcast together, as a pulse's may:
the gate is then a batch of gates of one kind on one qubit or pair, its
``pulses`` are batch pulses and its ``logical`` operator is a stack
(..., 2^k, 2^k).  A circuit of batch gates is a batch of circuits of one
shape: ``compile_circuit`` gives a schedule of batch pulses and
``circuit_unitary`` a stack (..., 2^N, 2^N), applying each operator from
qubit q with the chain's contraction, ``linalg.apply_factor``, at left = 2^(q-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .chain import ChainLayout
from .gates import bloch_angles, one_qubit_gate, two_qubit_gate
from .linalg import any_true, apply_factor, cross, dot, finite, three_vectors
from .pulses import OneQubitPulse, ThreeSitePulse, fields_equal, fields_hash

__all__ = [
    "Rotation",
    "Reflection",
    "XYGate",
    "Gate",
    "compile_rotation",
    "compile_gate",
    "compile_circuit",
    "circuit_unitary",
]

_BASIS_AXES = np.eye(3)


def _checked_axis(axis) -> np.ndarray:
    unit, norm = three_vectors(axis, "rotation axis")
    if any_true(norm < 1e-12):
        raise ValueError("rotation axis must be nonzero")
    return unit


def compile_rotation(axis, angle) -> tuple[np.ndarray, np.ndarray]:
    """Split a rotation into two reflection axes (n, m).

    n is the first of (x, y, z) with axis component squared <= 0.99,
    orthogonalized against the axis; m = cos(angle/2) n + sin(angle/2) (axis x n).
    Then n.m = cos(angle/2) and n x m = sin(angle/2) axis, so the two
    reflections compose to the requested rotation.  (..., 3) axes and
    matching angles give (..., 3) pairs, bit for bit the per-member results.
    """
    a = _checked_axis(axis)
    if not finite(angle):
        raise ValueError("rotation angle must be finite")
    angle = np.asarray(angle, dtype=float)
    # at most one a_e^2 of a unit axis exceeds 1/2, so such an e exists; |axis x e| >= 0.1 then,
    # and n = e - (e.a) a loses at most one digit to cancellation; a bound of 1/2 would hold
    # (-1, 0, 1)/sqrt(2), whose huge and unit forms round to opposite sides of it and take different e
    e = _BASIS_AXES[np.argmax(a * a <= 0.99, axis=-1)]
    n = e - dot(e, a)[..., None] * a
    n = n / np.sqrt(dot(n, n))[..., None]
    half = 0.5 * angle[..., None]
    m = np.cos(half) * n + np.sin(half) * cross(a, n)
    return n, m


@dataclass(frozen=True)
class Rotation:
    """exp(-i angle/2 * axis.sigma) on one logical qubit; (..., 3) axes and (...) angles make a batch."""

    __eq__ = fields_equal
    __hash__ = fields_hash
    kind: ClassVar[str] = "rotation"
    rule: ClassVar[str] = "rotation: two pi-area drives (reflection pair n then m)"
    qubits: ClassVar[int] = 1
    qubit: int
    axis: tuple[float, float, float]
    angle: float

    def pulses(self, layout: ChainLayout) -> list:
        layout.site_of_qubit(self.qubit)
        n, m = compile_rotation(self.axis, self.angle)
        return Reflection(self.qubit, n).pulses(layout) + Reflection(self.qubit, m).pulses(layout)

    def logical(self, layout: ChainLayout) -> tuple[int, np.ndarray]:
        layout.site_of_qubit(self.qubit)
        if not finite(self.angle):
            raise ValueError("rotation angle must be finite")
        angle = np.asarray(self.angle, dtype=float)
        half = 0.5 * angle
        if angle.ndim:  # an array of angles indexes the stack axes, ahead of the matrix axes
            half = half[..., None, None]
        sigma = one_qubit_gate(_checked_axis(self.axis))
        return self.qubit, np.cos(half) * np.eye(2, dtype=complex) - 1j * np.sin(half) * sigma


@dataclass(frozen=True)
class Reflection:
    """n.sigma on one logical qubit (single pi pulse); (..., 3) vectors make a batch."""

    __eq__ = fields_equal
    __hash__ = fields_hash
    kind: ClassVar[str] = "reflection"
    rule: ClassVar[str] = "reflection: one pi-area drive along n"
    qubits: ClassVar[int] = 1
    qubit: int
    n: tuple[float, float, float]

    def pulses(self, layout: ChainLayout) -> list:
        layout.site_of_qubit(self.qubit)
        theta, phi = bloch_angles(self.n)
        return [OneQubitPulse(qubit=self.qubit, theta=theta, phi=phi, area=math.pi)]

    def logical(self, layout: ChainLayout) -> tuple[int, np.ndarray]:
        layout.site_of_qubit(self.qubit)
        return self.qubit, one_qubit_gate(self.n)


@dataclass(frozen=True)
class XYGate:
    """XY-block gate with mixing angle vartheta on adjacent pair (l', l'+1); array angles make a batch."""

    __eq__ = fields_equal
    __hash__ = fields_hash
    kind: ClassVar[str] = "xy"
    rule: ClassVar[str] = "xy: one pi-area three-site coupling pulse"
    qubits: ClassVar[int] = 2
    pair: int
    vartheta: float

    def pulses(self, layout: ChainLayout) -> list:
        layout.sites_of_pair(self.pair)  # adjacent pairs only; rejects the rest
        return [ThreeSitePulse(pair=self.pair, vartheta=self.vartheta, area=math.pi)]

    def logical(self, layout: ChainLayout) -> tuple[int, np.ndarray]:
        layout.sites_of_pair(self.pair)
        return self.pair, two_qubit_gate(self.vartheta)


Gate = Rotation | Reflection | XYGate


def _checked(gate) -> Gate:
    if not isinstance(gate, Gate):
        raise TypeError(f"unknown gate type: {gate!r}")
    return gate


def compile_gate(gate: Gate, layout: ChainLayout) -> list:
    """Pulses implementing one logical gate, in execution order."""
    return _checked(gate).pulses(layout)


def _per_gate(circuit, layout: ChainLayout, method: str):
    """Each gate's ``method`` (``pulses`` or ``logical``) at ``layout``, in circuit order; an item that is not a
    gate, or a gate that the method refuses, is named by its index, in the same words on both routes."""
    for i, gate in enumerate(circuit):
        try:
            result = getattr(_checked(gate), method)(layout)
        except ValueError as exc:
            raise ValueError(f"gate {i}: {exc}") from None
        except TypeError as exc:
            raise TypeError(f"gate {i}: {exc}") from None
        yield result


def compile_circuit(circuit, layout: ChainLayout) -> list:
    """Compile an ordered gate list into a pulse schedule (order preserved)."""
    return [pulse for pulses in _per_gate(circuit, layout, "pulses") for pulse in pulses]


def circuit_unitary(circuit, layout: ChainLayout) -> np.ndarray:
    """Analytic 2^N x 2^N unitary of a logical circuit (first gate first), a stack for batch gates.

    Built from each gate's closed-form ``logical`` operator, not its pulses;
    the reference the compiled pulse schedule is verified against.
    """
    U = np.eye(layout.logical_dim, dtype=complex)
    for first_qubit, op in _per_gate(circuit, layout, "logical"):
        U = apply_factor(2 ** (first_qubit - 1), op, U)
    return U
