"""Pulses, envelopes and propagation.

A pulse switches exactly one Hamiltonian block on for a duration tau with a
real envelope; only the pulse area (the envelope's time integral) enters the
propagator, because the block Hamiltonian is constant while it is on.  The
stepped integrator exists to certify exactly that: sliced propagation with
any envelope shape of equal area reproduces the single-shot propagator.
Each envelope is one row of a table: its shape and its accumulated area.

Every pulse has one local form, (first site, 3^k x 3^k block) with k = 1 or
3.  Both blocks satisfy H^3 = H, so exp(-i a H) = 1 - i sin(a) H +
(cos(a) - 1) H^2 exactly, and ``closed_form`` alone evaluates it; propagation
applies it to a state or to operator columns by reshape and contraction,
and embeds it only for dense propagators.

A pulse's angles and area may be arrays that broadcast together: the pulse
is then a batch of pulses of one kind on one site.  ``local_form``,
``closed_form``, ``apply_local`` and ``run_schedule`` carry the batch as
leading axes of the blocks and of the columns (..., dim, K); a pulse with
number fields is a batch with no leading axes and runs through the same
code.  The dense builders ``block_hamiltonian``, ``propagate_exact`` and
``schedule_propagator`` give stacks (..., dim, dim) for a batch;
``propagate_stepped`` takes a single pulse.

Schedules are plain sequences of pulses executed strictly one at a time;
there is no way to express temporal overlap.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .chain import ChainLayout, embed, lambda_coupling, logical_frame, xy_coupling
from .linalg import check_memory

__all__ = [
    "ENVELOPES",
    "OneQubitPulse",
    "ThreeSitePulse",
    "Pulse",
    "PulseSchedule",
    "slice_areas",
    "cumulative_area",
    "block_hamiltonian",
    "propagate_exact",
    "propagate_stepped",
    "schedule_propagator",
    "run_schedule",
]

# Gaussian envelope: centered, truncated at +-3 sigma, so sigma = tau/6.
_GAUSS_SIGMA = 1.0 / 6.0
_GAUSS_SCALE = _GAUSS_SIGMA * math.sqrt(2.0)
_GAUSS_LO, _GAUSS_HI = math.erf(-0.5 / _GAUSS_SCALE), math.erf(0.5 / _GAUSS_SCALE)
_erf = np.vectorize(math.erf, otypes=[float])  # element-wise; scipy is not a dependency

# Each envelope's unnormalized shape and accumulated-area fraction at scaled time s = t/tau in [0, 1]
_ENVELOPES = {
    "square": (np.ones_like, lambda s: s),
    "gaussian": (lambda s: np.exp(-((s - 0.5) ** 2) / (2.0 * _GAUSS_SIGMA**2)),
                 lambda s: (_erf((s - 0.5) / _GAUSS_SCALE) - _GAUSS_LO) / (_GAUSS_HI - _GAUSS_LO)),
    "sin2": (lambda s: np.sin(np.pi * s) ** 2, lambda s: s - np.sin(2.0 * np.pi * s) / (2.0 * np.pi)),
}
ENVELOPES = tuple(_ENVELOPES)


def _envelope(envelope: str):
    """The (shape, area fraction) row of ``envelope``; a tuple test refuses an unhashable name too."""
    if envelope not in ENVELOPES:
        raise ValueError(f"unknown envelope {envelope!r}, expected one of {ENVELOPES}")
    return _ENVELOPES[envelope]


def _finite(value) -> bool:
    """Every element of a number or an array is finite."""
    return bool(np.isfinite(np.asarray(value, dtype=float)).all())


def _check_pulse_fields(area, envelope, duration):
    if not _finite(area):
        raise ValueError("pulse area must be finite")
    _envelope(envelope)
    if not (np.isfinite(duration) and duration > 0):
        raise ValueError(f"pulse duration must be positive, got {duration}")


def fields_equal(a, b):
    """``==`` for the pulse and gate classes: every field compares with ``np.array_equal``,
    so batch fields compare by shape and value instead of raising."""
    if a.__class__ is not b.__class__:
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def fields_hash(obj):
    """``hash`` for the pulse and gate classes: the frozen dataclass's hash of the field values,
    or, when an array field makes the object a batch, a ``TypeError`` that says so."""
    values = tuple(getattr(obj, f.name) for f in fields(obj))
    for f, value in zip(fields(obj), values):
        if isinstance(value, np.ndarray):
            raise TypeError(f"unhashable {type(obj).__name__}: it is a batch "
                            f"(field {f.name!r} is an array of shape {value.shape})")
    return hash(values)


@dataclass(frozen=True)
class OneQubitPulse:
    """Two-field drive on the site of logical qubit ``qubit``."""

    __eq__ = fields_equal
    __hash__ = fields_hash
    kind: ClassVar[str] = "one_qubit"  # schedule-document name
    qubit: int
    theta: float
    phi: float
    area: float = math.pi
    envelope: str = "square"
    duration: float = 1.0

    def __post_init__(self):
        if not (_finite(self.theta) and _finite(self.phi)):
            raise ValueError("theta and phi must be finite")
        _check_pulse_fields(self.area, self.envelope, self.duration)

    def local_form(self, layout: ChainLayout) -> tuple[int, np.ndarray]:
        return layout.site_of_qubit(self.qubit), lambda_coupling(self.theta, self.phi)

    def computational_frame(self, layout: ChainLayout) -> np.ndarray:
        """The {|0>, |1>} pair of the driven qubit with every other site in |0> (K = 2)."""
        site = layout.site_of_qubit(self.qubit)
        check_memory(f"a one-qubit frame at N={layout.n_logical}", 32 * layout.dim)
        frame = np.zeros((layout.dim, 2), dtype=complex)
        frame[[0, 3 ** (layout.n_sites - site)], [0, 1]] = 1.0
        return frame


@dataclass(frozen=True)
class ThreeSitePulse:
    """XY coupling pulse on the three sites of logical pair ``pair``."""

    __eq__ = fields_equal
    __hash__ = fields_hash
    kind: ClassVar[str] = "three_site"  # schedule-document name
    pair: int
    vartheta: float
    area: float = math.pi
    envelope: str = "square"
    duration: float = 1.0

    def __post_init__(self):
        if not _finite(self.vartheta):
            raise ValueError("vartheta must be finite")
        _check_pulse_fields(self.area, self.envelope, self.duration)

    def local_form(self, layout: ChainLayout) -> tuple[int, np.ndarray]:
        return layout.sites_of_pair(self.pair)[0], xy_coupling(self.vartheta)

    def computational_frame(self, layout: ChainLayout) -> np.ndarray:
        """The full logical basis (K = 2^N): the direct sum of every computational block the pulse touches."""
        layout.sites_of_pair(self.pair)  # validate index
        return logical_frame(layout)


Pulse = OneQubitPulse | ThreeSitePulse
PulseSchedule = Sequence[Pulse]


def slice_areas(envelope: str, area: float, steps: int) -> np.ndarray:
    """Per-slice areas for midpoint time slicing, rescaled to sum to ``area``.

    Midpoint sampling is second-order accurate per slice; the rescaling pins
    the discretized total area to the requested one at any step count.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    mids = (np.arange(steps) + 0.5) / steps
    weights = _envelope(envelope)[0](mids)
    return weights * (area / weights.sum())


def cumulative_area(envelope: str, area: float, s):
    """Area accumulated by scaled time s = t/tau (a closed form per shape).

    ``s`` is a number or an array of scaled times; a number gives a float.
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    out = area * _envelope(envelope)[1](s)
    return float(out) if out.ndim == 0 else out


def local_form(pulse: Pulse, layout: ChainLayout) -> tuple[int, np.ndarray]:
    """(first site, local block Hamiltonian) of ``pulse``; every propagation path starts here.

    A batch of pulses gives a stack of blocks, shape (..., 3^k, 3^k).
    """
    if not isinstance(pulse, Pulse):
        raise TypeError(f"not a pulse: {pulse!r}")
    return pulse.local_form(layout)


def closed_form(T0, T1, T2, area) -> np.ndarray:
    """T0 - i sin(a) T1 + (cos(a) - 1) T2: exp(-i a H) from (1, H, H^2) for a block with H^3 = H,
    and F^dag exp(-i a H) F from (F^dag F, F^dag H F, (H F)^dag (H F)).

    Stacks of terms and arrays of areas broadcast against each other.
    """
    area = np.asarray(area, dtype=float)[..., None, None]
    return T0 - 1j * np.sin(area) * T1 + (np.cos(area) - 1.0) * T2


def apply_local(site: int, U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply the local operator U on sites site, site+1, ... to a state or to columns (..., dim, K).

    The leading axes of a stack U (..., d, d) and of the columns broadcast.
    """
    d = U.shape[-1]
    Xr = X.reshape(X.shape[:-2] + (3 ** (site - 1), d, -1))
    if U.ndim == 2:
        out = U[..., None, :, :] @ Xr
    else:
        # a stack: the sites before the block move behind its axis, so that each member is one
        # product with 3^(site-1) times as many columns, at the cost of a copy in and out
        out = U @ Xr.swapaxes(-3, -2).reshape(Xr.shape[:-3] + (d, -1))
        out = out.reshape(out.shape[:-1] + (Xr.shape[-3], Xr.shape[-1])).swapaxes(-3, -2)
    return out.reshape(out.shape[:-3] + X.shape[-2:])


def _pulse_propagator(pulse: Pulse, layout: ChainLayout) -> tuple[int, np.ndarray]:
    site, block = local_form(pulse, layout)
    return site, closed_form(np.eye(block.shape[-1]), block, block @ block, pulse.area)


def block_hamiltonian(pulse: Pulse, layout: ChainLayout) -> np.ndarray:
    """The time-independent full-chain Hamiltonian switched on by ``pulse`` (a stack for a batch)."""
    site, block = local_form(pulse, layout)
    return embed(block, site, layout)


def propagate_exact(pulse: Pulse, layout: ChainLayout) -> np.ndarray:
    """Full-chain propagator exp(-i * area * H_block), a stack (..., dim, dim) for a batch.

    The envelope shape is irrelevant here by construction: the block
    Hamiltonian is constant during the pulse, so only the area enters.
    """
    site, U = _pulse_propagator(pulse, layout)
    return embed(U, site, layout)


def propagate_stepped(pulse: Pulse, steps: int, layout: ChainLayout) -> np.ndarray:
    """Propagator as an ordered product of per-slice exponentials.

    Independent integration path used to certify envelope-shape
    independence: returns prod_j exp(-i da_j H) with slice areas from
    midpoint sampling of the envelope (latest slice leftmost).
    """
    site, block = local_form(pulse, layout)
    if block.ndim > 2 or np.ndim(pulse.area) > 0:
        raise ValueError("stepped propagation takes one pulse, not a batch")
    eye, block_sq = np.eye(len(block)), block @ block
    U = np.eye(len(block), dtype=complex)
    for da in slice_areas(pulse.envelope, pulse.area, steps):
        U = closed_form(eye, block, block_sq, da) @ U
    return embed(U, site, layout)


def schedule_propagator(schedule, layout: ChainLayout) -> np.ndarray:
    """Full-chain unitary of a pulse schedule (first pulse acts first)."""
    return run_schedule(schedule, np.eye(layout.dim, dtype=complex), layout)


def run_schedule(schedule, X, layout: ChainLayout) -> np.ndarray:
    """Apply a schedule to a state or to columns (..., dim, K), one local pulse propagator at a time.

    A batch of pulses in the schedule and leading axes of the columns
    broadcast; the result carries the broadcast leading axes, also for a state.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim == 0 or X.shape[0 if X.ndim == 1 else -2] != layout.dim:
        raise ValueError(
            f"state dimension {X.shape} does not match chain dimension ({layout.dim},)"
        )
    columns = X[:, None] if X.ndim == 1 else X
    for pulse in schedule:
        columns = apply_local(*_pulse_propagator(pulse, layout), columns)
    return columns[..., 0] if X.ndim == 1 else columns
