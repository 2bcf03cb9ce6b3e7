"""Pulses, envelopes and propagation.

A pulse switches exactly one Hamiltonian block on with a real envelope over
scaled time s = t/tau in [0, 1]; only the pulse area (the envelope's integral
over s) enters the propagator, because the block Hamiltonian is constant while
it is on, so a pulse carries no tau.  The stepped integrator exists to certify
exactly that: sliced propagation with any envelope shape of equal area
reproduces the single-shot propagator.
Each envelope is one row of a table: its shape and its accumulated area.

Every pulse is its Λ systems (``lambdas``): its first site, its local size
on the reachable space (see ``chain``), 3 for the drive on one logical site
and 18 = 3 * 2 * 3 for the XY coupling on a logical, an auxiliary and a
logical site, and the three-level loops (levels, w) in which |e> couples to
one bright state |w>, one for the drive and two for the XY coupling.
``local_form`` and ``local_propagator`` both read ``lambdas``, and have one
writer, ``chain._written``, write the block, (first site, d x d block), or
the propagator, (first site, exp(-i a H)) at the pulse's area a, entry by
entry from the pulse's numbers, with no block, identity or block product
formed.
Both blocks satisfy H^3 = H, so exp(-i a H) = 1 - i sin(a) H + (cos(a) - 1)
H^2 exactly; ``closed_form`` evaluates the same sum on given terms: the
projected maps of ``holonomy``, and the slices of ``propagate_stepped``,
which squares the block, so that stepped and exact propagation are two
independent constructions.  ``apply_local`` is the one place that turns a
site into the number of reachable dimensions before it, 6^(q-1) before
logical qubit q, so that ``linalg.apply_factor`` applies a propagator to a
state or to operator columns of the reachable space.  The dense references
``block_hamiltonian``, ``propagate_exact``, ``propagate_stepped`` and
``schedule_propagator`` act on the full three-level chain: they lift the
local block to all three-level states of its sites (``chain.lifted``, which
fixes or annihilates every auxiliary |e>) and embed it.  Each pulse class also
says how it moves to its minimal chain, one qubit or one pair
(``minimal_chain``), and which identities embed the gate found there;
``holonomy.certify`` works there.

A pulse's angles and area may be arrays that broadcast together: the pulse
is then a batch of pulses of one kind on one site.  ``local_form``,
``local_propagator``, ``closed_form``, ``apply_local`` and ``run_schedule``
carry the batch as leading axes of the blocks and of the columns
(..., dim, K); a pulse with number fields is a batch with no leading axes.
Its blocks get no stack axes, as its numbers multiply the matrices directly
with the arithmetic of a batch, and its fields are checked with
``math.isfinite``.  The dense builders ``block_hamiltonian``,
``propagate_exact`` and ``schedule_propagator`` give stacks (..., 3^(2N-1),
3^(2N-1)) for a batch; ``propagate_stepped`` takes a single pulse.

Schedules are plain sequences of pulses executed strictly one at a time;
there is no way to express temporal overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .chain import ChainLayout, _drive_lambdas, _index, _written, _xy_lambdas, embed, lifted
from .linalg import apply_factor, finite

__all__ = [
    "ENVELOPES",
    "OneQubitPulse",
    "ThreeSitePulse",
    "Pulse",
    "slice_areas",
    "cumulative_area",
    "block_hamiltonian",
    "propagate_exact",
    "propagate_stepped",
    "schedule_propagator",
    "run_schedule",
]

# Gaussian envelope: centered, truncated at +-3 sigma, so sigma = 1/6 in scaled time.
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


def _check_pulse_fields(area, envelope):
    if not finite(area):
        raise ValueError("pulse area must be finite")
    _envelope(envelope)


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

    def __post_init__(self):
        if not (finite(self.theta) and finite(self.phi)):
            raise ValueError("theta and phi must be finite")
        _check_pulse_fields(self.area, self.envelope)

    def lambdas(self, layout: ChainLayout) -> tuple[int, int, tuple]:
        """(first site, local size, Λ systems): the drive is one Λ system, on (|e>, |0>, |1>) of its site."""
        return layout.site_of_qubit(self.qubit), 3, _drive_lambdas(self.theta, self.phi)

    def minimal_chain(self, layout: ChainLayout) -> tuple[OneQubitPulse, ChainLayout, tuple[int, int]]:
        """This pulse moved to qubit 1 of a one-qubit chain, and the identity sizes (1, 1): its
        2 x 2 gate there is already the gate on this qubit's |0> and |1> at ``layout``, with every
        other qubit in |0>."""
        layout.site_of_qubit(self.qubit)  # validate index
        return replace(self, qubit=1), ChainLayout(1), (1, 1)


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

    def __post_init__(self):
        if not finite(self.vartheta):
            raise ValueError("vartheta must be finite")
        _check_pulse_fields(self.area, self.envelope)

    def lambdas(self, layout: ChainLayout) -> tuple[int, int, tuple]:
        """(first site, local size, Λ systems): the coupling is two Λ systems, on the qubit sector of its three
        sites, within their 18 reachable states."""
        return layout.sites_of_pair(self.pair)[0], 18, _xy_lambdas(self.vartheta)

    def minimal_chain(self, layout: ChainLayout) -> tuple[ThreeSitePulse, ChainLayout, tuple[int, int]]:
        """This pulse moved to pair 1 of a two-qubit chain, and the identity sizes (left, right) =
        (2^(pair-1), 2^(N-pair-1)) that embed its 4 x 4 gate there as 1_left (x) g (x) 1_right
        in the logical frame at ``layout``."""
        layout.sites_of_pair(self.pair)  # validate index
        identities = (1 << (self.pair - 1), 1 << (layout.n_logical - self.pair - 1))  # 2 ** k takes 0.5 s at k = 10^8
        return replace(self, pair=1), ChainLayout(2), identities


Pulse = OneQubitPulse | ThreeSitePulse


def slice_areas(envelope: str, area: float, steps: int) -> np.ndarray:
    """Per-slice areas for midpoint time slicing, rescaled to sum to ``area``.

    Midpoint sampling is second-order accurate per slice; the rescaling pins
    the discretized total area to the requested one at any step count.
    """
    steps = _index(steps, "steps")
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


def _checked(pulse):
    if not isinstance(pulse, Pulse):
        raise TypeError(f"not a pulse: {pulse!r}")
    return pulse


def local_form(pulse: Pulse, layout: ChainLayout) -> tuple[int, np.ndarray]:
    """(first site, local block Hamiltonian) of ``pulse`` on the reachable space, written from its Λ systems:
    what the Hamiltonian, stepped propagation and ``holonomy`` start from.  A batch of pulses gives a stack of
    blocks, shape (..., d, d).
    """
    site, size, systems = _checked(pulse).lambdas(layout)
    return site, _written(size, systems)


def local_propagator(pulse: Pulse, layout: ChainLayout) -> tuple[int, np.ndarray]:
    """(first site, local propagator exp(-i area H)) of ``pulse`` on the reachable space, written from its Λ
    systems: what exact propagation applies or embeds.  A batch of pulses gives a stack, shape (..., d, d), each
    member with its single pulse's bits.
    """
    site, size, systems = _checked(pulse).lambdas(layout)
    return site, _written(size, systems, pulse.area)


def closed_form(T0, T1, T2, area) -> np.ndarray:
    """T0 - i sin(a) T1 + (cos(a) - 1) T2: exp(-i a H) from (1, H, H^2) for a block with H^3 = H,
    and F^dag exp(-i a H) F from (F^dag F, F^dag H F, (H F)^dag (H F)).

    Stacks of terms and arrays of areas broadcast against each other.
    """
    if np.ndim(area):  # an array of areas indexes the stack axes, ahead of the matrix axes
        area = np.asarray(area, dtype=float)[..., None, None]
    return T0 - 1j * np.sin(area) * T1 + (np.cos(area) - 1.0) * T2


def apply_local(site: int, U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Apply the local operator U on sites site, site+1, ... to a state or to reachable columns (..., dim, K).

    The sites before it are the first dimensions of the mixed radix (``ChainLayout.site_dims``), 3 for
    each logical site and 2 for each auxiliary one (``linalg.apply_factor``); the leading axes of a stack
    U (..., d, d) and of the columns broadcast.
    """
    return apply_factor(3 ** (site // 2) * 2 ** ((site - 1) // 2), U, X)


def block_hamiltonian(pulse: Pulse, layout: ChainLayout) -> np.ndarray:
    """The time-independent full-chain Hamiltonian switched on by ``pulse`` (a stack for a batch)."""
    site, block = local_form(pulse, layout)
    return embed(lifted(block), site, layout)


def propagate_exact(pulse: Pulse, layout: ChainLayout) -> np.ndarray:
    """Full-chain propagator exp(-i * area * H_block), a stack (..., dim, dim) for a batch.

    The envelope shape is irrelevant here by construction: the block
    Hamiltonian is constant during the pulse, so only the area enters.
    """
    site, U = local_propagator(pulse, layout)
    return embed(lifted(U, 1.0), site, layout)


def propagate_stepped(pulse: Pulse, steps: int, layout: ChainLayout) -> np.ndarray:
    """Propagator as an ordered product of per-slice exponentials.

    Independent integration path used to certify envelope-shape
    independence: returns prod_j exp(-i da_j H) with slice areas from
    midpoint sampling of the envelope (latest slice leftmost), each slice
    ``closed_form`` on the block and its square, not ``local_propagator``.
    """
    site, block = local_form(pulse, layout)
    if block.ndim > 2 or np.ndim(pulse.area) > 0:
        raise ValueError("stepped propagation takes one pulse, not a batch")
    eye, block_sq = np.eye(len(block)), block @ block
    U = np.eye(len(block), dtype=complex)
    for da in slice_areas(pulse.envelope, pulse.area, steps):
        U = closed_form(eye, block, block_sq, da) @ U
    return embed(lifted(U, 1.0), site, layout)


def schedule_propagator(schedule, layout: ChainLayout) -> np.ndarray:
    """Full-chain unitary of a pulse schedule (first pulse acts first), the dense reference of ``run_schedule``:
    each lifted local propagator applied to the full three-level chain's identity, 3^(site-1) dimensions
    before it."""
    U = np.eye(layout.full_dim, dtype=complex)
    for pulse in schedule:
        site, local = local_propagator(pulse, layout)
        U = apply_factor(3 ** (site - 1), lifted(local, 1.0), U)
    return U


def run_schedule(schedule, X, layout: ChainLayout) -> np.ndarray:
    """Apply a schedule to a state or to columns (..., dim, K) of the reachable space, one local pulse
    propagator at a time.

    A batch of pulses in the schedule and leading axes of the columns
    broadcast; the result carries the broadcast leading axes, also for a state.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim == 0 or X.shape[0 if X.ndim == 1 else -2] != layout.dim:
        raise ValueError(
            f"state dimension {X.shape} does not match the reachable dimension ({layout.dim},)"
        )
    columns = X[:, None] if X.ndim == 1 else X
    for pulse in schedule:
        columns = apply_local(*local_propagator(pulse, layout), columns)
    return columns[..., 0] if X.ndim == 1 else columns
