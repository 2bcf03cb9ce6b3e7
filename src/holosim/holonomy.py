"""Holonomy certification for pulse evolutions.

A pulse implements a *holonomic* gate when the computational subspace is
transported around a closed loop with the Hamiltonian vanishing on it: the
gate is then fixed by the loop geometry alone.  This module checks each
ingredient separately and cross-validates the gate two independent ways:

* the projected propagator P(0) U(tau, 0) P(0), restricted and unitarized;
* a discrete Wilson loop built purely from the sampled subspace path
  (an ordered product of projectors sandwiched by the initial frame),
  which is gauge-robust and blind to dynamical phases by construction.

Agreement of the two, together with a vanishing subspace energy, certifies
the geometric nature of the gate.

A sampled path is held in closed form, as three dim x K terms and its
path table, which holds one coefficient row per sample (see
``SubspacePath``).  Each check contracts the nine K x K blocks between the
terms with the table's weights, at a cost of O(dim K^2) plus
O(samples K^2), with no per-sample loop.  The blocks form the path's term
Gram, built once with ``linalg.inner`` and kept.
``certify`` applies the local block twice, to trace the path (A = H F_0,
B = H A), and never again: H maps the terms (F_0, A, B) to (A, B, A), so
every block T_x^dag H T_y is a Gram block, and so are the projected
propagator's F_0^dag F_0, F_0^dag H F_0 = F_0^dag A and F_0^dag H^2 F_0 =
A^dag A.  One term Gram serves the frame's orthonormality check, the
parallel-transport check, the Wilson steps and the projected propagator.
Both projected maps are evaluated by ``pulses.closed_form``.

Everything about a path that does not depend on the pulse's angles or sites
is one read-only *path table*, keyed by (envelope, samples, area): the
accumulated areas, the coefficient rows, the parallel-transport weights
conj(C_jx) C_jy, the Wilson weights conj(C_{j+1,x}) C_jy and the trapezoid
area steps, 352 bytes per sample.  ``trace_subspace`` takes a table of at
most 1024 samples (``certify``'s default) from one ``functools.lru_cache`` of
eleven tables, under 4 MiB; a larger table is built for the call and not
kept.  A ``certify`` then computes only what depends on the pulse: two local
block applications, one term Gram, two nine-row products of weights and
blocks, the ordered product and two polar factors.

``certify`` traces the logical frame (``chain.logical_frame``) of the
pulse's minimal chain: a one-qubit pulse moves to qubit 1 of a one-qubit
chain and a three-site pulse to pair 1 of a two-qubit chain (each pulse
class's ``minimal_chain``).  Every other qubit is a spectator, so the
full-chain frame that path stands for factorizes: f (x) |0...0> for a
one-qubit pulse (its qubit's |0> and |1> with every other qubit in |0>), and
f (x) R up to a fixed permutation of the logical columns for a three-site
pulse, with R the logical frame of the other N - 2 qubits.  Every K x K
block the full-chain path builds is then b (x) 1_m, with m = 1 and
m = 2^(N-2) respectively.  ``certify`` therefore reports the full-chain norms
as the local ones times sqrt(m), exact for this factorization, and embeds the
local gates by identities (``linalg.embed_factor``) after budgeting them; the
dynamical phase and the cross fidelity are the local values.  The checks take
any frame on any chain.

The path and ``certify`` take one pulse; ``projected_propagator`` also takes
a batch of pulses (array angles and areas, see ``pulses``) and returns a
stack of projected maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .chain import ChainLayout, _index, logical_frame
from .linalg import check_memory, embed_factor, frobenius, gate_fidelity, inner, polar_unitary, power_bytes
from .pulses import Pulse, _checked, apply_local, closed_form, cumulative_area, local_form

__all__ = [
    "CERTIFY_PARALLEL_TRANSPORT",
    "CERTIFY_DYNAMICAL_PHASE",
    "CERTIFY_CYCLICITY",
    "CERTIFY_CROSS_FIDELITY",
    "SubspacePath",
    "HolonomyReport",
    "HolonomyError",
    "trace_subspace",
    "check_parallel_transport",
    "projected_propagator",
    "wilson_loop",
    "certify",
]

# certify's bounds: the parallel-transport residual, |dynamical phase| and
# cyclicity residual must stay below the first three, the Wilson cross-fidelity
# at or above the last
CERTIFY_PARALLEL_TRANSPORT = 1e-9
CERTIFY_DYNAMICAL_PHASE = 1e-9
CERTIFY_CYCLICITY = 1e-8
CERTIFY_CROSS_FIDELITY = 1.0 - 1e-6
# the loop-closure residual wilson_loop accepts
_WILSON_CYCLICITY = 1e-6


class _PathTable(NamedTuple):
    """A path's areas and coefficients and what is computed from them alone, read-only in the cache.

    ``transport`` and ``wilson`` hold conj(C_jx) C_jy and conj(C_{j+1,x}) C_jy (the last row paired
    with row 0) for the nine (x, y), shape (9, samples) with the samples contiguous: ``_overlaps``
    contracts them with the nine blocks T_x^dag X T_y into F_j^dag X F_j and F_{j+1}^dag X F_j.
    ``area_steps`` are the trapezoid steps a_{j+1} - a_j.
    """

    areas: np.ndarray
    coefficients: np.ndarray  # shape (samples, 3): 1, s_j, c_j
    area_steps: np.ndarray
    transport: np.ndarray
    wilson: np.ndarray

    @classmethod
    def of(cls, areas: np.ndarray, coefficients: np.ndarray) -> _PathTable:
        C = coefficients
        return cls(areas, C, np.diff(areas), _pair_weights(C, C), _pair_weights(np.roll(C, -1, axis=0), C))


def _pair_weights(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """conj(left[j, x]) right[j, y] for the nine (x, y), shape (9, rows), with the rows innermost and contiguous."""
    left, right = np.ascontiguousarray(left.T), np.ascontiguousarray(right.T)
    return (left.conj()[:, None, :] * right[None, :, :]).reshape(9, -1)


def _overlaps(weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_xy weights[3x + y, j] blocks[x, y] for each row j of (9, rows) weights: F_j^dag X F_k for the
    coefficient rows (j, k) the weights pair, from ``blocks`` T_x^dag X T_y, shape (3, 3, K, K).
    Returns a (rows, K, K) array."""
    K = blocks.shape[-1]
    return (weights.T @ blocks.reshape(9, K * K)).reshape(-1, K, K)


@dataclass
class SubspacePath:
    """Sampled trajectory of a K-dimensional subspace under a pulse, in closed form.

    The pulse's local block satisfies H^3 = H, so the frame at sample j is
    F_j = U(a_j) F_0 = F_0 + s_j A + c_j B with A = H F_0, B = H A,
    s_j = -i sin a_j and c_j = cos a_j - 1, where ``table.areas[j]`` is the
    pulse area accumulated by sample j.  The path holds the three dim x K
    terms (F_0, A, B), stacked as (3, dim, K), and its path table, whose
    samples x 3 coefficient rows (1, s_j, c_j) weigh them; every overlap
    F_j^dag X F_k is a weighted sum of the nine K x K blocks T_x^dag X T_y
    between terms, so nothing samples x dim is built.  Projectors are
    frame-gauge free: P_j = F_j F_j^dag.  The term Gram and the cyclicity
    residual are computed on first use and kept; a path made by
    ``dataclasses.replace`` computes its own.
    """

    terms: np.ndarray  # shape (3, dim, K): F_0, A, B
    table: _PathTable

    @property
    def samples(self) -> int:
        return self.table.coefficients.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.terms.shape[2]

    def frame(self, j: int) -> np.ndarray:
        """The dim x K frame F_j."""
        return np.einsum("x,xdk->dk", self.table.coefficients[j], self.terms)

    @cached_property
    def gram(self) -> np.ndarray:
        """The term Gram T_x^dag T_y for the terms (F_0, A, B), shape (3, 3, K, K)."""
        return inner(self.terms[:, None], self.terms[None, :])

    @cached_property
    def cyclicity_residual(self) -> float:
        """Loop-closure defect ||P(tau) - P(0)||_F, as sqrt(2) ||(1 - P(0)) F(tau)||_F."""
        F0, F1 = self.terms[0], self.frame(-1)
        F1 -= F0 @ inner(F0, F1)
        return float(np.sqrt(2.0) * np.linalg.norm(F1))


class HolonomyError(ValueError):
    """Raised when a certification threshold is violated."""

    def __init__(self, failures, report):
        self.failures = tuple(failures)
        self.report = report
        super().__init__("holonomy certification failed: " + "; ".join(self.failures))


@dataclass
class HolonomyReport:
    """All certification measurements for one pulse, in the full chain's terms.

    ``certify`` measures on the pulse's minimal chain.  The parallel-transport
    and cyclicity residuals are the full-chain Frobenius norms, the local ones
    times sqrt(m) (see the module docstring); the dynamical phase and the cross
    fidelity are the local values, which the full chain shares.  The gates act
    on the full chain's logical columns that the minimal chain's logical frame
    stands for: 2 x 2 for a one-qubit pulse, on its qubit's |0> and |1> with
    every other qubit in |0>, and for a three-site pulse on pair l' the local
    4 x 4 gate embedded as 1_{2^(l'-1)} (x) g (x) 1_{2^(N-l'-1)}.
    """

    parallel_transport_residual: float
    dynamical_phase: float
    cyclicity_residual: float
    wilson_gate: np.ndarray | None
    propagator_gate: np.ndarray
    cross_fidelity: float | None
    failures: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures


def trace_subspace(pulse: Pulse, initial_frame, samples: int, layout: ChainLayout) -> SubspacePath:
    """Transport a frame through a pulse, sampling the subspace path.

    Each sample's area follows the pulse envelope; its frame is the closed
    form F_j = U(a_j) F_0 = F_0 + s_j A + c_j B (see ``SubspacePath``), so
    roundoff does not drift along the path and only the three dim x K terms
    are stored with the path table of (envelope, samples, area), which holds
    the areas, the coefficient rows and the weights.
    """
    samples = _index(samples, "samples")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    F0 = np.asarray(initial_frame, dtype=complex)
    if F0.ndim != 2 or F0.shape[0] != layout.dim:
        raise ValueError(f"frame must have shape ({layout.dim}, K), got {F0.shape}")
    K = F0.shape[1]
    # the three terms, their 3 x 3 Gram of K x K blocks, per sample the K x K overlap the consumers
    # build, and the path table: per sample a scaled time, an area and an area step (8 bytes each), a
    # coefficient row and the two nine-weight columns (21 complex numbers), 360 bytes
    check_memory(f"a subspace path of {samples} samples",
                 16 * (3 * layout.dim * K + 9 * K * K + samples * K * K) + 360 * samples)

    site, block = local_form(pulse, layout)
    batch = block.shape[:-2] or np.shape(pulse.area)
    if batch:
        raise ValueError(f"a subspace path takes one pulse, not a batch of shape {batch}")
    terms = np.empty((3, layout.dim, K), dtype=complex)
    terms[0] = F0
    terms[1] = apply_local(site, block, F0)
    terms[2] = apply_local(site, block, terms[1])
    path = SubspacePath(terms, _path_table(pulse.envelope, samples, float(pulse.area)))
    defect = np.linalg.norm(path.gram[0, 0] - np.eye(K))  # F_0^dag F_0 - 1
    if defect > 1e-10:
        raise ValueError(f"initial frame is not orthonormal: defect {defect:.3e}")
    return path


def _path_table(envelope: str, samples: int, area: float) -> _PathTable:
    """The read-only path table of ``samples`` evenly spaced scaled times of a pulse.

    A table of at most 1024 samples, ``certify``'s default, comes from the cache: eleven of them
    retain at most 11 x 1024 x 352 bytes, under 4 MiB.  A larger one is built for the call.
    """
    if samples <= 1024:
        return _cached_table(envelope, samples, area.hex())
    return _build_table(envelope, samples, area)


@lru_cache(maxsize=11)
def _cached_table(envelope: str, samples: int, area_hex: str) -> _PathTable:
    """``_build_table``, keyed by the area's bits: -0.0 gives other zero areas than 0.0, which compares equal."""
    return _build_table(envelope, samples, float.fromhex(area_hex))


def _build_table(envelope: str, samples: int, area: float) -> _PathTable:
    areas = cumulative_area(envelope, area, np.linspace(0.0, 1.0, samples))
    coefficients = np.stack([np.ones(samples), -1j * np.sin(areas), np.cos(areas) - 1.0], axis=1)
    table = _PathTable.of(areas, coefficients)
    for array in table:
        array.flags.writeable = False
    return table


def check_parallel_transport(path: SubspacePath) -> tuple[float, np.ndarray]:
    """Residual of P H P = eps P along the path, for H the pulse the path was traced under.

    Returns (max_j ||P_j H P_j||_F, eps array) where eps_j = Tr(P_j H P_j)/K
    is the average subspace energy per unit envelope.  Both vanish for a
    parallel-transported evolution.
    """
    # F_j^dag H F_j is K x K with the same Frobenius norm as P_j H P_j.  H^3 = H maps the terms
    # (F_0, A, B) to (A, B, A), so T_x^dag H T_y is the Gram block T_x^dag T_sigma(y), sigma = (1, 2, 1)
    PHP = _overlaps(path.table.transport, path.gram[:, [1, 2, 1]])
    residual = float(np.max(frobenius(PHP)))
    eps = np.trace(PHP, axis1=1, axis2=2).real / path.subspace_dim
    return residual, eps


def projected_propagator(pulse: Pulse, frame, layout: ChainLayout) -> np.ndarray:
    """F^dag U F for the pulse's full-area propagator U = 1 - i sin(a) H + (cos(a) - 1) H^2.

    Takes one local application of the block, H F: F^dag H^2 F = (H F)^dag (H F)
    for Hermitian H.  A batch of pulses gives a stack (..., K, K), so a grid
    of areas costs one K x K product per area, not one dim x K propagation.
    """
    site, block = local_form(pulse, layout)
    F = np.asarray(frame, dtype=complex)
    HF = apply_local(site, block, F)
    return closed_form(inner(F, F), inner(F, HF), inner(HF, HF), pulse.area)


def wilson_loop(path: SubspacePath) -> np.ndarray:
    """Discrete holonomy of a cyclic subspace path, in the initial frame.

    Computed as the ordered product of frame overlaps
    (F_0^dag F_{S-1}) M_{S-1} ... M_1 with M_j = F_j^dag F_{j-1} -- equivalently
    F_0^dag P(t_{S-1}) ... P(t_1) F_0 -- and unitarized by polar
    decomposition.  Interior frames enter only through their projectors, so
    the result is gauge covariant (conjugates under a rotation of the initial
    frame) and carries no dynamical phase.  The path must close to within
    ||P(tau) - P(0)|| < 1e-6, and a path too coarse for its loop is refused.
    """
    residual = path.cyclicity_residual
    if residual >= _WILSON_CYCLICITY:
        raise ValueError(
            f"wilson_loop requires a cyclic path: ||P(tau) - P(0)|| = {residual:.3e} >= {_WILSON_CYCLICITY:.1e}"
        )
    # each step's Hermitian part is at least cos da_j for any frame: the product keeps the holonomy's sign
    # only if every |da_j| < pi/2, and passes polar_unitary's rank floor only if prod_j cos da_j > 1e-8
    largest, product = np.abs(path.table.area_steps).max(), np.cos(path.table.area_steps).prod()
    if largest >= np.pi / 2 or product <= 1e-8:
        raise ValueError(f"{path.samples} samples undersample the Wilson loop: largest area step {largest:.3e} rad "
                         f"(below pi/2 needed), product of step cosines {product:.3e} (above 1e-8 needed)")
    # F_{j+1}^dag F_j for j < S - 1, then the closing F_0^dag F_{S-1}, moved to (K, K, S) here so
    # that the (S, K, K) products are freed before the ordered product allocates its levels
    steps = np.ascontiguousarray(np.moveaxis(_overlaps(path.table.wilson, path.gram), 0, -1))
    return polar_unitary(_ordered_product(steps))


def _ordered_product(T: np.ndarray) -> np.ndarray:
    """T[..., n-1] ... T[..., 1] T[..., 0] for a (K, K, n) stack, by pairwise products, about
    log2(n) levels of them.

    The pairs are innermost (a stack that is not contiguous is copied), and each level is K
    elementwise multiply-adds over all pairs at once.  A batched matmul pays one BLAS call per
    pair: for 1023 steps it took about 4x as long at K = 2 and 1.2-1.5x at K = 4, the blocks
    ``certify`` builds.  Only the full-chain frames (K >= 8) are multiplied faster by BLAS.
    """
    K = T.shape[0]
    T = np.ascontiguousarray(T)
    while T.shape[-1] > 1:
        if T.shape[-1] % 2:
            T = np.concatenate([T, np.eye(K)[..., None]], axis=-1)
        A, B = T[..., 1::2], T[..., 0::2]
        T = A[:, 0, None] * B[None, 0]
        for j in range(1, K):
            T += A[:, j, None] * B[None, j]
    return T[..., 0]


def certify(
    pulse: Pulse,
    layout: ChainLayout,
    samples: int = 1024,
    strict: bool = True,
) -> HolonomyReport:
    """Full holonomy certification of a gate pulse.

    Checks parallel transport, vanishing dynamical phase, cyclicity, and
    agreement between the Wilson-loop gate and the projected propagator.
    The path is traced on the pulse's minimal chain, so the cost does not
    grow with N; the residuals are reported as full-chain norms (local times
    sqrt(m)) and the gates embedded by identities at ``layout`` (see
    ``HolonomyReport``), after the two embedded gates are budgeted.  Every
    bound applies to the full-chain values.  With ``strict`` (default) a
    HolonomyError naming every violated condition is raised; otherwise the
    report carries the failure list.  A closed path too coarse for its Wilson
    loop, with an area step of pi/2 or more or step cosines whose product is
    1e-8 or less, raises a ValueError in either mode.
    """
    local, chain, (left, right) = _checked(pulse).minimal_chain(layout)
    size = left * chain.logical_dim * right
    what = f"the two certified gates at N={layout.n_logical}"
    check_memory(what, power_bytes(what, 2 * 16, size, 2))
    path = trace_subspace(local, logical_frame(chain), samples, chain)

    # every K x K block of the full-chain path is the local block (x) 1_m up to a fixed
    # permutation, m = left * right: its Frobenius norms are sqrt(m) times the local ones
    scale = math.sqrt(left * right)
    pt_residual, eps = check_parallel_transport(path)
    pt_residual *= scale
    # eps is energy per unit envelope; integrating over accumulated area
    # (da = envelope dt) gives the dynamical phase integral.
    dyn_phase = float(np.sum(0.5 * (eps[1:] + eps[:-1]) * path.table.area_steps))
    cyc_residual = scale * path.cyclicity_residual

    G = path.gram
    projected = closed_form(G[0, 0], G[0, 1], G[1, 1], local.area)  # F_0^dag F_0, F_0^dag A, A^dag A

    bounds = (("parallel transport residual", pt_residual, CERTIFY_PARALLEL_TRANSPORT),
              ("dynamical phase", dyn_phase, CERTIFY_DYNAMICAL_PHASE),
              ("cyclicity residual", cyc_residual, CERTIFY_CYCLICITY))
    failures = [f"{name} {value:.3e} >= {bound:.1e}" for name, value, bound in bounds if abs(value) >= bound]
    cyclic = cyc_residual < CERTIFY_CYCLICITY

    wilson = None
    cross = None
    propagator_gate = projected
    if cyclic:
        wilson = wilson_loop(path)
        propagator_gate = polar_unitary(projected)
        cross = gate_fidelity(wilson, propagator_gate)
        if cross < CERTIFY_CROSS_FIDELITY:
            failures.append(
                f"wilson cross fidelity {cross:.12f} < {CERTIFY_CROSS_FIDELITY:.12f}"
            )
        wilson = embed_factor(wilson, left, right)

    report = HolonomyReport(
        parallel_transport_residual=pt_residual,
        dynamical_phase=dyn_phase,
        cyclicity_residual=cyc_residual,
        wilson_gate=wilson,
        propagator_gate=embed_factor(propagator_gate, left, right),
        cross_fidelity=cross,
        failures=tuple(failures),
    )
    if failures and strict:
        raise HolonomyError(failures, report)
    return report
