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

A sampled path is held in closed form, as three dim x K terms and one
coefficient row per sample (see ``SubspacePath``).  Each check contracts
the nine K x K blocks between the terms with the coefficient table, at a
cost of O(dim K^2) plus O(samples K^2), with no per-sample loop.  The
blocks form the path's term Gram, built once with ``linalg.inner`` and kept.
``certify`` applies the local block twice, to trace the path (A = H F_0,
B = H A), and never again: H maps the terms (F_0, A, B) to (A, B, A), so
every block T_x^dag H T_y is a Gram block, and so are the projected
propagator's F_0^dag F_0, F_0^dag H F_0 = F_0^dag A and F_0^dag H^2 F_0 =
A^dag A.  One term Gram serves the frame's orthonormality check, the
parallel-transport check, the Wilson steps and the projected propagator.
Both projected maps are evaluated by ``pulses.closed_form``.

The path and ``certify`` take one pulse; ``projected_propagator`` also takes
a batch of pulses (array angles and areas, see ``pulses``) and returns a
stack of projected maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ChainLayout
from .linalg import check_memory, frobenius, gate_fidelity, inner, polar_unitary
from .pulses import Pulse, apply_local, closed_form, cumulative_area, local_form

__all__ = [
    "CERTIFY_PARALLEL_TRANSPORT",
    "CERTIFY_DYNAMICAL_PHASE",
    "CERTIFY_CYCLICITY",
    "CERTIFY_CROSS_FIDELITY",
    "SubspacePath",
    "HolonomyReport",
    "HolonomyError",
    "computational_frame",
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


@dataclass
class SubspacePath:
    """Sampled trajectory of a K-dimensional subspace under a pulse, in closed form.

    The pulse's local block satisfies H^3 = H, so the frame at sample j is
    F_j = U(a_j) F_0 = F_0 + s_j A + c_j B with A = H F_0, B = H A,
    s_j = -i sin a_j and c_j = cos a_j - 1, where ``areas[j]`` is the pulse
    area accumulated by sample j.  The path holds the three dim x K terms
    (F_0, A, B), stacked as (3, dim, K), and the samples x 3 coefficient
    table (1, s_j, c_j); every overlap F_j^dag X F_k is a weighted sum of
    the nine K x K blocks T_x^dag X T_y between terms, so nothing
    samples x dim is built.  Projectors are frame-gauge free:
    P_j = F_j F_j^dag.  The term Gram and the cyclicity residual are
    computed on first use and kept.
    """

    areas: np.ndarray
    terms: np.ndarray  # shape (3, dim, K): F_0, A, B
    coefficients: np.ndarray  # shape (samples, 3): 1, s_j, c_j

    @property
    def samples(self) -> int:
        return self.coefficients.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.terms.shape[2]

    def frame(self, j: int) -> np.ndarray:
        """The dim x K frame F_j."""
        return np.einsum("x,xdk->dk", self.coefficients[j], self.terms)

    @cached_property
    def gram(self) -> np.ndarray:
        """The term Gram T_x^dag T_y for the terms (F_0, A, B), shape (3, 3, K, K)."""
        return inner(self.terms[:, None], self.terms[None, :])

    def _overlaps(self, left: np.ndarray, right: np.ndarray, blocks: np.ndarray | None = None) -> np.ndarray:
        """F_j^dag X F_k for each row pair (j, k) of the coefficient tables ``left`` and ``right``.

        ``blocks`` holds T_x^dag X T_y for the terms T, shape (3, 3, K, K)
        (default: X = 1, the term Gram).  Returns a (rows, K, K) array.
        """
        K = self.subspace_dim
        if blocks is None:
            blocks = self.gram
        # conj(left[j, x]) right[j, y] for the nine (x, y), with the rows innermost and contiguous
        left, right = np.ascontiguousarray(left.T), np.ascontiguousarray(right.T)
        weights = (left.conj()[:, None, :] * right[None, :, :]).reshape(9, -1)
        return (weights.T @ blocks.reshape(9, K * K)).reshape(-1, K, K)

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
    """All certification measurements for one pulse."""

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


def computational_frame(pulse: Pulse, layout: ChainLayout) -> np.ndarray:
    """Canonical initial frame for certifying a gate pulse.

    One-qubit pulse: the {|0>, |1>} pair of the driven qubit with every
    other site in |0> (K = 2), built as those two columns alone.
    Three-site pulse: the full logical basis (K = 2^N), i.e. the direct sum
    of all the invariant computational blocks the pulse touches.
    """
    if not isinstance(pulse, Pulse):
        raise TypeError(f"not a pulse: {pulse!r}")
    return pulse.computational_frame(layout)


def trace_subspace(pulse: Pulse, initial_frame, samples: int, layout: ChainLayout) -> SubspacePath:
    """Transport a frame through a pulse, sampling the subspace path.

    Each sample's area follows the pulse envelope; its frame is the closed
    form F_j = U(a_j) F_0 = F_0 + s_j A + c_j B (see ``SubspacePath``), so
    roundoff does not drift along the path and only the three dim x K terms
    and one coefficient row per sample are stored.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    F0 = np.asarray(initial_frame, dtype=complex)
    if F0.ndim != 2 or F0.shape[0] != layout.dim:
        raise ValueError(f"frame must have shape ({layout.dim}, K), got {F0.shape}")
    K = F0.shape[1]
    # the three terms, their 3 x 3 Gram of K x K blocks, and per sample an area and a
    # coefficient row (within four complex numbers) and the K x K overlap the consumers build
    check_memory(f"a subspace path of {samples} samples",
                 16 * (3 * layout.dim * K + 9 * K * K + samples * (K * K + 4)))

    site, block = local_form(pulse, layout)
    if block.ndim > 2:
        raise ValueError(f"a subspace path takes one pulse, not a batch of shape {block.shape[:-2]}")
    terms = np.empty((3, layout.dim, K), dtype=complex)
    terms[0] = F0
    terms[1] = apply_local(site, block, F0)
    terms[2] = apply_local(site, block, terms[1])
    areas = cumulative_area(pulse.envelope, pulse.area, np.linspace(0.0, 1.0, samples))
    coefficients = np.stack([np.ones(samples), -1j * np.sin(areas), np.cos(areas) - 1.0], axis=1)
    path = SubspacePath(areas=areas, terms=terms, coefficients=coefficients)
    defect = np.linalg.norm(path.gram[0, 0] - np.eye(K))  # F_0^dag F_0 - 1
    if defect > 1e-10:
        raise ValueError(f"initial frame is not orthonormal: defect {defect:.3e}")
    return path


def check_parallel_transport(path: SubspacePath) -> tuple[float, np.ndarray]:
    """Residual of P H P = eps P along the path, for H the pulse the path was traced under.

    Returns (max_j ||P_j H P_j||_F, eps array) where eps_j = Tr(P_j H P_j)/K
    is the average subspace energy per unit envelope.  Both vanish for a
    parallel-transported evolution.
    """
    C = path.coefficients
    # F_j^dag H F_j is K x K with the same Frobenius norm as P_j H P_j.  H^3 = H maps the terms
    # (F_0, A, B) to (A, B, A), so T_x^dag H T_y is the Gram block T_x^dag T_sigma(y), sigma = (1, 2, 1)
    PHP = path._overlaps(C, C, path.gram[:, [1, 2, 1]])
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
    ||P(tau) - P(0)|| < 1e-6.
    """
    residual = path.cyclicity_residual
    if residual >= _WILSON_CYCLICITY:
        raise ValueError(
            f"wilson_loop requires a cyclic path: ||P(tau) - P(0)|| = {residual:.3e} >= {_WILSON_CYCLICITY:.1e}"
        )
    C = path.coefficients
    # F_{j+1}^dag F_j for j < S - 1, then the closing F_0^dag F_{S-1}
    steps = path._overlaps(np.roll(C, -1, axis=0), C)
    return polar_unitary(_ordered_product(steps))


def _ordered_product(M: np.ndarray) -> np.ndarray:
    """M[n-1] ... M[1] M[0] by pairwise batched products, about log2(n) of them."""
    while len(M) > 1:
        if len(M) % 2:
            M = np.concatenate([M, np.eye(M.shape[1])[None]])
        M = M[1::2] @ M[0::2]
    return M[0]


def certify(
    pulse: Pulse,
    layout: ChainLayout,
    samples: int = 1024,
    strict: bool = True,
) -> HolonomyReport:
    """Full holonomy certification of a gate pulse.

    Checks parallel transport, vanishing dynamical phase, cyclicity, and
    agreement between the Wilson-loop gate and the projected propagator.
    With ``strict`` (default) a HolonomyError naming every violated
    condition is raised; otherwise the report carries the failure list.
    """
    path = trace_subspace(pulse, computational_frame(pulse, layout), samples, layout)

    pt_residual, eps = check_parallel_transport(path)
    # eps is energy per unit envelope; integrating over accumulated area
    # (da = envelope dt) gives the dynamical phase integral.
    dyn_phase = float(np.sum(0.5 * (eps[1:] + eps[:-1]) * np.diff(path.areas)))
    cyc_residual = path.cyclicity_residual

    G = path.gram
    projected = closed_form(G[0, 0], G[0, 1], G[1, 1], pulse.area)  # F_0^dag F_0, F_0^dag A, A^dag A

    bounds = (("parallel transport residual", pt_residual, CERTIFY_PARALLEL_TRANSPORT),
              ("dynamical phase", dyn_phase, CERTIFY_DYNAMICAL_PHASE),
              ("cyclicity residual", cyc_residual, CERTIFY_CYCLICITY))
    failures = [f"{name} {value:.3e} >= {bound:.1e}" for name, value, bound in bounds if abs(value) >= bound]
    cyclic = cyc_residual < CERTIFY_CYCLICITY

    wilson = None
    cross = None
    propagator_gate = projected
    if cyclic:
        propagator_gate = polar_unitary(projected)
        wilson = wilson_loop(path)
        cross = gate_fidelity(wilson, propagator_gate)
        if cross < CERTIFY_CROSS_FIDELITY:
            failures.append(
                f"wilson cross fidelity {cross:.12f} < {CERTIFY_CROSS_FIDELITY:.12f}"
            )

    report = HolonomyReport(
        parallel_transport_residual=pt_residual,
        dynamical_phase=dyn_phase,
        cyclicity_residual=cyc_residual,
        wilson_gate=wilson,
        propagator_gate=propagator_gate,
        cross_fidelity=cross,
        failures=tuple(failures),
    )
    if failures and strict:
        raise HolonomyError(failures, report)
    return report
