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
cost of O(dim K^2) plus O(samples K^2), with no per-sample loop.  The blocks
come from ``linalg.inner`` and H is applied to one term at a time, so
beside the terms a check holds at most two more dim x K arrays.

The path and ``certify`` take one pulse; ``projected_propagator`` also takes
a batch of pulses (array angles and areas, see ``pulses``) and returns a
stack of projected maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainLayout
from .linalg import check_memory, gate_fidelity, inner, polar_unitary
from .pulses import Pulse, apply_local, cumulative_area, local_form

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
    samples x dim is built unless ``frames`` is asked for.  Projectors are
    frame-gauge free: P_j = F_j F_j^dag.
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

    @property
    def frames(self) -> np.ndarray:
        """All sampled frames, shape (samples, dim, K), built on demand."""
        _, dim, K = self.terms.shape
        check_memory(f"the frames of {self.samples} samples", 16 * self.samples * dim * K)
        return np.einsum("jx,xdk->jdk", self.coefficients, self.terms)

    def projector(self, j: int) -> np.ndarray:
        F = self.frame(j)
        return F @ F.conj().T

    def _overlaps(self, left: np.ndarray, right: np.ndarray, blocks: np.ndarray | None = None) -> np.ndarray:
        """F_j^dag X F_k for each row pair (j, k) of the coefficient tables ``left`` and ``right``.

        ``blocks`` holds T_x^dag X T_y for the terms T, shape (3, 3, K, K)
        (default: X = 1).  Returns a (rows, K, K) array.
        """
        K = self.subspace_dim
        if blocks is None:
            blocks = inner(self.terms[:, None], self.terms[None, :])
        # conj(left[j, x]) right[j, y] for the nine (x, y), with the rows innermost and contiguous
        left, right = np.ascontiguousarray(left.T), np.ascontiguousarray(right.T)
        weights = (left.conj()[:, None, :] * right[None, :, :]).reshape(9, -1)
        return (weights.T @ blocks.reshape(9, K * K)).reshape(-1, K, K)

    @property
    def cyclicity_residual(self) -> float:
        """Loop-closure defect ||P(tau) - P(0)||_F, as sqrt(2) ||(1 - P(0)) F(tau)||_F."""
        F0, F1 = self.terms[0], self.frame(-1)
        F1 -= F0 @ inner(F0, F1)
        return float(np.sqrt(2.0) * np.linalg.norm(F1))

    def max_projector_defect(self) -> float:
        """max_j ||F_j^dag F_j - 1||_F (orthonormality drift along the path)."""
        C = self.coefficients
        gram = self._overlaps(C, C)
        return float(np.max(np.linalg.norm(gram - np.eye(self.subspace_dim), axis=(1, 2))))


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
    samples: int
    failures: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures


# The parallel-transport check applies H to at most this many bytes of path
# terms at once, beside the path itself
_CHUNK_BYTES = 8 * 2**20


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
    defect = np.linalg.norm(F0.conj().T @ F0 - np.eye(K))
    if defect > 1e-10:
        raise ValueError(f"initial frame is not orthonormal: defect {defect:.3e}")
    # the three terms, and per sample an area and a coefficient row (within
    # four complex numbers) and the K x K overlap the consumers build
    check_memory(f"a subspace path of {samples} samples",
                 16 * (3 * layout.dim * K + samples * (K * K + 4)))

    site, block = local_form(pulse, layout)
    if block.ndim > 2:
        raise ValueError(f"a subspace path takes one pulse, not a batch of shape {block.shape[:-2]}")
    terms = np.empty((3, layout.dim, K), dtype=complex)
    terms[0] = F0
    terms[1] = apply_local(site, block, F0)
    terms[2] = apply_local(site, block, terms[1])
    areas = cumulative_area(pulse.envelope, pulse.area, np.linspace(0.0, 1.0, samples))
    coefficients = np.stack([np.ones(samples), -1j * np.sin(areas), np.cos(areas) - 1.0], axis=1)
    return SubspacePath(areas=areas, terms=terms, coefficients=coefficients)


def check_parallel_transport(path: SubspacePath, site: int, block) -> tuple[float, np.ndarray]:
    """Residual of P H P = eps P along the path, for H the local form (site, block) of a pulse.

    Returns (max_j ||P_j H P_j||_F, eps array) where eps_j = Tr(P_j H P_j)/K
    is the average subspace energy per unit envelope.  Both vanish for a
    parallel-transported evolution.
    """
    C, T = path.coefficients, path.terms
    # F_j^dag H F_j is K x K with the same Frobenius norm as P_j H P_j.  blocks[x, y] = T_x^dag H T_y,
    # with H applied to as many terms at a time as fit in _CHUNK_BYTES (all three on small chains)
    step = max(1, _CHUNK_BYTES // T[0].nbytes)
    blocks = np.concatenate([inner(T[:, None], apply_local(site, block, T[y:y + step])[None])
                             for y in range(0, 3, step)], axis=1)
    PHP = path._overlaps(C, C, blocks)
    residual = float(np.max(np.linalg.norm(PHP, axis=(1, 2))))
    eps = np.trace(PHP, axis1=1, axis2=2).real / path.subspace_dim
    return residual, eps


def projected_propagator(pulse: Pulse, frame, layout: ChainLayout) -> np.ndarray:
    """F^dag U F for the pulse's full-area propagator U = 1 - i sin(a) H + (cos(a) - 1) H^2.

    Takes one local application of the block, H F: F^dag H^2 F = (H F)^dag (H F)
    for Hermitian H.  A batch of pulses gives a stack (..., K, K), so a grid
    of areas costs one K x K product per area, not one dim x K propagation.
    """
    site, block = local_form(pulse, layout)
    # (F, H F) from one application of the stacked local operators (1, H), and their four overlaps
    FHF = apply_local(site, np.stack(np.broadcast_arrays(np.eye(block.shape[-1]), block)),
                      np.asarray(frame, dtype=complex))
    G = inner(FHF[:, None], FHF[None, :])
    area = np.asarray(pulse.area, dtype=float)[..., None, None]
    return G[0, 0] - 1j * np.sin(area) * G[0, 1] + (np.cos(area) - 1.0) * G[1, 1]


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
    frame = path.terms[0]  # the initial frame, not held twice

    pt_residual, eps = check_parallel_transport(path, *local_form(pulse, layout))
    # eps is energy per unit envelope; integrating over accumulated area
    # (da = envelope dt) gives the dynamical phase integral.
    dyn_phase = float(np.sum(0.5 * (eps[1:] + eps[:-1]) * np.diff(path.areas)))
    cyc_residual = path.cyclicity_residual

    projected = projected_propagator(pulse, frame, layout)

    failures = []
    if pt_residual >= CERTIFY_PARALLEL_TRANSPORT:
        failures.append(
            f"parallel transport residual {pt_residual:.3e} >= {CERTIFY_PARALLEL_TRANSPORT:.1e}"
        )
    if abs(dyn_phase) >= CERTIFY_DYNAMICAL_PHASE:
        failures.append(
            f"dynamical phase {dyn_phase:.3e} >= {CERTIFY_DYNAMICAL_PHASE:.1e}"
        )
    cyclic = cyc_residual < CERTIFY_CYCLICITY
    if not cyclic:
        failures.append(
            f"cyclicity residual {cyc_residual:.3e} >= {CERTIFY_CYCLICITY:.1e}"
        )

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
        samples=samples,
        failures=tuple(failures),
    )
    if failures and strict:
        raise HolonomyError(failures, report)
    return report
