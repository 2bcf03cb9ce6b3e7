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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainLayout, logical_frame
from .linalg import DEFAULT_TOL, Tolerances, check_memory, gate_fidelity, polar_unitary
from .pulses import (OneQubitPulse, Pulse, ThreeSitePulse, apply_local, cumulative_area,
                     local_expm, local_form, run_schedule)

__all__ = [
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


@dataclass
class SubspacePath:
    """Sampled trajectory of a K-dimensional subspace under a pulse.

    ``frames[j]`` is a dim x K orthonormal frame spanning the subspace at
    sample j; ``areas[j]`` is the pulse area accumulated by that time.
    Projectors are frame-gauge free: P_j = F_j F_j^dag.
    """

    times: np.ndarray
    areas: np.ndarray
    frames: np.ndarray  # shape (samples, dim, K)

    @property
    def samples(self) -> int:
        return self.frames.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.frames.shape[2]

    def projector(self, j: int) -> np.ndarray:
        F = self.frames[j]
        return F @ F.conj().T

    @property
    def cyclicity_residual(self) -> float:
        """Loop-closure defect ||P(tau) - P(0)||_F, as sqrt(2) ||(1 - P(0)) F(tau)||_F."""
        F0, F1 = self.frames[0], self.frames[-1]
        return float(np.sqrt(2.0) * np.linalg.norm(F1 - F0 @ (F0.conj().T @ F1)))

    def max_projector_defect(self) -> float:
        """max_j ||F_j^dag F_j - 1||_F (orthonormality drift along the path)."""
        K = self.subspace_dim
        eye = np.eye(K)
        return max(
            float(np.linalg.norm(self.frames[j].conj().T @ self.frames[j] - eye))
            for j in range(self.samples)
        )


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


def computational_frame(pulse: Pulse, layout: ChainLayout) -> np.ndarray:
    """Canonical initial frame for certifying a gate pulse.

    One-qubit pulse: the {|0>, |1>} pair of the driven qubit with every
    other site in |0> (K = 2).  Three-site pulse: the full logical basis
    (K = 2^N), i.e. the direct sum of all the invariant computational
    blocks the pulse touches.
    """
    if isinstance(pulse, OneQubitPulse):
        layout.site_of_qubit(pulse.qubit)  # validate index
        return logical_frame(layout)[:, [0, 2 ** (layout.n_logical - pulse.qubit)]]
    if isinstance(pulse, ThreeSitePulse):
        layout.sites_of_pair(pulse.pair)  # validate index
        return logical_frame(layout)
    raise TypeError(f"not a pulse: {pulse!r}")


def trace_subspace(pulse: Pulse, initial_frame, samples: int, layout: ChainLayout) -> SubspacePath:
    """Transport a frame through a pulse, sampling the subspace path.

    Each frame is computed in closed form from the area accumulated by its
    sample time (which follows the pulse envelope), F_j = U(a_j) F_0 with
    U(a) the local block propagator, so roundoff does not drift along the path.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    F0 = np.asarray(initial_frame, dtype=complex)
    if F0.ndim != 2 or F0.shape[0] != layout.dim:
        raise ValueError(f"frame must have shape ({layout.dim}, K), got {F0.shape}")
    defect = np.linalg.norm(F0.conj().T @ F0 - np.eye(F0.shape[1]))
    if defect > 1e-10:
        raise ValueError(f"initial frame is not orthonormal: defect {defect:.3e}")
    check_memory(f"a subspace path of {samples} samples", 16 * samples * F0.size)

    site, block = local_form(pulse, layout)
    block_sq = block @ block
    times = np.linspace(0.0, pulse.duration, samples)
    areas = np.array(
        [cumulative_area(pulse.envelope, pulse.area, t / pulse.duration) for t in times]
    )

    frames = np.empty((samples, layout.dim, F0.shape[1]), dtype=complex)
    for j, area in enumerate(areas):
        frames[j] = apply_local(site, local_expm(block, block_sq, area), F0)
    return SubspacePath(times=times, areas=areas, frames=frames)


def check_parallel_transport(path: SubspacePath, site: int, block) -> tuple[float, np.ndarray]:
    """Residual of P H P = eps P along the path, for H the local form (site, block) of a pulse.

    Returns (max_j ||P_j H P_j||_F, eps array) where eps_j = Tr(P_j H P_j)/K
    is the average subspace energy per unit envelope.  Both vanish for a
    parallel-transported evolution.
    """
    K = path.subspace_dim
    residual = 0.0
    eps = np.empty(path.samples)
    for j in range(path.samples):
        F = path.frames[j]
        PHP = F.conj().T @ apply_local(site, block, F)  # K x K; same Frobenius norm as P H P
        residual = max(residual, float(np.linalg.norm(PHP)))
        eps[j] = float(np.trace(PHP).real) / K
    return residual, eps


def projected_propagator(pulse: Pulse, frame, layout: ChainLayout) -> np.ndarray:
    """F^dag U F for the pulse's full-area propagator U, applied locally to the frame."""
    return frame.conj().T @ run_schedule([pulse], frame, layout)


def wilson_loop(path: SubspacePath, cyclicity_tol: float = DEFAULT_TOL.wilson_cyclicity) -> np.ndarray:
    """Discrete holonomy of a cyclic subspace path, in the initial frame.

    Computed as the ordered product of frame-overlap matrices -- equivalently
    F_0^dag P(t_{S-1}) ... P(t_1) F_0 -- and unitarized by polar
    decomposition.  Interior frames enter only through their projectors, so
    the result is gauge covariant (conjugates under a rotation of the initial
    frame) and carries no dynamical phase.
    """
    residual = path.cyclicity_residual
    if residual >= cyclicity_tol:
        raise ValueError(
            f"wilson_loop requires a cyclic path: ||P(tau) - P(0)|| = {residual:.3e} >= {cyclicity_tol:.1e}"
        )
    F0 = path.frames[0]
    v = F0
    for j in range(1, path.samples):
        Fj = path.frames[j]
        v = Fj @ (Fj.conj().T @ v)
    return polar_unitary(F0.conj().T @ v)


def certify(
    pulse: Pulse,
    layout: ChainLayout,
    samples: int = 1024,
    tol: Tolerances = DEFAULT_TOL,
    strict: bool = True,
) -> HolonomyReport:
    """Full holonomy certification of a gate pulse.

    Checks parallel transport, vanishing dynamical phase, cyclicity, and
    agreement between the Wilson-loop gate and the projected propagator.
    With ``strict`` (default) a HolonomyError naming every violated
    condition is raised; otherwise the report carries the failure list.
    """
    frame = computational_frame(pulse, layout)
    path = trace_subspace(pulse, frame, samples, layout)

    pt_residual, eps = check_parallel_transport(path, *local_form(pulse, layout))
    # eps is energy per unit envelope; integrating over accumulated area
    # (da = envelope dt) gives the dynamical phase integral.
    dyn_phase = float(np.sum(0.5 * (eps[1:] + eps[:-1]) * np.diff(path.areas)))
    cyc_residual = path.cyclicity_residual

    projected = projected_propagator(pulse, frame, layout)

    failures = []
    if pt_residual >= tol.certify_parallel_transport:
        failures.append(
            f"parallel transport residual {pt_residual:.3e} >= {tol.certify_parallel_transport:.1e}"
        )
    if abs(dyn_phase) >= tol.certify_dynamical_phase:
        failures.append(
            f"dynamical phase {dyn_phase:.3e} >= {tol.certify_dynamical_phase:.1e}"
        )
    cyclic = cyc_residual < tol.certify_cyclicity
    if not cyclic:
        failures.append(
            f"cyclicity residual {cyc_residual:.3e} >= {tol.certify_cyclicity:.1e}"
        )

    wilson = None
    cross = None
    propagator_gate = projected
    if cyclic:
        propagator_gate = polar_unitary(projected)
        wilson = wilson_loop(path, tol.wilson_cyclicity)
        cross = gate_fidelity(wilson, propagator_gate)
        if cross < tol.certify_cross_fidelity:
            failures.append(
                f"wilson cross fidelity {cross:.12f} < {tol.certify_cross_fidelity:.12f}"
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
