"""Analytic gate formulas, logical-gate extraction and entanglement diagnostics.

The closed forms implemented here are the targets the simulator is checked
against: the one-qubit reflection n.sigma produced by a pi-area drive, its
two-pulse composition rule, and the three-site XY gate together with its
partial-area block maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainLayout
from .linalg import DEFAULT_TOL, Tolerances, gate_fidelity, polar_unitary, unitarity_defect

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "bloch_vector",
    "bloch_angles",
    "one_qubit_gate",
    "compose_rule",
    "two_qubit_gate",
    "projected_block_maps",
    "GateReport",
    "extract_logical_gate",
    "schmidt_coefficients",
    "entanglement_entropy",
    "makhlin_invariants",
    "EntanglingWitness",
    "entangling_verdict",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def bloch_vector(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def bloch_angles(n) -> tuple[float, float]:
    """Angles (theta, phi) of a unit vector; phi fixed to 0 at the poles."""
    n = _unit_vector(n)
    theta = math.atan2(math.hypot(n[0], n[1]), n[2])
    phi = 0.0 if math.sin(theta) < 1e-12 else math.atan2(n[1], n[0]) % (2.0 * math.pi)
    return theta, phi


def _unit_vector(n, tol: float = 1e-9) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {n.shape}")
    norm = np.linalg.norm(n)
    if not math.isfinite(norm):  # NaN would pass the comparison below
        raise ValueError(f"unit vector must be finite, got {n.tolist()}")
    if abs(norm - 1.0) > tol:
        raise ValueError(f"expected a unit vector, got norm {norm:.6g}")
    return n / norm


def one_qubit_gate(n) -> np.ndarray:
    """Reflection n . sigma implemented by one pi-area drive along n."""
    n = _unit_vector(n)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def compose_rule(n, m) -> np.ndarray:
    """Closed form of two sequential reflections: n.m - i sigma.(n x m).

    Equals one_qubit_gate(m) @ one_qubit_gate(n), i.e. a rotation by
    2*arccos(n.m) about n x m.
    """
    n = _unit_vector(n)
    m = _unit_vector(m)
    cross = np.cross(n, m)
    out = float(np.dot(n, m)) * np.eye(2, dtype=complex)
    for c, sigma in zip(cross, _PAULI):
        out -= 1j * c * sigma
    return out


def two_qubit_gate(vartheta: float) -> np.ndarray:
    """4x4 logical gate of a pi-area three-site pulse (basis |00>,|01>,|10>,|11>).

    Real, symmetric, involutory; entangling for generic vartheta (it reduces
    to sigma_z x 1 at vartheta = 0 and 1 x sigma_z at vartheta = pi).
    """
    if not np.isfinite(vartheta):
        raise ValueError("vartheta must be finite")
    c, s = np.cos(vartheta), np.sin(vartheta)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, s, -c, 0],
            [0, 0, 0, -1],
        ],
        dtype=complex,
    )


def projected_block_maps(vartheta: float, area: float):
    """Closed-form projected maps of a three-site pulse at arbitrary area.

    Returns (A, c): the 2x2 map on span{|01>, |10>} and the scalar on |11>.
    Both are contractions for generic area and unitary exactly at odd
    multiples of pi.
    """
    if not (np.isfinite(vartheta) and np.isfinite(area)):
        raise ValueError("vartheta and area must be finite")
    half = 0.5 * vartheta
    ca = np.cos(area)
    off = np.sin(vartheta) * np.sin(0.5 * area) ** 2
    A = np.array(
        [
            [np.cos(half) ** 2 + np.sin(half) ** 2 * ca, off],
            [off, np.sin(half) ** 2 + np.cos(half) ** 2 * ca],
        ],
        dtype=complex,
    )
    return A, complex(ca)


@dataclass
class GateReport:
    """Logical gate extracted from the logical columns of a propagator, plus diagnostics."""

    logical_gate: np.ndarray
    leakage: float
    cyclic: bool
    fidelity_vs_target: float | None = None
    entangling: bool | None = None
    witness: "EntanglingWitness | None" = None
    makhlin: tuple[complex, float] | None = None


def extract_logical_gate(
    columns,
    layout: ChainLayout,
    target=None,
    diagnostics: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> GateReport:
    """Logical gate of a propagator U from its logical columns U[:, layout.logical_indices()].

    ``columns`` (dim x 2^N, e.g. ``run_schedule(schedule, logical_frame(layout), layout)``)
    is the only accepted shape.  leakage is the operator 2-norm of its non-logical rows.
    If it is below ``tol.leakage`` the evolution was cyclic: the logical rows are
    unitarized by polar decomposition and reported as the gate.  Otherwise the raw
    (contractive) block is returned and the report is flagged non-cyclic.

    With ``diagnostics`` and a two-qubit layout, the entangling verdict and
    Makhlin invariants are attached.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.shape != (layout.dim, layout.logical_dim):
        raise ValueError(
            f"logical columns shape {columns.shape} is not ({layout.dim}, {layout.logical_dim})"
        )
    idx = layout.logical_indices()
    block = columns[idx]
    leakage = float(np.linalg.svd(np.delete(columns, idx, axis=0), compute_uv=False)[0])

    cyclic = leakage < tol.leakage
    gate = polar_unitary(block) if cyclic else block

    fidelity = None
    if target is not None:
        if not cyclic:
            raise ValueError(
                f"cannot compare a non-cyclic evolution to a target gate (leakage {leakage:.3e})"
            )
        fidelity = gate_fidelity(gate, target)

    report = GateReport(logical_gate=gate, leakage=leakage, cyclic=cyclic,
                        fidelity_vs_target=fidelity)
    if diagnostics and cyclic and layout.n_logical == 2:
        report.entangling, report.witness = entangling_verdict(gate)
        report.makhlin = makhlin_invariants(gate)
    return report


def schmidt_coefficients(state4) -> np.ndarray:
    """Schmidt coefficients of a two-qubit pure state (descending)."""
    state4 = np.asarray(state4, dtype=complex)
    if state4.shape != (4,):
        raise ValueError(f"expected a two-qubit state of shape (4,), got {state4.shape}")
    return np.linalg.svd(state4.reshape(2, 2), compute_uv=False)


def entanglement_entropy(state4) -> float:
    """Von Neumann entropy (nats) of either reduced qubit of a pure state."""
    probs = schmidt_coefficients(state4) ** 2
    probs = probs[probs > 1e-300]
    return float(-np.sum(probs * np.log(probs)))


# Bell ("magic") basis in which local unitaries become real orthogonal.
_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / math.sqrt(2.0)


def makhlin_invariants(U) -> tuple[complex, float]:
    """Local invariants (G1, G2) of a two-qubit unitary, magic-basis form."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {U.shape}")
    Um = _MAGIC.conj().T @ U @ _MAGIC
    M = Um.T @ Um
    det = np.linalg.det(Um)
    tr2 = np.trace(M) ** 2
    G1 = tr2 / (16.0 * det)
    G2 = (tr2 - np.trace(M @ M)) / (4.0 * det)
    return complex(G1), float(G2.real)


@dataclass
class EntanglingWitness:
    """Best product input found for a two-qubit gate and what it produces."""

    angles: tuple[float, float, float, float]  # (theta_a, phi_a, theta_b, phi_b)
    input_state: np.ndarray
    output_state: np.ndarray
    entropy: float
    min_schmidt: float


def _qubit_state(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(0.5 * theta), np.exp(1j * phi) * math.sin(0.5 * theta)])


def _witness_at(U, angles) -> EntanglingWitness:
    ta, pa, tb, pb = angles
    psi_in = np.kron(_qubit_state(ta, pa), _qubit_state(tb, pb))
    psi_out = U @ psi_in
    s = schmidt_coefficients(psi_out)
    return EntanglingWitness(
        angles=tuple(angles),
        input_state=psi_in,
        output_state=psi_out,
        entropy=entanglement_entropy(psi_out),
        min_schmidt=float(s[-1]),
    )


def entangling_verdict(U, schmidt_floor: float = 1e-4):
    """Operational entangling test: does any product input leave entangled?

    Sweeps a deterministic 24x24 grid of Bloch product states, refines the
    best candidate by coordinate-wise hill climbing on the output entropy,
    and declares the gate entangling iff the refined output has both Schmidt
    coefficients >= ``schmidt_floor``.  Returns (verdict, witness).
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {U.shape}")
    defect = unitarity_defect(U)
    if defect > 1e-8:
        raise ValueError(f"entangling_verdict: input not unitary, defect {defect:.3e}")

    # 24 points per sphere: 6 polar x 4 azimuthal values.
    thetas = np.linspace(0.0, np.pi, 6)
    phis = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
    points = [(t, p) for t in thetas for p in phis]

    best = None
    for ta, pa in points:
        for tb, pb in points:
            cand = _witness_at(U, (ta, pa, tb, pb))
            if best is None or cand.entropy > best.entropy:
                best = cand

    # Local ascent: cycle through the four angles with a shrinking step.
    step = 0.2
    angles = list(best.angles)
    while step > 1e-7:
        improved = False
        for i in range(4):
            for delta in (step, -step):
                trial = angles.copy()
                trial[i] += delta
                cand = _witness_at(U, trial)
                if cand.entropy > best.entropy:
                    best, angles, improved = cand, trial, True
        if not improved:
            step *= 0.5

    return best.min_schmidt >= schmidt_floor, best
