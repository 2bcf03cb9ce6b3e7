"""Analytic gate formulas, logical-gate extraction and entanglement diagnostics.

The closed forms implemented here are the targets the simulator is checked
against: the one-qubit reflection n.sigma produced by a pi-area drive, its
two-pulse composition rule, and the three-site XY gate together with its
partial-area block maps.  ``extract_logical_gate`` reports a propagator's
logical gate, leakage, cyclicity and target fidelity only; the entangling
diagnostics are separate functions of that gate.  Whether a two-qubit gate
entangles is decided exactly, from its Makhlin invariants:
``entangling_verdict`` returns the entangling power, with no search over
product inputs.

The closed forms, ``extract_logical_gate`` and the Schmidt and entropy
diagnostics take a leading batch axis (or several): arrays of angles,
(..., 3) vectors, (..., 4) states or columns (..., dim, 2^N) give stacked
results, and a single input is a batch with no leading axes that gives the
single result.  ``bloch_angles`` and ``one_qubit_gate`` work on the three
numbers of a single vector, with the operations a batch gets, so both give
the same bits; a single vector is selected by ``ndim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainLayout
from .linalg import (any_true, cross, dot, finite, gate_fidelity, inner, polar_unitary, three_vectors,
                     unitarity_defect, unstack)

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "CYCLIC_LEAKAGE",
    "bloch_vector",
    "bloch_angles",
    "one_qubit_gate",
    "compose_rule",
    "two_qubit_gate",
    "projected_block_maps",
    "GateReport",
    "logical_rows_of",
    "extract_logical_gate",
    "schmidt_coefficients",
    "entanglement_entropy",
    "makhlin_invariants",
    "entangling_verdict",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# leakage below which an evolution counts as cyclic and its logical block is unitarized
CYCLIC_LEAKAGE = 1e-8


def bloch_vector(theta, phi) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t), shape (..., 3) for array angles."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    return np.stack(
        np.broadcast_arrays(np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)),
        axis=-1,
    )


def bloch_angles(n):
    """Angles (theta, phi) of a unit vector, or arrays of them for (..., 3); phi fixed to 0 at the poles."""
    n = _unit_vector(n)
    if n.ndim == 1:  # one vector: the same ufuncs on its three numbers
        x, y, z = n.tolist()
        theta = np.arctan2(np.hypot(x, y), z)
        return float(theta), 0.0 if np.sin(theta) < 1e-12 else float(np.arctan2(y, x) % (2.0 * math.pi))
    theta = np.arctan2(np.hypot(n[..., 0], n[..., 1]), n[..., 2])
    azimuth = np.arctan2(n[..., 1], n[..., 0]) % (2.0 * math.pi)
    return theta, np.where(np.sin(theta) < 1e-12, 0.0, azimuth)


def _unit_vector(n) -> np.ndarray:
    unit, norm = three_vectors(n, "unit vector")
    off = np.abs(norm - 1.0)
    if any_true(off > 1e-9):
        raise ValueError(f"expected a unit vector, got norm {np.ravel(norm)[np.argmax(off)]:.6g}")
    return unit


def one_qubit_gate(n) -> np.ndarray:
    """Reflection n . sigma implemented by one pi-area drive along n, shape (..., 2, 2)."""
    n = _unit_vector(n)
    if n.ndim == 1:  # one vector: its three numbers scale the Pauli matrices
        x, y, z = n.tolist()
        return x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
    n = n[..., None, None]
    return n[..., 0, :, :] * SIGMA_X + n[..., 1, :, :] * SIGMA_Y + n[..., 2, :, :] * SIGMA_Z


def compose_rule(n, m) -> np.ndarray:
    """Closed form of two sequential reflections: n.m - i sigma.(n x m).

    Equals one_qubit_gate(m) @ one_qubit_gate(n), i.e. a rotation by
    2*arccos(n.m) about n x m.  (..., 3) vectors give (..., 2, 2) gates.
    """
    n = _unit_vector(n)
    m = _unit_vector(m)
    normal = cross(n, m)
    out = dot(n, m)[..., None, None] * np.eye(2, dtype=complex)
    for k, sigma in enumerate(_PAULI):
        out = out - 1j * normal[..., k, None, None] * sigma
    return out


def two_qubit_gate(vartheta) -> np.ndarray:
    """4x4 logical gate of a pi-area three-site pulse (basis |00>,|01>,|10>,|11>).

    Real, symmetric, involutory; entangling for generic vartheta (it reduces
    to sigma_z x 1 at vartheta = 0 and 1 x sigma_z at vartheta = pi).  An
    array of angles gives a (..., 4, 4) stack.
    """
    if not finite(vartheta):
        raise ValueError("vartheta must be finite")
    vartheta = np.asarray(vartheta, dtype=float)
    c, s = np.cos(vartheta), np.sin(vartheta)
    out = np.zeros(vartheta.shape + (4, 4), dtype=complex)
    out[..., 0, 0], out[..., 3, 3] = 1.0, -1.0
    out[..., 1, 1], out[..., 1, 2], out[..., 2, 1], out[..., 2, 2] = c, s, s, -c
    return out


def projected_block_maps(vartheta, area):
    """Closed-form projected maps of a three-site pulse at arbitrary area.

    Returns (A, c): the 2x2 map on span{|01>, |10>} and the scalar on |11>.
    Both are contractions for generic area and unitary exactly at odd
    multiples of pi.  Array angles and areas broadcast to (..., 2, 2) and (...).
    """
    vartheta, area = np.broadcast_arrays(np.asarray(vartheta, dtype=float), np.asarray(area, dtype=float))
    if not (np.isfinite(vartheta).all() and np.isfinite(area).all()):
        raise ValueError("vartheta and area must be finite")
    half = 0.5 * vartheta
    ca = np.cos(area)
    off = np.sin(vartheta) * np.sin(0.5 * area) ** 2
    A = np.empty(vartheta.shape + (2, 2), dtype=complex)
    A[..., 0, 0] = np.cos(half) ** 2 + np.sin(half) ** 2 * ca
    A[..., 0, 1] = A[..., 1, 0] = off
    A[..., 1, 1] = np.sin(half) ** 2 + np.cos(half) ** 2 * ca
    return A, unstack(ca.astype(complex))


@dataclass
class GateReport:
    """Logical gate extracted from the logical columns of a propagator, with its leakage.

    For a stack of column blocks the gate, leakage, cyclic flag and fidelity
    are stacks too; a single block gives a matrix, floats and a bool.
    """

    logical_gate: np.ndarray
    leakage: float | np.ndarray
    cyclic: bool | np.ndarray
    fidelity_vs_target: float | np.ndarray | None = None


def _leakage(columns: np.ndarray, idx: list[int]) -> np.ndarray:
    """Operator 2-norm of the non-logical rows of ``columns`` (per stack member).

    The square root of the largest eigenvalue of their 2^N x 2^N Gram matrix,
    summed over the runs of rows between consecutive logical indices; the
    runs are views and ``inner`` conjugates nothing, so no row is copied.
    At N = 1 the Gram [[p, q*], [q, r]] has the closed-form largest eigenvalue
    (p + r)/2 + hypot((p - r)/2, |q|), with q read from the lower triangle as
    ``eigvalsh`` reads it; ``hypot`` squares nothing, so Grams down to 1e-300
    keep their precision.  Larger Grams take ``eigvalsh``.
    """
    edges = [-1, *idx, columns.shape[-2]]
    gram = sum(inner(columns[..., a + 1:b, :], columns[..., a + 1:b, :])
               for a, b in zip(edges, edges[1:]) if b > a + 1)
    if gram.shape[-1] == 2:
        p, q, r = gram[..., 0, 0].real, gram[..., 1, 0], gram[..., 1, 1].real
        largest = 0.5 * (p + r) + np.hypot(0.5 * (p - r), np.hypot(q.real, q.imag))
    else:
        largest = np.linalg.eigvalsh(gram)[..., -1]
    return np.sqrt(np.maximum(largest, 0.0))


def logical_rows_of(columns, layout: ChainLayout) -> list[int]:
    """The rows of the logical states in ``columns`` (..., rows, 2^N) of the reachable space (``layout.dim``
    rows, ``layout.logical_rows()``) or of the full three-level chain (``layout.full_dim`` rows,
    ``layout.logical_indices()``); any other shape is refused."""
    shape = np.shape(columns)
    if len(shape) >= 2 and shape[-1] == layout.logical_dim:
        if shape[-2] == layout.dim:
            return layout.logical_rows()
        if shape[-2] == layout.full_dim:
            return layout.logical_indices()
    raise ValueError(f"logical columns shape {shape} is not ({layout.dim}, {layout.logical_dim}) "
                     f"or ({layout.full_dim}, {layout.logical_dim})")


def extract_logical_gate(
    columns,
    layout: ChainLayout,
    target=None,
) -> GateReport:
    """Logical gate of a propagator U from its logical columns.

    ``columns`` are those of the reachable space (dim x 2^N, e.g. ``run_schedule(schedule,
    logical_frame(layout), layout)``, or a stack (..., dim, 2^N) of them) or a dense reference's
    logical columns U[:, layout.logical_indices()] of the full chain (``logical_rows_of``); no
    other shape is accepted.  leakage is the operator 2-norm of its non-logical rows.  If it is
    below ``CYCLIC_LEAKAGE`` the evolution was cyclic: the logical rows are unitarized by polar decomposition and
    reported as the gate.  Otherwise the raw (contractive) block is returned and the
    report is flagged non-cyclic.  A ``target`` (stacks broadcast) needs every
    member cyclic.
    """
    columns = np.asarray(columns, dtype=complex)
    idx = logical_rows_of(columns, layout)
    block = columns[..., idx, :]
    leakage = _leakage(columns, idx)

    cyclic = leakage < CYCLIC_LEAKAGE
    keep = cyclic[..., None, None]
    # a leaky member keeps its raw block; the identity stands in for it in the polar step
    gate = np.where(keep, polar_unitary(np.where(keep, block, np.eye(layout.logical_dim))), block)

    fidelity = None
    if target is not None:
        if not np.all(cyclic):
            raise ValueError(
                f"cannot compare a non-cyclic evolution to a target gate (leakage {np.max(leakage):.3e})"
            )
        fidelity = gate_fidelity(gate, target)

    return GateReport(logical_gate=gate, leakage=unstack(leakage), cyclic=unstack(cyclic),
                      fidelity_vs_target=fidelity)


def schmidt_coefficients(state4) -> np.ndarray:
    """Schmidt coefficients of a two-qubit pure state (descending), or of each of (..., 4) states."""
    state4 = np.asarray(state4, dtype=complex)
    if state4.ndim < 1 or state4.shape[-1] != 4:
        raise ValueError(f"expected a two-qubit state of shape (4,), got {state4.shape}")
    return np.linalg.svd(state4.reshape(state4.shape[:-1] + (2, 2)), compute_uv=False)


def entanglement_entropy(state4):
    """Von Neumann entropy (nats) of either reduced qubit of a pure state (per state of a stack)."""
    probs = schmidt_coefficients(state4) ** 2
    kept = probs > 1e-300
    return unstack(-np.sum(np.where(kept, probs * np.log(np.where(kept, probs, 1.0)), 0.0), axis=-1))


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


def entangling_verdict(U) -> tuple[bool, float]:
    """Exact entangling test of a two-qubit unitary from its Makhlin invariant G1.

    A gate leaves some product input entangled iff it is not locally
    equivalent to the identity or to SWAP, i.e. iff |G1| < 1.  Returns
    (entangling, power): the entangling power e_p = (2/9)(1 - |G1|), clamped
    at 0, is the mean linear entropy 1 - Tr rho_A^2 of the outputs over
    Haar-random product inputs (Zanardi, Zalka & Faoro, PRA 62, 030301
    (2000); Balakrishnan & Sankaranarayanan, PRA 82, 034301 (2010)), and the
    gate is entangling iff e_p > 1e-8.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {U.shape}")
    defect = unitarity_defect(U)
    if defect > 1e-8:
        raise ValueError(f"entangling_verdict: input not unitary, defect {defect:.3e}")
    power = max(0.0, 2.0 / 9.0 * (1.0 - abs(makhlin_invariants(U)[0])))
    return power > 1e-8, power
