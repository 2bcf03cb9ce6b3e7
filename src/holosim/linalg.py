"""Dense complex linear-algebra primitives.

Everything here works on plain numpy arrays: operators are square
``complex128`` matrices (row-major), states are 1-d ``complex128`` vectors.
``expm_hermitian`` is the general dense exponential, through a full
Hermitian eigendecomposition; pulse propagation does not use it (the local
blocks have a closed-form exponential, see ``pulses``), so it serves as the
dense reference for any Hermitian matrix.  ``check_memory`` is the memory
budget the commands and ``holonomy.trace_subspace`` check before they allocate.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "hermiticity_defect",
    "unitarity_defect",
    "is_hermitian",
    "is_unitary",
    "expm_hermitian",
    "polar_unitary",
    "gate_fidelity",
    "check_memory",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical-tolerance record.

    The defaults of the Hermiticity and unitarity checks, the cyclic/leaky
    split of gate extraction and every ``certify`` and Wilson-loop bound live
    here, so those can be tightened or relaxed in one place.
    """

    hermiticity: float = 1e-12        # ||H - H^dag||_F allowed on Hamiltonians
    unitarity: float = 1e-10          # ||U^dag U - 1||_F allowed on propagators
    leakage: float = 1e-8             # cyclic-gate vs leaky-evolution split
    wilson_cyclicity: float = 1e-6    # loop-closure bound for overlap products
    certify_parallel_transport: float = 1e-9
    certify_dynamical_phase: float = 1e-9
    certify_cyclicity: float = 1e-8
    certify_cross_fidelity: float = 1.0 - 1e-6


DEFAULT_TOL = Tolerances()


def _as_square_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def hermiticity_defect(H) -> float:
    """Frobenius norm of H - H^dagger."""
    H = np.asarray(H, dtype=complex)
    return float(np.linalg.norm(H - H.conj().T))


def unitarity_defect(U) -> float:
    """Frobenius norm of U^dagger U - 1."""
    U = np.asarray(U, dtype=complex)
    return float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])))


def is_hermitian(H, tol: float = DEFAULT_TOL.hermiticity) -> bool:
    return hermiticity_defect(H) <= tol


def is_unitary(U, tol: float = DEFAULT_TOL.unitarity) -> bool:
    return unitarity_defect(U) <= tol


def expm_hermitian(H, t: float, tol: float = DEFAULT_TOL.hermiticity) -> np.ndarray:
    """Return exp(-i t H) for Hermitian H via eigendecomposition.

    Raises ValueError if H is not Hermitian within ``tol`` (the message
    reports the measured ||H - H^dag||).
    """
    H = _as_square_matrix(H, "H")
    defect = hermiticity_defect(H)
    if defect > tol:
        raise ValueError(
            f"expm_hermitian requires a Hermitian matrix: ||H - H^dag|| = {defect:.3e} > {tol:.1e}"
        )
    w, V = np.linalg.eigh(H)
    phases = np.exp(-1j * t * w)
    return (V * phases) @ V.conj().T


def polar_unitary(M, min_singular: float = 1e-8) -> np.ndarray:
    """Unitary factor W of the polar decomposition M = W P (P >= 0).

    M must be numerically full rank; otherwise the polar factor is not
    well defined and a ValueError names the offending singular value.
    """
    M = _as_square_matrix(M, "M")
    U, s, Vh = np.linalg.svd(M)
    if s[-1] <= min_singular:
        raise ValueError(
            f"polar_unitary: matrix is rank deficient, smallest singular value {s[-1]:.3e}"
        )
    return U @ Vh


def gate_fidelity(U, V, unitary_tol: float = 1e-8) -> float:
    """Phase-invariant gate fidelity |Tr(U^dag V)| / dim.

    Equals 1 exactly when U and V agree up to a global U(1) phase.  Both
    inputs must be unitary (within ``unitary_tol``) and of equal dimension.
    """
    U = _as_square_matrix(U, "U")
    V = _as_square_matrix(V, "V")
    if U.shape != V.shape:
        raise ValueError(f"dimension mismatch: {U.shape} vs {V.shape}")
    for name, M in (("U", U), ("V", V)):
        defect = unitarity_defect(M)
        if defect > unitary_tol:
            raise ValueError(
                f"gate_fidelity: {name} is not unitary, ||U^dag U - 1|| = {defect:.3e}"
            )
    dim = U.shape[0]
    # the exact value lies in [0, 1]; roundoff can push marginally past 1
    return float(min(max(abs(np.trace(U.conj().T @ V)) / dim, 0.0), 1.0))


# Peak RSS over the bytes of a request's largest array, measured on 64-bit
# Linux with OpenBLAS: about 3x for extract-gate at N = 6, less above.
_COPIES = 3


def _gib(nbytes: int) -> str:
    # math.log2 takes an int of any size; a float quotient overflows past 2^1024
    return f"{nbytes / 2**30:.3g} GiB" if nbytes < 2**1000 else f"2^{math.log2(nbytes) - 30:.0f} GiB"


def check_memory(what: str, nbytes: int) -> None:
    """Refuse, before allocating, a request whose arrays would not fit in physical memory."""
    need = _COPIES * nbytes
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise MemoryError(f"{what} needs about {_gib(need)}, "
                          f"more than the {_gib(have)} of physical memory")
