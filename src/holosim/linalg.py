"""Dense complex linear-algebra primitives.

Everything here works on plain numpy arrays: operators are square
``complex128`` matrices (row-major), states are 1-d ``complex128`` vectors.
The matrix functions also take a stack (..., n, n) and work matrix by
matrix; a single matrix is a stack with no leading axes and gives a float
where a stack gives an array.  ``inner`` forms X^dag Y without a
conjugated copy of X, for the Gram matrices of large column blocks.
``expm_hermitian`` is the general dense exponential, through a full
Hermitian eigendecomposition; pulse propagation does not use it (the local
blocks have a closed-form exponential, see ``pulses``), so it serves as the
dense reference for any Hermitian matrix.  ``check_memory`` is the memory
budget the commands, the frame builders and ``holonomy.trace_subspace`` check
before they allocate.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "hermiticity_defect",
    "unitarity_defect",
    "inner",
    "dot",
    "cross",
    "expm_hermitian",
    "polar_unitary",
    "gate_fidelity",
    "check_memory",
]


def _as_square_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M.view(float)).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def unstack(x):
    """A numpy result with no leading axes as a Python scalar; a stack's results stay an array."""
    return x.item() if x.ndim == 0 else x


def _adjoint(M):
    return M.conj().swapaxes(-1, -2)


def frobenius(D):
    """Frobenius norm of each complex matrix of a stack, from the real view of its entries."""
    x = D.reshape(D.shape[:-2] + (-1,)).view(np.float64)
    return unstack(np.sqrt(dot(x, x)))


def hermiticity_defect(H):
    """Frobenius norm of H - H^dagger (per matrix of a stack)."""
    H = np.asarray(H, dtype=complex)
    return frobenius(H - _adjoint(H))


def unitarity_defect(U):
    """Frobenius norm of U^dagger U - 1 (per matrix of a stack)."""
    U = np.asarray(U, dtype=complex)
    return frobenius(_adjoint(U) @ U - np.eye(U.shape[-1]))


def dot(a, b) -> np.ndarray:
    """a . b for (..., n) real vectors, each pair reduced by np.dot's kernel (so also np.linalg.norm's)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def normalize(a) -> tuple[np.ndarray, np.ndarray]:
    """(a / |a|, |a|) for (..., n) finite real vectors, with no square overflowing and no warning.

    Where an entry reaches 2^511, each vector is scaled down first by a power of two, which is
    exact.  A norm past the largest float is inf; a zero norm, also from squares that underflow,
    gives a non-finite direction for the caller to refuse.
    """
    shift = 0
    if np.abs(a).max(initial=0.0) >= 2.0**511:
        shift = np.maximum(np.frexp(np.abs(a).max(axis=-1))[1] - 511, 0)
        a = np.ldexp(a, -shift[..., None])
    norm = np.sqrt(dot(a, a))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return a / norm[..., None], np.ldexp(norm, shift)


def cross(a, b) -> np.ndarray:
    """a x b for (..., 3) vectors: np.cross's products and differences, without its axis handling."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _real_view(X) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape[-1] > 1 and X.strides[-1] != X.itemsize:
        X = np.ascontiguousarray(X)
    return X.view(np.float64)


def inner(X, Y) -> np.ndarray:
    """X^dag Y, contracted over the second-to-last axis; leading axes broadcast.

    Works on real views, so no conjugated copy of X is made.  With X = A + iB
    and Y = C + iD, the real product of the views, read as complex pairs,
    has rows A^T (C + iD) and B^T (C + iD) interleaved, and
    X^dag Y = A^T (C + iD) - i B^T (C + iD).
    """
    V = (_real_view(X).swapaxes(-1, -2) @ _real_view(Y)).view(complex)
    return V[..., 0::2, :] - 1j * V[..., 1::2, :]


def expm_hermitian(H, t: float) -> np.ndarray:
    """Return exp(-i t H) for Hermitian H via eigendecomposition.

    Raises ValueError if ||H - H^dag||_F exceeds 1e-12 (the message reports
    the measured value).
    """
    H = _as_square_matrix(H, "H")
    defect = np.max(hermiticity_defect(H))
    if defect > 1e-12:
        raise ValueError(
            f"expm_hermitian requires a Hermitian matrix: ||H - H^dag|| = {defect:.3e} > 1.0e-12"
        )
    w, V = np.linalg.eigh(H)
    phases = np.exp(-1j * t * w)
    return (V * phases[..., None, :]) @ _adjoint(V)


def polar_unitary(M) -> np.ndarray:
    """Unitary factor W of the polar decomposition M = W P (P >= 0), per matrix of a stack.

    Every matrix must be numerically full rank (smallest singular value above
    1e-8); otherwise the polar factor is not well defined and a ValueError
    names the smallest singular value.
    """
    M = _as_square_matrix(M, "M")
    U, s, Vh = np.linalg.svd(M)
    smallest = s[..., -1].min(initial=np.inf)
    if smallest <= 1e-8:
        raise ValueError(
            f"polar_unitary: matrix is rank deficient, smallest singular value {smallest:.3e}"
        )
    return U @ Vh


def gate_fidelity(U, V) -> float:
    """Phase-invariant gate fidelity |Tr(U^dag V)| / dim, per matrix pair of two stacks.

    Equals 1 exactly when U and V agree up to a global U(1) phase.  Every
    input must be unitary (||U^dag U - 1||_F <= 1e-8) and of equal dimension;
    the leading axes of U and V broadcast.
    """
    U = _as_square_matrix(U, "U")
    V = _as_square_matrix(V, "V")
    if U.shape[-1] != V.shape[-1]:
        raise ValueError(f"dimension mismatch: {U.shape} vs {V.shape}")
    for name, M in (("U", U), ("V", V)):
        defect = np.ravel(unitarity_defect(M)).max()
        if defect > 1e-8:
            raise ValueError(
                f"gate_fidelity: {name} is not unitary, ||U^dag U - 1|| = {defect:.3e}"
            )
    dim = U.shape[-1]
    overlap = np.abs(np.trace(_adjoint(U) @ V, axis1=-2, axis2=-1)) / dim
    # the exact value lies in [0, 1]; roundoff can push marginally past 1
    return unstack(np.minimum(overlap, 1.0))


# Peak RSS over the bytes of a request's largest array, measured on 64-bit
# Linux with OpenBLAS: 2.2x for extract-gate at N = 6 (384 MiB for 173 MiB
# of columns), 2.1x for simulate and 1.9x for a one-qubit certify at N = 7.
# The budget takes 5/2, as an integer ratio so that an estimate of any size works.
_COPIES = (5, 2)


def _gib(nbytes: int) -> str:
    # math.log2 takes an int of any size; a float quotient overflows past 2^1024
    return f"{nbytes / 2**30:.3g} GiB" if nbytes < 2**1000 else f"2^{math.log2(nbytes) - 30:.0f} GiB"


def check_memory(what: str, nbytes: int) -> None:
    """Refuse, before allocating, a request whose arrays would not fit in physical memory."""
    need = nbytes * _COPIES[0] // _COPIES[1]
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise MemoryError(f"{what} needs about {_gib(need)}, "
                          f"more than the {_gib(have)} of physical memory")
