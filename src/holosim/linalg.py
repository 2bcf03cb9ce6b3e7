"""Dense complex linear-algebra primitives.

Everything here works on plain numpy arrays: operators are square
``complex128`` matrices (row-major), states are 1-d ``complex128`` vectors.
The matrix functions also take a stack (..., n, n) and work matrix by
matrix; a single matrix is a stack with no leading axes and gives a float
where a stack gives an array.  ``inner`` forms X^dag Y without a
conjugated copy of X, for the Gram matrices of large column blocks.
How an operator acts on a tensor factor, of the chain or of the qubit
register, is decided here alone: ``apply_factor`` contracts it with the factor
after the first ``left`` dimensions, as one product broadcast over them that
allocates only its result; ``embed_factor`` builds 1 (x) op (x) 1 as one
broadcast product.  ``expm_hermitian`` is the general dense exponential,
through a full Hermitian eigendecomposition; pulse propagation does not use it
(the local blocks have a closed-form exponential, see ``pulses``), so it
serves as the dense reference for any Hermitian matrix.  ``polar_unitary`` unitarizes
through one SVD per matrix, except a 2 x 2 matrix, whose polar factor and
singular values have a closed form (see ``_polar_2x2``), so a stack of them
costs a few array operations and no LAPACK call.  ``check_memory`` is the
memory budget the commands, the frame builders and ``holonomy.trace_subspace``
check before they allocate; ``power_bytes`` sizes a request that grows as a
power of the chain, and refuses one past any memory from its logarithm.
``float_array``, ``float_or_inf`` and ``finite`` read an int beyond the float
range as infinite, so a check refuses it as it refuses inf; ``finite`` takes a
Python number without making an array.  ``three_vectors`` is the one reader of
3-vectors (shape, finiteness, a norm that cannot overflow) for every caller.
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
    "power_bytes",
]


def _as_square_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(_real_view(M)).all():  # any layout: a last axis that is not contiguous is copied
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


def float_or_inf(value) -> float:
    """float(value), with an int beyond the float range read as +-inf instead of raising."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def float_array(value) -> np.ndarray:
    """np.asarray(value, dtype=float), with an int beyond the float range read as +-inf instead of
    raising, so that a finiteness check refuses it as it refuses an infinite value."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        return np.vectorize(float_or_inf, otypes=[float])(np.asarray(value, dtype=object))


def finite(value) -> bool:
    """Every element of a number or an array is finite; an int beyond the float range is not."""
    if isinstance(value, (int, float)):  # a Python number, checked without an array
        return math.isfinite(float_or_inf(value))
    return bool(np.isfinite(float_array(value)).all())


def any_true(mask) -> bool:
    """Whether some element of a boolean result is true; a single (0-d) one is read directly."""
    return bool(mask.any()) if mask.ndim else bool(mask)


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
    if a.ndim == b.ndim == 1:  # one pair, with no stack axes to add
        return np.dot(a, b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def three_vectors(value, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(a / |a|, |a|) for ``value`` read as a 3-vector of floats or a stack (..., 3), with no square overflowing.

    A wrong shape or a non-finite entry (an int beyond the float range too) raises a ValueError naming
    ``name``.  Where an entry reaches 2^511, each vector is scaled down first by a power of two, which is
    exact.  A norm past the largest float is inf; a zero norm, also from squares that underflow, gives a
    non-finite direction for the caller to refuse.  Nothing warns.
    """
    a = float_array(value)
    if a.ndim < 1 or a.shape[-1] != 3:
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    # one vector is checked on its numbers; a NaN would pass any bound a caller puts on the norm
    if not (all(map(math.isfinite, a.tolist())) if a.ndim == 1 else np.isfinite(a).all()):
        raise ValueError(f"{name} must be finite, got {a.tolist()}")
    scaled = np.abs(a).max(initial=0.0) >= 2.0**511
    shift = 0
    if scaled:
        shift = np.maximum(np.frexp(np.abs(a).max(axis=-1))[1] - 511, 0)
        a = np.ldexp(a, -shift[..., None])
    norm = np.sqrt(dot(a, a))
    if not scaled and (norm.all() if norm.ndim else norm):  # no division can warn
        return a / norm[..., None], norm
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return a / norm[..., None], np.ldexp(norm, shift)


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # the axes k + 1 and k + 2 (mod 3) of each k


def cross(a, b) -> np.ndarray:
    """a x b for (..., 3) vectors: np.cross's products and differences, without its axis handling.

    Component k is a[k+1] b[k+2] - a[k+2] b[k+1], indices mod 3, for all three at once.
    """
    if a.ndim == b.ndim == 1:  # one pair: the same products and differences on its numbers
        (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def apply_factor(left: int, U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(1_left (x) U (x) 1) X for a d x d operator U, or a stack (..., d, d), and a state or columns
    (..., dim, K), whose leading axes broadcast against U's.  The columns are viewed as (left, d, rest)
    and U is broadcast over the ``left`` axis, so one matmul writes the result in the columns' layout;
    contiguous columns are not copied, and nothing but the result is allocated."""
    out = U[..., None, :, :] @ X.reshape(X.shape[:-2] + (left, U.shape[-1], -1))
    return out.reshape(out.shape[:-3] + X.shape[-2:])


def embed_factor(op: np.ndarray, left: int, right: int) -> np.ndarray:
    """1_left (x) op (x) 1_right; a stack (..., d, d) gives the stack of embeddings.

    One broadcast product over the axes (left, d, right) of rows and of columns, with the
    identities' complex 1s and 0s as factors in ``np.kron``'s order, so its bits are those of
    ``np.kron(np.kron(1_left, op), 1_right)``.  An identity of size 1 is not multiplied in.
    """
    if left == right == 1:
        return op
    d = op.shape[-1]
    out = op[..., None, :, None, None, :, None]
    if left > 1:
        out = np.eye(left, dtype=complex)[:, None, None, :, None, None] * out
    if right > 1:
        out = out * np.eye(right, dtype=complex)[:, None, None, :]
    return out.reshape(op.shape[:-2] + (left * d * right,) * 2)


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
    the measured value), or if t is not finite.
    """
    if not finite(t):
        raise ValueError(f"expm_hermitian requires a finite t, got {float_or_inf(t)}")
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
    names the smallest singular value.  A 2 x 2 matrix takes the closed form
    of ``_polar_2x2``; any other size is W = U V^dag from one SVD per matrix.
    """
    M = _as_square_matrix(M, "M")
    if M.shape[-1] == 2:
        return _polar_2x2(M)
    U, s, Vh = np.linalg.svd(M)
    _check_rank(s[..., -1].min(initial=np.inf))
    return U @ Vh


def _check_rank(smallest) -> None:
    if smallest <= 1e-8:
        raise ValueError(
            f"polar_unitary: matrix is rank deficient, smallest singular value {smallest:.3e}"
        )


def _scalar_hypot(y, x) -> float:
    return float(np.hypot(y, x))  # numpy's hypot for a single matrix too: math.hypot can differ by an ulp


_ADJ_SIGNS = np.array([[1.0], [-1.0], [-1.0], [1.0]])  # adj(M)^dag = [[d*, -c*], [-b*, a*]]


def _polar_2x2(M) -> np.ndarray:
    """Polar factor of each 2 x 2 matrix, W = (M + e^{i arg det M} adj(M)^dag) / (s1 + s2), with no SVD.

    With M = U diag(s1, s2) V^dag, e^{i arg det M} adj(M)^dag = |det M| M^{-dag} = U diag(s2, s1) V^dag, so
    the sum is (s1 + s2) U V^dag.  s1 + s2 = sqrt(||M||_F^2 + 2 |det M|), s1 - s2 = sqrt(||M||_F^2 - 2 |det M|),
    and the smallest singular value s2 = |det M| / s1 is checked against the rank floor before anything
    is divided by |det M|.  Each matrix is first scaled by the power of two that puts its largest real or
    imaginary part in [1/2, 1): W does not change, no square overflows, and s2 is scaled back exactly.
    The arithmetic is real.  A single matrix runs it on its eight numbers and a stack on eight rows of
    numbers, with the same roundings (a sign is an exact product), so a matrix gives the same bits alone
    and in a stack.
    """
    single = M.ndim == 2
    if single:  # one matrix: Python floats, with none of numpy's per-call cost
        x = _real_view(M).ravel().tolist()
        shift = math.frexp(max(map(abs, x)))[1]
        x = [math.ldexp(v, -shift) for v in x]
        sq = [v * v for v in x]
        sqrt, maximum, hypot, ldexp = math.sqrt, max, _scalar_hypot, math.ldexp
    else:  # a stack: eight contiguous rows, one number of every matrix each
        x = _real_view(M).reshape(-1, 8).T.copy()
        shift = np.frexp(np.abs(x).max(axis=0))[1]
        x = np.ldexp(x, -shift)
        sq = x * x
        sqrt, maximum, hypot, ldexp = np.sqrt, np.maximum, np.hypot, np.ldexp
    ar, ai, br, bi, cr, ci, dr, di = x
    det_re = (ar * dr - ai * di) - (br * cr - bi * ci)
    det_im = (ar * di + ai * dr) - (br * ci + bi * cr)
    abs_det = hypot(det_re, det_im)
    frob2 = ((sq[0] + sq[1]) + (sq[2] + sq[3])) + ((sq[4] + sq[5]) + (sq[6] + sq[7]))
    total = sqrt(frob2 + 2.0 * abs_det)  # s1 + s2
    s_max = 0.5 * (total + sqrt(maximum(frob2 - 2.0 * abs_det, 0.0)))
    s_min = ldexp(abs_det / (s_max + (s_max == 0.0)), shift)  # a zero matrix has s_max = 0 and s2 = 0 / 1
    _check_rank(s_min if single else s_min.min(initial=math.inf))
    # entry k of the phase times adj(M)^dag is sign_k * phase * conj(entry 3 - k), for the entries a, b, c, d
    pr, pi = det_re / abs_det, det_im / abs_det
    if single:
        W = [(ar + (pr * dr + pi * di)) / total, (ai + (pi * dr - pr * di)) / total,
             (br - (pr * cr + pi * ci)) / total, (bi - (pi * cr - pr * ci)) / total,
             (cr - (pr * br + pi * bi)) / total, (ci - (pi * br - pr * bi)) / total,
             (dr + (pr * ar + pi * ai)) / total, (di + (pi * ar - pr * ai)) / total]
        return np.array(W).view(complex).reshape(2, 2)
    re, im = x[0::2], x[1::2]
    W = np.empty_like(x)
    np.divide(re + _ADJ_SIGNS * (pr * re[::-1] + pi * im[::-1]), total, out=W[0::2])
    np.divide(im + _ADJ_SIGNS * (pi * re[::-1] - pr * im[::-1]), total, out=W[1::2])
    return W.T.copy().view(complex).reshape(M.shape)


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


# Peak RSS above the 29 MiB of an interpreter that imported the CLI, over a request's estimate, on 64-bit
# Linux with OpenBLAS: 2.07x for extract-gate at N = 7 (595 MiB, 273 MiB of columns of the reachable 3^N 2^(N-1)
# states), 2.02x for simulate at N = 10 (961 MiB, a 461 MiB state), 1.03x for a three-site certify's two gates at
# N = 11, 0.77x for compile at N = 9 (its unitary and the JSON rendering of it).  Smaller requests pay more for
# fixed costs: 2.3x for extract-gate at N = 6 (83 MiB, 23 MiB of columns) and 2.7x for simulate at N = 7 (35 MiB,
# a 2.1 MiB state); a one-qubit certify at N = 7 adds 2.7 MiB.  The budget takes 5/2, as an integer ratio so that
# an estimate of any size works.
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


def power_bytes(what: str, nbytes: int, base: int, exponent: int) -> int:
    """``nbytes * base**exponent``, the size of a request that grows as a power of the chain, for ``check_memory``.

    Past 2^1000 bytes, more than any memory, the request is refused here, from the logarithm of its size:
    at 10^8 qubits the power itself takes a second to form, and 3^(2N - 1) minutes.
    """
    log2 = math.log2(nbytes) + exponent * math.log2(base)
    if log2 <= 1000:
        return nbytes * base ** exponent
    gib = math.log2(_COPIES[0] / _COPIES[1]) + log2 - 30
    raise MemoryError(f"{what} needs about 2^{gib:.0f} GiB, more than any physical memory")
