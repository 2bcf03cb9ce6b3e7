"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's own code paths: the matrix
exponential is a Taylor sum, embeddings are brute-force Kronecker products,
and entropies come straight from an SVD of the amplitude matrix.
"""

import json
import math

import numpy as np


def taylor_expm(H, t):
    """exp(-i t H) by direct Taylor summation to machine convergence."""
    H = np.asarray(H, dtype=complex)
    A = -1j * t * H
    term = np.eye(H.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 500):
        term = term @ A / k
        out = out + term
        if np.linalg.norm(term) < 1e-20 * max(1.0, np.linalg.norm(out)):
            break
    return out


def kron_chain(site_ops):
    """Kronecker product of per-site operators, site 1 leftmost."""
    out = np.asarray(site_ops[0], dtype=complex)
    for op in site_ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def brute_embed(op, start_site, n_sites):
    """Embed a single-site 3x3 operator by explicit Kronecker product."""
    ops = [np.eye(3)] * n_sites
    ops[start_site - 1] = op
    return kron_chain(ops)


def kron_logical(first_qubit, op, n_logical):
    """1 (x) op (x) 1 on the 2^N logical space by explicit Kronecker products, op acting from qubit
    ``first_qubit`` on; a factor of size 1 is skipped, not multiplied in."""
    left = 2 ** (first_qubit - 1)
    right = 2 ** n_logical // (left * len(op))
    out = np.asarray(op, dtype=complex)
    if left > 1:
        out = np.kron(np.eye(left, dtype=complex), out)
    if right > 1:
        out = np.kron(out, np.eye(right, dtype=complex))
    return out


def haar_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    Z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hermitian(dim, rng):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (A + A.conj().T)


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def svd_entropy(state4):
    """Entanglement entropy of a two-qubit pure state from raw SVD."""
    s = np.linalg.svd(np.asarray(state4, dtype=complex).reshape(2, 2), compute_uv=False)
    p = s**2
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log(p)))


def eigh_frames(H, F0, areas):
    """Frames exp(-i a H) F0 at each area, through a dense eigendecomposition of H."""
    w, V = np.linalg.eigh(H)
    VF0 = V.conj().T @ F0
    return np.array([(V * np.exp(-1j * a * w)) @ VF0 for a in areas])


def wilson_product(frames):
    """Unitary polar factor of F_0^dag P_{S-1} ... P_1 F_0, one stored frame at a time."""
    v = frames[0]
    for F in frames[1:]:
        v = F @ (F.conj().T @ v)
    U, _, Vh = np.linalg.svd(frames[0].conj().T @ v)
    return U @ Vh


def subspace_energies(frames, H):
    """F_j^dag H F_j for every stored frame."""
    return np.array([F.conj().T @ H @ F for F in frames])


def scan_entangling_witness(U):
    """Best product input of a 4x4 unitary, one input at a time: the first strict maximum of the
    output entropy over the 24 x 24 Bloch grid, then coordinate-wise ascent with a halving step.

    Returns (angles, output entropy, smallest Schmidt coefficient) of the best input.
    """
    def evaluate(angles):
        ta, pa, tb, pb = angles
        qa = np.array([np.cos(0.5 * ta), np.exp(1j * pa) * np.sin(0.5 * ta)])
        qb = np.array([np.cos(0.5 * tb), np.exp(1j * pb) * np.sin(0.5 * tb)])
        out = U @ np.kron(qa, qb)
        return svd_entropy(out), np.linalg.svd(out.reshape(2, 2), compute_uv=False)[-1]

    points = [(t, p) for t in np.linspace(0.0, np.pi, 6) for p in np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)]
    best = None
    for a in points:
        for b in points:
            entropy, smallest = evaluate(a + b)
            if best is None or entropy > best[1]:
                best = (list(a + b), entropy, smallest)
    step = 0.2
    while step > 1e-7:
        improved = False
        for i in range(4):
            for delta in (step, -step):
                trial = best[0].copy()
                trial[i] += delta
                entropy, smallest = evaluate(trial)
                if entropy > best[1]:
                    best, improved = (trial, entropy, smallest), True
        if not improved:
            step *= 0.5
    return tuple(best[0]), best[1], best[2]


def reference_dumps(value) -> str:
    """The report emitter as first written, a recursive isinstance chain: the slow reference for
    ``holosim.formats.dumps``, which must render every document to the same text."""
    pieces = []
    _emit(value, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(value, out, level):
    pad = "  " * (level + 1)
    closing_pad = "  " * level
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(closing_pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if scalars:
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad)
            _emit(item, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(closing_pad + "]")
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(x, ".17g")
    return text
