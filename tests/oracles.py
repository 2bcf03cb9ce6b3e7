"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's own code paths: the matrix
exponential is a Taylor sum, embeddings are brute-force Kronecker products,
the reachable states' place in the full chain is read from their enumerated
site codes, the local blocks are complex broadcasts of their generators, the
reference frames are Kronecker products of basis kets, and entropies come
straight from an SVD of the amplitude matrix.

The library propagates in the reachable space alone; the full three-level
chain, of dimension 3^(2N-1) (``chain_dim``) with index sum_i code(site i) *
3^(n_sites - i), site 1 most significant, lives here: its logical states
(``logical_indices``), the isometry from the reachable space
(``reachable_states``, ``to_full_chain``, ``restricted``), the one way back
from a dense operator's logical columns (``reachable_logical_columns``), the
block pseudo-spin (``block_sz``) and the |e>-state motion
(``excited_fixity``).
"""

import itertools
import json
import math

import numpy as np

from holosim.pulses import OneQubitPulse

# The five generators used by the chain Hamiltonian, in the local basis order
# (|0>, |1>, |e>).  Indices 3, 5, 8 are deliberately absent: nothing in the
# model drives them, and omitting them prevents silent misuse.
_KET0, _KET1, _KETE = np.eye(3, dtype=complex)

_GELL_MANN = {
    1: np.outer(_KETE, _KET0) + np.outer(_KET0, _KETE),
    2: -1j * np.outer(_KETE, _KET0) + 1j * np.outer(_KET0, _KETE),
    4: np.outer(_KETE, _KET1) + np.outer(_KET1, _KETE),
    6: np.outer(_KET0, _KET1) + np.outer(_KET1, _KET0),
    7: -1j * np.outer(_KET0, _KET1) + 1j * np.outer(_KET1, _KET0),
}

# Qubit-subspace hopping between two neighboring qutrits:
# (lam6 lam6 + lam7 lam7)/2 = |01><10| + |10><01|, zero on any |e> component.
_HOP = 0.5 * (
    np.kron(_GELL_MANN[6], _GELL_MANN[6]) + np.kron(_GELL_MANN[7], _GELL_MANN[7])
)


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


def taylor_propagator(H, area):
    """exp(-i area H) by scaling and squaring: ``taylor_expm`` at area / 2^k, with |area| / 2^k <= 1/2, squared
    k times.  The Taylor terms then never grow past 1, so no cancellation costs digits at |area| ~ 7 (the plain
    sum loses ~5e-14 there)."""
    k = 0
    while abs(area) > 0.5 * 2 ** k:
        k += 1
    U = taylor_expm(H, area / 2 ** k)
    for _ in range(k):
        U = U @ U
    return U


def generator_lambda_coupling(theta, phi):
    """The one-qubit block as a complex broadcast of its Gell-Mann generators:
    sin(t/2) (cos(p) lam1 - sin(p) lam2) - cos(t/2) lam4, a stack for arrays of angles."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    half = 0.5 * theta
    if theta.ndim or phi.ndim:
        half, phi = half[..., None, None], phi[..., None, None]
    return np.sin(half) * (np.cos(phi) * _GELL_MANN[1] - np.sin(phi) * _GELL_MANN[2]) - np.cos(half) * _GELL_MANN[4]


_QUBIT = np.diag([1.0, 1.0, 0.0]).astype(complex)  # a bystander's qubit projector, so every |e> state is annihilated


def generator_xy_coupling(vartheta):
    """The three-site block as a complex broadcast of its 27 x 27 bonds: -cos(v/2) hop (x) P + sin(v/2) P (x) hop,
    with P the qubit projector, a stack for an array of angles."""
    half = 0.5 * np.asarray(vartheta, dtype=float)
    if half.ndim:
        half = half[..., None, None]
    return -np.cos(half) * np.kron(_HOP, _QUBIT) + np.sin(half) * np.kron(_QUBIT, _HOP)


def local_reference(pulse, layout):
    """The dense reference of ``pulses.local_propagator``: its first site and ``taylor_propagator`` of its block
    from the generators at its area, member by member for a batch, as a stack with the batch's axes."""
    if isinstance(pulse, OneQubitPulse):
        site, block = layout.site_of_qubit(pulse.qubit), generator_lambda_coupling(pulse.theta, pulse.phi)
    else:
        site, block = layout.sites_of_pair(pulse.pair)[0], generator_xy_coupling(pulse.vartheta)
    area = np.asarray(pulse.area, dtype=float)
    shape = np.broadcast_shapes(block.shape[:-2], area.shape)
    blocks, areas = np.broadcast_to(block, shape + block.shape[-2:]), np.broadcast_to(area, shape)
    U = np.empty(blocks.shape, dtype=complex)
    for index in np.ndindex(shape):
        U[index] = taylor_propagator(blocks[index], float(areas[index]))
    return site, U


def chain_dim(layout):
    """The dimension 3^(2N-1) of the full three-level chain."""
    return 3 ** layout.n_sites


def logical_indices(layout):
    """The full-chain index of each logical basis state, lexicographic in n1..nN: the qubits' bits on the logical
    sites and |0> on the auxiliary ones, read in base 3, so that qubit q weighs 9^(N - q)."""
    return [int("0".join(map(str, bits)), 3) for bits in itertools.product((0, 1), repeat=layout.n_logical)]


def reachable_states(layout):
    """The full-chain index of each reachable basis state, in reachable order, by enumerating the site codes:
    0-2 on a logical (odd) site and 0-1 on an auxiliary one, site 1 most significant, read in base 3."""
    codes = itertools.product(*[range(3 if site % 2 else 2) for site in range(1, layout.n_sites + 1)])
    return np.array([int("".join(map(str, code)), 3) for code in codes])


def to_full_chain(columns, layout):
    """Reachable columns (..., dim, K), or a state (dim,), scattered into the full chain: zero rows for the states
    with an auxiliary |e>."""
    columns = np.asarray(columns)
    state = columns.ndim == 1
    columns = columns[:, None] if state else columns
    out = np.zeros(columns.shape[:-2] + (chain_dim(layout), columns.shape[-1]), dtype=complex)
    out[..., reachable_states(layout), :] = columns
    return out[..., 0] if state else out


def restricted(U, layout):
    """A dense full-chain operator (..., 3^(2N-1), 3^(2N-1)) between the reachable states: rows and columns."""
    rows = reachable_states(layout)
    return np.ascontiguousarray(U[..., rows[:, None], rows])


def reachable_logical_columns(U, layout):
    """The logical columns of a dense full-chain operator (..., 3^(2N-1), 3^(2N-1)) on the reachable rows, the
    columns that ``gates.extract_logical_gate`` takes.  Every row it drops, a state with an auxiliary |e>, must
    be exactly 0.0: no pulse populates such a state."""
    columns = np.asarray(U)[..., logical_indices(layout)]
    rows = reachable_states(layout)
    dropped = np.delete(columns, rows, axis=-2)
    assert not dropped.any(), f"a dropped row holds {np.max(np.abs(dropped)):.3e}"
    return columns[..., rows, :]


def block_sz(pair, layout):
    """The total pseudo-spin S_z of a pair's three sites on the full chain, sum of diag(1, -1, 0)/2 on each,
    embedded by ``brute_embed``."""
    sz = np.diag([0.5, -0.5, 0.0])
    return sum(brute_embed(sz, site, layout.n_sites) for site in layout.sites_of_pair(pair))


def excited_fixity(U, layout):
    """Largest ||U e_j - e_j|| over the full-chain basis states e_j carrying |e> on some site, auxiliary sites
    included (over a stack of dense operators too)."""
    eye = np.eye(chain_dim(layout))
    excited = [j for j in range(chain_dim(layout)) if "2" in np.base_repr(j, base=3)]
    return float(np.max(np.linalg.norm(U[..., excited] - eye[:, excited], axis=-2)))


def dense_propagator(pulse, layout):
    """The full three-level chain's propagator of ``pulse``: ``local_reference``'s Taylor propagator of the
    generators' block, embedded by Kronecker products with identities, member by member for a batch (a stack
    with the batch's axes).  It acts on every state of the chain, auxiliary |e> included."""
    site, local = local_reference(pulse, layout)
    left = 3 ** (site - 1)
    right = chain_dim(layout) // (left * local.shape[-1])
    out = np.empty(local.shape[:-2] + (chain_dim(layout),) * 2, dtype=complex)
    for index in np.ndindex(local.shape[:-2]):
        out[index] = np.kron(np.kron(np.eye(left), local[index]), np.eye(right))
    return out


def dense_run(schedule, columns, layout):
    """A schedule on full-chain columns (..., 3^(2N-1), K), one ``dense_propagator`` product per pulse; batch axes
    broadcast as in ``pulses.run_schedule``."""
    for pulse in schedule:
        columns = dense_propagator(pulse, layout) @ columns
    return columns


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


def computational_frame(pulse, layout):
    """The frame of the reachable space that ``certify``'s path on the pulse's minimal chain stands for, one
    Kronecker product of basis kets per column, of three levels on a logical site and two on an auxiliary
    one, which is in |0>: the qubit's |0> and |1> with every other qubit in |0> for a one-qubit pulse, and
    the whole logical basis, lexicographic in n1..nN, for a three-site pulse.  ``to_full_chain`` gives the
    full-chain frame."""
    n = layout.n_logical
    if isinstance(pulse, OneQubitPulse):
        columns = [(0,) * n, tuple(int(q == pulse.qubit) for q in range(1, n + 1))]
    else:
        columns = itertools.product((0, 1), repeat=n)

    def column(bits):
        sites = [_KET0[:2]] * (2 * n - 1)
        sites[::2] = [(_KET0, _KET1)[bit] for bit in bits]
        return kron_chain(sites)

    return np.stack([column(bits) for bits in columns], axis=1)


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
    """The report emitter as first written, a recursive isinstance chain, with a complex number
    written and laid out as its [re, im] pair: the slow reference for ``holosim.formats.dumps``,
    which must render every document to the same text."""
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
        # a complex number is written as its [re, im] pair, and laid out as one
        scalars = all(not isinstance(v, (dict, list, tuple, complex, np.complexfloating)) for v in seq)
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
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{_fmt_float(float(value.real))}, {_fmt_float(float(value.imag))}]"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(x, ".17g")
    return text
