"""Chain layout, local operators and Hamiltonian builders.

The register is a linear chain of 2N-1 three-level systems.  Odd sites
1, 3, ..., 2N-1 carry the N logical qubits in their {|0>, |1>} subspaces;
even sites are auxiliary and idle in |0> between two-qubit operations.

Basis conventions (fixed once, everything downstream depends on them):

* local codes |0> -> 0, |1> -> 1, |e> -> 2;
* global index = sum_i code(site i) * 3**(n_sites - i), site 1 most
  significant (i.e. plain ``np.kron`` order with site 1 leftmost).

The local blocks ``lambda_coupling`` and ``xy_coupling`` take arrays of
angles and return stacks (..., 3^k, 3^k) with the angles' leading axes; a
number is a batch with no leading axes and gives one block.  Both blocks
satisfy H^3 = H, so exp(-i a H) = 1 - i sin(a) H + (cos(a) - 1) H^2, and
``lambda_propagator`` and ``xy_propagator`` write that exponential entry by
entry from the same few numbers the blocks are written from: the drive's
bright state for the 3 x 3 block, and cos(v/2) and sin(v/2) for the
27 x 27 one, which its propagator spreads over five constant 8 x 8 tables
on the qubit sector, from the hop's two entries (no Gell-Mann generator is
built).  No block, separate identity or matrix product is formed
on the way, and a batch runs the same element-wise operations as a single
pulse, so each member has the single pulse's bits.
``embed`` takes a stack of operators too; ``h1``, ``h3`` and ``block_sz``
build single full-chain operators.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import check_memory, embed_factor, finite, power_bytes

__all__ = [
    "SIGMA_Z3",
    "ChainLayout",
    "embed",
    "lambda_coupling",
    "lambda_propagator",
    "xy_coupling",
    "xy_propagator",
    "h1",
    "h3",
    "block_sz",
    "logical_encode",
    "logical_frame",
    "check_columns",
]

# Pseudo-spin z on the qubit subspace of one qutrit: |0><0| - |1><1|.
SIGMA_Z3 = np.diag([1.0, -1.0, 0.0]).astype(complex)


@dataclass(frozen=True)
class ChainLayout:
    """Mapping between N logical qubits and a chain of 2N-1 qutrits."""

    n_logical: int

    def __post_init__(self):
        n = _index(self.n_logical, "n_logical")
        if n < 1:
            raise ValueError(f"n_logical must be a positive integer, got {self.n_logical!r}")
        object.__setattr__(self, "n_logical", n)  # a numpy integer becomes an int, so dim cannot wrap

    @property
    def n_sites(self) -> int:
        return 2 * self.n_logical - 1

    @cached_property  # formed once: 3^n_sites takes seconds at 10^7 qubits; eq, hash and replace read fields only
    def dim(self) -> int:
        return 3 ** self.n_sites

    @property
    def logical_dim(self) -> int:
        return 1 << self.n_logical

    def site_of_qubit(self, qubit: int) -> int:
        """Chain site hosting logical qubit l (1-based): site 2l-1."""
        qubit = _index(qubit, "qubit")
        if not 1 <= qubit <= self.n_logical:
            raise ValueError(f"qubit {qubit} out of range 1..{self.n_logical}")
        return 2 * qubit - 1

    def sites_of_pair(self, pair: int) -> tuple[int, int, int]:
        """The three consecutive sites driven by the coupling on pair l'."""
        pair = _index(pair, "pair")
        if not 1 <= pair <= self.n_logical - 1:
            raise ValueError(f"pair {pair} out of range 1..{self.n_logical - 1}")
        left = 2 * pair - 1
        return (left, left + 1, left + 2)

    def logical_index(self, bits) -> int:
        """Global index of the chain basis state |n1 0 n2 0 ... nN>.  Each bit is read as ``_index`` reads
        an index, so a float or a bool is refused rather than truncated."""
        bits = tuple(bits)
        try:
            digits = [_index(b, "bit") for b in bits]
        except ValueError:
            digits = []  # refused below, as any other bad bits are
        if len(digits) != self.n_logical or any(d not in (0, 1) for d in digits):
            raise ValueError(f"bits must be {self.n_logical} values in {{0,1}}, got {bits}")
        # qubit q weighs 9^(N - q) (see logical_indices): the bits are the index's base-9 digits
        return int("".join(map(str, digits)), 9)

    def logical_indices(self) -> list[int]:
        """Global indices of all 2^N logical states, lexicographic in n1..nN."""
        # qubit q is bit N - q of the state's number and weighs 3^(n_sites - site) = 9^(N - q);
        # indices past int64 (N > 20) stay exact as Python ints
        shifts = np.arange(self.n_logical - 1, -1, -1, dtype=np.int64 if self.dim < 2**63 else object)
        bits = (np.arange(self.logical_dim, dtype=shifts.dtype)[:, None] >> shifts) & 1
        return (bits @ 9 ** shifts).tolist()


def _index(value, name: str) -> int:
    """``value`` as an int, read through ``operator.index``; a bool or a non-integer is refused by value."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def embed(op, start_site: int, layout: ChainLayout) -> np.ndarray:
    """Tensor-embed ``op`` (acting on contiguous sites) into the full chain.

    ``op`` must act on m = log3(dim) consecutive sites beginning at
    ``start_site`` (1-based); identities fill the remaining sites
    (``linalg.embed_factor``).  A stack (..., 3^m, 3^m) gives the stack of
    embeddings, bit for bit the per-member results.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim < 2 or op.shape[-1] != op.shape[-2]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    size = op.shape[-1]
    m = round(np.log(size) / np.log(3))
    if 3 ** m != size:
        raise ValueError(f"operator dimension {size} is not a power of 3")
    if start_site < 1 or start_site + m - 1 > layout.n_sites:
        raise ValueError(
            f"sites {start_site}..{start_site + m - 1} out of range 1..{layout.n_sites}"
        )
    return embed_factor(op, 3 ** (start_site - 1), 3 ** (layout.n_sites - (start_site + m - 1)))


def _bright(theta, phi):
    """(s, c, x, y) = (sin(t/2), cos(t/2), s cos(p), s sin(p)) for angle numbers or arrays.

    The drive couples |e> to the bright state |w> = (x - i y)|0> - c|1> alone: its block is
    |e><w| + |w><e|, whose square is |e><e| + |w><w|.
    """
    half = 0.5 * theta
    s = np.sin(half)
    return s, np.cos(half), s * np.cos(phi), s * np.sin(phi)


def _written(shape: tuple, size: int, entries) -> np.ndarray:
    """The complex stack ``shape`` + (size, size) that is zero but for ``entries``, (row, column, part, value) with
    part 0 the real and 1 the imaginary part; each value broadcasts over the stack axes."""
    out = np.zeros(shape + (size, size, 2))
    for row, col, part, value in entries:
        out[..., row, col, part] = value
    return out.view(complex)[..., 0]


def lambda_coupling(theta, phi) -> np.ndarray:
    """Local 3x3 two-field coupling sin(t/2)e^{i p}|e><0| - cos(t/2)|e><1| + h.c.

    The two lower levels couple to |e> with relative amplitude -tan(theta/2)
    and relative phase phi; the {|0>,|1>} block is exactly zero, and the
    nonzero spectrum is {+1, -1} for every (theta, phi) since the coupling
    vector has unit norm.  Array angles broadcast: the result is a stack of
    shape (..., 3, 3), and numbers give one 3x3 block.  Its four nonzero
    entries are the bright state's amplitudes (``_bright``).
    """
    if not (finite(theta) and finite(phi)):
        raise ValueError("theta and phi must be finite")
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    _, c, x, y = _bright(theta, phi)
    return _written(np.broadcast_shapes(theta.shape, phi.shape), 3,
                    [(0, 2, 0, x), (0, 2, 1, -y), (2, 0, 0, x), (2, 0, 1, y), (1, 2, 0, -c), (2, 1, 0, -c)])


def lambda_propagator(theta, phi, area) -> np.ndarray:
    """exp(-i a H) of ``lambda_coupling(theta, phi)`` at area a, written entry by entry.

    It is 1 - i sin(a) H + (cos(a) - 1) H^2 with H = |e><w| + |w><e| and
    H^2 = |e><e| + |w><w| (``_bright``).  Angles and areas broadcast into a
    stack (..., 3, 3) as in ``lambda_coupling``; they are taken as checked.
    """
    theta, phi, area = (np.asarray(v, dtype=float) for v in (theta, phi, area))
    s, c, x, y = _bright(theta, phi)
    sin_a, cos_a = np.sin(area), np.cos(area)
    cos_m1 = cos_a - 1.0
    k = cos_m1 * c  # (cos(a) - 1) times the |1> amplitude of |w>, whose sign the entries carry
    kx, ky, sx, sy, sc = k * x, k * y, sin_a * x, sin_a * y, sin_a * c
    return _written(np.broadcast_shapes(theta.shape, phi.shape, area.shape), 3, [
        (0, 0, 0, 1.0 + cos_m1 * (s * s)), (1, 1, 0, 1.0 + cos_m1 * (c * c)), (2, 2, 0, cos_a),
        (0, 1, 0, -kx), (0, 1, 1, ky), (1, 0, 0, -kx), (1, 0, 1, -ky),
        (0, 2, 0, -sy), (0, 2, 1, -sx), (2, 0, 0, sy), (2, 0, 1, -sx), (1, 2, 1, sc), (2, 1, 1, sc)])


def h1(site: int, theta: float, phi: float, layout: ChainLayout) -> np.ndarray:
    """Full-chain one-qubit drive Hamiltonian at an odd (logical) site."""
    if not 1 <= site <= layout.n_sites:
        raise ValueError(f"site {site} out of range 1..{layout.n_sites}")
    if site % 2 == 0:
        raise ValueError(f"site {site} is auxiliary; one-qubit drives address odd sites only")
    return embed(lambda_coupling(theta, phi), site, layout)


# Qubit-subspace hopping between two neighboring qutrits, (lam6 lam6 + lam7 lam7)/2 = |01><10| + |10><01|,
# zero on any |e> component: on their qubit sector {|00>, |01>, |10>, |11>} it has these two entries.
_HOP2 = np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=np.int64)

# The three-site coupling is zero off its qubit sector, the 8 states with every site in |0> or |1>: so
# every |e>-carrying configuration of the block is annihilated, not merely decoupled from the
# computational states.  Sector state 4a + 2b + c, for site values (a, b, c), is state 9a + 3b + c of
# the 27.  On the sector the left bond L is the hop on sites 1 and 2 and the right bond R the hop on
# sites 2 and 3.  The tables are formed in integers, exactly, and with no BLAS call: (L, R, L^2, R^2,
# LR + RL), as H = -cos(v/2) L + sin(v/2) R squares to cos^2 L^2 + sin^2 R^2 - cos sin (LR + RL).
_L, _R = np.kron(_HOP2, np.eye(2, dtype=np.int64)), np.kron(np.eye(2, dtype=np.int64), _HOP2)
_XY_TABLES = tuple(t.astype(float) for t in (_L, _R, _L @ _L, _R @ _R, _L @ _R + _R @ _L))
_EYE8 = np.eye(8)


def _set_sector(parts: np.ndarray, part: int, block: np.ndarray) -> None:
    """Write the (..., 8, 8) ``block`` into the qubit-sector rows and columns of the real (``part`` 0) or
    imaginary (1) parts of a (..., 27, 27, 2) array: each index of 27 is read as three sites' values."""
    sector = parts.reshape(parts.shape[:-3] + (3,) * 6 + (2,))[(..., *(slice(2),) * 6, part)]
    sector[...] = block.reshape(block.shape[:-2] + (2,) * 6)


def xy_coupling(vartheta) -> np.ndarray:
    """Local 27x27 three-site XY coupling: -cos(v/2) left bond + sin(v/2) right bond.

    Commutes with the block pseudo-spin S_z, annihilates every basis state
    carrying |e> on any of the three sites, and, like ``lambda_coupling``,
    has spectrum in {-1, 0, +1} for every vartheta.  An array of angles gives
    a stack of shape (..., 27, 27).  Its eight nonzero entries, -cos(v/2) on
    the left bond's and sin(v/2) on the right bond's, are written by index
    into a fill of (-cos(v/2)) * 0.0 + sin(v/2) * 0.0, the zero whose sign
    the sum of the bonds gives every other entry, so each entry has the bits
    of the full 27 x 27 sum.
    """
    if not finite(vartheta):
        raise ValueError("vartheta must be finite")
    half = 0.5 * np.asarray(vartheta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    out = np.empty(half.shape + (27, 27, 2))
    out[..., 0], out[..., 1] = ((-c) * 0.0 + s * 0.0)[..., None, None], 0.0
    # the left bond swaps site 1 and 2 values 01 <-> 10, the right bond sites 2 and 3 (index 9a + 3b + c)
    for row, col in ((3, 9), (9, 3), (4, 10), (10, 4)):
        out[..., row, col, 0] = -c
    for row, col in ((1, 3), (3, 1), (10, 12), (12, 10)):
        out[..., row, col, 0] = s
    return out.view(complex)[..., 0]


def xy_propagator(vartheta, area) -> np.ndarray:
    """exp(-i a H) of ``xy_coupling(vartheta)`` at area a: the 27 x 27 identity with its qubit-sector block set.

    The block is 1 - i sin(a) H + (cos(a) - 1) H^2, with H and H^2 summed
    from the bond tables element-wise in a fixed order.  Angles and areas
    broadcast into a stack (..., 27, 27); they are taken as checked.
    """
    half, area = 0.5 * np.asarray(vartheta, dtype=float), np.asarray(area, dtype=float)
    c, s, sin_a, cos_m1 = np.cos(half), np.sin(half), np.sin(area), np.cos(area) - 1.0
    if half.ndim:  # arrays index the stack axes, ahead of the matrix axes
        c, s = c[..., None, None], s[..., None, None]
    if area.ndim:
        sin_a, cos_m1 = sin_a[..., None, None], cos_m1[..., None, None]
    L, R, L2, R2, LR = _XY_TABLES
    square = (c * c) * L2 + (s * s) * R2 - (c * s) * LR
    shape = np.broadcast_shapes(half.shape, area.shape)
    out = np.zeros(shape + (27, 27, 2))
    out.reshape(shape + (-1,))[..., ::56] = 1.0  # the identity: a real 1 every 27 + 1 complex entries
    _set_sector(out, 0, _EYE8 + cos_m1 * square)
    _set_sector(out, 1, sin_a * (c * L - s * R))
    return out.view(complex)[..., 0]


def h3(pair: int, vartheta: float, layout: ChainLayout) -> np.ndarray:
    """Full-chain XY Hamiltonian of pair l': ``xy_coupling`` on sites 2l'-1, 2l', 2l'+1."""
    return embed(xy_coupling(vartheta), layout.sites_of_pair(pair)[0], layout)


def block_sz(pair: int, layout: ChainLayout) -> np.ndarray:
    """Embedded total pseudo-spin S_z = (sz + sz + sz)/2 over a pair's three sites."""
    sites = layout.sites_of_pair(pair)
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for site in sites:
        out += 0.5 * embed(SIGMA_Z3, site, layout)
    return out


def logical_encode(bits, layout: ChainLayout) -> np.ndarray:
    """Chain basis state with qubit values on odd sites and |0> elsewhere."""
    psi = np.zeros(layout.dim, dtype=complex)
    psi[layout.logical_index(bits)] = 1.0
    return psi


def check_columns(what: str, layout: ChainLayout, columns: int) -> None:
    """``check_memory`` for ``columns`` complex vectors of the chain, 16 * columns * 3^n_sites bytes; a
    chain past any memory is refused from n_sites alone (``power_bytes``)."""
    check_memory(what, power_bytes(what, 16 * columns, 3, layout.n_sites))


def logical_frame(layout: ChainLayout) -> np.ndarray:
    """The dim x 2^N frame whose columns are the logical basis states, lexicographic in n1..nN."""
    check_columns(f"the logical frame at N={layout.n_logical}", layout, layout.logical_dim)
    frame = np.zeros((layout.dim, layout.logical_dim), dtype=complex)
    frame[layout.logical_indices(), np.arange(layout.logical_dim)] = 1.0
    return frame
