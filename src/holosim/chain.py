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
number is a batch with no leading axes and gives one block.  Both are built
from one three-level loop, the Λ block H = |e><w| + |w><e| on levels
(e, i, j) with a unit |w> = w_i|i> + w_j|j>: the drive is one, on
(|e>, |0>, |1>) over its bright state, and the coupling two, on its qubit
sector (``_XY_LEVELS``) over w = (-cos(v/2), sin(v/2)).  H^3 = H, so
exp(-i a H) = 1 - i sin(a) H + (cos(a) - 1)(|e><e| + |w><w|), and
``lambda_propagator`` and ``xy_propagator`` write that exponential entry by
entry from w, as the blocks are written (``_lambda``; no Gell-Mann
generator is built).  No block, separate identity or matrix product is
formed on the way, and a batch runs the same element-wise operations as a
single pulse, so each member has the single pulse's bits.
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
    start_site = _index(start_site, "start_site")
    if start_site < 1 or start_site + m - 1 > layout.n_sites:
        raise ValueError(
            f"sites {start_site}..{start_site + m - 1} out of range 1..{layout.n_sites}"
        )
    return embed_factor(op, 3 ** (start_site - 1), 3 ** (layout.n_sites - (start_site + m - 1)))


def _bright(theta, phi):
    """The drive's bright state w = (w_0, w_1) = (sin(t/2) e^{-i p}, -cos(t/2)), as ``_lambda`` takes it: w_0 as
    (|w_0|, Re w_0, Im w_0), for angle numbers or arrays.

    The drive couples |e> to |w> = w_0|0> + w_1|1> alone: its block is the Λ block |e><w| + |w><e|.
    """
    half = 0.5 * theta
    s = np.sin(half)
    return (s, s * np.cos(phi), -(s * np.sin(phi))), -np.cos(half)


def _lambda(levels, w, trig=None) -> list:
    """The (row, column, part, value) entries of a Λ block on the levels (e, i, j), as ``_written`` takes them.

    Without ``trig`` they are those of H = |e><w| + |w><e| for the unit |w> = w_i|i> + w_j|j>; with ``trig`` =
    (sin(a), cos(a)) those of exp(-i a H) = 1 - i sin(a) H + (cos(a) - 1)(|e><e| + |w><w|), as H^2 = |e><e| +
    |w><w|.  ``w`` = (w_i, w_j) with w_j real; w_i is real too or, if complex, the triple (|w_i|, Re w_i, Im w_i),
    so that |w_i|^2 is the square of the modulus it was formed from.  Values are numbers or arrays over the stack
    axes; an entry not listed is zero.
    """
    e, i, j = levels
    w_i, w_j = w
    mod, re, im = w_i if isinstance(w_i, tuple) else (w_i, w_i, None)
    if trig is None:
        entries = [(i, e, 0, re), (e, i, 0, re), (j, e, 0, w_j), (e, j, 0, w_j)]
        if im is not None:
            entries += [(i, e, 1, im), (e, i, 1, -im)]
        return entries
    sin_a, cos_a = trig
    cos_m1 = cos_a - 1.0
    k = cos_m1 * w_j  # the |w><w| entries (i, j) and (j, i) are k w_i and its conjugate
    k_re, sin_re, sin_j = k * re, -(sin_a * re), -(sin_a * w_j)
    entries = [(e, e, 0, cos_a), (i, i, 0, 1.0 + cos_m1 * (mod * mod)), (j, j, 0, 1.0 + cos_m1 * (w_j * w_j)),
               (i, j, 0, k_re), (j, i, 0, k_re), (i, e, 1, sin_re), (e, i, 1, sin_re), (j, e, 1, sin_j),
               (e, j, 1, sin_j)]
    if im is not None:
        k_im, sin_im = k * im, sin_a * im
        entries += [(i, e, 0, sin_im), (e, i, 0, -sin_im), (i, j, 1, k_im), (j, i, 1, -k_im)]
    return entries


def _written(shape: tuple, size: int, entries, base=None) -> np.ndarray:
    """The complex stack ``shape`` + (size, size) that is zero, or has the real part ``base`` (an array broadcasting
    to the stack), but for ``entries``, (row, column, part, value) with part 0 the real and 1 the imaginary part;
    each value broadcasts over the stack axes."""
    out = np.zeros(shape + (size, size, 2))
    if base is not None:
        out[..., 0] = base
    for row, col, part, value in entries:
        out[..., row, col, part] = value
    return out.view(complex)[..., 0]


def lambda_coupling(theta, phi) -> np.ndarray:
    """Local 3x3 two-field coupling sin(t/2)e^{i p}|e><0| - cos(t/2)|e><1| + h.c.

    The two lower levels couple to |e> with relative amplitude -tan(theta/2)
    and relative phase phi; the {|0>,|1>} block is exactly zero, and the
    nonzero spectrum is {+1, -1} for every (theta, phi) since the coupling
    vector has unit norm.  Array angles broadcast: the result is a stack of
    shape (..., 3, 3), and numbers give one 3x3 block.  It is the Λ block on
    the levels (|e>, |0>, |1>) of the bright state (``_bright``).
    """
    if not (finite(theta) and finite(phi)):
        raise ValueError("theta and phi must be finite")
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    return _written(np.broadcast(theta, phi).shape, 3, _lambda((2, 0, 1), _bright(theta, phi)))


def lambda_propagator(theta, phi, area) -> np.ndarray:
    """exp(-i a H) of ``lambda_coupling(theta, phi)`` at area a, written entry by entry (``_lambda``).

    Angles and areas broadcast into a stack (..., 3, 3) as in
    ``lambda_coupling``; they are taken as checked.
    """
    theta, phi, area = (np.asarray(v, dtype=float) for v in (theta, phi, area))
    return _written(np.broadcast(theta, phi, area).shape, 3,
                    _lambda((2, 0, 1), _bright(theta, phi), (np.sin(area), np.cos(area))))


def h1(site: int, theta: float, phi: float, layout: ChainLayout) -> np.ndarray:
    """Full-chain one-qubit drive Hamiltonian at an odd (logical) site."""
    site = _index(site, "site")
    if not 1 <= site <= layout.n_sites:
        raise ValueError(f"site {site} out of range 1..{layout.n_sites}")
    if site % 2 == 0:
        raise ValueError(f"site {site} is auxiliary; one-qubit drives address odd sites only")
    return embed(lambda_coupling(theta, phi), site, layout)


# The three-site coupling H = -cos(v/2) L + sin(v/2) R, L and R the qubit-subspace hops |01><10| + |10><01| of
# sites (1, 2) and (2, 3), is zero off its qubit sector, the 8 states with every site in |0> or |1>: every
# |e>-carrying configuration is annihilated.  On the sector it is two Λ blocks over w = (-cos(v/2), sin(v/2)),
# one per sector of one or two |1>s: apex |010> over |100> and |001>, and apex |101> over |011> and |110>.  State
# (a, b, c) of the three sites is index 9a + 3b + c of the 27.
_XY_LEVELS = ((3, 9, 1), (10, 4, 12))


def xy_coupling(vartheta) -> np.ndarray:
    """Local 27x27 three-site XY coupling: -cos(v/2) left bond + sin(v/2) right bond.

    Commutes with the block pseudo-spin S_z, annihilates every basis state
    carrying |e> on any of the three sites, and, like ``lambda_coupling``,
    has spectrum in {-1, 0, +1} for every vartheta.  An array of angles gives
    a stack of shape (..., 27, 27).  It is the two Λ blocks on the level
    triples ``_XY_LEVELS``, written over a real fill of (-cos(v/2)) * 0.0 +
    sin(v/2) * 0.0, the zero whose sign the sum of the bonds gives every
    other entry, so each entry has the bits of the full 27 x 27 sum.
    """
    if not finite(vartheta):
        raise ValueError("vartheta must be finite")
    half = 0.5 * np.asarray(vartheta, dtype=float)
    minus_c, s = -np.cos(half), np.sin(half)
    return _written(half.shape, 27, [entry for levels in _XY_LEVELS for entry in _lambda(levels, (minus_c, s))],
                    (minus_c * 0.0 + s * 0.0)[..., None, None])


def xy_propagator(vartheta, area) -> np.ndarray:
    """exp(-i a H) of ``xy_coupling(vartheta)`` at area a: the 27 x 27 identity with its two Λ blocks' exponentials.

    Each block is written entry by entry (``_lambda``) on its level triple
    (``_XY_LEVELS``), and the identity stands everywhere else, on |000>,
    |111> and every |e>-carrying state.  Angles and areas broadcast into a
    stack (..., 27, 27); they are taken as checked.
    """
    half, area = 0.5 * np.asarray(vartheta, dtype=float), np.asarray(area, dtype=float)
    w, trig = (-np.cos(half), np.sin(half)), (np.sin(area), np.cos(area))
    return _written(np.broadcast(half, area).shape, 27,
                    [entry for levels in _XY_LEVELS for entry in _lambda(levels, w, trig)], np.eye(27))


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
