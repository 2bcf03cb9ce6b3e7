"""Chain layout, local operators and Hamiltonian builders.

The register is a linear chain of 2N-1 three-level systems.  Odd sites
1, 3, ..., 2N-1 carry the N logical qubits in their {|0>, |1>} subspaces;
even sites are auxiliary and idle in |0> between two-qubit operations.

An auxiliary site is driven only by the XY coupling, which acts only on its
qubit sector, so no schedule ever populates an auxiliary |e>: the reachable
states have every auxiliary site in |0> or |1>, and span 3^N 2^(N-1) of the
chain's 3^(2N-1) dimensions (3.4x fewer at N = 4, 11.4x at N = 7).  States
and columns are propagated in that reachable space alone.

Basis conventions (fixed once, everything downstream depends on them):

* local codes |0> -> 0, |1> -> 1, |e> -> 2;
* the reachable space is mixed radix: site i has ``site_dims[i - 1]`` = 3
  levels on a logical site and 2 on an auxiliary one, and the index is
  sum_i code(site i) * (product of the dimensions of the sites after i),
  site 1 most significant, so logical qubit q weighs 6^(N - q)
  (``ChainLayout.logical_rows``);
* the full three-level chain, which the dense references ``embed``, ``h1``,
  ``h3`` and ``block_sz`` build, has the index sum_i code(site i) *
  3**(n_sites - i) (plain ``np.kron`` order with site 1 leftmost), in which
  qubit q weighs 9^(N - q) (``ChainLayout.logical_indices``);
* one isometry connects them: ``full_chain_rows`` gives the full-chain
  index of each reachable state, and ``lifted`` takes a local block of the
  reachable space to the three-level states of its sites.

A pulse's local block is made of Λ systems, three-level loops in which |e>
couples to one bright state: the block H = |e><w| + |w><e| on levels
(e, i, j) with a unit |w> = w_i|i> + w_j|j>.  The drive is one, on
(|e>, |0>, |1>) over its bright state (``_drive_lambdas``), and the coupling
two, on its qubit sector (``_XY_LEVELS``, levels of its 18 reachable states)
over w = (-cos(v/2), sin(v/2)) (``_xy_lambdas``).  One writer, ``_written``,
turns a pulse's systems into its block, a stack (..., d, d) with the angles'
leading axes (a number is a batch with no leading axes and gives one block),
or into its propagator: H^3 = H, so exp(-i a H) = 1 - i sin(a) H + (cos(a) -
1)(|e><e| + |w><w|), written entry by entry from w (``_lambda``; no Gell-Mann
generator is built), with the identity off the systems' levels.  No block,
separate identity or matrix product is formed on the way, and a batch runs
the same element-wise operations as a single pulse, so each member has the
single pulse's bits.  ``embed`` takes a stack of operators too; ``h1``,
``h3`` and ``block_sz`` build single full-chain operators.
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
    "h1",
    "h3",
    "block_sz",
    "logical_encode",
    "logical_frame",
    "check_columns",
    "full_chain_rows",
    "lifted",
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

    @property
    def site_dims(self) -> tuple[int, ...]:
        """The local dimension of each site of the reachable space, site 1 first: 3 on a logical site, 2 on an
        auxiliary one, whose |e> no schedule populates."""
        return (3, 2) * (self.n_logical - 1) + (3,)

    @cached_property  # formed once: 6^(N-1) takes seconds at 10^7 qubits; eq, hash and replace read fields only
    def dim(self) -> int:
        """The dimension 3^N 2^(N-1) of the reachable space, the rows of every propagated state and column."""
        return 3 * 6 ** (self.n_logical - 1)

    @cached_property
    def full_dim(self) -> int:
        """The dimension 3^(2N-1) of the full three-level chain, the size of the dense references."""
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
        """Full-chain index of the basis state |n1 0 n2 0 ... nN>: its bits read in base 9 (see
        ``logical_indices``).  Each bit is read as ``_index`` reads an index, so a float or a bool is refused
        rather than truncated."""
        return int(self._digits(bits), 9)

    def logical_row(self, bits) -> int:
        """Reachable-space index of the basis state |n1 0 n2 0 ... nN>: its bits read in base 6 (see
        ``logical_rows``), refused as ``logical_index`` refuses them."""
        return int(self._digits(bits), 6)

    def _digits(self, bits) -> str:
        bits = tuple(bits)
        try:
            digits = [_index(b, "bit") for b in bits]
        except ValueError:
            digits = []  # refused below, as any other bad bits are
        if len(digits) != self.n_logical or any(d not in (0, 1) for d in digits):
            raise ValueError(f"bits must be {self.n_logical} values in {{0,1}}, got {bits}")
        return "".join(map(str, digits))

    def logical_indices(self) -> list[int]:
        """Full-chain indices of all 2^N logical states, lexicographic in n1..nN: qubit q weighs
        3^(n_sites - site) = 9^(N - q).  The rows of the logical states in a dense reference."""
        return self._logical_numbers(9, self.full_dim)

    def logical_rows(self) -> list[int]:
        """Reachable-space indices of all 2^N logical states, lexicographic in n1..nN: qubit q weighs the
        dimensions of the 2(N - q) sites after it, 6^(N - q).  The rows of the logical states in propagated
        columns."""
        return self._logical_numbers(6, self.dim)

    def _logical_numbers(self, base: int, dim: int) -> list[int]:
        # qubit q is bit N - q of the state's number and weighs base^(N - q); indices past int64 stay exact
        # as Python ints
        shifts = np.arange(self.n_logical - 1, -1, -1, dtype=np.int64 if dim < 2**63 else object)
        bits = (np.arange(self.logical_dim, dtype=shifts.dtype)[:, None] >> shifts) & 1
        return (bits @ base ** shifts).tolist()


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


def _drive_lambdas(theta, phi) -> tuple:
    """The drive's one Λ system: levels (|e>, |0>, |1>) over its bright state w = (w_0, w_1) = (sin(t/2) e^{-i p},
    -cos(t/2)), w_0 as (|w_0|, Re w_0, Im w_0) (``_lambda``), for angle numbers or arrays.

    The drive sin(t/2) e^{i p}|e><0| - cos(t/2)|e><1| + h.c. couples |e> to |w> = w_0|0> + w_1|1> alone, with
    relative amplitude -tan(t/2) and relative phase p: its {|0>, |1>} block is exactly zero.
    """
    half = 0.5 * np.asarray(theta, dtype=float)
    s, phi = np.sin(half), np.asarray(phi, dtype=float)
    return (((2, 0, 1), ((s, s * np.cos(phi), -(s * np.sin(phi))), -np.cos(half))),)


# The three-site coupling H = -cos(v/2) L + sin(v/2) R, L and R the qubit-subspace hops |01><10| + |10><01| of
# sites (1, 2) and (2, 3), is zero off its qubit sector, the 8 states with every site in |0> or |1>: every
# |e>-carrying configuration is annihilated.  On the sector it is two Λ blocks over w = (-cos(v/2), sin(v/2)),
# one per sector of one or two |1>s: apex |010> over |100> and |001>, and apex |101> over |011> and |110>.  The
# block is written on the 18 reachable states of the three sites (logical, auxiliary, logical), in which state
# (a, b, c) is index 6a + 3b + c.
_XY_LEVELS = ((3, 6, 1), (7, 4, 9))


def _xy_lambdas(vartheta) -> tuple:
    """The XY coupling's two Λ systems, one per level triple of ``_XY_LEVELS``, over w = (-cos(v/2), sin(v/2)).

    The coupling commutes with the block pseudo-spin S_z and annihilates every basis state carrying |e> on any
    of its three sites.
    """
    half = 0.5 * np.asarray(vartheta, dtype=float)
    w = -np.cos(half), np.sin(half)
    return tuple((levels, w) for levels in _XY_LEVELS)


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


def _written(size: int, systems, area=None) -> np.ndarray:
    """The block H of the Λ ``systems``, (levels, w) pairs as ``_lambda`` takes them: a complex stack (..., size,
    size) that is zero off their entries.  With an ``area`` a it is exp(-i a H) instead, the identity off their
    levels.  The stack axes are those of the first system's Re w_i, which carries the axes of every w of the
    systems, and of the area, broadcast together; each member has the bits of its single block, as a batch runs
    the same element-wise operations.
    """
    w_i = systems[0][1][0]
    re = w_i[1] if isinstance(w_i, tuple) else w_i
    trig = None
    if area is None:
        shape = np.shape(re)
    else:
        area = np.asarray(area, dtype=float)
        trig, shape = (np.sin(area), np.cos(area)), np.broadcast(re, area).shape
    out = np.zeros(shape + (size, size, 2))
    if trig is not None and 3 * len(systems) < size:
        # the identity on the levels that no system lists (the triples are disjoint; each rewrites its own diagonal)
        out.reshape(shape + (-1,))[..., ::2 * size + 2] = 1.0  # the real part of every diagonal entry
    for levels, w in systems:
        for row, col, part, value in _lambda(levels, w, trig):
            out[..., row, col, part] = value
    return out.view(complex)[..., 0]


def h1(site: int, theta: float, phi: float, layout: ChainLayout) -> np.ndarray:
    """Full-chain one-qubit drive Hamiltonian at an odd (logical) site: the drive's Λ block, embedded."""
    site = _index(site, "site")
    if not 1 <= site <= layout.n_sites:
        raise ValueError(f"site {site} out of range 1..{layout.n_sites}")
    if site % 2 == 0:
        raise ValueError(f"site {site} is auxiliary; one-qubit drives address odd sites only")
    if not (finite(theta) and finite(phi)):
        raise ValueError("theta and phi must be finite")
    return embed(_written(3, _drive_lambdas(theta, phi)), site, layout)


def h3(pair: int, vartheta: float, layout: ChainLayout) -> np.ndarray:
    """Full-chain XY Hamiltonian of pair l': its two Λ blocks on sites 2l'-1, 2l', 2l'+1, embedded."""
    if not finite(vartheta):
        raise ValueError("vartheta must be finite")
    return embed(lifted(_written(18, _xy_lambdas(vartheta))), layout.sites_of_pair(pair)[0], layout)


def block_sz(pair: int, layout: ChainLayout) -> np.ndarray:
    """Embedded total pseudo-spin S_z = (sz + sz + sz)/2 over a pair's three sites."""
    sites = layout.sites_of_pair(pair)
    out = np.zeros((layout.full_dim, layout.full_dim), dtype=complex)
    for site in sites:
        out += 0.5 * embed(SIGMA_Z3, site, layout)
    return out


def logical_encode(bits, layout: ChainLayout) -> np.ndarray:
    """Reachable-space basis state with qubit values on odd sites and |0> elsewhere."""
    psi = np.zeros(layout.dim, dtype=complex)
    psi[layout.logical_row(bits)] = 1.0
    return psi


def check_columns(what: str, layout: ChainLayout, columns: int) -> None:
    """``check_memory`` for ``columns`` complex vectors of the reachable space, 16 * columns * 3^N 2^(N-1) =
    48 * columns * 6^(N-1) bytes; a chain past any memory is refused from N alone (``power_bytes``)."""
    check_memory(what, power_bytes(what, 48 * columns, 6, layout.n_logical - 1))


def logical_frame(layout: ChainLayout) -> np.ndarray:
    """The dim x 2^N frame of the reachable space whose columns are the logical basis states, lexicographic in
    n1..nN."""
    check_columns(f"the logical frame at N={layout.n_logical}", layout, layout.logical_dim)
    frame = np.zeros((layout.dim, layout.logical_dim), dtype=complex)
    frame[layout.logical_rows(), np.arange(layout.logical_dim)] = 1.0
    return frame


def full_chain_rows(layout: ChainLayout) -> np.ndarray:
    """The isometry from the reachable space into the full three-level chain: the full-chain index of each
    reachable basis state, in reachable order.  ``full[..., rows, :] = columns`` scatters reachable columns into
    the full chain, whose other rows, the states with an auxiliary |e>, they leave empty."""
    rows = np.zeros(1, dtype=np.int64)
    for d in layout.site_dims:
        rows = (3 * rows[:, None] + np.arange(d)).ravel()
    return rows


def lifted(block, fill: float = 0.0) -> np.ndarray:
    """A pulse's local block (..., d, d) on all three-level states of its sites: a one-site block as it is, and
    the XY block's 18 reachable states (``full_chain_rows`` of one pair) among the 27 of its three sites, with
    ``fill`` times the identity on the 9 that carry an auxiliary |e>: 0 for a Hamiltonian, which annihilates
    them, and 1 for a propagator, which fixes them."""
    if block.shape[-1] == 3:
        return block
    rows = full_chain_rows(ChainLayout(2))
    out = np.zeros(block.shape[:-2] + (27, 27), dtype=complex)
    out[..., np.arange(27), np.arange(27)] = fill
    out[..., rows[:, None], rows] = block
    return out
