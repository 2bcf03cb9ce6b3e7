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
number is a batch with no leading axes and gives one block.  ``embed``
takes a stack of operators too; ``h1``, ``h3`` and ``block_sz`` build
single full-chain operators.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import check_memory, embed_factor, finite, power_bytes

__all__ = [
    "SIGMA_Z3",
    "ChainLayout",
    "embed",
    "lambda_coupling",
    "xy_coupling",
    "h1",
    "h3",
    "block_sz",
    "logical_encode",
    "logical_frame",
    "check_columns",
]

# The five generators actually used by the chain Hamiltonian, in the local
# basis order (|0>, |1>, |e>).  Indices 3, 5, 8 are deliberately absent:
# nothing in the model drives them, and omitting them prevents silent misuse.
_KET0, _KET1, _KETE = np.eye(3, dtype=complex)

_GELL_MANN = {
    1: np.outer(_KETE, _KET0) + np.outer(_KET0, _KETE),
    2: -1j * np.outer(_KETE, _KET0) + 1j * np.outer(_KET0, _KETE),
    4: np.outer(_KETE, _KET1) + np.outer(_KET1, _KETE),
    6: np.outer(_KET0, _KET1) + np.outer(_KET1, _KET0),
    7: -1j * np.outer(_KET0, _KET1) + 1j * np.outer(_KET1, _KET0),
}

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


def lambda_coupling(theta, phi) -> np.ndarray:
    """Local 3x3 two-field coupling sin(t/2)e^{i p}|e><0| - cos(t/2)|e><1| + h.c.

    The two lower levels couple to |e> with relative amplitude -tan(theta/2)
    and relative phase phi; the {|0>,|1>} block is exactly zero, and the
    nonzero spectrum is {+1, -1} for every (theta, phi) since the coupling
    vector has unit norm.  Array angles broadcast: the result is a stack of
    shape (..., 3, 3), and numbers give one 3x3 block.
    """
    if not (finite(theta) and finite(phi)):
        raise ValueError("theta and phi must be finite")
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    half = 0.5 * theta
    if theta.ndim or phi.ndim:  # arrays of angles index the stack axes, ahead of the matrix axes
        half, phi = half[..., None, None], phi[..., None, None]
    return (
        np.sin(half) * (np.cos(phi) * _GELL_MANN[1] - np.sin(phi) * _GELL_MANN[2])
        - np.cos(half) * _GELL_MANN[4]
    )


def h1(site: int, theta: float, phi: float, layout: ChainLayout) -> np.ndarray:
    """Full-chain one-qubit drive Hamiltonian at an odd (logical) site."""
    if not 1 <= site <= layout.n_sites:
        raise ValueError(f"site {site} out of range 1..{layout.n_sites}")
    if site % 2 == 0:
        raise ValueError(f"site {site} is auxiliary; one-qubit drives address odd sites only")
    return embed(lambda_coupling(theta, phi), site, layout)


# Qubit-subspace hopping between two neighboring qutrits:
# (lam6 lam6 + lam7 lam7)/2 = |01><10| + |10><01|, zero on any |e| component.
_HOP = 0.5 * (
    np.kron(_GELL_MANN[6], _GELL_MANN[6]) + np.kron(_GELL_MANN[7], _GELL_MANN[7])
)

# Qubit-sector projector of one qutrit.  The three-site coupling carries it
# on the bystander site of each bond so that every |e>-carrying
# configuration of the block is annihilated, not merely decoupled from the
# computational states; the action on the qubit sector is unchanged.
_QUBIT = np.diag([1.0, 1.0, 0.0]).astype(complex)
_LEFT_BOND = np.kron(_HOP, _QUBIT)
_RIGHT_BOND = np.kron(_QUBIT, _HOP)


def xy_coupling(vartheta) -> np.ndarray:
    """Local 27x27 three-site XY coupling: -cos(v/2) left bond + sin(v/2) right bond.

    Commutes with the block pseudo-spin S_z, annihilates every basis state
    carrying |e> on any of the three sites, and, like ``lambda_coupling``,
    has spectrum in {-1, 0, +1} for every vartheta.  An array of angles gives
    a stack of shape (..., 27, 27).
    """
    if not finite(vartheta):
        raise ValueError("vartheta must be finite")
    half = 0.5 * np.asarray(vartheta, dtype=float)
    if half.ndim:  # an array of angles indexes the stack axes, ahead of the matrix axes
        half = half[..., None, None]
    return -np.cos(half) * _LEFT_BOND + np.sin(half) * _RIGHT_BOND


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
