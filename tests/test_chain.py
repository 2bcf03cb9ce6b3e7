from dataclasses import FrozenInstanceError, replace
from itertools import product

import numpy as np
import pytest

from holosim.chain import (
    ChainLayout,
    block_sz,
    embed,
    h1,
    h3,
    full_chain_rows,
    lifted,
    logical_encode,
    logical_frame,
)
from holosim.compiler import Reflection, XYGate, circuit_unitary, compile_circuit
from holosim.holonomy import certify
from holosim.pulses import OneQubitPulse, ThreeSitePulse, local_form, run_schedule

from oracles import (_GELL_MANN, brute_embed, generator_lambda_coupling, generator_xy_coupling, kron_chain,
                     reachable_states, restricted)


def ket(i):
    v = np.zeros(3, dtype=complex)
    v[i] = 1.0
    return v


KET0, KET1, KETE = ket(0), ket(1), ket(2)


def drive_block(theta, phi):
    """The drive's 3 x 3 block (a stack for array angles), read through ``local_form``."""
    return local_form(OneQubitPulse(1, theta, phi), ChainLayout(1))[1]


def xy_block(vartheta):
    """The XY coupling's 18 x 18 block on the reachable states of its sites (a stack for array angles), read
    through ``local_form``."""
    return local_form(ThreeSitePulse(1, vartheta), ChainLayout(2))[1]


class TestGenerators:
    # the Gell-Mann table that the oracles build the drive and the XY hop from
    def test_explicit_matrices(self):
        expected = {
            1: np.outer(KETE, KET0) + np.outer(KET0, KETE),
            2: -1j * np.outer(KETE, KET0) + 1j * np.outer(KET0, KETE),
            4: np.outer(KETE, KET1) + np.outer(KET1, KETE),
            6: np.outer(KET0, KET1) + np.outer(KET1, KET0),
            7: -1j * np.outer(KET0, KET1) + 1j * np.outer(KET1, KET0),
        }
        assert sorted(_GELL_MANN) == sorted(expected)
        for index, want in expected.items():
            assert np.array_equal(_GELL_MANN[index], want)

    @pytest.mark.parametrize("index", [1, 2, 4, 6, 7])
    def test_hermitian_traceless(self, index):
        g = _GELL_MANN[index]
        assert np.array_equal(g, g.conj().T)
        assert np.trace(g) == 0

    def test_undriven_generators_are_absent(self):
        assert not {3, 5, 8} & set(_GELL_MANN)


class TestChainLayout:
    def test_sizes(self):
        for n in (1, 2, 3, 4):
            layout = ChainLayout(n)
            assert layout.n_sites == 2 * n - 1
            assert layout.site_dims == (3, 2) * (n - 1) + (3,)
            assert layout.dim == 3 ** n * 2 ** (n - 1) == int(np.prod(layout.site_dims))
            assert layout.full_dim == 3 ** (2 * n - 1)

    def test_invalid_sizes(self):
        for bad in (0, -1, 1.5):
            with pytest.raises(ValueError):
                ChainLayout(bad)

    def test_logical_index_examples(self):
        assert ChainLayout(2).logical_index([0, 0]) == 0
        # |1,0,1> -> 1*9 + 0*3 + 1
        assert ChainLayout(2).logical_index([1, 1]) == 10
        # |0,0,1,0,0> -> 3**2
        assert ChainLayout(3).logical_index([0, 1, 0]) == 9

    def test_logical_row_examples(self):
        # the mixed radix (3, 2, 3, ...): a site weighs the product of the dimensions after it
        assert ChainLayout(2).logical_row([0, 0]) == 0
        # |1,0,1> -> 1*6 + 0*3 + 1
        assert ChainLayout(2).logical_row([1, 1]) == 7
        # |0,0,1,0,0> -> 3*2
        assert ChainLayout(3).logical_row([0, 1, 0]) == 6
        with pytest.raises(ValueError, match="bits must be 2 values"):
            ChainLayout(2).logical_row([0, 2])

    def test_logical_indices_injective(self):
        layout = ChainLayout(3)
        for idx, dim in ((layout.logical_indices(), layout.full_dim), (layout.logical_rows(), layout.dim)):
            assert len(idx) == 8
            assert len(set(idx)) == 8
            assert all(0 <= i < dim for i in idx)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_the_isometry_maps_logical_rows_to_logical_indices(self, n):
        layout = ChainLayout(n)
        rows = full_chain_rows(layout)
        assert np.array_equal(rows, reachable_states(layout))
        assert rows[layout.logical_rows()].tolist() == layout.logical_indices()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_logical_indices_equal_the_per_state_indices(self, n):
        layout = ChainLayout(n)
        for idx, index in ((layout.logical_indices(), layout.logical_index), (layout.logical_rows(), layout.logical_row)):
            assert idx == [index(bits) for bits in product((0, 1), repeat=n)]
            assert all(type(i) is int for i in idx)

    def test_logical_indices_past_int64_are_python_ints(self):
        # from N = 21 on the chain dimension passes 2^63, and from N = 25 the reachable one; that route,
        # taken here at N = 3
        class Wide(ChainLayout):
            dim = full_dim = 2**63

        layout = Wide(3)
        for idx, index in ((layout.logical_indices(), layout.logical_index), (layout.logical_rows(), layout.logical_row)):
            assert idx == [index(bits) for bits in product((0, 1), repeat=3)]
            assert all(type(i) is int for i in idx)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            ChainLayout(2).logical_index([0, 2])
        with pytest.raises(ValueError):
            ChainLayout(2).logical_index([0])

    def test_bits_must_be_integers(self):
        # each bit is read as an index is: a float used to be truncated, so [1.7, 0] encoded |1 0 0> and
        # [0.5, 1] encoded |0 0 1>; a bool is refused as it is for an index
        layout = ChainLayout(2)
        for bad in ([1.7, 0], [0.5, 1], [1.0, 0], [np.float64(1.0), 0], [True, 0], [0, np.bool_(False)], ["1", 0]):
            with pytest.raises(ValueError, match=r"^bits must be 2 values in \{0,1\}, got \("):
                layout.logical_index(bad)
            with pytest.raises(ValueError, match="bits must be 2 values"):
                logical_encode(bad, layout)
        assert layout.logical_index([np.int64(1), np.uint8(1)]) == 10
        assert layout.logical_index(np.array([1, 0])) == 9

    def test_indices_must_be_integers(self):
        # a bool or a non-integer qubit, pair or size is refused by value wherever it enters; a float
        # qubit used to pass certify and fail inside numpy elsewhere, and True was one qubit
        assert ChainLayout(np.int64(3)) == ChainLayout(3) and type(ChainLayout(np.int64(3)).n_logical) is int
        for bad in (True, 3.0, "3"):
            with pytest.raises(ValueError) as err:
                ChainLayout(bad)
            assert str(err.value) == f"n_logical must be an integer, got {bad!r}"
        layout = ChainLayout(3)
        assert layout.site_of_qubit(np.int64(2)) == 3 and layout.sites_of_pair(np.uint8(2)) == (3, 4, 5)
        assert np.array_equal(h1(np.int64(3), 0.7, 0.2, layout), h1(3, 0.7, 0.2, layout))
        for bad in (1.5, np.float64(2.0), True):
            calls = {
                "qubit": [lambda: certify(OneQubitPulse(bad, 0.7, 0.2), layout),
                          lambda: run_schedule([OneQubitPulse(bad, 0.7, 0.2)], logical_frame(layout), layout),
                          lambda: compile_circuit([Reflection(bad, (1.0, 0.0, 0.0))], layout),
                          lambda: circuit_unitary([Reflection(bad, (1.0, 0.0, 0.0))], layout)],
                "pair": [lambda: certify(ThreeSitePulse(bad, 0.9), layout),
                         lambda: run_schedule([ThreeSitePulse(bad, 0.9)], logical_frame(layout), layout),
                         lambda: compile_circuit([XYGate(bad, 0.9)], layout),
                         lambda: circuit_unitary([XYGate(bad, 0.9)], layout)],
                "site": [lambda: h1(bad, 0.7, 0.2, layout)],  # a float failed inside numpy, and True was site 1
                "start_site": [lambda: embed(np.eye(3), bad, layout)],
            }
            for name, entries in calls.items():
                for call in entries:
                    with pytest.raises(ValueError) as err:
                        call()
                    assert str(err.value).endswith(f"{name} must be an integer, got {bad!r}"), str(err.value)

    def test_dim_is_formed_once(self):
        # 3 * 6^(N-1) is formed on the first read and kept: the same int object comes back
        layout = ChainLayout(200)
        assert layout.dim is layout.dim
        assert layout.dim == 3 ** 200 * 2 ** 199
        # the cached value is not a field: equality, hash, repr and replace read n_logical alone
        assert layout == ChainLayout(200) and hash(layout) == hash(ChainLayout(200))
        assert repr(layout) == "ChainLayout(n_logical=200)"
        assert replace(layout, n_logical=3).dim == 108 and replace(layout, n_logical=3) == ChainLayout(3)
        with pytest.raises(FrozenInstanceError):
            layout.n_logical = 3

    def test_site_maps(self):
        layout = ChainLayout(3)
        assert [layout.site_of_qubit(q) for q in (1, 2, 3)] == [1, 3, 5]
        assert layout.sites_of_pair(1) == (1, 2, 3)
        assert layout.sites_of_pair(2) == (3, 4, 5)
        with pytest.raises(ValueError):
            layout.site_of_qubit(4)
        with pytest.raises(ValueError):
            layout.sites_of_pair(3)


_SPECIAL = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 7.0, -7.0, 1e-300, -1e-300]


class TestCouplingsAgainstGenerators:
    """The blocks are Λ blocks, the drive's on (|e>, |0>, |1>) over its bright state and the coupling's two on
    its qubit sector; each keeps the numbers of the complex broadcast of its generators (oracles.py)."""

    def test_xy_block_has_the_values_and_nonzero_bits_of_its_bonds(self):
        # each nonzero real or imaginary part has the same bits; a zero may differ in sign, as the bond sum's
        # products of zeros gave either sign (equal as numbers, and lost in any matrix product)
        angles = np.concatenate([_SPECIAL, np.random.default_rng(60).uniform(-7, 7, 200)])
        # on the 18 reachable states of its sites; the bonds annihilate the 9 states with an auxiliary |e>
        rows = reachable_states(ChainLayout(2))
        for vt in [*angles, angles, angles.reshape(10, 21)[:, None, :3]]:
            bonds = generator_xy_coupling(vt)
            got, want = xy_block(vt), restricted(bonds, ChainLayout(2))
            assert got.shape == want.shape and np.array_equal(got, want)
            nonzero = want.view(float) != 0
            assert got.view(float)[nonzero].tobytes() == want.view(float)[nonzero].tobytes()
            assert np.array_equal(lifted(got), bonds)
            assert not np.delete(bonds, rows, axis=-1).any()

    def test_drive_block_has_the_values_and_nonzero_bits_of_its_generators(self):
        # each nonzero real or imaginary part has the same bits; a zero may differ in sign, as the broadcast's
        # products of zeros gave either sign (equal as numbers, and lost in any matrix product)
        angles = np.concatenate([_SPECIAL, np.random.default_rng(61).uniform(-7, 7, 30)])
        theta, phi = angles[:, None], angles
        for got, want in ((drive_block(theta, phi), generator_lambda_coupling(theta, phi)),
                          (np.array([[drive_block(t, p) for p in angles] for t in angles]),
                           generator_lambda_coupling(theta, phi))):
            assert got.shape == want.shape and np.array_equal(got, want)
            nonzero = want.view(float) != 0
            assert got.view(float)[nonzero].tobytes() == want.view(float)[nonzero].tobytes()


class TestEmbed:
    def test_least_significant_site_action(self):
        layout = ChainLayout(2)
        M = embed(np.outer(KET0, KET1) + np.outer(KET1, KET0), 3, layout)
        assert M[0, 1] == 1 and M[1, 0] == 1

    def test_identity_any_site(self):
        layout = ChainLayout(2)
        for site in (1, 2, 3):
            assert np.array_equal(embed(np.eye(3), site, layout), np.eye(27))

    def test_site1_exchange_blocks(self):
        M = embed(np.outer(KETE, KET1) + np.outer(KET1, KETE), 1, ChainLayout(2))
        for j in range(9):
            assert M[9 + j, 18 + j] == 1
            assert M[18 + j, 9 + j] == 1
        assert np.count_nonzero(M) == 18

    @pytest.mark.parametrize("site", [1, 2, 3])
    def test_against_brute_force_kron(self, site):
        rng = np.random.default_rng(site)
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        layout = ChainLayout(2)
        assert np.array_equal(embed(op, site, layout), brute_embed(op, site, layout.n_sites))

    def test_two_site_embedding(self):
        rng = np.random.default_rng(9)
        op = rng.normal(size=(9, 9))
        layout = ChainLayout(2)
        want = kron_chain([op.reshape(9, 9), np.eye(3)])
        assert np.array_equal(embed(op, 1, layout), want)

    @pytest.mark.parametrize("n_logical", [2, 3])
    @pytest.mark.parametrize("size", [3, 27])
    def test_stack_equals_per_member_embeddings(self, n_logical, size):
        layout = ChainLayout(n_logical)
        rng = np.random.default_rng(10 * n_logical + size)
        ops = rng.normal(size=(2, 3, size, size)) + 1j * rng.normal(size=(2, 3, size, size))
        last = layout.n_sites - (1 if size == 3 else 3) + 1
        for site in range(1, last + 1):
            stacked = embed(ops, site, layout)
            assert stacked.shape == (2, 3, layout.full_dim, layout.full_dim)
            for point in np.ndindex(2, 3):
                assert np.array_equal(stacked[point], embed(ops[point], site, layout))

    def test_non_square_and_non_matrix_rejected(self):
        layout = ChainLayout(2)
        for op in (np.zeros(3), np.zeros((2, 3, 9)), np.zeros((3, 9))):
            with pytest.raises(ValueError, match="must be square"):
                embed(op, 1, layout)
        with pytest.raises(ValueError, match="power of 3"):
            embed(np.zeros((2, 4, 4)), 1, layout)

    def test_out_of_range(self):
        layout = ChainLayout(2)
        with pytest.raises(ValueError, match="out of range"):
            embed(np.eye(3), 4, layout)
        with pytest.raises(ValueError, match="out of range"):
            embed(np.eye(9), 3, layout)


class TestOneQubitHamiltonian:
    def test_theta_zero_drives_only_level_one(self):
        want = -(np.outer(KETE, KET1) + np.outer(KET1, KETE))
        assert np.allclose(drive_block(0.0, 0.0), want, atol=1e-16)

    def test_theta_pi_drives_only_level_zero(self):
        want = np.outer(KETE, KET0) + np.outer(KET0, KETE)
        assert np.allclose(drive_block(np.pi, 0.0), want, atol=1e-15)

    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 5))
    @pytest.mark.parametrize("phi", np.linspace(0, 2 * np.pi, 4, endpoint=False))
    def test_spectrum_is_unit_lambda_system(self, theta, phi):
        evals = np.linalg.eigvalsh(drive_block(theta, phi))
        assert np.allclose(evals, [-1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("theta,phi", [(0.83, 2.1), (2.4, -0.7), (1.3, 4.4)])
    def test_matches_documented_coupling(self, theta, phi):
        # sin(t/2) e^{i p} |e><0| - cos(t/2) |e><1| + h.c.
        upper = (np.sin(theta / 2) * np.exp(1j * phi) * np.outer(KETE, KET0)
                 - np.cos(theta / 2) * np.outer(KETE, KET1))
        want = upper + upper.conj().T
        assert np.max(np.abs(drive_block(theta, phi) - want)) <= 1e-15

    def test_qubit_block_exactly_zero(self):
        H = drive_block(0.83, 2.1)
        assert np.all(H[:2, :2] == 0)

    def test_full_chain_vanishes_on_logical_states(self):
        layout = ChainLayout(2)
        H = h1(1, 0.83, 2.1, layout)
        idx = layout.logical_indices()
        assert np.all(H[np.ix_(idx, idx)] == 0)

    def test_hermitian(self):
        layout = ChainLayout(2)
        for theta, phi in [(0.3, 1.1), (2.9, 4.0)]:
            H = h1(3, theta, phi, layout)
            assert np.array_equal(H, H.conj().T)

    def test_even_site_rejected(self):
        with pytest.raises(ValueError, match="auxiliary"):
            h1(2, 0.0, 0.0, ChainLayout(2))

    def test_embedded_spectrum(self):
        layout = ChainLayout(2)
        evals = np.sort(np.linalg.eigvalsh(h1(1, 1.0, 0.5, layout)))
        want = np.concatenate([-np.ones(9), np.zeros(9), np.ones(9)])
        assert np.allclose(evals, want, atol=1e-12)


def basis_index(digits):
    """Global index of the chain product state with the given site codes."""
    index = 0
    for d in digits:
        index = 3 * index + d
    return index


class TestThreeSiteHamiltonian:
    def test_upper_block_structure(self):
        vt = 0.77
        H = h3(1, vt, ChainLayout(2))
        i100, i010, i001 = basis_index([1, 0, 0]), basis_index([0, 1, 0]), basis_index([0, 0, 1])
        assert H[i010, i001] == pytest.approx(np.sin(vt / 2), abs=1e-15)
        assert H[i010, i100] == pytest.approx(-np.cos(vt / 2), abs=1e-15)
        assert H[i001, i010] == pytest.approx(np.sin(vt / 2), abs=1e-15)
        assert H[i100, i010] == pytest.approx(-np.cos(vt / 2), abs=1e-15)
        assert H[i001, i100] == 0 and H[i100, i001] == 0

    def test_lower_block_structure(self):
        vt = 0.77
        H = h3(1, vt, ChainLayout(2))
        i011, i101, i110 = basis_index([0, 1, 1]), basis_index([1, 0, 1]), basis_index([1, 1, 0])
        assert H[i101, i110] == pytest.approx(np.sin(vt / 2), abs=1e-15)
        assert H[i101, i011] == pytest.approx(-np.cos(vt / 2), abs=1e-15)

    def test_polarized_states_annihilated(self):
        H = h3(1, 1.3, ChainLayout(2))
        for digits in ([0, 0, 0], [1, 1, 1]):
            assert np.all(H[:, basis_index(digits)] == 0)

    def test_excited_states_annihilated(self):
        H = h3(1, 1.3, ChainLayout(2))
        for j in range(27):
            digits = np.base_repr(j, base=3).zfill(3)
            if "2" in digits:
                assert np.all(H[:, j] == 0)
                assert np.all(H[j, :] == 0)

    def test_computational_block_exactly_zero(self):
        layout = ChainLayout(2)
        H = h3(1, 2.2, layout)
        idx = layout.logical_indices()
        assert np.all(H[np.ix_(idx, idx)] == 0)

    @pytest.mark.parametrize("vt", np.linspace(0, 2 * np.pi, 32, endpoint=False))
    def test_commutes_with_block_sz(self, vt):
        layout = ChainLayout(2)
        H = h3(1, vt, layout)
        sz = block_sz(1, layout)
        assert np.linalg.norm(H @ sz - sz @ H) < 1e-14

    def test_hermitian(self):
        H = h3(1, 0.9, ChainLayout(2))
        assert np.array_equal(H, H.conj().T)

    def test_pair_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            h3(2, 0.5, ChainLayout(2))
        with pytest.raises(ValueError, match="out of range"):
            h3(1, 0.5, ChainLayout(1))

    def test_second_pair_placement(self):
        layout = ChainLayout(3)
        H = h3(2, 0.4, layout)
        # acts on sites 3,4,5 only: embedding on sites 1,2 is identity-like (zero coupling)
        idx_100 = basis_index([0, 0, 1, 0, 0])
        idx_010 = basis_index([0, 0, 0, 1, 0])
        assert H[idx_010, idx_100] == pytest.approx(-np.cos(0.2), abs=1e-15)


class TestLogicalEncode:
    def test_examples(self):
        layout = ChainLayout(2)
        assert np.argmax(np.abs(logical_encode([0, 0], layout))) == 0
        assert np.argmax(np.abs(logical_encode([1, 1], layout))) == 7
        assert np.argmax(np.abs(logical_encode([0, 1, 0], ChainLayout(3)))) == 6

    def test_orthonormal_family(self):
        layout = ChainLayout(3)
        from itertools import product

        states = [logical_encode(bits, layout) for bits in product((0, 1), repeat=3)]
        G = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.array_equal(G, np.eye(8))

