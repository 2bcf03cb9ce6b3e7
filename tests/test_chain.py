import numpy as np
import pytest

from holosim.chain import (
    ChainLayout,
    block_sz,
    embed,
    gell_mann,
    h1,
    h3,
    lambda_coupling,
    logical_encode,
)

from oracles import brute_embed, kron_chain


def ket(i):
    v = np.zeros(3, dtype=complex)
    v[i] = 1.0
    return v


KET0, KET1, KETE = ket(0), ket(1), ket(2)


class TestGellMann:
    def test_explicit_matrices(self):
        expected = {
            1: np.outer(KETE, KET0) + np.outer(KET0, KETE),
            2: -1j * np.outer(KETE, KET0) + 1j * np.outer(KET0, KETE),
            4: np.outer(KETE, KET1) + np.outer(KET1, KETE),
            6: np.outer(KET0, KET1) + np.outer(KET1, KET0),
            7: -1j * np.outer(KET0, KET1) + 1j * np.outer(KET1, KET0),
        }
        for index, want in expected.items():
            assert np.array_equal(gell_mann(index), want)

    def test_index_6_is_sigma_x_block(self):
        g = gell_mann(6)
        assert g[0, 1] == 1 and g[1, 0] == 1
        assert np.all(g[2, :] == 0) and np.all(g[:, 2] == 0)

    def test_index_1_couples_ground_to_excited(self):
        g = gell_mann(1)
        assert g[2, 0] == 1 and g[0, 2] == 1
        assert np.count_nonzero(g) == 2

    @pytest.mark.parametrize("index", [1, 2, 4, 6, 7])
    def test_hermitian_traceless(self, index):
        g = gell_mann(index)
        assert np.array_equal(g, g.conj().T)
        assert np.trace(g) == 0

    @pytest.mark.parametrize("index", [0, 3, 5, 8, 9, "x", None])
    def test_catalog_is_closed(self, index):
        with pytest.raises(ValueError, match="index"):
            gell_mann(index)


class TestChainLayout:
    def test_sizes(self):
        for n in (1, 2, 3, 4):
            layout = ChainLayout(n)
            assert layout.n_sites == 2 * n - 1
            assert layout.dim == 3 ** (2 * n - 1)

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

    def test_logical_indices_injective(self):
        layout = ChainLayout(3)
        idx = layout.logical_indices()
        assert len(idx) == 8
        assert len(set(idx)) == 8
        assert all(0 <= i < layout.dim for i in idx)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            ChainLayout(2).logical_index([0, 2])
        with pytest.raises(ValueError):
            ChainLayout(2).logical_index([0])

    def test_site_maps(self):
        layout = ChainLayout(3)
        assert [layout.site_of_qubit(q) for q in (1, 2, 3)] == [1, 3, 5]
        assert layout.sites_of_pair(1) == (1, 2, 3)
        assert layout.sites_of_pair(2) == (3, 4, 5)
        with pytest.raises(ValueError):
            layout.site_of_qubit(4)
        with pytest.raises(ValueError):
            layout.sites_of_pair(3)


class TestEmbed:
    def test_least_significant_site_action(self):
        layout = ChainLayout(2)
        M = embed(gell_mann(6), 3, layout)
        assert M[0, 1] == 1 and M[1, 0] == 1

    def test_identity_any_site(self):
        layout = ChainLayout(2)
        for site in (1, 2, 3):
            assert np.array_equal(embed(np.eye(3), site, layout), np.eye(27))

    def test_site1_exchange_blocks(self):
        M = embed(gell_mann(4), 1, ChainLayout(2))
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
            assert stacked.shape == (2, 3, layout.dim, layout.dim)
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
        assert np.allclose(lambda_coupling(0.0, 0.0), want, atol=1e-16)

    def test_theta_pi_drives_only_level_zero(self):
        want = np.outer(KETE, KET0) + np.outer(KET0, KETE)
        assert np.allclose(lambda_coupling(np.pi, 0.0), want, atol=1e-15)

    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 5))
    @pytest.mark.parametrize("phi", np.linspace(0, 2 * np.pi, 4, endpoint=False))
    def test_spectrum_is_unit_lambda_system(self, theta, phi):
        evals = np.linalg.eigvalsh(lambda_coupling(theta, phi))
        assert np.allclose(evals, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_qubit_block_exactly_zero(self):
        H = lambda_coupling(0.83, 2.1)
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
        assert np.argmax(np.abs(logical_encode([1, 1], layout))) == 10
        assert np.argmax(np.abs(logical_encode([0, 1, 0], ChainLayout(3)))) == 9

    def test_orthonormal_family(self):
        layout = ChainLayout(3)
        from itertools import product

        states = [logical_encode(bits, layout) for bits in product((0, 1), repeat=3)]
        G = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.array_equal(G, np.eye(8))

