import re

import numpy as np
import pytest

from holosim.linalg import (
    cross,
    dot,
    embed_factor,
    expm_hermitian,
    gate_fidelity,
    hermiticity_defect,
    inner,
    polar_unitary,
    unitarity_defect,
)

from oracles import brute_embed, haar_unitary, kron_logical, random_hermitian, taylor_expm


class TestExpmHermitian:
    def test_zero_hamiltonian_gives_identity(self):
        for dim in (2, 3, 27):
            U = expm_hermitian(np.zeros((dim, dim)), 1.0)
            assert np.allclose(U, np.eye(dim), atol=1e-15)

    def test_diagonal_phases(self):
        U = expm_hermitian(np.diag([1.0, -1.0, 0.0]), np.pi)
        assert np.allclose(U, np.diag([-1.0, -1.0, 1.0]), atol=1e-14)

    def test_random_hermitian_against_taylor_oracle(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(27, rng)
        U = expm_hermitian(H, 0.37)
        assert unitarity_defect(U) < 1e-10
        assert np.linalg.norm(U @ H - H @ U) < 1e-9
        assert np.linalg.norm(U - taylor_expm(H, 0.37)) < 1e-10

    def test_rejects_non_hermitian_with_defect_in_message(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"H - H\^dag"):
            expm_hermitian(M, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_group_property(self, seed):
        rng = np.random.default_rng(seed)
        H = random_hermitian(9, rng)
        s, t = rng.uniform(-2, 2, size=2)
        lhs = expm_hermitian(H, s) @ expm_hermitian(H, t)
        assert np.linalg.norm(lhs - expm_hermitian(H, s + t)) < 1e-10

    @pytest.mark.parametrize("seed", [3, 4])
    def test_adjoint_reverses_time(self, seed):
        rng = np.random.default_rng(seed)
        H = random_hermitian(9, rng)
        t = rng.uniform(-2, 2)
        assert np.linalg.norm(expm_hermitian(H, t).conj().T - expm_hermitian(H, -t)) < 1e-12

    def test_hermiticity_bound_is_1e_12(self):
        # ||H - H^dag||_F = sqrt(2) * eps for one unpaired off-diagonal entry eps
        H = np.zeros((2, 2))
        H[0, 1] = 5e-13
        assert np.allclose(expm_hermitian(H, 1.0), np.eye(2), atol=1e-12)
        H[0, 1] = 1e-12
        with pytest.raises(ValueError, match="1.0e-12"):
            expm_hermitian(H, 1.0)

    def test_nonfinite_rejected(self):
        H = np.eye(3)
        H[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            expm_hermitian(H, 1.0)

    @pytest.mark.parametrize("t,shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
                                         (10**400, "inf"), (np.float64(np.nan), "nan")],
                             ids=["nan", "inf", "-inf", "int-beyond-float", "float64-nan"])
    def test_nonfinite_time_rejected(self, t, shown):
        # refused by value, with no NaN result, overflow error or runtime warning
        with pytest.raises(ValueError) as err:
            expm_hermitian(np.eye(2), t)
        assert str(err.value) == f"expm_hermitian requires a finite t, got {shown}"


class TestPolarUnitary:
    def test_unitary_is_fixed_point(self):
        rng = np.random.default_rng(5)
        U = haar_unitary(6, rng)
        assert np.linalg.norm(polar_unitary(U) - U) < 1e-12

    def test_positive_scaling_removed(self):
        assert np.allclose(polar_unitary(2.0 * np.eye(4)), np.eye(4), atol=1e-14)

    def test_against_svd_oracle_and_positivity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            s = np.linalg.svd(M, compute_uv=False)
            if s[0] / s[-1] >= 10:
                continue
            W = polar_unitary(M)
            Uv, _, Vh = np.linalg.svd(M)
            assert np.linalg.norm(W - Uv @ Vh) < 1e-12
            P = W.conj().T @ M
            assert hermiticity_defect(P) < 1e-10
            assert np.min(np.linalg.eigvalsh(0.5 * (P + P.conj().T))) > 0

    def test_rank_deficient_reports_singular_value(self):
        M = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="singular value"):
            polar_unitary(M)

    def test_singular_value_floor_is_1e_8(self):
        assert np.array_equal(polar_unitary(np.diag([1.0, 2e-8])), np.eye(2))
        with pytest.raises(ValueError, match="singular value 1.000e-08"):
            polar_unitary(np.diag([1.0, 1e-8]))

    # A 2 x 2 matrix takes the closed form, checked against the SVD polar factor U V^dag.  The
    # polar factor of a complex matrix is as sensitive as the matrix is ill-conditioned, so the
    # two may differ by 1e-15 times its condition number.
    STACKS = [(), (0,), (7,), (3, 4)]

    @staticmethod
    def _svd_oracle(M):
        U, s, Vh = np.linalg.svd(M)
        return U @ Vh, s[..., 0] / s[..., -1]

    def _assert_matches_oracle(self, M):
        W = polar_unitary(M)
        want, cond = self._svd_oracle(M)
        assert W.shape == M.shape and W.dtype == complex
        assert np.all(np.abs(W - want).max(axis=(-2, -1), initial=0.0) <= 1e-15 * cond)
        if M.ndim > 2:  # each member alone gives the same bits as in its stack
            for point in np.ndindex(M.shape[:-2]):
                assert np.array_equal(polar_unitary(M[point]), W[point])

    @pytest.mark.parametrize("shape", STACKS)
    def test_two_by_two_random_matrices(self, shape):
        rng = np.random.default_rng([31, len(shape)])
        size = int(np.prod(shape, dtype=int))
        # condition numbers from 1 to about 3e7, between the two singular values' scales
        left = np.array([haar_unitary(2, rng) for _ in range(size)]).reshape(shape + (2, 2))
        right = np.array([haar_unitary(2, rng) for _ in range(size)]).reshape(shape + (2, 2))
        s = np.stack(np.broadcast_arrays(1.0, 10.0 ** -rng.uniform(0.0, 7.5, size=shape)), axis=-1)
        self._assert_matches_oracle((left * s[..., None, :]) @ right)
        self._assert_matches_oracle(rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2)))

    @pytest.mark.parametrize("shape", STACKS)
    def test_two_by_two_near_unitary_blocks(self, shape):
        # the logical blocks extract_logical_gate unitarizes: unitary up to a leakage below 1e-8
        rng = np.random.default_rng([32, len(shape)])
        size = int(np.prod(shape, dtype=int))
        U = np.array([haar_unitary(2, rng) for _ in range(size)]).reshape(shape + (2, 2))
        E = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
        M = U + 1e-9 * E
        self._assert_matches_oracle(M)
        assert np.abs(polar_unitary(M) - U).max(initial=0.0) <= 1e-8

    @pytest.mark.parametrize("shape", STACKS)
    @pytest.mark.parametrize("exponent", [200, 300])
    def test_two_by_two_huge_entries(self, shape, exponent):
        # each member is scaled by a power of two before any square: no overflow and no warning
        rng = np.random.default_rng([33, len(shape), exponent])
        M = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
        self._assert_matches_oracle(10.0 ** exponent * M)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_two_by_two_tiny_entries_are_refused_with_their_value(self, shape):
        # entries near 1e-200 are far below the rank floor; their squares would underflow unscaled
        rng = np.random.default_rng([35, len(shape)])
        M = 1e-200 * (rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2)))
        with pytest.raises(ValueError, match="rank deficient") as refused:
            polar_unitary(M)
        smallest = float(str(refused.value).rsplit(" ", 1)[1])
        assert smallest == pytest.approx(np.linalg.svd(M, compute_uv=False)[..., -1].min(), rel=1e-3)

    def test_two_by_two_singular_values_far_apart(self):
        # the largest entry near 1e200 and the smallest singular value 1e-5: |det M| = 1e195 is far
        # below the squares of the entries, and still above the rank floor
        M = np.array([[3e200, 0.0], [0.0, -1e-5j]])
        assert np.array_equal(polar_unitary(M), np.diag([1.0, -1j]))
        with pytest.raises(ValueError, match=r"singular value 1\.000e-09$"):
            polar_unitary(np.array([[3e200, 0.0], [0.0, 1e-9]]))

    @pytest.mark.parametrize("M, smallest", [
        (np.zeros((2, 2)), "0.000e+00"),
        (np.array([[1.0, 2.0], [2.0, 4.0]]), "0.000e+00"),  # singular: det M = 0 exactly
        (np.array([[1.0, 1j], [1j, -1.0]]), "0.000e+00"),
        (1e-200 * np.array([[1.0, 0.0], [0.0, 0.3]]), "3.000e-201"),  # tiny entries keep their value
        (np.array([np.eye(2), np.zeros((2, 2))]), "0.000e+00"),  # a zero member of a stack
    ])
    def test_two_by_two_refusals_name_the_smallest_singular_value(self, M, smallest):
        with pytest.raises(ValueError, match=rf"^polar_unitary: matrix is rank deficient, smallest singular value "
                                             rf"{re.escape(smallest)}$"):
            polar_unitary(M)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_other_sizes_keep_the_svd(self, n):
        rng = np.random.default_rng(34 + n)
        for shape in ((), (5,)):
            M = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
            U, _, Vh = np.linalg.svd(M)
            assert np.array_equal(polar_unitary(M), U @ Vh)


class TestGateFidelity:
    def test_equal_gates(self):
        rng = np.random.default_rng(7)
        U = haar_unitary(4, rng)
        assert gate_fidelity(U, U) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance_exact_case(self):
        assert gate_fidelity(np.eye(2), 1j * np.eye(2)) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_gates(self):
        sz = np.diag([1.0, -1.0])
        assert gate_fidelity(np.eye(2), sz) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gate_fidelity(np.eye(2), np.eye(4))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            gate_fidelity(np.eye(2), np.diag([1.0, 0.5]))

    def test_unitarity_bound_is_1e_8(self):
        # ||U^dag U - 1||_F = sqrt(2) * (2d + d^2) for U = (1 + d) * 1 on two levels
        assert gate_fidelity(np.eye(2), (1.0 + 3e-9) * np.eye(2)) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ValueError, match="V is not unitary"):
            gate_fidelity(np.eye(2), (1.0 + 1e-8) * np.eye(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_and_phase_invariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        U, V = haar_unitary(4, rng), haar_unitary(4, rng)
        alpha = rng.uniform(0, 2 * np.pi)
        f = gate_fidelity(U, V)
        assert abs(f - gate_fidelity(V, U)) < 1e-12
        assert abs(f - gate_fidelity(np.exp(1j * alpha) * U, V)) < 1e-12
        assert 0.0 <= f <= 1.0


class TestStacks:
    """A stack (..., n, n) is handled matrix by matrix; a single matrix gives a float."""

    def test_stacked_results_equal_single_results(self):
        rng = np.random.default_rng(12)
        M = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        U = np.array([haar_unitary(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        V = haar_unitary(4, rng)
        W = polar_unitary(M)
        F = gate_fidelity(U, V)  # V broadcasts against the stack
        H = random_hermitian(4, rng)
        E = expm_hermitian(np.stack([H, 2.0 * H]), 0.7)
        assert W.shape == M.shape and F.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(W[i, j], polar_unitary(M[i, j]))
            assert abs(F[i, j] - gate_fidelity(U[i, j], V)) <= 1e-15
            assert abs(unitarity_defect(U)[i, j] - unitarity_defect(U[i, j])) <= 1e-15
            assert abs(hermiticity_defect(M)[i, j] - hermiticity_defect(M[i, j])) <= 1e-14
        assert np.max(np.abs(E[1] - expm_hermitian(H, 1.4))) <= 1e-12
        assert type(gate_fidelity(V, V)) is float and type(unitarity_defect(V)) is float

    def test_any_bad_member_raises(self):
        stack = np.array([np.eye(2), np.diag([1.0, 1e-12])])
        with pytest.raises(ValueError, match="singular value 1.000e-12"):
            polar_unitary(stack)
        with pytest.raises(ValueError, match="not unitary"):
            gate_fidelity(stack, np.eye(2))

    def test_any_memory_layout_is_read(self):
        # a last axis that is not contiguous (Fortran order, a transpose, a reversed view) cannot be viewed
        # as floats in place; each function reads it as the contiguous copy of the same matrix
        rng = np.random.default_rng(15)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = random_hermitian(3, rng)
        U = haar_unitary(4, rng)
        for layout in (np.asfortranarray, lambda A: A.T.copy().T, lambda A: A[:, ::-1].copy()[:, ::-1]):
            assert np.array_equal(polar_unitary(layout(M)), polar_unitary(M))
            assert np.array_equal(expm_hermitian(layout(H), 0.7), expm_hermitian(H, 0.7))
            assert gate_fidelity(layout(U), layout(U)) == gate_fidelity(U, U)
        assert gate_fidelity(np.eye(3).T.astype(complex), np.eye(3)) == 1.0
        assert np.array_equal(polar_unitary(np.eye(4, dtype=complex)[:, ::-1].T), np.eye(4)[::-1])
        with pytest.raises(ValueError, match="non-finite"):
            polar_unitary(np.asfortranarray(np.diag([1.0, np.nan, 1.0]) + 0j))

    def test_inner_matches_the_conjugated_product(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(3, 40, 5)) + 1j * rng.normal(size=(3, 40, 5))
        Y = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        assert np.max(np.abs(inner(X, Y) - X.conj().swapaxes(-1, -2) @ Y)) <= 1e-13
        # a row slice and a transposed (non-contiguous last axis) operand
        assert np.max(np.abs(inner(X[1, 7:19], X[2, 7:19]) - X[1, 7:19].conj().T @ X[2, 7:19])) <= 1e-13
        Z = np.ascontiguousarray(Y.T).T
        assert np.max(np.abs(inner(Z, Z) - Y.conj().T @ Y)) <= 1e-13

    def test_vector_helpers_match_numpy_bit_for_bit(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(500, 3)), rng.normal(size=(500, 3))
        assert np.array_equal(cross(a, b), np.cross(a, b))
        assert np.array_equal(dot(a, b), [np.dot(x, y) for x, y in zip(a, b)])
        assert np.array_equal(np.sqrt(dot(a, a)), [np.linalg.norm(x) for x in a])


class TestEmbedFactor:
    """1 (x) op (x) 1 as one broadcast product has the bits of the explicit Kronecker products."""

    @staticmethod
    def _op(rng, shape, d):
        op = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
        op[..., 0, :2], op[..., 1, 0] = [-0.0, complex(0.0, -0.0)], 0.0  # signed zeros, so the bytes show their signs
        return op

    @pytest.mark.parametrize("n_logical", [1, 2, 3, 4])
    def test_logical_register_matches_kron_logical(self, n_logical):
        rng = np.random.default_rng(70 + n_logical)
        for d in (2, 4, 8):
            span = d.bit_length() - 1
            for first in range(1, n_logical - span + 2):
                left, right = 2 ** (first - 1), 2 ** (n_logical - first - span + 1)
                ops = self._op(rng, (2, 3), d)
                got = embed_factor(ops, left, right)
                assert got.shape == (2, 3, 2 ** n_logical, 2 ** n_logical)
                for i, j in np.ndindex(2, 3):
                    assert got[i, j].tobytes() == kron_logical(first, ops[i, j], n_logical).tobytes()

    @pytest.mark.parametrize("site", [1, 2, 3, 4, 5])
    def test_chain_site_matches_brute_embed(self, site):
        # brute_embed multiplies by an identity once per site, and each complex product with 1 + 0j may turn
        # the sign of a zero; every nonzero part has the same bits
        op = self._op(np.random.default_rng(80 + site), (), 3)
        got, want = embed_factor(op, 3 ** (site - 1), 3 ** (5 - site)).view(float), brute_embed(op, site, 5).view(float)
        assert np.array_equal(got, want) and got[want != 0].tobytes() == want[want != 0].tobytes()

    def test_sizes_of_one_multiply_nothing(self):
        op = self._op(np.random.default_rng(90), (4,), 3)
        assert embed_factor(op, 1, 1) is op
        assert embed_factor(op, 1, 2).tobytes() == np.kron(op, np.eye(2, dtype=complex)).tobytes()
        assert embed_factor(op, 2, 1).tobytes() == np.kron(np.eye(2, dtype=complex), op).tobytes()
