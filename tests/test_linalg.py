import numpy as np
import pytest

from holosim.linalg import (
    cross,
    dot,
    expm_hermitian,
    gate_fidelity,
    hermiticity_defect,
    inner,
    polar_unitary,
    unitarity_defect,
)

from oracles import haar_unitary, random_hermitian, taylor_expm


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
