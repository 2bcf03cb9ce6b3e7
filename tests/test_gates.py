import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosim.chain import ChainLayout, logical_frame
from holosim.gates import (
    CYCLIC_LEAKAGE,
    SIGMA_X,
    SIGMA_Z,
    bloch_angles,
    bloch_vector,
    compose_rule,
    entangling_verdict,
    entanglement_entropy,
    extract_logical_gate,
    makhlin_invariants,
    one_qubit_gate,
    projected_block_maps,
    schmidt_coefficients,
    two_qubit_gate,
    _leakage,
)
from holosim.linalg import expm_hermitian, polar_unitary, unitarity_defect
from holosim.pulses import (OneQubitPulse, ThreeSitePulse, block_hamiltonian, propagate_exact,
                            run_schedule, schedule_propagator)

from oracles import (chain_dim, haar_unitary, logical_indices, random_unit_vector, reachable_logical_columns,
                     scan_entangling_witness, svd_entropy)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


class TestOneQubitGate:
    def test_cardinal_directions(self):
        assert np.array_equal(one_qubit_gate([0, 0, 1]), SIGMA_Z)
        assert np.array_equal(one_qubit_gate([1, 0, 0]), SIGMA_X)

    def test_hadamard_direction(self):
        n = bloch_vector(np.pi / 4, 0.0)
        want = (SIGMA_X + SIGMA_Z) / np.sqrt(2)
        assert np.allclose(one_qubit_gate(n), want, atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_reflection_properties(self, seed):
        rng = np.random.default_rng(seed)
        G = one_qubit_gate(random_unit_vector(rng))
        assert np.allclose(G, G.conj().T, atol=1e-15)
        assert unitarity_defect(G) < 1e-14
        assert abs(np.trace(G)) < 1e-14
        assert np.linalg.det(G) == pytest.approx(-1.0, abs=1e-14)
        assert np.allclose(G @ G, np.eye(2), atol=1e-14)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            one_qubit_gate([0.0, 0.0, 0.9])


class TestComposeRule:
    def test_same_direction_gives_identity(self):
        n = bloch_vector(1.0, 2.0)
        assert np.allclose(compose_rule(n, n), np.eye(2), atol=1e-14)

    def test_z_then_x(self):
        got = compose_rule([0, 0, 1], [1, 0, 0])
        assert np.allclose(got, np.array([[0, -1], [1, 0]], dtype=complex), atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_product_of_reflections(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n, m = random_unit_vector(rng), random_unit_vector(rng)
        assert np.max(np.abs(compose_rule(n, m) - one_qubit_gate(m) @ one_qubit_gate(n))) < 1e-12


class TestTwoQubitGate:
    def test_vartheta_zero_is_local(self):
        assert np.array_equal(two_qubit_gate(0.0), np.kron(SIGMA_Z, np.eye(2)))

    def test_vartheta_half_pi_is_signed_exchange(self):
        want = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
        )
        assert np.allclose(two_qubit_gate(np.pi / 2), want, atol=1e-15)

    @pytest.mark.parametrize("vt", np.linspace(0, 2 * np.pi, 16, endpoint=False))
    def test_real_symmetric_involution(self, vt):
        G = two_qubit_gate(vt)
        assert np.max(np.abs(G.imag)) == 0
        assert np.allclose(G, G.T, atol=1e-15)
        assert np.allclose(G @ G, np.eye(4), atol=1e-12)
        assert np.linalg.det(G) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("vt", np.linspace(0, 2 * np.pi, 8, endpoint=False))
    def test_matches_simulated_pulse(self, vt):
        layout = ChainLayout(2)
        U = propagate_exact(ThreeSitePulse(1, vt), layout)
        report = extract_logical_gate(reachable_logical_columns(U, layout), layout,
                                      target=two_qubit_gate(vt))
        assert report.fidelity_vs_target >= 1.0 - 1e-10


class TestProjectedBlockMaps:
    def test_full_revolution_is_trivial(self):
        A, c = projected_block_maps(0.9, 2 * np.pi)
        assert np.allclose(A, np.eye(2), atol=1e-14)
        assert c == pytest.approx(1.0, abs=1e-14)

    def test_pi_area_closed_form(self):
        vt = 0.9
        A, c = projected_block_maps(vt, np.pi)
        want = np.array([[np.cos(vt), np.sin(vt)], [np.sin(vt), -np.cos(vt)]])
        assert np.allclose(A, want, atol=1e-14)
        assert c == pytest.approx(-1.0, abs=1e-14)

    def test_half_pi_area_contraction(self):
        A, c = projected_block_maps(np.pi / 2, np.pi / 2)
        assert np.allclose(A, 0.5 * np.ones((2, 2)), atol=1e-14)
        assert c == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("vt", np.linspace(0, 2 * np.pi, 6, endpoint=False))
    @pytest.mark.parametrize("area", [0.3, 1.7, np.pi / 2, 4.4])
    def test_matches_numeric_projection_and_is_contractive(self, vt, area):
        layout = ChainLayout(2)
        idx = logical_indices(layout)
        U = propagate_exact(ThreeSitePulse(1, vt, area=area), layout)
        A, c = projected_block_maps(vt, area)
        assert np.max(np.abs(U[np.ix_(idx[1:3], idx[1:3])] - A)) < 1e-10
        assert abs(U[idx[3], idx[3]] - c) < 1e-10
        assert np.linalg.svd(A, compute_uv=False)[0] <= 1.0 + 1e-12


class TestExtractLogicalGate:
    def test_identity_chain(self):
        layout = ChainLayout(2)
        for columns in (logical_frame(layout), reachable_logical_columns(np.eye(chain_dim(layout)), layout)):
            report = extract_logical_gate(columns, layout)
            assert report.leakage == 0.0
            assert report.cyclic
            assert np.allclose(report.logical_gate, np.eye(4), atol=1e-14)

    def test_the_cyclic_split_is_at_cyclic_leakage(self):
        # an amplitude on |e> of leakage just below the fixed bound 1e-8 is cyclic, and one just above it is not
        layout = ChainLayout(1)
        for leakage, cyclic in ((0.99e-8, True), (1.01e-8, False)):
            columns = logical_frame(layout)
            columns[2, 0] = leakage
            report = extract_logical_gate(columns, layout)
            assert report.leakage == pytest.approx(leakage, rel=1e-12)
            assert report.cyclic is cyclic

    def test_one_qubit_pulse_extends_by_identity(self):
        layout = ChainLayout(2)
        theta, phi = 1.1, 0.6
        U = propagate_exact(OneQubitPulse(1, theta, phi), layout)
        target = np.kron(one_qubit_gate(bloch_vector(theta, phi)), np.eye(2))
        report = extract_logical_gate(reachable_logical_columns(U, layout), layout, target=target)
        assert report.leakage < 1e-10
        assert report.fidelity_vs_target >= 1.0 - 1e-12

    def test_noncyclic_evolution_reported_not_unitarized(self):
        layout = ChainLayout(2)
        columns = reachable_logical_columns(propagate_exact(ThreeSitePulse(1, np.pi / 2, area=np.pi / 2), layout),
                                            layout)
        report = extract_logical_gate(columns, layout)
        assert report.leakage > 0.1
        assert not report.cyclic
        # the raw contraction block is returned unmodified
        A, c = projected_block_maps(np.pi / 2, np.pi / 2)
        assert np.allclose(report.logical_gate[1:3, 1:3], A, atol=1e-12)
        with pytest.raises(ValueError, match="non-cyclic"):
            extract_logical_gate(columns, layout, target=np.eye(4))

    def test_auxiliary_site_restored_by_pi_pulse(self):
        layout = ChainLayout(2)
        idx = logical_indices(layout)
        for vt in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            U = propagate_exact(ThreeSitePulse(1, vt), layout)
            for j in idx:
                psi = U[:, j]
                outside = np.sum(np.abs(psi) ** 2) - np.sum(np.abs(psi[idx]) ** 2)
                assert outside < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            extract_logical_gate(np.eye(9), ChainLayout(2))

    def test_full_propagator_is_rejected(self):
        # only reachable columns are read: those of the full three-level chain are refused, its logical columns as
        # well as its whole propagator, and so is any other shape, with one message
        layout = ChainLayout(2)
        for columns in (np.eye(27), np.eye(27)[:, logical_indices(layout)], np.ones((3, 27, 4)), np.zeros((20, 4)),
                        np.zeros((18, 4, 1)), np.zeros(18), np.zeros(())):
            with pytest.raises(ValueError) as err:
                extract_logical_gate(columns, layout)
            assert str(err.value) == f"logical columns shape {columns.shape} is not (18, 4)"

    def test_any_memory_layout_of_a_stack(self):
        # a Fortran-ordered stack unitarizes copies whose last axis is not contiguous; they are read as any other
        layout = ChainLayout(2)
        F = logical_frame(layout)
        report = extract_logical_gate(np.asfortranarray(np.stack([F, F])), layout)
        assert np.array_equal(report.logical_gate, np.stack([np.eye(4)] * 2)) and report.cyclic.all()


class TestTwoByTwoLeakage:
    """At N = 1 the leakage is read from the closed-form largest eigenvalue of a 2 x 2 Gram,
    checked here against ``eigvalsh`` on the same Gram."""

    @staticmethod
    def _oracle(columns, idx):
        rest = np.delete(columns, idx, axis=-2)
        gram = rest.conj().swapaxes(-1, -2) @ rest
        return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))

    def _check(self, columns, idx):
        got = _leakage(columns, idx)
        want = self._oracle(columns, idx)
        assert np.shape(got) == columns.shape[:-2]
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        for point in np.ndindex(columns.shape[:-2]):  # a member alone gives the same bits as in its stack
            assert _leakage(columns[point], idx) == np.asarray(got)[point]

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-150])
    def test_rank_one_gram_of_the_one_qubit_chain(self, shape, scale):
        # an N = 1 chain has three rows and one of them is not logical; scale 1e-150 makes Grams near 1e-300
        rng = np.random.default_rng([41, len(shape), int(-np.log10(scale))])
        columns = rng.normal(size=shape + (3, 2)) + 1j * rng.normal(size=shape + (3, 2))
        columns[..., 2, :] *= scale
        self._check(columns, [0, 1])

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("scale", [1.0, 1e-150])
    def test_full_rank_grams(self, shape, scale):
        rng = np.random.default_rng([42, len(shape), int(-np.log10(scale))])
        columns = scale * (rng.normal(size=shape + (6, 2)) + 1j * rng.normal(size=shape + (6, 2)))
        self._check(columns, [0, 4])

    @pytest.mark.parametrize("scale", [1.0, 2.0**-500])
    def test_equal_diagonal(self, scale):
        # p == r exactly: the second column permutes the first's small-integer entries and multiplies
        # them by powers of i, and the power-of-two scale (2^-500 gives Grams near 1e-301) is exact
        rng = np.random.default_rng(43)
        first = rng.integers(-3, 4, size=(6, 3)) + 1j * rng.integers(-3, 4, size=(6, 3))
        second = np.array([row[rng.permutation(3)] * 1j ** rng.integers(0, 4, size=3) for row in first])
        rest = scale * np.stack([first, second], axis=-1)
        columns = np.concatenate([np.eye(2)[None].repeat(6, axis=0), rest], axis=-2)
        gram = rest.conj().swapaxes(-1, -2) @ rest
        assert np.array_equal(gram[:, 0, 0], gram[:, 1, 1])
        self._check(columns, [0, 1])
        want = np.sqrt(gram[:, 0, 0].real + np.abs(gram[:, 1, 0]))
        assert np.all(np.abs(_leakage(columns, [0, 1]) - want) <= 1e-14 * want)

    def test_known_values(self):
        assert _leakage(np.eye(3)[:, :2], [0, 1]) == 0.0  # no leakage
        columns = np.zeros((3, 2), dtype=complex)
        columns[2] = [1.0, 1j]  # the Gram [[1, 1j], [-1j, 1]] has eigenvalues 0 and 2
        assert _leakage(columns, [0, 1]) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def _random_schedule(layout, rng, cyclic):
    """Pulses with raw (un-normalized) angles; pi areas if ``cyclic``, else mostly partial ones."""
    schedule = []
    for _ in range(int(rng.integers(1, 6))):
        area = np.pi if cyclic or rng.random() < 0.3 else float(rng.uniform(-7.0, 7.0))
        if layout.n_logical > 1 and rng.random() < 0.4:
            schedule.append(ThreeSitePulse(int(rng.integers(1, layout.n_logical)),
                                           float(rng.uniform(-9.0, 9.0)), area=area))
        else:
            schedule.append(OneQubitPulse(int(rng.integers(1, layout.n_logical + 1)),
                                          float(rng.uniform(-9.0, 9.0)), float(rng.uniform(-9.0, 9.0)),
                                          area=area))
    return schedule


def _dense_extraction(U, layout):
    """(gate, leakage) from a full propagator by index blocks, independent of the column path."""
    idx = logical_indices(layout)
    comp = np.setdiff1d(np.arange(chain_dim(layout)), idx)
    leakage = float(np.linalg.svd(U[np.ix_(comp, idx)], compute_uv=False)[0])
    block = U[np.ix_(idx, idx)]
    return (polar_unitary(block) if leakage < CYCLIC_LEAKAGE else block), leakage


class TestColumnExtractionAgainstDense:
    @pytest.mark.parametrize("n_logical", [1, 2, 3])
    @pytest.mark.parametrize("cyclic", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_logical_columns_match_full_propagators(self, n_logical, cyclic, seed):
        layout = ChainLayout(n_logical)
        schedule = _random_schedule(layout, np.random.default_rng([n_logical, seed]), cyclic)
        report = extract_logical_gate(run_schedule(schedule, logical_frame(layout), layout), layout)
        assert report.cyclic == cyclic

        sliced = extract_logical_gate(reachable_logical_columns(schedule_propagator(schedule, layout), layout),
                                      layout)
        dense = np.eye(chain_dim(layout))
        for pulse in schedule:
            dense = expm_hermitian(block_hamiltonian(pulse, layout), pulse.area) @ dense
        gate, leakage = _dense_extraction(dense, layout)
        for want_gate, want_leakage in ((sliced.logical_gate, sliced.leakage), (gate, leakage)):
            assert np.max(np.abs(report.logical_gate - want_gate)) <= 1e-12
            assert abs(report.leakage - want_leakage) <= 1e-12


class TestEntanglementMeasures:
    def test_product_state(self):
        amps = np.kron([1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert entanglement_entropy(amps) < 1e-15
        s = schmidt_coefficients(amps)
        assert s[0] == pytest.approx(1.0, abs=1e-15)

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert entanglement_entropy(bell) == pytest.approx(np.log(2), abs=1e-12)
        assert np.allclose(schmidt_coefficients(bell), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            assert entanglement_entropy(psi) == pytest.approx(svd_entropy(psi), abs=1e-12)


class TestMakhlinInvariants:
    def test_local_gate_class(self):
        G1, G2 = makhlin_invariants(two_qubit_gate(0.0))
        assert abs(G1 - 1.0) < 1e-12
        assert abs(G2 - 3.0) < 1e-12

    def test_cnot_class(self):
        G1, G2 = makhlin_invariants(CNOT)
        assert abs(G1) < 1e-12
        assert abs(G2 - 1.0) < 1e-12

    def test_exchange_gate_class(self):
        G1, G2 = makhlin_invariants(two_qubit_gate(np.pi / 2))
        assert abs(G1) < 1e-12
        assert abs(G2 + 1.0) < 1e-12

    def test_local_invariance(self):
        rng = np.random.default_rng(8)
        U = two_qubit_gate(1.234)
        a = one_qubit_gate(random_unit_vector(rng))
        b = one_qubit_gate(random_unit_vector(rng))
        G1, G2 = makhlin_invariants(U)
        H1, H2 = makhlin_invariants(np.kron(a, b) @ U)
        assert abs(G1 - H1) < 1e-10 and abs(G2 - H2) < 1e-10


class TestEntanglingVerdict:
    def test_local_gates_are_not_entangling(self):
        for vt in (0.0, np.pi):
            verdict, power = entangling_verdict(two_qubit_gate(vt))
            assert not verdict
            assert power < 1e-8

    def test_exchange_gate_is_entangling(self):
        verdict, power = entangling_verdict(two_qubit_gate(np.pi / 2))
        assert verdict
        assert power == pytest.approx(2.0 / 9.0, abs=1e-12)
        # the plus-plus input is a maximal witness
        plus = np.array([1, 1]) / np.sqrt(2)
        out = two_qubit_gate(np.pi / 2) @ np.kron(plus, plus)
        assert entanglement_entropy(out) == pytest.approx(np.log(2), abs=1e-9)

    def test_cnot_is_entangling(self):
        verdict, power = entangling_verdict(CNOT)
        assert verdict
        assert power == pytest.approx(2.0 / 9.0, abs=1e-12)
        # oracle: |+>|0> maps to a Bell state
        plus0 = np.kron([1, 1], [np.sqrt(2), 0]) / 2.0
        assert svd_entropy(CNOT @ plus0) == pytest.approx(np.log(2), abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            entangling_verdict(np.diag([1.0, 1.0, 1.0, 0.5]))
        with pytest.raises(ValueError, match="4x4"):
            entangling_verdict(np.eye(2))

    def test_xy_family_power_is_closed_form(self):
        # G1 = cos^4 vartheta for the XY family
        for vt in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
            _, power = entangling_verdict(two_qubit_gate(vt))
            assert abs(power - 2.0 / 9.0 * (1.0 - np.cos(vt) ** 4)) <= 1e-15

    def test_tol_is_the_power_floor(self):
        assert entangling_verdict(two_qubit_gate(0.01))[0]  # e_p ~ 4.4e-5
        verdict, power = entangling_verdict(two_qubit_gate(1e-5))
        assert not verdict and 0.0 < power < 1e-8  # e_p ~ 9e-11

    @pytest.mark.parametrize("seed", range(20))
    def test_local_and_local_times_swap_gates(self, seed):
        rng = np.random.default_rng(600 + seed)
        local = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        for U in (local, local @ SWAP):
            verdict, power = entangling_verdict(U)
            assert not verdict and 0.0 <= power <= 1e-14

    @pytest.mark.parametrize("name", ["xy_half_pi", "xy_0.7", "cnot", "swap", *(f"haar_{k}" for k in range(5))])
    def test_power_is_the_mean_linear_entropy_over_product_inputs(self, name):
        U = _named_gate(name)
        rng = np.random.default_rng(700)
        count = 200_000
        qa, qb = (_haar_qubits(count, rng) for _ in range(2))
        out = np.einsum("ij,nj->ni", U, (qa[:, :, None] * qb[:, None, :]).reshape(count, 4)).reshape(count, 2, 2)
        # 1 - Tr rho_A^2 = 2 |det M| ^ 2 for the 2x2 amplitude matrix M of a pure state
        linear = 2.0 * np.abs(out[:, 0, 0] * out[:, 1, 1] - out[:, 0, 1] * out[:, 1, 0]) ** 2
        standard_error = np.std(linear) / np.sqrt(count)
        _, power = entangling_verdict(U)
        # SWAP leaves every product input a product state (zero variance): 1e-15 covers the roundoff of e_p
        assert abs(np.mean(linear) - power) <= 5.0 * standard_error + 1e-15

    @pytest.mark.parametrize("name", ["swap", "cnot", "identity", "xy_0", "xy_1.3", "xy_half_pi",
                                      *(f"xy_grid_{k}" for k in range(32)), *(f"haar_{k}" for k in range(10))])
    def test_verdict_equals_the_product_input_scan(self, name):
        U = _named_gate(name)
        _, _, smallest = scan_entangling_witness(U)
        assert entangling_verdict(U)[0] == (smallest >= 1e-4)


def _named_gate(name):
    if name.startswith("haar_"):
        return haar_unitary(4, np.random.default_rng(800 + int(name[5:])))
    if name.startswith("xy_grid_"):
        return two_qubit_gate(int(name[8:]) * 2.0 * np.pi / 32)
    return {"swap": SWAP, "cnot": CNOT, "identity": np.eye(4), "xy_0": two_qubit_gate(0.0),
            "xy_1.3": two_qubit_gate(1.3), "xy_0.7": two_qubit_gate(0.7),
            "xy_half_pi": two_qubit_gate(np.pi / 2)}[name]


def _haar_qubits(count, rng):
    """Haar-random qubit states: normalized complex Gaussian vectors, shape (count, 2)."""
    z = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestBlochAngles:
    def test_near_poles_pin_phi_to_zero(self):
        n = np.array([[1e-13, 1e-13, 1.0], [-1e-13, 2e-13, -1.0], [0.6, 0.0, 0.8]])
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        theta, phi = bloch_angles(n)
        assert list(phi[:2]) == [0.0, 0.0] and phi[2] == 0.0
        assert [bloch_angles(v)[1] for v in n[:2]] == [0.0, 0.0]

    def test_poles_pin_phi_to_zero(self):
        assert bloch_angles([0, 0, 1]) == (0.0, 0.0)
        theta, phi = bloch_angles([0, 0, -1])
        assert theta == pytest.approx(np.pi, abs=1e-15)
        assert phi == 0.0

    def test_angles_agree_with_math_to_the_last_bits(self):
        # numpy's arctan2/hypot may differ from math's by an ulp, never by more
        n = np.random.default_rng(7).normal(size=(2000, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        theta, phi = bloch_angles(n)
        ref_theta = [math.atan2(math.hypot(x, y), z) for x, y, z in n]
        ref_phi = [math.atan2(y, x) % (2.0 * math.pi) for x, y, _ in n]
        assert np.max(np.abs(theta - ref_theta)) <= 4 * np.spacing(np.pi)
        assert np.max(np.abs(phi - ref_phi)) <= 4 * np.spacing(2.0 * np.pi)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = random_unit_vector(rng)
        theta, phi = bloch_angles(n)
        assert 0.0 <= theta <= np.pi and 0.0 <= phi < 2 * np.pi
        assert np.allclose(bloch_vector(theta, phi), n, atol=1e-12)


class TestStackedExtraction:
    """A stack of column blocks is extracted member by member, in one call."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(), (1,), (5,)]), n_logical=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2**32 - 1), leaky=st.booleans())
    def test_stack_equals_per_member_results(self, shape, n_logical, seed, leaky):
        layout = ChainLayout(n_logical)
        rng = np.random.default_rng(seed)
        size = int(np.prod(shape))
        # with ``leaky`` the last member ends on a partial-area pulse, so it is not cyclic
        schedules = [_random_schedule(layout, rng, cyclic=True) for _ in range(size)]
        if leaky:
            schedules[-1].append(OneQubitPulse(1, 0.4, 1.1, area=float(rng.uniform(0.5, 2.5))))
        members = [run_schedule(sched, logical_frame(layout), layout) for sched in schedules]
        columns = np.array(members).reshape(shape + members[0].shape)

        stacked = extract_logical_gate(columns, layout)
        if shape == ():
            assert type(stacked.leakage) is float and type(stacked.cyclic) is bool
        singles = [extract_logical_gate(m, layout) for m in members]
        for point, single in zip(np.ndindex(shape), singles):
            assert np.array_equal(stacked.logical_gate[point], single.logical_gate)
            assert np.asarray(stacked.leakage)[point] == single.leakage
            assert np.asarray(stacked.cyclic)[point] == single.cyclic
        assert singles[-1].cyclic == (not leaky)

        targets = np.array([s.logical_gate if s.cyclic else np.eye(layout.logical_dim) for s in singles])
        targets = targets.reshape(shape + targets.shape[1:])
        if leaky:
            with pytest.raises(ValueError, match="non-cyclic"):
                extract_logical_gate(columns, layout, target=targets)
        else:
            fidelity = extract_logical_gate(columns, layout, target=targets).fidelity_vs_target
            for point, member, single in zip(np.ndindex(shape), members, singles):
                want = extract_logical_gate(member, layout, target=single.logical_gate).fidelity_vs_target
                assert np.asarray(fidelity)[point] == want


class TestClosedFormsOnArrays:
    """Array arguments give the stack of the single results, bit for bit."""

    def test_one_qubit_forms(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(7, 3))
        n, m = v / np.linalg.norm(v, axis=1, keepdims=True), np.roll(v, 1, axis=0)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        theta, phi = bloch_angles(n)
        assert np.array_equal(np.stack([theta, phi], axis=1), [bloch_angles(x) for x in n])
        assert type(bloch_angles(n[0])[0]) is float
        assert np.array_equal(bloch_vector(theta, phi), [bloch_vector(t, p) for t, p in zip(theta, phi)])
        assert np.array_equal(one_qubit_gate(n), [one_qubit_gate(x) for x in n])
        assert np.array_equal(compose_rule(n, m), [compose_rule(a, b) for a, b in zip(n, m)])

    def test_two_qubit_forms(self):
        vt = np.linspace(-3.0, 7.0, 9)
        area = np.array([0.3, np.pi, -2.0])
        assert np.array_equal(two_qubit_gate(vt), [two_qubit_gate(x) for x in vt])
        A, c = projected_block_maps(vt[:, None], area)
        for i, j in np.ndindex(A.shape[:2]):
            A1, c1 = projected_block_maps(vt[i], area[j])
            assert np.array_equal(A[i, j], A1) and c[i, j] == c1
        assert type(c1) is complex

    def test_non_unit_and_non_finite_members_are_named(self):
        with pytest.raises(ValueError, match="norm 2"):
            one_qubit_gate([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            compose_rule([[0.0, 0.0, 1.0]], [[np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            two_qubit_gate([0.0, np.inf])
