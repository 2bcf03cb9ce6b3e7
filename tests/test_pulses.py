import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosim.chain import (ChainLayout, block_sz, embed, lambda_coupling, logical_encode, logical_frame,
                           xy_coupling)
from holosim.gates import bloch_vector, entanglement_entropy, one_qubit_gate
from holosim.linalg import expm_hermitian, gate_fidelity, unitarity_defect
from holosim.pulses import (
    ENVELOPES,
    OneQubitPulse,
    ThreeSitePulse,
    block_hamiltonian,
    cumulative_area,
    apply_local,
    closed_form,
    local_form,
    propagate_exact,
    propagate_stepped,
    run_schedule,
    schedule_propagator,
    slice_areas,
)

from oracles import svd_entropy, taylor_expm


class TestEnvelopes:
    @pytest.mark.parametrize("envelope", ENVELOPES)
    @pytest.mark.parametrize("steps", [1, 10, 100, 10000])
    def test_discretized_area_matches_request(self, envelope, steps):
        areas = slice_areas(envelope, np.pi, steps)
        assert areas.shape == (steps,)
        assert np.all(areas >= 0)
        assert abs(areas.sum() - np.pi) < 1e-12

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_cumulative_area_endpoints_and_monotonicity(self, envelope):
        assert cumulative_area(envelope, np.pi, 0.0) == 0.0
        assert cumulative_area(envelope, np.pi, 1.0) == pytest.approx(np.pi, abs=1e-15)
        values = [cumulative_area(envelope, np.pi, s) for s in np.linspace(0, 1, 101)]
        assert np.all(np.diff(values) >= -1e-15)

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_cumulative_area_on_an_array_matches_scalar_calls(self, envelope):
        s = np.concatenate([[-0.5, 0.0], np.random.default_rng(3).uniform(0, 1, 50), [1.0, 1.5]])
        got = cumulative_area(envelope, -2.3, s)
        assert isinstance(got, np.ndarray) and got.shape == s.shape
        assert np.array_equal(got, [cumulative_area(envelope, -2.3, x) for x in s])
        assert got[0] == 0.0 and got[-1] == pytest.approx(-2.3, abs=1e-15)  # clamped to [0, 1]
        assert type(cumulative_area(envelope, -2.3, 0.4)) is float

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_slice_sums_track_the_closed_form_cumulative(self, envelope):
        # partial sums of the normalized slices must follow cumulative_area
        steps = 10000
        partial = np.cumsum(slice_areas(envelope, np.pi, steps))
        grid = (np.arange(steps) + 1.0) / steps
        want = np.array([cumulative_area(envelope, np.pi, s) for s in grid])
        assert np.max(np.abs(partial - want)) < 1e-7

    def test_envelope_order_is_pinned(self):
        # perfbench's certify-n3 draws ENVELOPES[i] by index: a reordered table would change its inputs
        assert ENVELOPES == ("square", "gaussian", "sin2")

    def test_invalid_envelope_and_steps(self):
        # one lookup gives every caller the same message
        message = "unknown envelope 'triangle', expected one of ('square', 'gaussian', 'sin2')"
        for make in (lambda: slice_areas("triangle", np.pi, 10), lambda: cumulative_area("triangle", np.pi, 0.5),
                     lambda: OneQubitPulse(1, 0.0, 0.0, envelope="triangle"),
                     lambda: ThreeSitePulse(1, 0.0, envelope="triangle")):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message
        with pytest.raises(ValueError, match="steps"):
            slice_areas("square", np.pi, 0)
        with pytest.raises(ValueError, match="duration"):
            OneQubitPulse(1, 0.0, 0.0, duration=0.0)


class TestPropagateExact:
    def test_zero_area_is_identity(self):
        layout = ChainLayout(2)
        U = propagate_exact(OneQubitPulse(1, 0.7, 0.3, area=0.0), layout)
        assert np.allclose(U, np.eye(layout.dim), atol=1e-14)

    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (np.pi / 4, 0.0), (1.2, 2.6)])
    def test_pi_area_restricts_to_reflection(self, theta, phi):
        layout = ChainLayout(1)
        U = propagate_exact(OneQubitPulse(1, theta, phi), layout)
        block = U[:2, :2]
        assert np.allclose(block, one_qubit_gate(bloch_vector(theta, phi)), atol=1e-12)
        # no residual coupling of the qubit subspace to the excited level
        assert np.max(np.abs(U[2, :2])) < 1e-12

    def test_three_site_double_area_is_identity_on_logical_block(self):
        layout = ChainLayout(2)
        U = propagate_exact(ThreeSitePulse(1, 1.1, area=2 * np.pi), layout)
        idx = layout.logical_indices()
        assert np.allclose(U[np.ix_(idx, idx)], np.eye(4), atol=1e-12)

    @pytest.mark.parametrize(
        "pulse",
        [
            OneQubitPulse(1, 0.9, 4.4, area=0.37),
            ThreeSitePulse(1, 2.3, area=1.9),
        ],
    )
    def test_unitarity(self, pulse):
        U = propagate_exact(pulse, ChainLayout(2))
        assert unitarity_defect(U) < 1e-10

    def test_sz_conserved_during_three_site_pulse(self):
        layout = ChainLayout(2)
        sz = block_sz(1, layout)
        for area in (0.4, np.pi, 5.0):
            U = propagate_exact(ThreeSitePulse(1, 1.7, area=area), layout)
            assert np.linalg.norm(U @ sz - sz @ U) < 1e-10

    def test_three_site_pulse_fixes_excited_states(self):
        layout = ChainLayout(2)
        U = propagate_exact(ThreeSitePulse(1, 2.0, area=1.3), layout)
        for j in range(layout.dim):
            if "2" in np.base_repr(j, base=3).zfill(3):
                col = U[:, j].copy()
                col[j] -= 1.0
                assert np.linalg.norm(col) < 1e-12

    def test_locality_on_three_qubit_chain(self):
        # a pulse on pair (1,2) commutes with every operator on site 5
        layout = ChainLayout(3)
        U = propagate_exact(ThreeSitePulse(1, np.pi / 2), layout)
        for a in range(3):
            for b in range(3):
                E = np.zeros((3, 3))
                E[a, b] = 1.0
                O = embed(E, 5, layout)
                assert np.linalg.norm(U @ O - O @ U) < 1e-12


class TestPropagateStepped:
    def test_single_square_step_equals_exact(self):
        layout = ChainLayout(2)
        pulse = ThreeSitePulse(1, 1.3, area=2.2)
        assert np.linalg.norm(
            propagate_stepped(pulse, 1, layout) - propagate_exact(pulse, layout)
        ) < 1e-12

    @pytest.mark.parametrize("envelope", ENVELOPES)
    @pytest.mark.parametrize("steps", [10, 100, 10000])
    def test_envelope_and_step_count_irrelevant(self, envelope, steps):
        layout = ChainLayout(1)
        pulse = OneQubitPulse(1, np.pi / 4, 0.0, envelope=envelope)
        U = propagate_stepped(pulse, steps, layout)
        assert gate_fidelity(U, propagate_exact(pulse, layout)) >= 1.0 - 1e-9

    def test_three_site_envelopes(self):
        layout = ChainLayout(2)
        exact = propagate_exact(ThreeSitePulse(1, np.pi / 2), layout)
        for envelope in ENVELOPES:
            U = propagate_stepped(ThreeSitePulse(1, np.pi / 2, envelope=envelope), 1000, layout)
            assert gate_fidelity(U, exact) >= 1.0 - 1e-9


class TestRunSchedule:
    def test_empty_schedule(self):
        layout = ChainLayout(2)
        psi0 = logical_encode([1, 0], layout)
        assert np.array_equal(run_schedule([], psi0, layout), psi0)

    def test_polar_pulse_fixes_zero_state(self):
        layout = ChainLayout(2)
        psi0 = logical_encode([0, 0], layout)
        psi = run_schedule([OneQubitPulse(1, 0.0, 0.0)], psi0, layout)
        assert abs(abs(np.vdot(psi0, psi)) - 1.0) < 1e-12

    def test_norm_preserved(self):
        layout = ChainLayout(2)
        psi = run_schedule(
            [OneQubitPulse(1, 1.1, 0.4), ThreeSitePulse(1, 2.0), OneQubitPulse(2, 0.3, 5.1)],
            logical_encode([0, 1], layout),
            layout,
        )
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        layout = ChainLayout(2)
        with pytest.raises(ValueError, match="dimension"):
            run_schedule([], np.zeros(9, dtype=complex), layout)

    def test_hadamard_then_xy_leaves_product_state(self):
        # oracle-checked: H on qubit 1 makes (|00> + |10>)/sqrt(2); the
        # pi/2 exchange then maps |10> -> |01>, giving |0> x |+> -- still
        # a product state, with zero leakage
        layout = ChainLayout(2)
        schedule = [OneQubitPulse(1, np.pi / 4, 0.0), ThreeSitePulse(1, np.pi / 2)]
        psi = run_schedule(schedule, logical_encode([0, 0], layout), layout)
        amps = psi[layout.logical_indices()]
        assert np.allclose(np.abs(amps), [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-12)
        assert abs(1.0 - np.sum(np.abs(amps) ** 2)) < 1e-12  # no leakage
        assert entanglement_entropy(amps) < 1e-12
        assert svd_entropy(amps) < 1e-12

    def test_double_hadamard_then_xy_is_maximally_entangling(self):
        # oracle-checked: |+>|+> through the pi/2 exchange gate picks up a
        # sign on |11> and becomes maximally entangled
        layout = ChainLayout(2)
        schedule = [
            OneQubitPulse(1, np.pi / 4, 0.0),
            OneQubitPulse(2, np.pi / 4, 0.0),
            ThreeSitePulse(1, np.pi / 2),
        ]
        psi = run_schedule(schedule, logical_encode([0, 0], layout), layout)
        amps = psi[layout.logical_indices()]
        assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=1e-12)
        assert abs(entanglement_entropy(amps) - np.log(2)) < 1e-9
        assert abs(svd_entropy(amps) - np.log(2)) < 1e-9

    def test_schedule_propagator_matches_stepwise_run(self):
        layout = ChainLayout(2)
        schedule = [OneQubitPulse(2, 0.8, 1.0), ThreeSitePulse(1, 1.1)]
        psi0 = logical_encode([1, 1], layout)
        assert np.allclose(
            schedule_propagator(schedule, layout) @ psi0,
            run_schedule(schedule, psi0, layout),
            atol=1e-12,
        )


def _raw_angle_pulses(layout, area, envelope="square"):
    """One pulse of each kind on every qubit and pair, with raw (un-normalized) angles."""
    pulses = [OneQubitPulse(q, 4.1 + 0.3 * q, -2.3 * q, area=area, envelope=envelope)
              for q in range(1, layout.n_logical + 1)]
    pulses += [ThreeSitePulse(p, -1.9 * p, area=area, envelope=envelope)
               for p in range(1, layout.n_logical)]
    return pulses


class TestLocalKernelAgainstDense:
    """The closed-form local kernel against dense eigh and Taylor exponentials."""

    @pytest.mark.parametrize("n_logical", [1, 2, 3])
    @pytest.mark.parametrize("area", [np.pi, 1.3, -0.7, -2.4])
    def test_propagate_exact_matches_dense_oracles(self, n_logical, area):
        layout = ChainLayout(n_logical)
        for pulse in _raw_angle_pulses(layout, area):
            H = block_hamiltonian(pulse, layout)
            U = propagate_exact(pulse, layout)
            assert np.max(np.abs(U - expm_hermitian(H, area))) <= 1e-12
            assert np.max(np.abs(U - taylor_expm(H, area))) <= 1e-12

    @pytest.mark.parametrize("n_logical", [1, 2, 3])
    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_propagate_stepped_matches_dense_oracles(self, n_logical, envelope):
        layout = ChainLayout(n_logical)
        for pulse in _raw_angle_pulses(layout, -1.1, envelope):
            H = block_hamiltonian(pulse, layout)
            U = propagate_stepped(pulse, 37, layout)
            assert np.max(np.abs(U - expm_hermitian(H, -1.1))) <= 1e-12
            assert np.max(np.abs(U - taylor_expm(H, -1.1))) <= 1e-12

    def test_run_schedule_matches_schedule_propagator(self):
        layout = ChainLayout(3)
        schedule = _raw_angle_pulses(layout, 0.9) + _raw_angle_pulses(layout, -2.6)[::-1]
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        psi0 /= np.linalg.norm(psi0)
        want = schedule_propagator(schedule, layout) @ psi0
        assert np.max(np.abs(run_schedule(schedule, psi0, layout) - want)) <= 1e-12

    def test_schedule_propagator_matches_dense_product(self):
        layout = ChainLayout(3)
        schedule = _raw_angle_pulses(layout, 2.2)
        want = np.eye(layout.dim)
        for pulse in schedule:
            want = expm_hermitian(block_hamiltonian(pulse, layout), pulse.area) @ want
        assert np.max(np.abs(schedule_propagator(schedule, layout) - want)) <= 1e-12


_ANGLE = st.floats(-20.0, 20.0, allow_nan=False)
_BLOCK_SZ = block_sz(1, ChainLayout(2))  # 27 x 27: pair 1 spans all three sites of N = 2


class TestLocalBlockProperties:
    @settings(max_examples=200, deadline=None)
    @given(theta=_ANGLE, phi=_ANGLE, vartheta=_ANGLE, area=_ANGLE)
    def test_blocks_cube_to_themselves_and_propagate_unitarily(self, theta, phi, vartheta, area):
        for block in (lambda_coupling(theta, phi), xy_coupling(vartheta)):
            block_sq = block @ block
            assert np.max(np.abs(block_sq @ block - block)) <= 1e-14
            assert unitarity_defect(closed_form(np.eye(len(block)), block, block_sq, area)) <= 1e-13
        # the XY block and its propagator conserve the three sites' pseudo-spin S_z
        xy = xy_coupling(vartheta)
        U = closed_form(np.eye(27), xy, xy @ xy, area)
        assert np.max(np.abs(xy @ _BLOCK_SZ - _BLOCK_SZ @ xy)) <= 1e-14
        assert np.max(np.abs(U @ _BLOCK_SZ - _BLOCK_SZ @ U)) <= 1e-13


class TestBatchedPulses:
    """Array angles and areas make a batch of pulses; each member equals its single pulse."""

    def test_couplings_and_block_exponential_broadcast(self):
        theta, phi = np.array([[0.3], [2.9]]), np.array([-1.0, 0.5, 4.0])
        blocks = lambda_coupling(theta, phi)
        assert blocks.shape == (2, 3, 3, 3)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(blocks[i, j], lambda_coupling(theta[i, 0], phi[j]))
        vt = np.array([0.0, 1.1, -7.5])
        xy = xy_coupling(vt)
        assert np.array_equal(xy, [xy_coupling(v) for v in vt])
        areas = np.array([0.4, np.pi, -3.0, 9.0])
        U = closed_form(np.eye(27), xy[:, None], (xy @ xy)[:, None], areas)
        assert U.shape == (3, 4, 27, 27)
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(U[i, j], closed_form(np.eye(27), xy[i], xy[i] @ xy[i], areas[j]))
        with pytest.raises(ValueError, match="finite"):
            lambda_coupling(np.array([0.1, np.nan]), 0.0)
        with pytest.raises(ValueError, match="finite"):
            xy_coupling([0.0, np.inf])

    def test_apply_local_broadcasts_blocks_against_columns(self):
        layout = ChainLayout(2)
        rng = np.random.default_rng(21)
        X = rng.normal(size=(4, layout.dim, 3)) + 1j * rng.normal(size=(4, layout.dim, 3))
        site, block = 3, lambda_coupling(rng.uniform(0, 3, (5, 1)), 0.7)  # (5, 1, 3, 3) against (4, dim, 3)
        got = apply_local(site, block, X)
        assert got.shape == (5, 4, layout.dim, 3)
        for i, j in np.ndindex(5, 4):
            assert np.max(np.abs(got[i, j] - embed(block[i, 0], site, layout) @ X[j])) <= 1e-13

    @pytest.mark.parametrize("site", [1, 3, 5])
    def test_apply_local_batch_equals_member_loop_bit_for_bit(self, site):
        # a stack of blocks moves the sites before the block behind its axis, one product per
        # member; single blocks keep one product per configuration of those sites
        layout = ChainLayout(3)
        rng = np.random.default_rng(30 + site)
        blocks = [lambda_coupling(rng.uniform(0, 7, 5), rng.uniform(0, 7, 5))]
        if site + 2 <= layout.n_sites:
            blocks.append(xy_coupling(rng.uniform(0, 7, 5)))
        X = rng.normal(size=(5, layout.dim, 8)) + 1j * rng.normal(size=(5, layout.dim, 8))
        for block in blocks:
            for columns in (logical_frame(layout), X):
                got = apply_local(site, block, columns)
                members = np.broadcast_to(columns, X.shape)
                want = np.array([apply_local(site, block[k], members[k]) for k in range(5)])
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_batched_schedule_matches_single_pulses(self, envelope):
        layout = ChainLayout(3)
        rng = np.random.default_rng(22)
        theta, phi = rng.uniform(-7, 7, 6), rng.uniform(-7, 7, 6)
        vt, area = rng.uniform(-7, 7, (3, 1)), rng.uniform(-7, 7, 6)
        schedule = [OneQubitPulse(2, theta, phi, envelope=envelope),
                    ThreeSitePulse(2, vt, area=area, envelope=envelope),
                    OneQubitPulse(3, 0.3, 1.0, area=area)]
        frame, psi0 = logical_frame(layout), logical_encode([1, 0, 1], layout)
        columns, states = run_schedule(schedule, frame, layout), run_schedule(schedule, psi0, layout)
        assert columns.shape == (3, 6, layout.dim, 8) and states.shape == (3, 6, layout.dim)
        for i, j in np.ndindex(3, 6):
            single = [OneQubitPulse(2, theta[j], phi[j], envelope=envelope),
                      ThreeSitePulse(2, vt[i, 0], area=area[j], envelope=envelope),
                      OneQubitPulse(3, 0.3, 1.0, area=area[j])]
            assert np.max(np.abs(columns[i, j] - run_schedule(single, frame, layout))) <= 1e-14
            assert np.max(np.abs(states[i, j] - run_schedule(single, psi0, layout))) <= 1e-14
        # leading axes of the columns broadcast against the pulse batch
        stacked = run_schedule([OneQubitPulse(2, theta[:, None], phi[:, None])],
                               np.stack([frame, 2.0 * frame]), layout)
        assert stacked.shape == (6, 2, layout.dim, 8)
        assert np.max(np.abs(stacked[:, 1] - 2.0 * stacked[:, 0])) <= 1e-14

    @pytest.mark.parametrize("n_logical", [2, 3])
    def test_dense_builders_match_single_pulses(self, n_logical):
        layout = ChainLayout(n_logical)
        rng = np.random.default_rng(23 + n_logical)
        theta, phi = rng.uniform(-7, 7, (2, 1)), rng.uniform(-7, 7, 3)
        vt, area = rng.uniform(-7, 7, (2, 1)), rng.uniform(-7, 7, 3)
        batches = [OneQubitPulse(q, theta, phi, area=area) for q in range(1, n_logical + 1)]
        batches += [ThreeSitePulse(p, vt, area=area) for p in range(1, n_logical)]
        for batch in batches:
            U = propagate_exact(batch, layout)
            assert U.shape == (2, 3, layout.dim, layout.dim)
            H = np.broadcast_to(block_hamiltonian(batch, layout), U.shape)  # the area is not an axis of H
            for i, j in np.ndindex(2, 3):
                if isinstance(batch, OneQubitPulse):
                    single = OneQubitPulse(batch.qubit, theta[i, 0], phi[j], area=area[j])
                else:
                    single = ThreeSitePulse(batch.pair, vt[i, 0], area=area[j])
                assert np.array_equal(H[i, j], block_hamiltonian(single, layout))
                assert np.array_equal(U[i, j], propagate_exact(single, layout))

    def test_stepped_propagation_rejects_a_batch(self):
        layout = ChainLayout(2)
        # four areas and four slices broadcast together, so an unchecked batch gives one wrong propagator
        for batch in (OneQubitPulse(1, 0.3, 0.2, area=np.array([0.5, 1.0, 2.0, 3.0])),
                      ThreeSitePulse(1, np.array([0.1, 0.2]))):
            with pytest.raises(ValueError, match="one pulse, not a batch"):
                propagate_stepped(batch, 4, layout)

    def test_array_fields_are_checked(self):
        with pytest.raises(ValueError, match="theta and phi must be finite"):
            OneQubitPulse(1, np.array([0.1, np.nan]), 0.0)
        with pytest.raises(ValueError, match="vartheta must be finite"):
            ThreeSitePulse(1, np.array([np.inf]))
        with pytest.raises(ValueError, match="area must be finite"):
            ThreeSitePulse(1, 0.3, area=np.array([1.0, -np.inf]))

    def test_local_form_rejects_other_objects(self):
        with pytest.raises(TypeError, match="not a pulse"):
            local_form("one_qubit", ChainLayout(1))
