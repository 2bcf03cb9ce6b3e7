import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosim.chain import ChainLayout, logical_encode, logical_frame
from holosim.gates import bloch_vector, entanglement_entropy, extract_logical_gate, one_qubit_gate, two_qubit_gate
from holosim.linalg import apply_factor, expm_hermitian, gate_fidelity, unitarity_defect
from holosim.pulses import (
    ENVELOPES,
    OneQubitPulse,
    ThreeSitePulse,
    block_hamiltonian,
    cumulative_area,
    apply_local,
    closed_form,
    local_form,
    local_propagator,
    propagate_exact,
    propagate_stepped,
    run_schedule,
    schedule_propagator,
    _envelope,
)

from oracles import (block_sz, brute_embed, chain_dim, excited_fixity, generator_lambda_coupling,
                     generator_xy_coupling, kron_logical, local_reference, logical_indices, restricted, svd_entropy,
                     taylor_expm, to_full_chain)


class TestEnvelopes:
    @pytest.mark.parametrize("envelope", ENVELOPES)
    @pytest.mark.parametrize("steps", [1, 10, 100, 10000])
    def test_discretized_area_matches_request(self, envelope, steps):
        # the slice areas sum to the pulse's area at any step count: the slices share one block, so their
        # product is the single-shot propagator
        layout = ChainLayout(1)
        pulse = OneQubitPulse(1, 0.7, 0.3, area=2.2, envelope=envelope)
        U = propagate_stepped(pulse, steps, layout)
        assert np.max(np.abs(U - propagate_exact(pulse, layout))) <= 1e-12

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
        # partial sums of the normalized midpoint slices, as propagate_stepped takes them, must follow
        # cumulative_area
        steps = 10000
        weights = _envelope(envelope)[0]((np.arange(steps) + 0.5) / steps)
        assert np.all(weights >= 0)
        partial = np.cumsum(weights * (np.pi / weights.sum()))
        grid = (np.arange(steps) + 1.0) / steps
        want = np.array([cumulative_area(envelope, np.pi, s) for s in grid])
        assert np.max(np.abs(partial - want)) < 1e-7

    def test_envelope_order_is_pinned(self):
        # perfbench's certify-n3 draws ENVELOPES[i] by index: a reordered table would change its inputs
        assert ENVELOPES == ("square", "gaussian", "sin2")

    def test_invalid_envelope_and_steps(self):
        # one lookup gives every caller the same message
        message = "unknown envelope 'triangle', expected one of ('square', 'gaussian', 'sin2')"
        for make in (lambda: cumulative_area("triangle", np.pi, 0.5),
                     lambda: OneQubitPulse(1, 0.0, 0.0, envelope="triangle"),
                     lambda: ThreeSitePulse(1, 0.0, envelope="triangle")):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message
        pulse, layout = OneQubitPulse(1, 0.3, 0.2, envelope="sin2"), ChainLayout(1)
        for steps in (0, -3):
            with pytest.raises(ValueError) as err:
                propagate_stepped(pulse, steps, layout)
            assert str(err.value) == f"steps must be >= 1, got {steps}"
        # steps is read as an integer, as a site or qubit index is: no rounding, no bool, no string
        for steps in (2.5, True, np.float64(3.0), "3"):
            with pytest.raises(ValueError) as err:
                propagate_stepped(pulse, steps, layout)
            assert str(err.value) == f"steps must be an integer, got {steps!r}"
        assert np.array_equal(propagate_stepped(pulse, np.int64(3), layout), propagate_stepped(pulse, 3, layout))


class TestPropagateExact:
    def test_zero_area_is_identity(self):
        layout = ChainLayout(2)
        U = propagate_exact(OneQubitPulse(1, 0.7, 0.3, area=0.0), layout)
        assert np.allclose(U, np.eye(chain_dim(layout)), atol=1e-14)

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
        idx = logical_indices(layout)
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
        # every one of the 27 states, auxiliary |e> included
        layout = ChainLayout(2)
        U = propagate_exact(ThreeSitePulse(1, 2.0, area=1.3), layout)
        assert excited_fixity(U, layout) < 1e-12

    def test_locality_on_three_qubit_chain(self):
        # a pulse on pair (1,2) commutes with every operator on site 5
        layout = ChainLayout(3)
        U = propagate_exact(ThreeSitePulse(1, np.pi / 2), layout)
        for a in range(3):
            for b in range(3):
                E = np.zeros((3, 3))
                E[a, b] = 1.0
                O = brute_embed(E, 5, layout.n_sites)
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
        amps = psi[layout.logical_rows()]
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
        amps = psi[layout.logical_rows()]
        assert np.allclose(amps, [0.5, 0.5, 0.5, -0.5], atol=1e-12)
        assert abs(entanglement_entropy(amps) - np.log(2)) < 1e-9
        assert abs(svd_entropy(amps) - np.log(2)) < 1e-9

    def test_schedule_propagator_matches_stepwise_run(self):
        layout = ChainLayout(2)
        schedule = [OneQubitPulse(2, 0.8, 1.0), ThreeSitePulse(1, 1.1)]
        psi0 = logical_encode([1, 1], layout)
        assert np.allclose(
            schedule_propagator(schedule, layout) @ to_full_chain(psi0, layout),
            to_full_chain(run_schedule(schedule, psi0, layout), layout),
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
        want = schedule_propagator(schedule, layout) @ to_full_chain(psi0, layout)
        assert np.max(np.abs(to_full_chain(run_schedule(schedule, psi0, layout), layout) - want)) <= 1e-12

    def test_schedule_propagator_matches_dense_product(self):
        layout = ChainLayout(3)
        schedule = _raw_angle_pulses(layout, 2.2)
        want = np.eye(chain_dim(layout))
        for pulse in schedule:
            want = expm_hermitian(block_hamiltonian(pulse, layout), pulse.area) @ want
        assert np.max(np.abs(schedule_propagator(schedule, layout) - want)) <= 1e-12


class TestLocality:
    # every qubit and every pair of N = 1-4, each with drawn angles, envelope and area (2k+1)pi
    @pytest.mark.parametrize("n_logical, three_site, first",
                             [(n, False, q) for n in range(1, 5) for q in range(1, n + 1)]
                             + [(n, True, p) for n in range(2, 5) for p in range(1, n)])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(angles=st.tuples(*2 * [st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)]),
           envelope=st.sampled_from(ENVELOPES), k=st.integers(-2, 2))
    def test_one_pulse_gate_is_its_minimal_chain_gate_embedded(self, n_logical, three_site, first, angles,
                                                              envelope, k):
        # extract-gate's path (run_schedule on the logical frame, then extract_logical_gate) at N
        # against the same pulse on its minimal chain, embedded by explicit Kronecker products;
        # a pulse on a late qubit or pair is applied with many dimensions before it
        area = (2 * k + 1) * np.pi
        if three_site:
            pulse = ThreeSitePulse(first, angles[0], area=area, envelope=envelope)
        else:
            pulse = OneQubitPulse(first, *angles, area=area, envelope=envelope)
        layout = ChainLayout(n_logical)
        local, chain, _ = pulse.minimal_chain(layout)
        gate = extract_logical_gate(run_schedule([pulse], logical_frame(layout), layout), layout)
        small = extract_logical_gate(run_schedule([local], logical_frame(chain), chain), chain)
        assert gate.cyclic and small.cyclic
        assert np.max(np.abs(gate.logical_gate - kron_logical(first, small.logical_gate, n_logical))) <= 1e-14


def drive_block(theta, phi):
    """The drive's 3 x 3 block (a stack for array angles), read through ``local_form``."""
    return local_form(OneQubitPulse(1, theta, phi), ChainLayout(1))[1]


def xy_block(vartheta):
    """The XY coupling's 18 x 18 block on the reachable states of its sites (a stack for array angles), read
    through ``local_form``."""
    return local_form(ThreeSitePulse(1, vartheta), ChainLayout(2))[1]


_ANGLE = st.floats(-20.0, 20.0, allow_nan=False)
# 18 x 18: pair 1 spans all three sites of N = 2, and S_z is diagonal, so it restricts to the reachable states
_BLOCK_SZ = restricted(block_sz(1, ChainLayout(2)), ChainLayout(2))


def on_reachable(local):
    """A dense local operator (..., 3^k, 3^k) of a pulse's sites on their reachable states: a three-site one
    restricted to the 18 of its 27 states without an auxiliary |e>, as pair 1 spans the chain of N = 2."""
    return local if local.shape[-1] == 3 else restricted(local, ChainLayout(2))


class TestLocalBlockProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(theta=_ANGLE, phi=_ANGLE, vartheta=_ANGLE, area=_ANGLE)
    def test_blocks_cube_to_themselves_and_propagate_unitarily(self, theta, phi, vartheta, area):
        for block in (drive_block(theta, phi), xy_block(vartheta)):
            block_sq = block @ block
            assert np.max(np.abs(block_sq @ block - block)) <= 1e-14
            assert unitarity_defect(closed_form(np.eye(len(block)), block, block_sq, area)) <= 1e-13
        # the XY block and its propagator conserve the three sites' pseudo-spin S_z
        xy = xy_block(vartheta)
        U = closed_form(np.eye(18), xy, xy @ xy, area)
        assert np.max(np.abs(xy @ _BLOCK_SZ - _BLOCK_SZ @ xy)) <= 1e-14
        assert np.max(np.abs(U @ _BLOCK_SZ - _BLOCK_SZ @ U)) <= 1e-13


_ANGLE7 = st.floats(-7.0, 7.0, allow_nan=False)
_AREA7 = st.sampled_from([0.0, np.pi, -np.pi]) | _ANGLE7  # zero, +-pi, and partial areas up to |a| = 7
_IN_SECTOR = np.isin(np.arange(18), [6 * a + 3 * b + c for a in (0, 1) for b in (0, 1) for c in (0, 1)])
_OUTSIDE = ~(_IN_SECTOR[:, None] & _IN_SECTOR)  # the entries of an 18 x 18 block off its qubit sector


class TestLocalPropagator:
    """Each pulse writes its propagator entry by entry; the dense reference is a Taylor sum of its block."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n_logical=st.integers(1, 3), three_site=st.booleans(), batch=st.booleans(), data=st.data())
    def test_matches_the_taylor_reference(self, n_logical, three_site, batch, data):
        n_logical = max(n_logical, 1 + three_site)
        first = data.draw(st.integers(1, n_logical - three_site))
        if batch:  # two angles (or angle pairs) against three areas: a (2, 3) batch
            angles = [np.array(data.draw(st.lists(_ANGLE7, min_size=2, max_size=2)))[:, None]
                      for _ in range(1 if three_site else 2)]
            area = np.array(data.draw(st.lists(_AREA7, min_size=3, max_size=3)))
        else:
            angles, area = [data.draw(_ANGLE7) for _ in range(1 if three_site else 2)], data.draw(_AREA7)
        kind = ThreeSitePulse if three_site else OneQubitPulse
        pulse, layout = kind(first, *angles, area=area), ChainLayout(n_logical)
        site, U = local_propagator(pulse, layout)
        want_site, want = local_reference(pulse, layout)  # on all 3^k three-level states of the sites
        want = on_reachable(want)
        assert site == want_site and U.shape == want.shape
        assert np.max(np.abs(U - want)) <= 1e-14
        assert np.max(unitarity_defect(U)) <= 1e-14
        # the block's closed-form exponential, as stepped propagation forms it: local_form against the propagator
        block = local_form(pulse, layout)[1]
        assert np.max(np.abs(closed_form(np.eye(U.shape[-1]), block, block @ block, area) - U)) <= 1e-14
        if three_site:  # the identity off the qubit sector, exactly: 1.0 and +0.0, with +0.0 imaginary parts
            outside = U[..., _OUTSIDE]
            assert outside.tobytes() == np.broadcast_to(np.eye(18, dtype=complex)[_OUTSIDE], outside.shape).tobytes()
        if batch:
            for i, j in np.ndindex(2, 3):
                single = kind(first, *(a[i, 0] for a in angles), area=area[j])
                assert U[i, j].tobytes() == local_propagator(single, layout)[1].tobytes()

    def test_identity_and_zero_off_the_lambda_levels(self):
        # off the level triples its Λ systems list (read from lambdas), the propagator is exactly the identity,
        # 1.0 and +0.0 with +0.0 imaginary parts, and the block exactly +0.0, for single pulses and batches;
        # the triples are disjoint, so the drive's one system covers its three levels
        rng = np.random.default_rng(27)
        angles, areas = rng.uniform(-7, 7, (4, 1)), rng.uniform(-7, 7, 3)
        layout = ChainLayout(2)
        for pulse, stack in ((OneQubitPulse(2, 0.7, -2.1, area=1.3), ()),
                             (OneQubitPulse(1, angles, areas, area=areas), (4, 3)),
                             (ThreeSitePulse(1, -0.4, area=2.2), ()), (ThreeSitePulse(1, angles, area=areas), (4, 3))):
            _, size, systems = pulse.lambdas(layout)
            inside = np.zeros((size, size), dtype=bool)
            for levels, _ in systems:
                inside[np.ix_(levels, levels)] = True
            assert np.count_nonzero(inside) == 9 * len(systems)
            U, H = local_propagator(pulse, layout)[1], local_form(pulse, layout)[1]
            assert U.shape == stack + (size, size)
            U_off, H_off = U[..., ~inside], H[..., ~inside]
            assert U_off.tobytes() == np.broadcast_to(np.eye(size, dtype=complex)[~inside], U_off.shape).tobytes()
            assert H_off.tobytes() == np.zeros(H_off.shape, dtype=complex).tobytes()

    def test_agrees_with_the_closed_form_of_the_block_and_its_square(self):
        # the exponential from the block and its square, closed_form(1, H, H @ H, a), as stepped propagation forms it
        rng = np.random.default_rng(26)
        areas = np.concatenate([[0.0, np.pi, -np.pi, 2 * np.pi, 7.0, -7.0], rng.uniform(-7, 7, 294)])
        for theta, phi, vartheta, area in zip(*rng.uniform(-7, 7, (3, 300)), areas):
            for H, pulse in ((generator_lambda_coupling(theta, phi), OneQubitPulse(1, theta, phi, area=area)),
                             (generator_xy_coupling(vartheta), ThreeSitePulse(1, vartheta, area=area))):
                got = local_propagator(pulse, ChainLayout(2))[1]
                assert np.max(np.abs(got - on_reachable(closed_form(np.eye(len(H)), H, H @ H, area)))) <= 1e-15


class TestBatchedPulses:
    """Array angles and areas make a batch of pulses; each member equals its single pulse."""

    def test_couplings_and_block_exponential_broadcast(self):
        theta, phi = np.array([[0.3], [2.9]]), np.array([-1.0, 0.5, 4.0])
        blocks = drive_block(theta, phi)
        assert blocks.shape == (2, 3, 3, 3)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(blocks[i, j], drive_block(theta[i, 0], phi[j]))
        vt = np.array([0.0, 1.1, -7.5])
        xy = xy_block(vt)
        assert np.array_equal(xy, [xy_block(v) for v in vt])
        areas = np.array([0.4, np.pi, -3.0, 9.0])
        U = closed_form(np.eye(18), xy[:, None], (xy @ xy)[:, None], areas)
        assert U.shape == (3, 4, 18, 18)
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(U[i, j], closed_form(np.eye(18), xy[i], xy[i] @ xy[i], areas[j]))
        with pytest.raises(ValueError, match="finite"):
            OneQubitPulse(1, np.array([0.1, np.nan]), 0.0)
        with pytest.raises(ValueError, match="finite"):
            ThreeSitePulse(1, [0.0, np.inf])

    def test_apply_local_broadcasts_blocks_against_columns(self):
        layout = ChainLayout(2)
        rng = np.random.default_rng(21)
        X = rng.normal(size=(4, layout.dim, 3)) + 1j * rng.normal(size=(4, layout.dim, 3))
        site, block = 3, drive_block(rng.uniform(0, 3, (5, 1)), 0.7)  # (5, 1, 3, 3) against (4, dim, 3)
        got = apply_local(site, block, X)
        assert got.shape == (5, 4, layout.dim, 3)
        for i, j in np.ndindex(5, 4):
            want = brute_embed(block[i, 0], site, layout.n_sites) @ to_full_chain(X[j], layout)
            assert np.max(np.abs(to_full_chain(got[i, j], layout) - want)) <= 1e-13

    @pytest.mark.parametrize("site", [1, 3, 5])
    def test_apply_local_batch_equals_member_loop_bit_for_bit(self, site):
        # a stack of blocks and a single block are both broadcast over the dimensions before the block,
        # one product per member: on the chain, and on the qubit register of the site's qubit
        # (circuit_unitary's left = 2^(q-1))
        layout = ChainLayout(3)
        rng = np.random.default_rng(30 + site)
        blocks = [drive_block(rng.uniform(0, 7, 5), rng.uniform(0, 7, 5))]
        qubit = (site + 1) // 2
        gates = [one_qubit_gate(bloch_vector(rng.uniform(0, 7, 5), rng.uniform(0, 7, 5)))]
        if site + 2 <= layout.n_sites:
            blocks.append(xy_block(rng.uniform(0, 7, 5)))
            gates.append(two_qubit_gate(rng.uniform(0, 7, 5)))
        X = rng.normal(size=(5, layout.dim, 8)) + 1j * rng.normal(size=(5, layout.dim, 8))
        R = rng.normal(size=(5, 8, 8)) + 1j * rng.normal(size=(5, 8, 8))
        cases = [(lambda U, Y: apply_local(site, U, Y), blocks, (logical_frame(layout), X)),
                 (lambda U, Y: apply_factor(2 ** (qubit - 1), U, Y), gates, (np.eye(8, dtype=complex), R))]
        for apply, operators, inputs in cases:
            for block in operators:
                for columns in inputs:
                    got = apply(block, columns)
                    members = np.broadcast_to(columns, (5,) + columns.shape[-2:])
                    want = np.array([apply(block[k], members[k]) for k in range(5)])
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
            assert U.shape == (2, 3, chain_dim(layout), chain_dim(layout))
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
        for call in (lambda: local_form("one_qubit", ChainLayout(1)),
                     lambda: run_schedule(["one_qubit"], logical_frame(ChainLayout(1)), ChainLayout(1))):
            with pytest.raises(TypeError, match="not a pulse"):
                call()


class TestKernelMemory:
    """numpy reports its array allocations to tracemalloc: ``apply_local`` allocates only its result."""

    @staticmethod
    def _peak_over_result(site, U, X):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = apply_local(site, U, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / out.nbytes

    # a block of each site's own dimension at every site of N = 4 (the drive's 3 x 3, and a 2 x 2 on an
    # auxiliary site), and the 18 x 18 XY block at every site it fits, on N = 4's 648 x 16 reachable columns:
    # the most dimensions precede the block at the last sites.  An XY pulse starts on a logical site; the
    # auxiliary ones give the contraction other (left, d, rest) splits
    @pytest.mark.parametrize("site, d", [(site, ChainLayout(4).site_dims[site - 1]) for site in range(1, 8)]
                             + [(site, 18) for site in range(1, 6)])
    def test_traced_peak_is_the_result(self, site, d):
        block = xy_block(0.7) if d == 18 else drive_block(0.4, 0.9)[:d, :d]
        rng = np.random.default_rng(site)
        X = rng.normal(size=(ChainLayout(4).dim, 16)) + 1j * rng.normal(size=(ChainLayout(4).dim, 16))
        assert self._peak_over_result(site, block, X) <= 1.05

    @pytest.mark.parametrize("site", [1, 4, 7])
    def test_traced_peak_of_a_stack_is_the_result(self, site):
        # a stack (5, d, d) on one column block, and (5, 1, d, d) broadcast against a stack (4, dim, K), with d
        # the site's dimension
        rng = np.random.default_rng(40 + site)
        d = ChainLayout(4).site_dims[site - 1]
        blocks = drive_block(rng.uniform(0, 3, (5, 1)), 0.7)[..., :d, :d]
        X = rng.normal(size=(4, ChainLayout(4).dim, 4)) + 1j * rng.normal(size=(4, ChainLayout(4).dim, 4))
        assert self._peak_over_result(site, blocks[:, 0], X[0]) <= 1.05
        assert self._peak_over_result(site, blocks, X) <= 1.05
