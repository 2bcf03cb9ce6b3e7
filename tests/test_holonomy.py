import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from holosim import holonomy
from holosim.chain import ChainLayout, logical_frame
from holosim.gates import bloch_vector, one_qubit_gate, two_qubit_gate
from holosim.holonomy import (
    CERTIFY_CYCLICITY,
    HolonomyError,
    _ordered_product,
    certify,
    check_parallel_transport,
    computational_frame,
    projected_propagator,
    trace_subspace,
    wilson_loop,
)
from holosim.linalg import expm_hermitian, gate_fidelity, inner, polar_unitary
from holosim.pulses import (ENVELOPES, OneQubitPulse, ThreeSitePulse, apply_local, block_hamiltonian,
                            cumulative_area, local_form, propagate_exact)

from oracles import eigh_frames, haar_unitary, subspace_energies, wilson_product

LAYOUT = ChainLayout(2)


def projector(path, j):
    F = path.frame(j)
    return F @ F.conj().T


class TestTraceSubspace:
    def test_zero_area_pulse_is_constant_path(self):
        pulse = OneQubitPulse(1, 0.8, 0.2, area=0.0)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 64, LAYOUT)
        assert path.cyclicity_residual < 1e-12
        P0 = projector(path, 0)
        for j in (1, 31, 63):
            assert np.linalg.norm(projector(path, j) - P0) < 1e-12

    @pytest.mark.parametrize(
        "pulse",
        [OneQubitPulse(1, 1.1, 0.3), ThreeSitePulse(1, 0.9)],
    )
    def test_pi_area_paths_close(self, pulse):
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 257, LAYOUT)
        assert path.cyclicity_residual < 1e-10
        eye = np.eye(path.subspace_dim)
        frames = (path.frame(j) for j in range(path.samples))
        assert max(np.linalg.norm(F.conj().T @ F - eye) for F in frames) < 1e-10

    def test_projector_identities_along_path(self):
        pulse = ThreeSitePulse(1, 1.7)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 65, LAYOUT)
        for j in (0, 17, 64):
            P = projector(path, j)
            assert np.linalg.norm(P @ P - P) < 1e-10
            assert np.linalg.norm(P - P.conj().T) < 1e-12
            assert abs(np.trace(P).real - path.subspace_dim) < 1e-10

    @pytest.mark.parametrize("envelope", ENVELOPES)
    def test_samples_are_evenly_spaced_in_scaled_time(self, envelope):
        pulse = ThreeSitePulse(1, 0.9, area=1.3, envelope=envelope)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 33, LAYOUT)
        s = np.arange(33) / 32
        assert np.allclose(path.areas, [cumulative_area(envelope, 1.3, x) for x in s], rtol=0, atol=1e-15)
        assert path.areas[0] == 0.0 and path.areas[-1] == pytest.approx(1.3, abs=1e-15)

    def test_rejects_bad_frames_and_sample_counts(self):
        pulse = OneQubitPulse(1, 0.5, 0.0)
        frame = computational_frame(pulse, LAYOUT)
        with pytest.raises(ValueError, match="samples"):
            trace_subspace(pulse, frame, 1, LAYOUT)
        with pytest.raises(ValueError, match=r"^initial frame is not orthonormal: defect 1\.061e\+00$"):
            trace_subspace(pulse, 0.5 * frame, 8, LAYOUT)
        with pytest.raises(ValueError, match="shape"):
            trace_subspace(pulse, frame[:9], 8, LAYOUT)

    def test_memory_is_budgeted_before_the_frame_is_checked(self, monkeypatch):
        # the orthonormality defect is read from the term Gram, after the budget: no dim-sized
        # work, not even a conjugated copy of the frame, comes before check_memory
        def refuse(what, nbytes):
            raise MemoryError(what)

        monkeypatch.setattr(holonomy, "check_memory", refuse)
        pulse = OneQubitPulse(1, 0.5, 0.0)
        with pytest.raises(MemoryError, match="subspace path of 8 samples"):
            trace_subspace(pulse, 0.5 * computational_frame(pulse, LAYOUT), 8, LAYOUT)


class TestParallelTransport:
    def test_one_qubit_pulse_has_zero_subspace_energy(self):
        pulse = OneQubitPulse(1, np.pi / 4, 0.0)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 129, LAYOUT)
        residual, eps = check_parallel_transport(path)
        assert residual < 1e-10
        assert np.max(np.abs(eps)) < 1e-12

    def test_three_site_pulse_has_zero_subspace_energy(self):
        pulse = ThreeSitePulse(1, np.pi / 2)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 129, LAYOUT)
        residual, eps = check_parallel_transport(path)
        assert residual < 1e-10
        assert np.max(np.abs(eps)) < 1e-12


class TestWilsonLoop:
    def test_constant_path_gives_identity(self):
        pulse = ThreeSitePulse(1, 1.2, area=0.0)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 32, LAYOUT)
        assert np.allclose(wilson_loop(path), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("theta,phi", [(np.pi / 4, 0.0), (1.9, 2.2), (0.0, 0.0)])
    def test_one_qubit_loop_matches_reflection(self, theta, phi):
        pulse = OneQubitPulse(1, theta, phi)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 1000, LAYOUT)
        W = wilson_loop(path)
        target = one_qubit_gate(bloch_vector(theta, phi))
        assert gate_fidelity(W, target) >= 1.0 - 1e-6

    @pytest.mark.parametrize("vt", [np.pi / 2, 0.7, 4.0])
    def test_three_site_loop_matches_exchange_gate(self, vt):
        pulse = ThreeSitePulse(1, vt)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 1000, LAYOUT)
        W = wilson_loop(path)
        assert gate_fidelity(W, two_qubit_gate(vt)) >= 1.0 - 1e-6

    def test_gauge_covariance(self):
        pulse = ThreeSitePulse(1, 1.3)
        frame = computational_frame(pulse, LAYOUT)
        rng = np.random.default_rng(17)
        V = haar_unitary(4, rng)
        W = wilson_loop(trace_subspace(pulse, frame, 400, LAYOUT))
        W_rot = wilson_loop(trace_subspace(pulse, frame @ V, 400, LAYOUT))
        assert gate_fidelity(W_rot, V.conj().T @ W @ V) >= 1.0 - 1e-8

    def test_non_cyclic_path_rejected_with_residual(self):
        pulse = ThreeSitePulse(1, np.pi / 2, area=np.pi / 2)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), 64, LAYOUT)
        with pytest.raises(ValueError, match="cyclic"):
            wilson_loop(path)


class TestCertify:
    @pytest.mark.parametrize(
        "pulse",
        [OneQubitPulse(1, np.pi / 4, 0.0), ThreeSitePulse(1, np.pi / 2)],
    )
    def test_canonical_pulses_pass(self, pulse):
        report = certify(pulse, LAYOUT, samples=512)
        assert report.passed
        assert report.parallel_transport_residual < 1e-9
        assert abs(report.dynamical_phase) < 1e-9
        assert report.cyclicity_residual < 1e-8
        assert report.cross_fidelity >= 1.0 - 1e-6

    def test_memory_budget_is_checked_before_sampling(self):
        # 10**9 samples of a 2 x 2 overlap and a coefficient row, about 0.12 TiB: refused
        # before any samples-sized array
        with pytest.raises(MemoryError, match="physical memory"):
            certify(OneQubitPulse(1, np.pi / 4, 0.0), LAYOUT, samples=10**9)

    @pytest.mark.parametrize("pulse,qubits", [(ThreeSitePulse(1, 0.5), 12), (OneQubitPulse(1, 0.5, 0.0), 16)])
    def test_frame_is_budgeted_before_it_is_built(self, pulse, qubits):
        # the dim x 2^12 logical frame is about 5.5 PiB, the dim x 2 frame at N = 16 about 18 PiB
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="physical memory"):
                certify(pulse, ChainLayout(qubits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_failure_messages(self, monkeypatch):
        # an eigenvector of H stays put and gains only the dynamical phase -area, so with every
        # "value >= bound" bound at 0 each measurement fails, the negative phase by its magnitude
        for name in ("CERTIFY_PARALLEL_TRANSPORT", "CERTIFY_DYNAMICAL_PHASE", "CERTIFY_CYCLICITY"):
            monkeypatch.setattr(holonomy, name, 0.0)
        layout, pulse = ChainLayout(1), OneQubitPulse(1, 0.7, 0.3)
        eigenvector = np.linalg.eigh(local_form(pulse, layout)[1])[1][:, :1]  # eigenvalue -1
        monkeypatch.setattr(holonomy, "computational_frame", lambda pulse, layout: eigenvector)
        report = certify(pulse, layout, samples=64, strict=False)
        assert report.dynamical_phase == pytest.approx(-np.pi, abs=1e-12)
        assert report.failures == (
            f"parallel transport residual {report.parallel_transport_residual:.3e} >= 0.0e+00",
            f"dynamical phase {report.dynamical_phase:.3e} >= 0.0e+00",
            f"cyclicity residual {report.cyclicity_residual:.3e} >= 0.0e+00",
        )
        assert report.failures[1] == "dynamical phase -3.142e+00 >= 0.0e+00"
        assert report.cross_fidelity is None  # not cyclic against a bound of 0

    def test_memory_budget_counts_the_term_gram(self, monkeypatch):
        asked = []
        monkeypatch.setattr(holonomy, "check_memory", lambda what, nbytes: asked.append(nbytes))
        layout = ChainLayout(3)
        path = trace_subspace(ThreeSitePulse(2, 0.9), logical_frame(layout), 100, layout)
        K = 8
        # three dim x K terms, the 3 x 3 term Gram of K x K blocks, and per sample a K x K
        # overlap, an area and a coefficient row
        assert asked == [16 * (3 * layout.dim * K + 9 * K * K + 100 * (K * K + 4))]
        assert path.gram.nbytes == 16 * 9 * K * K

    def test_gate_agrees_with_analytic_target(self):
        report = certify(ThreeSitePulse(1, 0.8), LAYOUT, samples=512)
        assert gate_fidelity(report.wilson_gate, two_qubit_gate(0.8)) >= 1.0 - 1e-6
        assert gate_fidelity(report.propagator_gate, two_qubit_gate(0.8)) >= 1.0 - 1e-10

    def test_partial_area_fails_on_cyclicity(self):
        with pytest.raises(HolonomyError, match="cyclicity") as err:
            certify(ThreeSitePulse(1, np.pi / 2, area=np.pi / 2), LAYOUT, samples=128)
        assert any("cyclicity" in f for f in err.value.failures)
        assert err.value.report.wilson_gate is None

    def test_non_strict_returns_failure_report(self):
        report = certify(
            ThreeSitePulse(1, np.pi / 2, area=np.pi / 2), LAYOUT, samples=128, strict=False
        )
        assert not report.passed
        assert any("cyclicity" in f for f in report.failures)

    def test_projected_propagator_equals_wilson_gate(self):
        # the defining cross-check: both routes to the gate must agree
        report = certify(OneQubitPulse(1, 1.0, 0.5), LAYOUT, samples=512)
        assert gate_fidelity(report.wilson_gate, report.propagator_gate) >= 1.0 - 1e-9


class TestWilsonConvergence:
    def test_deficits_already_at_roundoff(self):
        # For constant-in-time block Hamiltonians the overlap product differs
        # from the projected propagator only by a Hermitian positive factor,
        # which polar unitarization removes exactly; the discrete loop is
        # therefore exact at any sample count and the deficit curve sits at
        # the roundoff floor instead of decaying like 1/samples.
        counts = [64, 128, 256, 512]
        for pulse in (OneQubitPulse(1, np.pi / 4, 0.0), ThreeSitePulse(1, np.pi / 2)):
            deficits = [1.0 - certify(pulse, LAYOUT, samples=count, strict=False).cross_fidelity
                        for count in counts]
            assert np.all(np.array(deficits) <= 1e-12)

    def test_unitarized_overlap_product_is_projected_propagator(self):
        pulse = ThreeSitePulse(1, 1.1)
        frame = computational_frame(pulse, LAYOUT)
        path = trace_subspace(pulse, frame, 64, LAYOUT)
        W = wilson_loop(path)
        U = propagate_exact(pulse, LAYOUT)
        G = polar_unitary(frame.conj().T @ U @ frame)
        assert np.max(np.abs(W - G)) < 1e-12


class TestAgainstDenseOracle:
    """Closed-form frames and certification against dense eigh exponentials."""

    @pytest.mark.parametrize("envelope", ENVELOPES)
    @pytest.mark.parametrize("pulse_kind", ["one_qubit", "three_site"])
    def test_frames_match_dense_propagation(self, envelope, pulse_kind):
        layout = ChainLayout(3)
        if pulse_kind == "one_qubit":
            pulse = OneQubitPulse(2, 3.9, -1.2, area=2.1, envelope=envelope)
        else:
            pulse = ThreeSitePulse(2, -0.8, area=-1.7, envelope=envelope)
        F0 = computational_frame(pulse, layout)
        path = trace_subspace(pulse, F0, 33, layout)
        H = block_hamiltonian(pulse, layout)
        for j, area in enumerate(path.areas):
            assert np.max(np.abs(path.frame(j) - expm_hermitian(H, area) @ F0)) <= 1e-12

    @pytest.mark.parametrize("n_logical", [2, 3])
    @pytest.mark.parametrize(
        "pulse",
        [OneQubitPulse(2, 2.0, -0.4, envelope="sin2"), ThreeSitePulse(1, -1.3, envelope="gaussian")],
    )
    def test_certified_gates_match_dense_oracle(self, n_logical, pulse):
        layout = ChainLayout(n_logical)
        samples = 256
        report = certify(pulse, layout, samples=samples)
        F0 = computational_frame(pulse, layout)
        H = block_hamiltonian(pulse, layout)
        frames = eigh_frames(H, F0, trace_subspace(pulse, F0, samples, layout).areas)
        U = eigh_frames(H, np.eye(layout.dim), [pulse.area])[0]
        assert np.max(np.abs(report.wilson_gate - wilson_product(frames))) <= 1e-12
        assert np.max(np.abs(report.propagator_gate - polar_unitary(F0.conj().T @ U @ F0))) <= 1e-12

    @pytest.mark.parametrize("envelope", ENVELOPES)
    @pytest.mark.parametrize("n_logical", [2, 3])
    def test_path_matches_dense_eigh_frames(self, envelope, n_logical):
        layout = ChainLayout(n_logical)
        rng = np.random.default_rng(n_logical)
        pulses = (
            OneQubitPulse(n_logical, 3.9, -1.2, area=2.1, envelope=envelope),  # partial area
            ThreeSitePulse(n_logical - 1, -0.8, area=-1.7, envelope=envelope),  # negative
            OneQubitPulse(1, 0.7, 1.9, envelope=envelope),  # pi: closes on the computational frame
            ThreeSitePulse(1, 2.4, area=-2 * np.pi, envelope=envelope),  # U = 1: closes on any frame
        )
        for pulse in pulses:
            H = block_hamiltonian(pulse, layout)
            # the computational frame (P H P = 0) and a random one (P H P far from 0)
            Z = rng.normal(size=(layout.dim, 3)) + 1j * rng.normal(size=(layout.dim, 3))
            for F0 in (computational_frame(pulse, layout), np.linalg.qr(Z)[0]):
                path = trace_subspace(pulse, F0, 33, layout)
                frames = eigh_frames(H, F0, path.areas)
                PHP = subspace_energies(frames, H)
                residual, eps = check_parallel_transport(path)
                assert abs(residual - np.max(np.linalg.norm(PHP, axis=(1, 2)))) <= 1e-12
                assert np.max(np.abs(eps - np.trace(PHP, axis1=1, axis2=2).real / F0.shape[1])) <= 1e-12
                P0, P1 = (F @ F.conj().T for F in (frames[0], frames[-1]))
                cyclicity = np.linalg.norm(P1 - P0)
                assert abs(path.cyclicity_residual - cyclicity) <= 1e-12
                if cyclicity < 1e-8:
                    assert np.max(np.abs(wilson_loop(path) - wilson_product(frames))) <= 1e-12

    def test_contractions_on_an_uneven_rescaled_path(self):
        # the consumers are exact in the coefficient table: uneven areas make the
        # overlaps non-palindromic, so their order shows, and per-sample scale
        # factors make the subspace energy differ sample to sample
        layout = ChainLayout(2)
        pulse = ThreeSitePulse(1, 2.4, area=-2 * np.pi)
        H = block_hamiltonian(pulse, layout)
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(layout.dim, 3)) + 1j * rng.normal(size=(layout.dim, 3))
        F0 = np.linalg.qr(Z)[0]
        grid = np.linspace(0.0, 1.0, 40)
        areas = pulse.area * grid**2
        scale = 1.0 + 0.1 * np.sin(np.pi * grid) * rng.uniform(-1.0, 1.0, grid.size)
        path = replace(trace_subspace(pulse, F0, grid.size, layout), areas=areas, coefficients=scale[:, None]
                       * np.stack([np.ones_like(areas), -1j * np.sin(areas), np.cos(areas) - 1.0], axis=1))
        frames = scale[:, None, None] * eigh_frames(H, F0, areas)
        PHP = subspace_energies(frames, H)
        residual, eps = check_parallel_transport(path)
        assert abs(residual - np.max(np.linalg.norm(PHP, axis=(1, 2)))) <= 1e-12
        assert np.max(np.abs(eps - np.trace(PHP, axis1=1, axis2=2).real / 3)) <= 1e-12
        assert np.max(np.abs(wilson_loop(path) - wilson_product(frames))) <= 1e-12

    @pytest.mark.parametrize("n_logical", [2, 3])
    def test_projected_propagator_matches_dense(self, n_logical):
        layout = ChainLayout(n_logical)
        rng = np.random.default_rng(10 + n_logical)
        for pulse in (OneQubitPulse(n_logical, 3.9, -1.2, area=2.1), ThreeSitePulse(1, -0.8, area=-1.7)):
            U = expm_hermitian(block_hamiltonian(pulse, layout), pulse.area)
            Z = rng.normal(size=(layout.dim, 3)) + 1j * rng.normal(size=(layout.dim, 3))
            for F0 in (computational_frame(pulse, layout), np.linalg.qr(Z)[0]):
                got = projected_propagator(pulse, F0, layout)
                assert np.max(np.abs(got - F0.conj().T @ U @ F0)) <= 1e-12


class TestPulseClassForms:
    @pytest.mark.parametrize("n_logical", [1, 2, 3])
    def test_one_qubit_frame_is_two_logical_columns(self, n_logical):
        layout = ChainLayout(n_logical)
        full = logical_frame(layout)
        for qubit in range(1, n_logical + 1):
            frame = computational_frame(OneQubitPulse(qubit, 0.3, 0.1), layout)
            assert np.array_equal(frame, full[:, [0, 2 ** (n_logical - qubit)]])
        for pair in range(1, n_logical):
            assert np.array_equal(computational_frame(ThreeSitePulse(pair, 0.3), layout), full)

    def test_a_batch_of_pulses_is_not_certified(self):
        with pytest.raises(ValueError, match=r"one pulse, not a batch of shape \(2,\)"):
            certify(OneQubitPulse(1, np.array([0.1, 0.2]), 0.0), LAYOUT)

    def test_out_of_range_and_non_pulses_are_rejected(self):
        with pytest.raises(ValueError, match="qubit 3 out of range"):
            computational_frame(OneQubitPulse(3, 0.3, 0.1), LAYOUT)
        with pytest.raises(ValueError, match="pair 2 out of range"):
            computational_frame(ThreeSitePulse(2, 0.3), LAYOUT)
        with pytest.raises(TypeError, match="not a pulse"):
            computational_frame(np.eye(3), LAYOUT)

    def test_batched_projected_propagator_equals_single_pulses(self):
        layout = ChainLayout(3)
        frame = logical_frame(layout)
        vt, area = np.array([[0.2], [1.7], [-4.0]]), np.array([0.5, np.pi, -2.2, 6.0])
        stack = projected_propagator(ThreeSitePulse(2, vt, area=area), frame, layout)
        assert stack.shape == (3, 4, 8, 8)
        for i, j in np.ndindex(3, 4):
            pulse = ThreeSitePulse(2, vt[i, 0], area=area[j])
            dense = frame.conj().T @ expm_hermitian(block_hamiltonian(pulse, layout), area[j]) @ frame
            assert np.max(np.abs(stack[i, j] - dense)) <= 1e-12
            assert np.max(np.abs(stack[i, j] - projected_propagator(pulse, frame, layout))) <= 1e-15


class TestCertifyAtFourQubits:
    """Dimension 3**7 = 2187: certify works on the local form, no dense operator."""

    @pytest.mark.parametrize(
        "pulse,gate",
        [
            (OneQubitPulse(3, 1.2, 0.4, envelope="sin2"), one_qubit_gate(bloch_vector(1.2, 0.4))),
            (ThreeSitePulse(2, 0.9, envelope="gaussian"),
             np.kron(np.kron(np.eye(2), two_qubit_gate(0.9)), np.eye(2))),
        ],
    )
    def test_passes_and_matches_closed_form(self, pulse, gate):
        report = certify(pulse, ChainLayout(4), samples=256)
        assert report.passed
        assert gate_fidelity(report.propagator_gate, gate) >= 1.0 - 1e-10
        assert gate_fidelity(report.wilson_gate, gate) >= 1.0 - 1e-10


class TestCertifyReach:
    """The path keeps three dim x K terms, not one dim x K frame per sample."""

    def test_three_site_pulse_at_five_qubits(self):
        # dimension 3**9 and K = 32: 1024 sampled frames would be about 10 GiB
        report = certify(ThreeSitePulse(3, 0.9, envelope="sin2"), ChainLayout(5), samples=1024)
        gate = np.kron(np.kron(np.eye(4), two_qubit_gate(0.9)), np.eye(2))
        assert report.passed
        assert gate_fidelity(report.propagator_gate, gate) >= 1.0 - 1e-10
        assert gate_fidelity(report.wilson_gate, gate) >= 1.0 - 1e-10

    def test_traced_peak_of_a_one_qubit_certify_at_six_qubits(self):
        # the K = 2 frame is 5.4 MiB and the three terms 16.2 MiB; the whole
        # dim x 2^N logical frame, sliced to two columns, would be 173 MiB
        layout = ChainLayout(6)
        tracemalloc.start()
        try:
            assert certify(OneQubitPulse(1, 1.2, 0.4), layout, samples=1024).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_traced_peak_of_a_three_site_certify_at_four_qubits(self):
        # 1024 sampled frames would be 547 MiB; the three terms are 1.6 MiB
        layout = ChainLayout(4)
        pulse = ThreeSitePulse(2, 0.9, envelope="gaussian")
        tracemalloc.start()
        try:
            assert certify(pulse, layout, samples=1024).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _separate_measurements(pulse, layout, samples):
    """certify's five measurements, each computed on its own: the term Gram built anew for the
    parallel-transport check and for the Wilson steps, the cyclicity residual recomputed, the
    residual's norms from ``np.linalg.norm``, and the projected propagator from its own
    application of the block.  Returns (residual, dynamical phase, cyclicity residual,
    propagator gate, Wilson gate, cross fidelity); the last two are None for an open path."""
    path = trace_subspace(pulse, computational_frame(pulse, layout), samples, layout)
    T, C = path.terms, path.coefficients
    PHP = path._overlaps(C, C, inner(T[:, None], T[None, :])[:, [1, 2, 1]])
    residual = float(np.max(np.linalg.norm(PHP, axis=(1, 2))))
    eps = np.trace(PHP, axis1=1, axis2=2).real / path.subspace_dim
    phase = float(np.sum(0.5 * (eps[1:] + eps[:-1]) * np.diff(path.areas)))
    F0, F1 = T[0], path.frame(-1)
    F1 -= F0 @ inner(F0, F1)
    cyclicity = float(np.sqrt(2.0) * np.linalg.norm(F1))
    site, block = local_form(pulse, layout)
    FHF = np.stack([F0, apply_local(site, block, F0)])
    G = inner(FHF[:, None], FHF[None, :])
    area = np.asarray(pulse.area, dtype=float)[..., None, None]
    projected = G[0, 0] - 1j * np.sin(area) * G[0, 1] + (np.cos(area) - 1.0) * G[1, 1]
    if cyclicity >= CERTIFY_CYCLICITY:
        return residual, phase, cyclicity, projected, None, None
    wilson = polar_unitary(_ordered_product(path._overlaps(np.roll(C, -1, axis=0), C,
                                                           inner(T[:, None], T[None, :]))))
    gate = polar_unitary(projected)
    return residual, phase, cyclicity, gate, wilson, gate_fidelity(wilson, gate)


def _seeded_pulses():
    """48 seeded pulses: N = 1-4, both kinds where the chain has them, all three envelopes,
    every fourth at a partial area (an open path)."""
    rng = np.random.default_rng(2012)
    cases = []
    for n_logical in (1, 2, 3, 4):
        for envelope in ENVELOPES:
            for _ in range(4 if n_logical == 1 else 2):
                area = np.pi if len(cases) % 4 else rng.uniform(0.3, 3.0)
                cases.append((n_logical, OneQubitPulse(int(rng.integers(1, n_logical + 1)), rng.uniform(0, np.pi),
                                                       rng.uniform(0, 2 * np.pi), area=area, envelope=envelope)))
                if n_logical > 1:
                    cases.append((n_logical, ThreeSitePulse(int(rng.integers(1, n_logical)), rng.uniform(0, 2 * np.pi),
                                                            area=area, envelope=envelope)))
    return cases


class TestOneTermGram:
    """certify applies the local block twice and reads one term Gram for every check."""

    def test_certify_applies_the_block_twice_and_builds_one_term_gram(self, monkeypatch):
        applied, contracted = [], []
        monkeypatch.setattr(holonomy, "apply_local", lambda *args: applied.append(1) or apply_local(*args))
        monkeypatch.setattr(holonomy, "inner", lambda X, Y: contracted.append(np.ndim(X)) or inner(X, Y))
        layout = ChainLayout(3)
        for pulse in (OneQubitPulse(2, 1.2, 0.4), ThreeSitePulse(1, 0.9, envelope="sin2")):
            applied.clear()
            contracted.clear()
            assert certify(pulse, layout, samples=128).passed
            assert len(applied) == 2  # A = H F_0 and B = H A
            # the (3, 1, dim, K) term Gram and the cyclicity residual's F_0^dag F(tau), once each
            assert sorted(contracted) == [2, 4]

    def test_projected_propagator_applies_the_block_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(holonomy, "apply_local", lambda *args: calls.append(args) or apply_local(*args))
        layout = ChainLayout(3)
        frame = logical_frame(layout)
        for pulse in (OneQubitPulse(2, 1.2, 0.4), ThreeSitePulse(1, 0.9, area=2.0),
                      ThreeSitePulse(2, np.array([0.2, 1.7]), area=np.array([[0.5], [np.pi]]))):
            calls.clear()
            projected_propagator(pulse, frame, layout)
            site, block = local_form(pulse, layout)
            # the pulse's own block: no stack of (identity, block) on a leading axis
            assert len(calls) == 1
            assert calls[0][0] == site and calls[0][1].shape == block.shape
            assert np.array_equal(calls[0][1], block) and calls[0][2] is frame

    def test_path_keeps_its_term_gram_and_cyclicity_residual(self):
        layout = ChainLayout(2)
        path = trace_subspace(ThreeSitePulse(1, 0.9), logical_frame(layout), 32, layout)
        assert path.gram is path.gram and path.gram.shape == (3, 3, 4, 4)
        assert path.cyclicity_residual is path.cyclicity_residual

    def test_measurements_equal_separately_computed_ones(self):
        cases = _seeded_pulses()
        assert len(cases) >= 40
        for n_logical, pulse in cases:
            layout = ChainLayout(n_logical)
            report = certify(pulse, layout, samples=256, strict=False)
            residual, phase, cyclicity, gate, wilson, cross = _separate_measurements(pulse, layout, 256)
            # the residual's norms now come from the real view: equal but for the last ulp
            assert abs(report.parallel_transport_residual - residual) <= 1e-15
            assert report.dynamical_phase == phase
            assert report.cyclicity_residual == cyclicity
            assert report.propagator_gate.tobytes() == gate.tobytes()
            cyclic = pulse.area == np.pi
            assert (report.wilson_gate is not None) == (wilson is not None) == cyclic
            if cyclic:
                assert report.wilson_gate.tobytes() == wilson.tobytes()
                assert report.cross_fidelity == cross


class TestCyclicityResidual:
    @pytest.mark.parametrize("area", [np.pi, 2.0, 0.3, 1e-9, 0.0])
    def test_matches_dense_projector_difference(self, area):
        layout = ChainLayout(3)
        for pulse in (OneQubitPulse(2, 0.7, 1.9, area=area), ThreeSitePulse(2, 2.4, area=area)):
            path = trace_subspace(pulse, computational_frame(pulse, layout), 8, layout)
            dense = np.linalg.norm(projector(path, -1) - projector(path, 0))
            assert abs(path.cyclicity_residual - dense) <= 1e-12
