import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holosim import holonomy
from holosim.chain import ChainLayout, logical_frame
from holosim.gates import bloch_vector, one_qubit_gate, two_qubit_gate
from holosim.holonomy import (
    CERTIFY_CROSS_FIDELITY,
    CERTIFY_CYCLICITY,
    HolonomyError,
    _PathTable,
    _ordered_product,
    _overlaps,
    _pair_weights,
    certify,
    check_parallel_transport,
    projected_propagator,
    trace_subspace,
    wilson_loop,
)
from holosim.linalg import expm_hermitian, frobenius, gate_fidelity, inner, polar_unitary
from holosim.pulses import (ENVELOPES, OneQubitPulse, ThreeSitePulse, apply_local, block_hamiltonian,
                            cumulative_area, local_form, propagate_exact)

from oracles import computational_frame, eigh_frames, haar_unitary, subspace_energies, to_full_chain, wilson_product

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
        areas = path.table.areas
        assert np.allclose(areas, [cumulative_area(envelope, 1.3, x) for x in s], rtol=0, atol=1e-15)
        assert areas[0] == 0.0 and areas[-1] == pytest.approx(1.3, abs=1e-15)

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

    @pytest.mark.parametrize("samples", [2, 3])
    def test_an_undersampled_path_is_refused_in_any_frame(self, samples):
        # two or three samples of a square pi pulse: without the check the loop is the identity at 2 samples
        # and rank deficient at 3, where the gate is the reflection 1 - 2P
        pulse, layout = OneQubitPulse(1, 0.7, 0.3), ChainLayout(1)
        frame = computational_frame(pulse, layout)
        for F in (frame, frame @ haar_unitary(2, np.random.default_rng(samples))):
            with pytest.raises(ValueError, match=f"^{samples} samples undersample the Wilson loop"):
                wilson_loop(trace_subspace(pulse, F, samples, layout))

    @pytest.mark.parametrize("area, envelope, samples, steps", [
        # every step below a quarter turn, but their cosines multiply past the rank floor: only the product
        # bound refuses this path
        (5 * np.pi, "square", 12, "1.428e+00 rad (below pi/2 needed), product of step cosines 4.850e-10"),
        # a step past a quarter turn, with the product of cosines far above the floor: only the step bound
        # refuses this path
        (2 * np.pi, "gaussian", 5, "2.729e+00 rad (below pi/2 needed), product of step cosines 7.045e-01"),
    ], ids=["product-bound", "step-bound"])
    def test_each_undersampling_bound_refuses_on_its_own(self, area, envelope, samples, steps):
        pulse, layout = OneQubitPulse(1, 0.7, 0.3, area=area, envelope=envelope), ChainLayout(1)
        path = trace_subspace(pulse, computational_frame(pulse, layout), samples, layout)
        with pytest.raises(ValueError) as err:
            wilson_loop(path)
        assert str(err.value) == (f"{samples} samples undersample the Wilson loop: largest area step {steps} "
                                  "(above 1e-8 needed)")

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
        # 10**9 samples of a 2 x 2 overlap and a path table row, about 0.39 TiB: refused before
        # any samples-sized array, and before the path table is looked up or built
        cached = holonomy._cached_table.cache_info()
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="physical memory"):
                certify(OneQubitPulse(1, np.pi / 4, 0.0), LAYOUT, samples=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert holonomy._cached_table.cache_info() == cached

    def test_frame_is_budgeted_before_it_is_built(self):
        # the dim x 2^12 logical frame, a three-site pulse's full-chain frame, is about 5.5 PiB;
        # certify builds only the minimal chain's
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="physical memory"):
                logical_frame(ChainLayout(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_embedded_gates_are_budgeted_before_they_are_built(self):
        # the two 2^20 x 2^20 gates are 16 TiB each; nothing chain- or gate-sized comes first
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match=r"^the two certified gates at N=20 needs about .* physical memory"):
                certify(ThreeSitePulse(10, 0.5), ChainLayout(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_huge_chain_is_refused_promptly(self):
        # the two embedded gates at N = 10^8 hold 4^N entries: refused from the logarithm of their
        # size, before any 4^N-sized int is formed (squaring the 2^N-sized one took over a second)
        start = time.perf_counter()
        with pytest.raises(MemoryError, match=r"^the two certified gates at N=100000000 needs about "
                                              r"2\^199999976 GiB, more than any physical memory$"):
            certify(ThreeSitePulse(1, 0.5), ChainLayout(10**8))
        assert time.perf_counter() - start < 0.5

    def test_one_qubit_pulse_at_sixteen_qubits(self):
        # a dim x 2 frame at N = 16 would be about 18 PiB; the minimal chain has three rows
        tracemalloc.start()
        try:
            report = certify(OneQubitPulse(9, 0.5, 0.0), ChainLayout(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert gate_fidelity(report.propagator_gate, one_qubit_gate(bloch_vector(0.5, 0.0))) >= 1.0 - 1e-10
        assert peak < 2**20

    def test_failure_messages(self, monkeypatch):
        # an eigenvector of H stays put and gains only the dynamical phase -area, so with every
        # "value >= bound" bound at 0 each measurement fails, the negative phase by its magnitude
        for name in ("CERTIFY_PARALLEL_TRANSPORT", "CERTIFY_DYNAMICAL_PHASE", "CERTIFY_CYCLICITY"):
            monkeypatch.setattr(holonomy, name, 0.0)
        layout, pulse = ChainLayout(1), OneQubitPulse(1, 0.7, 0.3)
        eigenvector = np.linalg.eigh(local_form(pulse, layout)[1])[1][:, :1]  # eigenvalue -1
        monkeypatch.setattr(holonomy, "logical_frame", lambda layout: eigenvector)
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
        # three dim x K terms, the 3 x 3 term Gram of K x K blocks, per sample a K x K overlap,
        # and the path table's 360 bytes per sample
        assert asked == [16 * (3 * layout.dim * K + 9 * K * K + 100 * K * K) + 360 * 100]
        assert path.gram.nbytes == 16 * 9 * K * K
        assert sum(array.nbytes for array in path.table) <= 360 * 100

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
        U, full = propagate_exact(pulse, LAYOUT), to_full_chain(frame, LAYOUT)
        G = polar_unitary(full.conj().T @ U @ full)
        assert np.max(np.abs(W - G)) < 1e-12


class TestAgainstDenseOracle:
    """Closed-form frames and certification against dense eigh exponentials.

    The paths run in the reachable space and the oracles in the full three-level chain; frames of the
    reachable space, computational or random, enter the oracles through ``oracles.to_full_chain``.
    """

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
        for j, area in enumerate(path.table.areas):
            want = expm_hermitian(H, area) @ to_full_chain(F0, layout)
            assert np.max(np.abs(to_full_chain(path.frame(j), layout) - want)) <= 1e-12

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
        H, full = block_hamiltonian(pulse, layout), to_full_chain(F0, layout)
        frames = eigh_frames(H, full, trace_subspace(pulse, F0, samples, layout).table.areas)
        U = eigh_frames(H, np.eye(layout.full_dim), [pulse.area])[0]
        assert np.max(np.abs(report.wilson_gate - wilson_product(frames))) <= 1e-12
        assert np.max(np.abs(report.propagator_gate - polar_unitary(full.conj().T @ U @ full))) <= 1e-12

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
                frames = eigh_frames(H, to_full_chain(F0, layout), path.table.areas)
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
        # the consumers are exact in the path table: uneven areas make the
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
        C = scale[:, None] * np.stack([np.ones_like(areas), -1j * np.sin(areas), np.cos(areas) - 1.0], axis=1)
        path = replace(trace_subspace(pulse, F0, grid.size, layout), table=_PathTable.of(areas, C))
        frames = scale[:, None, None] * eigh_frames(H, to_full_chain(F0, layout), areas)
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
                got, full = projected_propagator(pulse, F0, layout), to_full_chain(F0, layout)
                assert np.max(np.abs(got - full.conj().T @ U @ full)) <= 1e-12


class TestPulseClassForms:
    def test_a_batch_of_pulses_is_not_certified(self):
        with pytest.raises(ValueError, match=r"one pulse, not a batch of shape \(2,\)"):
            certify(OneQubitPulse(1, np.array([0.1, 0.2]), 0.0), LAYOUT)
        # a batch of areas alone, too: the path table is one area's
        with pytest.raises(ValueError, match=r"one pulse, not a batch of shape \(1, 3\)"):
            certify(ThreeSitePulse(1, 0.3, area=np.full((1, 3), np.pi)), LAYOUT)

    def test_out_of_range_and_non_pulses_are_rejected(self):
        with pytest.raises(ValueError, match="qubit 3 out of range"):
            certify(OneQubitPulse(3, 0.3, 0.1), LAYOUT)
        with pytest.raises(ValueError, match="pair 2 out of range"):
            certify(ThreeSitePulse(2, 0.3), LAYOUT)
        with pytest.raises(TypeError, match="not a pulse"):
            certify(np.eye(3), LAYOUT)

    def test_batched_projected_propagator_equals_single_pulses(self):
        layout = ChainLayout(3)
        frame = logical_frame(layout)
        full = to_full_chain(frame, layout)
        vt, area = np.array([[0.2], [1.7], [-4.0]]), np.array([0.5, np.pi, -2.2, 6.0])
        stack = projected_propagator(ThreeSitePulse(2, vt, area=area), frame, layout)
        assert stack.shape == (3, 4, 8, 8)
        for i, j in np.ndindex(3, 4):
            pulse = ThreeSitePulse(2, vt[i, 0], area=area[j])
            dense = full.conj().T @ expm_hermitian(block_hamiltonian(pulse, layout), area[j]) @ full
            assert np.max(np.abs(stack[i, j] - dense)) <= 1e-12
            assert np.max(np.abs(stack[i, j] - projected_propagator(pulse, frame, layout))) <= 1e-15


class TestCertifyAtFourQubits:
    """Dimension 3**4 * 2**3 = 648: certify works on the local form, no dense operator."""

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
    """certify traces the minimal chain, so only the two embedded gates grow with N."""

    def test_three_site_pulse_at_five_qubits(self):
        # the full chain's path would be 3**9 x 32 terms; the minimal chain's is 27 x 4
        report = certify(ThreeSitePulse(3, 0.9, envelope="sin2"), ChainLayout(5), samples=1024)
        gate = np.kron(np.kron(np.eye(4), two_qubit_gate(0.9)), np.eye(2))
        assert report.passed
        assert gate_fidelity(report.propagator_gate, gate) >= 1.0 - 1e-10
        assert gate_fidelity(report.wilson_gate, gate) >= 1.0 - 1e-10

    def test_traced_peak_of_a_one_qubit_certify_at_six_qubits(self):
        # the full chain's K = 2 frame would be 5.4 MiB and its three terms 16.2 MiB;
        # the minimal chain's frame has three rows
        layout = ChainLayout(6)
        tracemalloc.start()
        try:
            assert certify(OneQubitPulse(1, 1.2, 0.4), layout, samples=1024).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_traced_peak_of_a_three_site_certify_at_four_qubits(self):
        # the full chain's three terms would be 1.6 MiB; the two embedded 16 x 16 gates are 8 KiB
        layout = ChainLayout(4)
        pulse = ThreeSitePulse(2, 0.9, envelope="gaussian")
        tracemalloc.start()
        try:
            assert certify(pulse, layout, samples=1024).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_traced_peak_of_a_three_site_certify_at_ten_qubits(self):
        # the two embedded 2^10 x 2^10 gates are 16 MiB each, and nothing else is chain-sized
        pulse = ThreeSitePulse(5, 0.9)
        tracemalloc.start()
        try:
            report = certify(pulse, ChainLayout(10), samples=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        gate = np.kron(np.kron(np.eye(16), two_qubit_gate(0.9)), np.eye(16))
        assert report.passed
        assert np.max(np.abs(report.propagator_gate - gate)) <= 1e-12
        assert np.max(np.abs(report.wilson_gate - gate)) <= 1e-12


def _separate_measurements(pulse, layout, samples):
    """certify's five measurements, each computed on its own: the areas and coefficient rows from
    ``cumulative_area`` and the weights from them rather than from the cached path table, the term
    Gram built anew for the parallel-transport check and for the Wilson steps, the cyclicity residual
    recomputed, the residual's norms from ``np.linalg.norm``, and the projected propagator from its
    own application of the block.  Returns (residual, dynamical phase, cyclicity residual, propagator
    gate, Wilson gate, cross fidelity); the last two are None for an open path."""
    path = trace_subspace(pulse, computational_frame(pulse, layout), samples, layout)
    T = path.terms
    areas = cumulative_area(pulse.envelope, pulse.area, np.linspace(0.0, 1.0, samples))
    C = np.stack([np.ones(samples), -1j * np.sin(areas), np.cos(areas) - 1.0], axis=1)
    PHP = _overlaps(_pair_weights(C, C), inner(T[:, None], T[None, :])[:, [1, 2, 1]])
    residual = float(np.max(np.linalg.norm(PHP, axis=(1, 2))))
    eps = np.trace(PHP, axis1=1, axis2=2).real / path.subspace_dim
    phase = float(np.sum(0.5 * (eps[1:] + eps[:-1]) * np.diff(areas)))
    F0, F1 = T[0], np.einsum("x,xdk->dk", C[-1], T)
    F1 -= F0 @ inner(F0, F1)
    cyclicity = float(np.sqrt(2.0) * np.linalg.norm(F1))
    site, block = local_form(pulse, layout)
    FHF = np.stack([F0, apply_local(site, block, F0)])
    G = inner(FHF[:, None], FHF[None, :])
    area = np.asarray(pulse.area, dtype=float)[..., None, None]
    projected = G[0, 0] - 1j * np.sin(area) * G[0, 1] + (np.cos(area) - 1.0) * G[1, 1]
    if cyclicity >= CERTIFY_CYCLICITY:
        return residual, phase, cyclicity, projected, None, None
    steps = _overlaps(_pair_weights(np.roll(C, -1, axis=0), C), inner(T[:, None], T[None, :]))
    wilson = polar_unitary(_ordered_product(np.moveaxis(steps, 0, -1)))
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
        # the separate measurements run on the same minimal chain, and are scaled and embedded
        # here as certify does: by sqrt(m) for the norms, by the same Kronecker products for the gates
        cases = _seeded_pulses()
        assert len(cases) >= 40
        for n_logical, pulse in cases:
            layout = ChainLayout(n_logical)
            report = certify(pulse, layout, samples=256, strict=False)
            local, chain, (left, right) = pulse.minimal_chain(layout)
            separate = _separate_measurements(local, chain, 256)
            _assert_matches_separate(report, separate, left, right)
            assert (report.wilson_gate is not None) == (pulse.area == np.pi)


def _assert_matches_separate(report, separate, left, right):
    """A report equals the separate measurements on its minimal chain, scaled and embedded as certify
    does: by sqrt(m) for the norms, by the same Kronecker products for the gates."""
    residual, phase, cyclicity, gate, wilson, cross = separate
    scale = math.sqrt(left * right)
    # the residual's norms now come from the real view: equal but for the last ulp
    assert abs(report.parallel_transport_residual - scale * residual) <= 1e-15
    assert report.dynamical_phase == phase
    assert report.cyclicity_residual == scale * cyclicity
    assert report.propagator_gate.tobytes() == _kron_embed(gate, left, right).tobytes()
    assert (report.wilson_gate is not None) == (wilson is not None)
    if wilson is not None:
        assert report.wilson_gate.tobytes() == _kron_embed(wilson, left, right).tobytes()
        assert report.cross_fidelity == cross


def _kron_embed(gate, left, right):
    return np.kron(np.kron(np.eye(left), gate), np.eye(right))


class TestMinimalChain:
    """certify traces each pulse on its minimal chain; the full-chain path is the reference."""

    # the full chain sums the same nonzero terms as the minimal chain, in other orders: measured
    # at most 4.6e-16 apart on the seeded pulses (the Wilson gate of a moved one-qubit pulse)
    ROUNDOFF = 1e-15

    def test_certify_equals_the_full_chain_path(self):
        cases = _seeded_pulses()
        assert len(cases) == 48
        for n_logical, pulse in cases:
            layout = ChainLayout(n_logical)
            report = certify(pulse, layout, samples=256, strict=False)
            # the whole chain: the frame of computational_frame(pulse, layout), nothing embedded
            residual, phase, cyclicity, gate, wilson, cross = _separate_measurements(pulse, layout, 256)
            assert report.propagator_gate.shape == gate.shape
            assert abs(report.parallel_transport_residual - residual) <= self.ROUNDOFF
            assert abs(report.dynamical_phase - phase) <= self.ROUNDOFF
            assert abs(report.cyclicity_residual - cyclicity) <= self.ROUNDOFF
            assert np.max(np.abs(report.propagator_gate - gate)) <= self.ROUNDOFF
            assert (report.wilson_gate is None) == (wilson is None)
            if wilson is not None:
                assert np.max(np.abs(report.wilson_gate - wilson)) <= self.ROUNDOFF
                assert abs(report.cross_fidelity - cross) <= self.ROUNDOFF

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n_logical=st.integers(1, 4), three_site=st.booleans(),
           envelope=st.sampled_from(ENVELOPES), k=st.integers(-3, 3))
    def test_odd_pi_areas_certify_to_the_embedded_closed_form(self, data, n_logical, three_site, envelope, k):
        layout = ChainLayout(n_logical)
        angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
        area = (2 * k + 1) * np.pi
        if three_site and n_logical > 1:
            pair, vartheta = data.draw(st.integers(1, n_logical - 1)), data.draw(angle)
            pulse = ThreeSitePulse(pair, vartheta, area=area, envelope=envelope)
            gate = _kron_embed(two_qubit_gate(vartheta), 2 ** (pair - 1), 2 ** (n_logical - pair - 1))
        else:
            qubit, theta, phi = data.draw(st.integers(1, n_logical)), data.draw(angle), data.draw(angle)
            pulse = OneQubitPulse(qubit, theta, phi, area=area, envelope=envelope)
            gate = one_qubit_gate(bloch_vector(theta, phi))
        report = certify(pulse, layout, samples=128)
        assert report.passed
        assert np.max(np.abs(report.propagator_gate - gate)) <= 1e-12
        assert np.max(np.abs(report.wilson_gate - gate)) <= 1e-12

    def test_each_kind_moves_to_its_minimal_chain(self):
        layout = ChainLayout(5)
        pulse = OneQubitPulse(4, 0.3, 0.1, area=2.0, envelope="sin2")
        assert pulse.minimal_chain(layout) == (replace(pulse, qubit=1), ChainLayout(1), (1, 1))
        pulse = ThreeSitePulse(3, 0.3, area=-1.0, envelope="gaussian")
        assert pulse.minimal_chain(layout) == (replace(pulse, pair=1), ChainLayout(2), (4, 2))
        with pytest.raises(ValueError, match="qubit 6 out of range"):
            OneQubitPulse(6, 0.3, 0.1).minimal_chain(layout)
        with pytest.raises(ValueError, match="pair 5 out of range"):
            ThreeSitePulse(5, 0.3).minimal_chain(layout)


class TestOrderedProduct:
    @pytest.mark.parametrize("K", [2, 4, 8])
    def test_equals_the_sequential_product(self, K):
        # the blocks of a one-qubit pulse, of a three-site pulse's minimal chain and of a full-chain
        # frame; the pairwise product sums in another order than the sequential loop: 1023 unitary
        # factors of size K give at most about 1023 * K * 2.2e-16, under 1e-12
        rng = np.random.default_rng(K)
        for n in (1, 2, 3, 7, 1023, 1024):
            M = np.array([haar_unitary(K, rng) for _ in range(n)])
            want = np.eye(K)
            for step in M:
                want = step @ want
            assert np.max(np.abs(_ordered_product(np.moveaxis(M, 0, -1)) - want)) <= 1e-12


class TestPathTables:
    """trace_subspace reads each (envelope, samples, area) path table of at most 1024 samples from one
    lru_cache of read-only tables, and builds a larger one for the call."""

    @pytest.mark.parametrize("envelope", ENVELOPES)
    @pytest.mark.parametrize("samples", [2, 3, 33, 256, 1024, 1025])
    def test_bit_identical_to_cumulative_area(self, envelope, samples):
        holonomy._cached_table.cache_clear()
        for area in (np.pi, -1.7, 5 * np.pi):
            want = cumulative_area(envelope, area, np.linspace(0.0, 1.0, samples))
            table = holonomy._path_table(envelope, samples, area)
            assert table.areas.tobytes() == want.tobytes()
            assert table.area_steps.tobytes() == np.diff(want).tobytes()
            C = np.stack([np.ones(samples), -1j * np.sin(want), np.cos(want) - 1.0], axis=1)
            assert table.coefficients.tobytes() == C.tobytes()
            # (9, samples) with the samples contiguous, the layout the nine-row products read
            assert table.transport.shape == table.wilson.shape == (9, samples)
            assert table.transport.flags.c_contiguous and table.wilson.flags.c_contiguous
            assert table.transport.tobytes() == _pair_weights(C, C).tobytes()
            assert table.wilson.tobytes() == _pair_weights(np.roll(C, -1, axis=0), C).tobytes()
            # the areas, the area steps, the coefficient rows and the two nine-weight columns
            assert sum(array.nbytes for array in table) == 352 * samples - 8
        pulse = ThreeSitePulse(1, 0.9, area=-1.7, envelope=envelope)
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), samples, LAYOUT)
        assert path.table.areas.tobytes() == cumulative_area(envelope, -1.7, np.linspace(0.0, 1.0, samples)).tobytes()
        # up to 1024 samples the path reads the cached table; past that its own table, built alike
        cached = path.table is holonomy._path_table(envelope, samples, -1.7)
        assert cached == (samples <= 1024)
        assert holonomy._cached_table.cache_info().currsize == (3 if samples <= 1024 else 0)
        rebuilt = holonomy._path_table(envelope, samples, -1.7)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(path.table, rebuilt, strict=True))

    @pytest.mark.parametrize("samples", [513, 1025])
    def test_read_only(self, samples):
        table = holonomy._path_table("gaussian", samples, np.pi)
        for array in table:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        pulse = ThreeSitePulse(1, 0.9, envelope="gaussian")
        path = trace_subspace(pulse, computational_frame(pulse, LAYOUT), samples, LAYOUT)
        assert not any(array.flags.writeable for array in path.table)

    def test_keyed_on_what_the_table_depends_on(self):
        holonomy._cached_table.cache_clear()
        pulses = (OneQubitPulse(1, 0.5, 0.0), OneQubitPulse(1, 2.0, 1.0), ThreeSitePulse(1, 0.9))
        paths = [trace_subspace(p, computational_frame(p, LAYOUT), n, LAYOUT)
                 for p in pulses for n in (64, np.int64(64), np.int32(64))]
        # not the angles, the kind, the sites or the type of the sample count
        info = holonomy._cached_table.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 8)
        assert all(path.table is paths[0].table for path in paths)
        # an int area and its float share a table; -0.0 is its own table, with other zero areas than 0.0
        one = holonomy._path_table("square", 64, 1.0)
        assert trace_subspace(OneQubitPulse(1, 0.5, 0.0, area=1), computational_frame(pulses[0], LAYOUT),
                              64, LAYOUT).table is one
        zero, negative_zero = holonomy._path_table("square", 64, 0.0), holonomy._path_table("square", 64, -0.0)
        assert zero is not negative_zero and holonomy._cached_table.cache_info().currsize == 4
        assert np.signbit(negative_zero.areas).all() and not np.signbit(zero.areas).any()

    def test_at_most_eleven_tables_of_at_most_1024_samples_are_kept(self):
        # eleven tables of 1024 samples, the most the cache retains, stay under 4 MiB
        assert holonomy._cached_table.cache_info().maxsize == 11
        assert 11 * sum(array.nbytes for array in holonomy._path_table("sin2", 1024, np.pi)) <= 4 * 2**20
        holonomy._cached_table.cache_clear()
        keys = []
        for k, area in enumerate(np.linspace(0.1, 30.0, 40)):
            envelope, samples = ENVELOPES[k % 3], (1024, 1500, 257)[k % 3]
            misses = holonomy._cached_table.cache_info().misses
            certify(OneQubitPulse(1, 0.3, 0.1, area=area, envelope=envelope), LAYOUT, samples=samples, strict=False)
            # a table past 1024 samples never reaches the cache; every other one is a new key
            assert holonomy._cached_table.cache_info().misses == misses + (samples <= 1024)
            assert holonomy._cached_table.cache_info().currsize <= 11
            if samples <= 1024:
                keys.append((envelope, samples, float(area)))
        assert holonomy._cached_table.cache_info().currsize == 11
        # least recently used first out: the latest eleven tables are kept, the one before them is not
        hits, misses = holonomy._cached_table.cache_info()[:2]
        for key in keys[-11:]:
            holonomy._path_table(*key)
        assert holonomy._cached_table.cache_info()[:2] == (hits + 11, misses)
        holonomy._path_table(*keys[-12])
        assert holonomy._cached_table.cache_info()[:2] == (hits + 11, misses + 1)

    def test_a_table_over_1024_samples_is_built_and_not_kept(self):
        holonomy._cached_table.cache_clear()
        kept = holonomy._path_table("sin2", 1024, np.pi)
        info = holonomy._cached_table.cache_info()
        first, second = holonomy._path_table("sin2", 1025, np.pi), holonomy._path_table("sin2", 1025, np.pi)
        assert first is not second and first.areas.tobytes() == second.areas.tobytes()
        assert holonomy._cached_table.cache_info() == info
        assert holonomy._path_table("sin2", 1024, np.pi) is kept

    def test_threads_sharing_a_cold_cache_certify_as_one_thread_does(self):
        # four threads start together on an empty cache and each certifies both kinds on all three
        # envelopes at 1024 samples; with a short switch interval they interleave inside the builds
        pulses = [pulse for envelope in ENVELOPES for pulse in
                  (OneQubitPulse(1, 0.7, 0.3, envelope=envelope), ThreeSitePulse(1, 0.9, envelope=envelope))]
        sequential = [certify(pulse, LAYOUT) for pulse in pulses]
        holonomy._cached_table.cache_clear()
        start = threading.Barrier(4)

        def run():
            start.wait(timeout=30)
            return [certify(pulse, LAYOUT) for pulse in pulses]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run) for _ in range(4)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for reports in results:
            for report, want in zip(reports, sequential, strict=True):
                _assert_same_report(report, want)
        assert holonomy._cached_table.cache_info().currsize == 3

    def test_a_replaced_path_measures_its_own_coefficients(self):
        # a path replaced with a table of rescaled coefficients and uneven areas measures with that
        # table's weights and area steps, never with the cached table's
        pulse = ThreeSitePulse(1, 2.4, area=-2 * np.pi)
        rng = np.random.default_rng(3)
        F0 = np.linalg.qr(rng.normal(size=(LAYOUT.dim, 3)) + 1j * rng.normal(size=(LAYOUT.dim, 3)))[0]
        path = trace_subspace(pulse, F0, 40, LAYOUT)
        areas = pulse.area * np.linspace(0.0, 1.0, 40) ** 2
        C = (1.0 + 0.1 * rng.uniform(size=40))[:, None] * np.stack(
            [np.ones(40), -1j * np.sin(areas), np.cos(areas) - 1.0], axis=1)
        replaced = replace(path, table=_PathTable.of(areas, C))
        assert path.table is holonomy._path_table(pulse.envelope, 40, pulse.area)
        assert replaced.table is not path.table
        assert replaced.table.transport.tobytes() == _pair_weights(C, C).tobytes()
        assert replaced.table.area_steps.tobytes() == np.diff(areas).tobytes()
        residual, eps = check_parallel_transport(replaced)
        PHP = _overlaps(_pair_weights(C, C), path.gram[:, [1, 2, 1]])
        assert residual == float(np.max(frobenius(PHP)))
        assert eps.tobytes() == (np.trace(PHP, axis1=1, axis2=2).real / 3).tobytes()
        steps = _overlaps(_pair_weights(np.roll(C, -1, axis=0), C), path.gram)
        assert wilson_loop(replaced).tobytes() == polar_unitary(
            _ordered_product(np.moveaxis(steps, 0, -1))).tobytes()
        assert np.max(np.abs(wilson_loop(replaced) - wilson_loop(path))) > 1e-3
        # the original path still reads the cached table
        assert path.table is holonomy._path_table(pulse.envelope, 40, pulse.area)

    @pytest.mark.parametrize("samples", [1024.0, 2.5, "64", np.float64(64.0), None, [64], True, np.True_])
    def test_non_integer_samples_are_refused_by_value(self, samples):
        pulse = OneQubitPulse(1, 0.5, 0.0)
        message = f"samples must be an integer, got {samples!r}"
        with pytest.raises(ValueError) as err:
            certify(pulse, LAYOUT, samples=samples)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            trace_subspace(pulse, computational_frame(pulse, LAYOUT), samples, LAYOUT)
        assert str(err.value) == message

    @pytest.mark.parametrize("samples", [np.int64(257), np.int32(257), np.uint16(257)])
    def test_numpy_integer_samples_give_the_same_report(self, samples):
        pulse = ThreeSitePulse(1, 0.8, envelope="sin2")
        _assert_same_report(certify(pulse, LAYOUT, samples=samples), certify(pulse, LAYOUT, samples=257))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n_logical=st.integers(1, 4), three_site=st.booleans(), site=st.integers(1, 3),
           angles=st.tuples(*2 * [st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)]),
           envelope=st.sampled_from(ENVELOPES), samples=st.integers(2, 1500), k=st.integers(-2, 2),
           partial=st.none() | st.floats(0.1, 0.9))
    # three samples of a square pi pulse: the middle step is a quarter turn, so the loop is refused
    @example(n_logical=1, three_site=False, site=1, angles=(0.5, 0.0), envelope="square", samples=3, k=0,
             partial=None)
    @example(n_logical=3, three_site=True, site=2, angles=(0.9, 0.0), envelope="gaussian", samples=1001, k=1,
             partial=0.5)
    def test_cold_and_warm_certify_equal_the_separate_measurements(self, n_logical, three_site, site, angles,
                                                                    envelope, samples, k, partial):
        # (2k+1)pi closes the path; a partial area 2k pi + f pi, f in [0.1, 0.9], stays at least a
        # tenth of pi from every multiple of pi, so the path stays open
        area = (2 * k + 1) * np.pi if partial is None else (2 * k + partial) * np.pi
        if three_site and n_logical > 1:
            pulse = ThreeSitePulse(1 + (site - 1) % (n_logical - 1), angles[0], area=area, envelope=envelope)
        else:
            pulse = OneQubitPulse(1 + (site - 1) % n_logical, *angles, area=area, envelope=envelope)
        layout = ChainLayout(n_logical)
        holonomy._cached_table.cache_clear()
        cold = _outcome(lambda: certify(pulse, layout, samples=samples, strict=False))
        # the cold call filled the cache, which the warm one reads, unless the table is past 1024 samples
        assert holonomy._cached_table.cache_info().currsize == (samples <= 1024)
        warm = _outcome(lambda: certify(pulse, layout, samples=samples, strict=False))
        local, chain, (left, right) = pulse.minimal_chain(layout)
        separate = _outcome(lambda: _separate_measurements(local, chain, samples))
        if isinstance(cold, str):
            # few samples of a large area: a step of a quarter turn or more, or step cosines whose
            # product reaches polar_unitary's rank floor, read here from cumulative_area
            assert partial is None and cold.startswith(f"{samples} samples undersample the Wilson loop")
            assert warm == cold
            steps = np.diff(cumulative_area(envelope, area, np.linspace(0.0, 1.0, samples)))
            assert np.max(np.abs(steps)) >= np.pi / 2 or np.prod(np.cos(steps)) <= 1e-8
            return
        _assert_same_report(cold, warm)
        _assert_matches_separate(cold, separate, left, right)
        if partial is not None:
            assert cold.wilson_gate is None and cold.cross_fidelity is None
            assert any(f.startswith("cyclicity residual") for f in cold.failures)

    @pytest.mark.parametrize("envelope", ENVELOPES)
    @pytest.mark.parametrize("three_site", [False, True])
    @pytest.mark.parametrize("samples, turns", [(samples, 1) for samples in range(2, 9)] + [(1024, 201), (1024, 301)])
    def test_an_undersampled_wilson_loop_is_refused(self, envelope, three_site, samples, turns):
        # a closed path either passes or is refused; a refused one, measured without the refusal,
        # fails the cross check (a Wilson gate of the wrong sign) or has a rank-deficient Wilson product
        pulse = (ThreeSitePulse(1, 0.9, area=turns * np.pi, envelope=envelope) if three_site
                 else OneQubitPulse(1, 0.7, 0.3, area=turns * np.pi, envelope=envelope))
        layout = ChainLayout(2 if three_site else 1)
        outcome = _outcome(lambda: certify(pulse, layout, samples=samples, strict=False))
        if isinstance(outcome, str):
            assert outcome.startswith(f"{samples} samples undersample the Wilson loop: largest area step ")
            separate = _outcome(lambda: _separate_measurements(pulse, layout, samples))
            if isinstance(separate, str):
                assert "rank deficient" in separate
            else:
                assert separate[-1] < CERTIFY_CROSS_FIDELITY
        else:
            assert outcome.passed and outcome.cross_fidelity >= CERTIFY_CROSS_FIDELITY
        if samples in (2, 3) or turns > 1:  # the samples and areas the unchecked loop got wrong
            assert isinstance(outcome, str)

    def test_a_step_past_a_quarter_turn_is_refused_where_the_loop_aliases(self):
        # four samples of 5 pi: each step is 5 pi / 3, whose cosine is 1/2, so the unchecked Wilson
        # product has the holonomy's sign by aliasing, while the sampled projectors skip most of the path
        pulse, layout = OneQubitPulse(1, 0.7, 0.3, area=5 * np.pi), ChainLayout(1)
        assert _separate_measurements(pulse, layout, 4)[-1] >= CERTIFY_CROSS_FIDELITY
        with pytest.raises(ValueError) as err:
            certify(pulse, layout, samples=4)
        assert str(err.value) == ("4 samples undersample the Wilson loop: largest area step 5.236e+00 rad "
                                  "(below pi/2 needed), product of step cosines 1.250e-01 (above 1e-8 needed)")


def _outcome(call):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as err:
        return str(err)


def _assert_same_report(a, b):
    """Two reports equal bit for bit."""
    for name in ("parallel_transport_residual", "dynamical_phase", "cyclicity_residual", "cross_fidelity",
                 "failures"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("propagator_gate", "wilson_gate"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None) and (x is None or x.tobytes() == y.tobytes()), name


class TestCyclicityResidual:
    @pytest.mark.parametrize("area", [np.pi, 2.0, 0.3, 1e-9, 0.0])
    def test_matches_dense_projector_difference(self, area):
        layout = ChainLayout(3)
        for pulse in (OneQubitPulse(2, 0.7, 1.9, area=area), ThreeSitePulse(2, 2.4, area=area)):
            path = trace_subspace(pulse, computational_frame(pulse, layout), 8, layout)
            dense = np.linalg.norm(projector(path, -1) - projector(path, 0))
            assert abs(path.cyclicity_residual - dense) <= 1e-12
