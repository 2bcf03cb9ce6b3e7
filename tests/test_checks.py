"""The verify suites: pinned check list, and each batched sweep against dense references.

Every sweep in ``holosim.checks`` is one batched call.  The tests below make
the same call on the same grid and compare a seeded subsample of its points
with an independent dense computation: ``expm_hermitian`` of the embedded
full-chain Hamiltonian (``h1``/``h3``) or ``oracles.taylor_expm``, then an
``np.ix_`` extraction of the logical rows and columns.  The sweeps' columns
of the reachable space are compared in the full chain, scattered there by
``oracles.to_full_chain``.
"""

from dataclasses import fields

import numpy as np
import pytest

from holosim.chain import ChainLayout, block_sz, h1, h3, logical_frame
from holosim import checks
from holosim.checks import _excited_fixity, _phase_free_distance, run_suite
from holosim.gates import (bloch_angles, bloch_vector, compose_rule, extract_logical_gate, one_qubit_gate,
                           projected_block_maps, two_qubit_gate)
from holosim.holonomy import projected_propagator
from holosim.linalg import expm_hermitian, polar_unitary
from holosim.pulses import OneQubitPulse, ThreeSitePulse, propagate_exact, run_schedule

from oracles import taylor_expm, to_full_chain

TOL = 1e-12

# verify --suite all: name, comparison, threshold, in output order
EXPECTED_CHECKS = [
    ("pi-pulse gate law on 16x16 (theta, phi) grid: min fidelity", ">=", 1.0 - 1e-10),
    ("two-pulse composition law, 1000 random pairs: max deviation", "<=", 1e-10),
    ("rotation split round-trip, 100 random rotations: min fidelity", ">=", 1.0 - 1e-10),
    ("projected block maps on 32x16 (vartheta, area) grid: max deviation", "<=", 1e-10),
    ("pi-area XY gate vs closed form, 32 vartheta: min fidelity", ">=", 1.0 - 1e-10),
    ("pi-area XY gate: max leakage", "<=", 1e-10),
    ("pi-area XY gate: max auxiliary-site population", "<=", 1e-12),
    ("XY propagator commutes with block S_z: max commutator norm", "<=", 1e-10),
    ("XY propagator fixes every |e>-carrying basis state: max deviation", "<=", 1e-12),
    ("entangling verdict at vartheta=pi/2 (1=true)", ">=", 1.0),
    ("entangling power e_p at vartheta=0", "<=", 1e-8),
    ("entangling power e_p at vartheta=pi", "<=", 1e-8),
    ("one-qubit pi pulse (theta=pi/4): parallel-transport residual", "<=", 1e-9),
    ("one-qubit pi pulse (theta=pi/4): |dynamical phase|", "<=", 1e-9),
    ("one-qubit pi pulse (theta=pi/4): cyclicity residual", "<=", 1e-8),
    ("one-qubit pi pulse (theta=pi/4): wilson cross-fidelity", ">=", 1.0 - 1e-6),
    ("three-site pi pulse (vartheta=pi/2): parallel-transport residual", "<=", 1e-9),
    ("three-site pi pulse (vartheta=pi/2): |dynamical phase|", "<=", 1e-9),
    ("three-site pi pulse (vartheta=pi/2): cyclicity residual", "<=", 1e-8),
    ("three-site pi pulse (vartheta=pi/2): wilson cross-fidelity", ">=", 1.0 - 1e-6),
    ("compiled-schedule round trip, 30 random circuits: min fidelity", ">=", 1.0 - 1e-8),
    ("compilation determinism (0 = bit-identical)", "<=", 0.0),
    ("rotation split invariants, 200 random rotations: max deviation", "<=", 1e-12),
]


@pytest.fixture(scope="module")
def all_results():
    return run_suite("all")


class TestVerifyAll:
    def test_check_names_comparisons_and_thresholds_are_pinned(self, all_results):
        got = [(r.name, r.comparison, r.threshold) for r in all_results]
        assert got == EXPECTED_CHECKS

    def test_every_check_passes(self, all_results):
        assert [r.name for r in all_results if not r.passed] == []

    def test_suites_concatenate_to_all(self, all_results):
        names = [r.name for suite in ("onequbit", "twoqubit", "holonomy", "compiler")
                 for r in run_suite(suite)]
        assert names == [name for name, _, _ in EXPECTED_CHECKS]


def test_phase_free_distance_ignores_a_global_phase_per_pair():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))[:, None, None]
    assert np.max(_phase_free_distance(phases * A, A)) <= 1e-14
    B = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    for k, d in enumerate(_phase_free_distance(A, B)):
        overlap = np.trace(B[k].conj().T @ A[k])
        assert abs(d - np.linalg.norm(A[k] - overlap / abs(overlap) * B[k])) <= 1e-14


def test_compiler_suite_extracts_every_circuit_in_one_call_per_chain_size(monkeypatch):
    calls = []

    def recording(columns, layout, **kwargs):
        calls.append((layout.n_logical, np.shape(columns)[:-2]))
        return extract_logical_gate(columns, layout, **kwargs)

    monkeypatch.setattr(checks, "extract_logical_gate", recording)
    checks.suite_compiler()
    assert sorted(n for n, _ in calls) == [1, 2, 3]
    assert sum(shape[0] for _, shape in calls) == 30


def _record_shapes(monkeypatch, name, shape_of):
    """Replace ``checks.<name>`` by a pass-through that appends ``shape_of(args, result)`` to the returned list."""
    shapes, original = [], getattr(checks, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        shapes.append(shape_of(args, result))
        return result

    monkeypatch.setattr(checks, name, recording)
    return shapes


def test_onequbit_suite_sweeps_its_full_grids(monkeypatch):
    runs = _record_shapes(monkeypatch, "run_schedule", lambda args, columns: columns.shape[:-2])
    splits = _record_shapes(monkeypatch, "compile_rotation", lambda args, nm: np.shape(args[1]))
    checks.suite_onequbit()
    assert runs == [(16, 16), (1000,)]
    assert splits == [(100,)]


def test_twoqubit_suite_sweeps_its_full_grids(monkeypatch):
    maps = _record_shapes(monkeypatch, "projected_propagator", lambda args, M: M.shape[:-2])
    runs = _record_shapes(monkeypatch, "run_schedule", lambda args, columns: columns.shape[:-2])
    checks.suite_twoqubit()
    assert maps == [(32, 16)]
    assert runs == [(32,)]


def test_compiler_suite_covers_every_gate_kind_on_every_qubit_and_pair(monkeypatch):
    # one record per circuit shape: chain size, (kind, qubit or pair) per gate, batch size
    shapes = _record_shapes(
        monkeypatch, "circuit_unitary",
        lambda args, U: (args[1].n_logical, tuple((g.kind, getattr(g, fields(g)[0].name)) for g in args[0]),
                         U.shape[:-2]))
    checks.suite_compiler()
    assert sum(int(np.prod(batch)) for _, _, batch in shapes) == 30
    slots = {1: {("rotation", 1), ("reflection", 1)},
             2: {("rotation", 1), ("rotation", 2), ("reflection", 1), ("reflection", 2), ("xy", 1)},
             3: {("rotation", 1), ("rotation", 2), ("rotation", 3), ("reflection", 1), ("reflection", 2),
                 ("reflection", 3), ("xy", 1), ("xy", 2)}}
    for n_logical, every in slots.items():
        circuits = [gates for n, gates, _ in shapes if n == n_logical]
        assert len(set(circuits)) >= 2
        assert set().union(*circuits) == every


def test_twoqubit_suite_makes_one_dense_call_over_its_grid(monkeypatch):
    shapes = []

    def recording(pulse, layout):
        U = propagate_exact(pulse, layout)
        shapes.append(U.shape)
        return U

    monkeypatch.setattr(checks, "propagate_exact", recording)
    checks.suite_twoqubit()
    assert shapes == [(8, 3, 27, 27)]


def test_excited_fixity_takes_the_worst_column_over_a_stack():
    layout = ChainLayout(2)
    moved = np.eye(layout.full_dim, dtype=complex)
    moved[:, [0, 2]] = moved[:, [2, 0]]  # |002> -> |000>: one |e>-carrying column moves by sqrt 2
    assert _excited_fixity(np.eye(layout.full_dim), layout) == 0.0
    assert _excited_fixity(np.stack([np.eye(layout.full_dim), moved]), layout) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    aux = np.eye(layout.full_dim, dtype=complex)
    aux[:, [0, 6]] = aux[:, [6, 0]]  # |020> -> |000>: an auxiliary |e> counts as any other
    assert _excited_fixity(aux, layout) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def _subsample(shape, count, seed):
    """``count`` distinct grid points of an array of ``shape``, as index tuples."""
    flat = np.random.default_rng(seed).choice(int(np.prod(shape)), size=count, replace=False)
    return [np.unravel_index(i, shape) for i in flat]


def _dense_columns(U, layout):
    return U[np.ix_(np.arange(layout.full_dim), layout.logical_indices())]


def _dense_gate_and_leakage(U, layout):
    idx = layout.logical_indices()
    rest = np.setdiff1d(np.arange(layout.full_dim), idx)
    leak = np.linalg.svd(U[np.ix_(rest, idx)], compute_uv=False)[0]
    return U[np.ix_(idx, idx)], leak


class TestSweepsAgainstDense:
    def test_gate_law_grid(self):
        layout = ChainLayout(2)
        thetas, phis = np.meshgrid(np.linspace(0.0, np.pi, 16),
                                   np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False), indexing="ij")
        columns = run_schedule([OneQubitPulse(1, thetas, phis)], logical_frame(layout), layout)
        report = extract_logical_gate(columns, layout)
        assert columns.shape == (16, 16, layout.dim, 4) and report.logical_gate.shape == (16, 16, 4, 4)
        for point in _subsample(thetas.shape, 24, seed=1):
            U = expm_hermitian(h1(1, thetas[point], phis[point], layout), np.pi)
            gate, leak = _dense_gate_and_leakage(U, layout)
            assert np.max(np.abs(to_full_chain(columns[point], layout) - _dense_columns(U, layout))) <= TOL
            assert np.max(np.abs(report.logical_gate[point] - gate)) <= TOL
            assert abs(report.leakage[point] - leak) <= TOL and report.cyclic[point]
            want = np.kron(one_qubit_gate(bloch_vector(thetas[point], phis[point])), np.eye(2))
            assert np.max(np.abs(gate - want)) <= TOL

    def test_composition_pairs(self):
        layout = ChainLayout(1)
        rng = np.random.default_rng(20240601)
        n, m = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in
                (rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))))
        (tn, pn), (tm, pm) = bloch_angles(n), bloch_angles(m)
        columns = run_schedule([OneQubitPulse(1, tn, pn), OneQubitPulse(1, tm, pm)],
                               logical_frame(layout), layout)
        got = extract_logical_gate(columns, layout).logical_gate
        rules = compose_rule(n, m)
        for (k,) in _subsample((1000,), 40, seed=2):
            U = (taylor_expm(h1(1, tm[k], pm[k], layout), np.pi)
                 @ taylor_expm(h1(1, tn[k], pn[k], layout), np.pi))
            gate, _ = _dense_gate_and_leakage(U, layout)
            assert np.max(np.abs(to_full_chain(columns[k], layout) - _dense_columns(U, layout))) <= TOL
            assert np.max(np.abs(got[k] - gate)) <= TOL
            assert np.max(np.abs(rules[k] - compose_rule(n[k], m[k]))) == 0.0
            # the pulses realize m.sigma n.sigma up to a global phase
            phase = np.trace(rules[k].conj().T @ gate) / 2
            assert abs(abs(phase) - 1.0) <= TOL and np.max(np.abs(gate - phase * rules[k])) <= TOL

    def test_block_map_grid(self):
        layout = ChainLayout(2)
        thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        areas = np.linspace(2.0 * np.pi / 16, 2.0 * np.pi, 16)
        pulse = ThreeSitePulse(1, thetas[:, None], area=areas)
        maps = projected_propagator(pulse, logical_frame(layout), layout)
        A, c = projected_block_maps(thetas[:, None], areas)
        assert maps.shape == (32, 16, 4, 4) and A.shape == (32, 16, 2, 2) and c.shape == (32, 16)
        idx = layout.logical_indices()
        for i, j in _subsample(maps.shape[:2], 32, seed=3):
            U = expm_hermitian(h3(1, thetas[i], layout), areas[j])
            dense = U[np.ix_(idx, idx)]
            assert np.max(np.abs(maps[i, j] - dense)) <= TOL
            assert np.max(np.abs(dense[1:3, 1:3] - A[i, j])) <= TOL and abs(dense[3, 3] - c[i, j]) <= TOL

    def test_xy_gate_sweep(self):
        layout = ChainLayout(2)
        thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        columns = run_schedule([ThreeSitePulse(1, thetas)], logical_frame(layout), layout)
        report = extract_logical_gate(columns, layout, target=two_qubit_gate(thetas))
        for (k,) in _subsample((32,), 12, seed=4):
            U = taylor_expm(h3(1, thetas[k], layout), np.pi)
            gate, leak = _dense_gate_and_leakage(U, layout)
            assert np.max(np.abs(to_full_chain(columns[k], layout) - _dense_columns(U, layout))) <= TOL
            assert np.max(np.abs(report.logical_gate[k] - polar_unitary(gate))) <= TOL
            assert abs(report.leakage[k] - leak) <= TOL
            assert np.max(np.abs(gate - two_qubit_gate(thetas[k]))) <= TOL
            assert report.fidelity_vs_target[k] >= 1.0 - TOL

    def test_dense_xy_grid(self):
        layout = ChainLayout(2)
        thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)[::4]
        areas = np.array([0.37, np.pi, 5.1])
        U = propagate_exact(ThreeSitePulse(1, thetas[:, None], area=areas), layout)
        assert U.shape == (8, 3, layout.full_dim, layout.full_dim)
        sz = block_sz(1, layout)
        for i, j in np.ndindex(8, 3):
            dense = taylor_expm(h3(1, thetas[i], layout), areas[j])
            assert np.max(np.abs(U[i, j] - dense)) <= TOL
            assert np.linalg.norm(dense @ sz - sz @ dense) <= TOL
            assert _excited_fixity(U[i, j], layout) <= _excited_fixity(U, layout) <= TOL
