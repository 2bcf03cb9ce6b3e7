"""Verification suites behind ``holosim verify``.

Each suite runs a batch of numerical checks against the closed-form gate
theory and returns one record per check with the measured value and its
threshold.  Suites are deterministic: randomized checks use fixed seeds.

Each sweep is one batched call: the 16x16 gate-law grid, the 1000
composition pairs, the 32x16 block-map grid, the 32-angle XY sweep and the
8x3 grid of dense XY propagators pass their angles and areas as arrays to
one pulse (see ``pulses``); the block maps come from
``projected_propagator``, whose three-term form needs no 27 x 27
propagator per grid point.  The compiler suite draws circuit shapes, not
circuits: at each chain size, one shape holds every gate kind on every
qubit and pair in a random order and one is a random draw.  Each shape is a
batch circuit of 5 parameter draws (see ``compiler``), compiled, run and
multiplied out in one call each, and the circuits of one chain size are
extracted in one call.  The entangling checks read the exact verdict of
``gates.entangling_verdict``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from .chain import ChainLayout, block_sz, logical_frame
from .compiler import Gate, Rotation, XYGate, compile_circuit, compile_rotation, circuit_unitary
from .gates import (
    bloch_angles,
    bloch_vector,
    compose_rule,
    entangling_verdict,
    extract_logical_gate,
    one_qubit_gate,
    projected_block_maps,
    two_qubit_gate,
)
from .holonomy import (
    CERTIFY_CROSS_FIDELITY,
    CERTIFY_CYCLICITY,
    CERTIFY_DYNAMICAL_PHASE,
    CERTIFY_PARALLEL_TRANSPORT,
    certify,
    computational_frame,
    projected_propagator,
    trace_subspace,
    wilson_loop,
)
from .linalg import cross, dot, gate_fidelity, polar_unitary
from .pulses import OneQubitPulse, ThreeSitePulse, propagate_exact, run_schedule

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("onequbit", "twoqubit", "holonomy", "compiler", "all")


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool


def _check(name: str, measured: float, threshold: float, comparison: str = "<=") -> CheckResult:
    measured = float(measured)
    ok = measured <= threshold if comparison == "<=" else measured >= threshold
    return CheckResult(name=name, measured=measured, threshold=threshold,
                       comparison=comparison, passed=ok)


def _random_unit_vectors(count: int, rng) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# One-qubit suite
# ---------------------------------------------------------------------------

def suite_onequbit(samples: int = 1024, tol_scale: float = 1.0) -> list[CheckResult]:
    del samples  # no path sampling in this suite
    results = []
    layout = ChainLayout(2)

    thetas, phis = np.meshgrid(np.linspace(0.0, np.pi, 16),
                               np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False), indexing="ij")
    columns = run_schedule([OneQubitPulse(1, thetas, phis)], logical_frame(layout), layout)
    gates = one_qubit_gate(bloch_vector(thetas, phis))
    targets = np.einsum("...ij,kl->...ikjl", gates, np.eye(2)).reshape(gates.shape[:-2] + (4, 4))
    report = extract_logical_gate(columns, layout, target=targets)
    results.append(_check("pi-pulse gate law on 16x16 (theta, phi) grid: min fidelity",
                          np.min(report.fidelity_vs_target), 1.0 - 1e-10 * tol_scale, ">="))

    rng = np.random.default_rng(20240601)
    layout1 = ChainLayout(1)
    n, m = _random_unit_vectors(1000, rng), _random_unit_vectors(1000, rng)
    (tn, pn), (tm, pm) = bloch_angles(n), bloch_angles(m)
    columns = run_schedule([OneQubitPulse(1, tn, pn), OneQubitPulse(1, tm, pm)],
                           logical_frame(layout1), layout1)
    got = extract_logical_gate(columns, layout1).logical_gate
    results.append(_check("two-pulse composition law, 1000 random pairs: max deviation",
                          np.max(_phase_free_distance(got, compose_rule(n, m))), 1e-10 * tol_scale))

    axes, angles = _random_unit_vectors(100, rng), rng.uniform(-2 * np.pi, 2 * np.pi, 100)
    half = 0.5 * angles[:, None, None]
    targets = np.cos(half) * np.eye(2, dtype=complex) - 1j * np.sin(half) * one_qubit_gate(axes)
    fidelity = gate_fidelity(compose_rule(*compile_rotation(axes, angles)), targets)
    results.append(_check("rotation split round-trip, 100 random rotations: min fidelity",
                          np.min(fidelity), 1.0 - 1e-10 * tol_scale, ">="))
    return results


def _phase_free_distance(A, B) -> np.ndarray:
    """Frobenius distance minimized over a global phase, per matrix pair of two stacks."""
    overlap = np.trace(B.conj().swapaxes(-1, -2) @ A, axis1=-2, axis2=-1)
    size = np.abs(overlap)
    phase = np.where(size > 1e-14, overlap / np.where(size > 1e-14, size, 1.0), 1.0)
    return np.linalg.norm(A - phase[..., None, None] * B, axis=(-2, -1))


# ---------------------------------------------------------------------------
# Two-qubit suite
# ---------------------------------------------------------------------------

def suite_twoqubit(samples: int = 1024, tol_scale: float = 1.0) -> list[CheckResult]:
    del samples
    results = []
    layout = ChainLayout(2)
    thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    frame = logical_frame(layout)

    areas = np.linspace(2.0 * np.pi / 16, 2.0 * np.pi, 16)
    maps = projected_propagator(ThreeSitePulse(1, thetas[:, None], area=areas), frame, layout)
    A, c = projected_block_maps(thetas[:, None], areas)
    worst_block = max(np.max(np.abs(maps[..., 1:3, 1:3] - A)), np.max(np.abs(maps[..., 3, 3] - c)))
    results.append(_check("projected block maps on 32x16 (vartheta, area) grid: max deviation",
                          worst_block, 1e-10 * tol_scale))

    columns = run_schedule([ThreeSitePulse(1, thetas)], frame, layout)
    report = extract_logical_gate(columns, layout, target=two_qubit_gate(thetas))
    results.append(_check("pi-area XY gate vs closed form, 32 vartheta: min fidelity",
                          np.min(report.fidelity_vs_target), 1.0 - 1e-10 * tol_scale, ">="))
    results.append(_check("pi-area XY gate: max leakage", np.max(report.leakage), 1e-10 * tol_scale))
    results.append(_check("pi-area XY gate: max auxiliary-site population",
                          _aux_population(columns, layout), 1e-12 * tol_scale))

    # 8 vartheta x 3 areas in one dense propagation
    U = propagate_exact(ThreeSitePulse(1, thetas[::4, None], area=np.array([0.37, np.pi, 5.1])), layout)
    sz = block_sz(1, layout)
    results.append(_check("XY propagator commutes with block S_z: max commutator norm",
                          np.max(np.linalg.norm(U @ sz - sz @ U, axis=(-2, -1))), 1e-10 * tol_scale))
    results.append(_check("XY propagator fixes every |e>-carrying basis state: max deviation",
                          _excited_fixity(U, layout), 1e-12 * tol_scale))

    ent_pi2, _ = entangling_verdict(two_qubit_gate(np.pi / 2))
    ent_0, power_0 = entangling_verdict(two_qubit_gate(0.0))
    ent_pi, power_pi = entangling_verdict(two_qubit_gate(np.pi))
    results.append(_check("entangling verdict at vartheta=pi/2 (1=true)", float(ent_pi2), 1.0, ">="))
    results.append(_check("max product-state output entropy at vartheta=0",
                          0.0 if not ent_0 else power_0, 1e-8 * tol_scale))
    results.append(_check("max product-state output entropy at vartheta=pi",
                          0.0 if not ent_pi else power_pi, 1e-8 * tol_scale))
    return results


def _aux_population(columns, layout: ChainLayout) -> float:
    """Worst-case population left outside the logical block by logical inputs (over a stack too)."""
    outside = np.delete(columns, layout.logical_indices(), axis=-2)
    return float(np.max(np.sum(np.abs(outside) ** 2, axis=-2)))


def _excited_fixity(U, layout: ChainLayout) -> float:
    """Largest ||U e_j - e_j|| over the basis states e_j carrying |e> on some site (over a stack too)."""
    excited = [j for j in range(layout.dim) if "2" in np.base_repr(j, base=3)]
    return float(np.max(np.linalg.norm(U[..., excited] - np.eye(layout.dim)[:, excited], axis=-2)))


# ---------------------------------------------------------------------------
# Holonomy suite
# ---------------------------------------------------------------------------

def suite_holonomy(samples: int = 1024, tol_scale: float = 1.0) -> list[CheckResult]:
    results = []
    layout = ChainLayout(2)
    for label, pulse in (
        ("one-qubit pi pulse (theta=pi/4)", OneQubitPulse(1, np.pi / 4, 0.0)),
        ("three-site pi pulse (vartheta=pi/2)", ThreeSitePulse(1, np.pi / 2)),
    ):
        report = certify(pulse, layout, samples=samples, strict=False)
        results.append(_check(f"{label}: parallel-transport residual",
                              report.parallel_transport_residual,
                              CERTIFY_PARALLEL_TRANSPORT * tol_scale))
        results.append(_check(f"{label}: |dynamical phase|", abs(report.dynamical_phase),
                              CERTIFY_DYNAMICAL_PHASE * tol_scale))
        results.append(_check(f"{label}: cyclicity residual", report.cyclicity_residual,
                              CERTIFY_CYCLICITY * tol_scale))
        results.append(_check(f"{label}: wilson cross-fidelity", report.cross_fidelity,
                              CERTIFY_CROSS_FIDELITY, ">="))
    return results


def wilson_deficits(pulse, layout: ChainLayout, sample_counts) -> np.ndarray:
    """1 - cross_fidelity of the Wilson gate at each sample count."""
    frame = computational_frame(pulse, layout)
    reference = polar_unitary(projected_propagator(pulse, frame, layout))
    deficits = []
    for count in sample_counts:
        path = trace_subspace(pulse, frame, count, layout)
        W = wilson_loop(path)
        deficits.append(1.0 - gate_fidelity(W, reference))
    return np.array(deficits)


# ---------------------------------------------------------------------------
# Compiler suite
# ---------------------------------------------------------------------------

def _circuit_shapes(rng, n_logical: int) -> list[list]:
    """Two gate sequences (class, qubit or pair) at chain size ``n_logical``.

    The first is every gate kind on every qubit or pair, in a random order;
    the second is a random draw of depth 1-6 from the same list.
    """
    slots = [(cls, index) for cls in get_args(Gate) for index in range(1, n_logical + 2 - cls.qubits)]
    coverage = [slots[k] for k in rng.permutation(len(slots))]
    drawn = [slots[k] for k in rng.integers(0, len(slots), size=int(rng.integers(1, 7)))]
    return [coverage, drawn]


# per gate kind, whether each field after its qubit or pair is a number (else a 3-vector)
_NUMBER_FIELDS = {cls: [get_type_hints(cls)[f.name] is float for f in fields(cls)[1:]]
                  for cls in get_args(Gate)}


def _batch_gate(cls, index: int, draws: int, rng):
    """A batch of ``draws`` gates of class ``cls`` on one qubit or pair: a random angle in
    [-2 pi, 2 pi) for each number field and a random unit vector for each 3-vector field."""
    params = [rng.uniform(-2 * np.pi, 2 * np.pi, draws) if number else _random_unit_vectors(draws, rng)
              for number in _NUMBER_FIELDS[cls]]
    return cls(index, *params)


def suite_compiler(samples: int = 1024, tol_scale: float = 1.0) -> list[CheckResult]:
    del samples
    results = []
    rng = np.random.default_rng(77)

    # per chain size, two circuit shapes with 5 parameter draws each: one compile, run and
    # closed-form product per shape, one extraction per chain size
    draws, worst, circuits = 5, 1.0, 0
    for n_logical in (1, 2, 3):
        layout = ChainLayout(n_logical)
        frame, columns, targets = logical_frame(layout), [], []
        for shape in _circuit_shapes(rng, n_logical):
            circuit = [_batch_gate(cls, index, draws, rng) for cls, index in shape]
            columns.append(run_schedule(compile_circuit(circuit, layout), frame, layout))
            targets.append(circuit_unitary(circuit, layout))
            circuits += draws
        report = extract_logical_gate(np.concatenate(columns), layout, target=np.concatenate(targets))
        worst = min(worst, np.min(report.fidelity_vs_target))
    results.append(_check(f"compiled-schedule round trip, {circuits} random circuits: min fidelity",
                          worst, 1.0 - 1e-8 * tol_scale, ">="))

    layout = ChainLayout(2)
    circuit = [Rotation(1, (0.0, 0.0, 1.0), np.pi / 2), XYGate(1, np.pi / 2)]
    sched_a = compile_circuit(circuit, layout)
    sched_b = compile_circuit(circuit, layout)
    results.append(_check("compilation determinism (0 = bit-identical)",
                          0.0 if sched_a == sched_b else 1.0, 0.0))

    axes, angles = _random_unit_vectors(200, rng), rng.uniform(-2 * np.pi, 2 * np.pi, 200)
    n, m = compile_rotation(axes, angles)
    normal = cross(n, m) - np.sin(0.5 * angles)[:, None] * axes
    worst_dev = max(np.max(np.abs(np.sqrt(dot(n, n)) - 1.0)), np.max(np.abs(np.sqrt(dot(m, m)) - 1.0)),
                    np.max(np.abs(dot(n, m) - np.cos(0.5 * angles))), np.max(np.sqrt(dot(normal, normal))))
    results.append(_check("rotation split invariants, 200 random rotations: max deviation",
                          worst_dev, 1e-12 * tol_scale))
    return results


_SUITES = {
    "onequbit": suite_onequbit,
    "twoqubit": suite_twoqubit,
    "holonomy": suite_holonomy,
    "compiler": suite_compiler,
}


def run_suite(name: str, samples: int = 1024, tol_scale: float = 1.0) -> list[CheckResult]:
    """Run one named suite (or 'all'); unknown names raise ValueError."""
    if name == "all":
        results = []
        for suite in _SUITES.values():
            results.extend(suite(samples=samples, tol_scale=tol_scale))
        return results
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    return _SUITES[name](samples=samples, tol_scale=tol_scale)
