"""Verification suites behind ``holosim verify``.

Each suite runs a batch of numerical checks against the closed-form gate
theory and returns one record per check with the measured value and its
threshold.  Suites are deterministic: randomized checks use fixed seeds.

Each sweep is one batched call: the 16x16 gate-law grid, the 1000
composition pairs, the 32x16 block-map grid, the 32-angle XY sweep and the
8x3 grid of local XY propagators pass their angles and areas as arrays to
one pulse (see ``pulses``); the block maps come from
``projected_propagator``, whose three-term form needs no 18 x 18
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

from .chain import ChainLayout, logical_frame
from .compiler import Gate, Reflection, Rotation, XYGate, compile_circuit, compile_rotation, circuit_unitary
from .gates import (
    bloch_angles,
    bloch_vector,
    compose_rule,
    entangling_verdict,
    extract_logical_gate,
    projected_block_maps,
    two_qubit_gate,
)
from .holonomy import (
    CERTIFY_CROSS_FIDELITY,
    CERTIFY_CYCLICITY,
    CERTIFY_DYNAMICAL_PHASE,
    CERTIFY_PARALLEL_TRANSPORT,
    certify,
    projected_propagator,
)
from .linalg import cross, dot, gate_fidelity
from .pulses import OneQubitPulse, ThreeSitePulse, local_propagator, run_schedule

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


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

def suite_onequbit() -> list[CheckResult]:
    results = []
    layout = ChainLayout(2)

    thetas, phis = np.meshgrid(np.linspace(0.0, np.pi, 16),
                               np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False), indexing="ij")
    columns = run_schedule([OneQubitPulse(1, thetas, phis)], logical_frame(layout), layout)
    targets = circuit_unitary([Reflection(1, bloch_vector(thetas, phis))], layout)
    report = extract_logical_gate(columns, layout, target=targets)
    results.append(_check("pi-pulse gate law on 16x16 (theta, phi) grid: min fidelity",
                          np.min(report.fidelity_vs_target), 1.0 - 1e-10, ">="))

    rng = np.random.default_rng(20240601)
    layout1 = ChainLayout(1)
    n, m = _random_unit_vectors(1000, rng), _random_unit_vectors(1000, rng)
    (tn, pn), (tm, pm) = bloch_angles(n), bloch_angles(m)
    columns = run_schedule([OneQubitPulse(1, tn, pn), OneQubitPulse(1, tm, pm)],
                           logical_frame(layout1), layout1)
    got = extract_logical_gate(columns, layout1).logical_gate
    results.append(_check("two-pulse composition law, 1000 random pairs: max deviation",
                          np.max(_phase_free_distance(got, compose_rule(n, m))), 1e-10))

    axes, angles = _random_unit_vectors(100, rng), rng.uniform(-2 * np.pi, 2 * np.pi, 100)
    targets = circuit_unitary([Rotation(1, axes, angles)], layout1)
    fidelity = gate_fidelity(compose_rule(*compile_rotation(axes, angles)), targets)
    results.append(_check("rotation split round-trip, 100 random rotations: min fidelity",
                          np.min(fidelity), 1.0 - 1e-10, ">="))
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

def suite_twoqubit() -> list[CheckResult]:
    results = []
    layout = ChainLayout(2)
    thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    frame = logical_frame(layout)

    areas = np.linspace(2.0 * np.pi / 16, 2.0 * np.pi, 16)
    maps = projected_propagator(ThreeSitePulse(1, thetas[:, None], area=areas), frame, layout)
    A, c = projected_block_maps(thetas[:, None], areas)
    worst_block = max(np.max(np.abs(maps[..., 1:3, 1:3] - A)), np.max(np.abs(maps[..., 3, 3] - c)))
    results.append(_check("projected block maps on 32x16 (vartheta, area) grid: max deviation",
                          worst_block, 1e-10))

    columns = run_schedule([ThreeSitePulse(1, thetas)], frame, layout)
    report = extract_logical_gate(columns, layout, target=two_qubit_gate(thetas))
    results.append(_check("pi-area XY gate vs closed form, 32 vartheta: min fidelity",
                          np.min(report.fidelity_vs_target), 1.0 - 1e-10, ">="))
    results.append(_check("pi-area XY gate: max leakage", np.max(report.leakage), 1e-10))
    results.append(_check("pi-area XY gate: max auxiliary-site population",
                          _aux_population(columns, layout), 1e-12))

    # 8 vartheta x 3 areas in one local propagator, on the 18 reachable states of pair 1's three sites
    U = local_propagator(ThreeSitePulse(1, thetas[::4, None], area=np.array([0.37, np.pi, 5.1])), layout)[1]
    results.append(_check("XY propagator commutes with block S_z: max commutator norm",
                          np.max(np.linalg.norm(U * _PAIR_SZ - _PAIR_SZ[:, None] * U, axis=(-2, -1))), 1e-10))
    results.append(_check("XY propagator fixes every |e>-carrying basis state: max deviation",
                          np.max(np.linalg.norm((U - np.eye(18))[..., _PAIR_EXCITED], axis=-2)), 1e-12))

    ent_pi2, _ = entangling_verdict(two_qubit_gate(np.pi / 2))
    ent_0, power_0 = entangling_verdict(two_qubit_gate(0.0))
    ent_pi, power_pi = entangling_verdict(two_qubit_gate(np.pi))
    results.append(_check("entangling verdict at vartheta=pi/2 (1=true)", float(ent_pi2), 1.0, ">="))
    results.append(_check("entangling power e_p at vartheta=0",
                          0.0 if not ent_0 else power_0, 1e-8))
    results.append(_check("entangling power e_p at vartheta=pi",
                          0.0 if not ent_pi else power_pi, 1e-8))
    return results


# The block pseudo-spin S_z = (sz + sz + sz)/2 of pair 1's three sites on their 18 reachable states (a, b, c),
# index 6a + 3b + c, as its diagonal: sz = +1 on |0>, -1 on |1> and 0 on |e>; and those states with |e> on a site.
_PAIR_CODES = np.array([(a, b, c) for a in range(3) for b in range(2) for c in range(3)])
_PAIR_SZ = 0.5 * np.sum(np.array([1.0, -1.0, 0.0])[_PAIR_CODES], axis=1)
_PAIR_EXCITED = np.flatnonzero(np.any(_PAIR_CODES == 2, axis=1))


def _aux_population(columns, layout: ChainLayout) -> float:
    """Worst-case population left outside the logical block by logical inputs (over a stack too), from columns
    of the reachable space."""
    outside = np.delete(columns, layout.logical_rows(), axis=-2)
    return float(np.max(np.sum(np.abs(outside) ** 2, axis=-2)))


# ---------------------------------------------------------------------------
# Holonomy suite
# ---------------------------------------------------------------------------

def suite_holonomy() -> list[CheckResult]:
    results = []
    layout = ChainLayout(2)
    for label, pulse in (
        ("one-qubit pi pulse (theta=pi/4)", OneQubitPulse(1, np.pi / 4, 0.0)),
        ("three-site pi pulse (vartheta=pi/2)", ThreeSitePulse(1, np.pi / 2)),
    ):
        report = certify(pulse, layout, strict=False)
        results.append(_check(f"{label}: parallel-transport residual",
                              report.parallel_transport_residual,
                              CERTIFY_PARALLEL_TRANSPORT))
        results.append(_check(f"{label}: |dynamical phase|", abs(report.dynamical_phase),
                              CERTIFY_DYNAMICAL_PHASE))
        results.append(_check(f"{label}: cyclicity residual", report.cyclicity_residual,
                              CERTIFY_CYCLICITY))
        results.append(_check(f"{label}: wilson cross-fidelity", report.cross_fidelity,
                              CERTIFY_CROSS_FIDELITY, ">="))
    return results


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


def suite_compiler() -> list[CheckResult]:
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
                          worst, 1.0 - 1e-8, ">="))

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
                          worst_dev, 1e-12))
    return results


_SUITES = {
    "onequbit": suite_onequbit,
    "twoqubit": suite_twoqubit,
    "holonomy": suite_holonomy,
    "compiler": suite_compiler,
}


SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite (or 'all'); unknown names raise ValueError."""
    if name == "all":
        return [result for suite in _SUITES.values() for result in suite()]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    return _SUITES[name]()
