"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Criteria 1 and 9 also enforce their runtime budgets.

Criteria 1-3 sweep the same laws as the first checks of ``holosim verify``
(``checks.suite_onequbit`` and ``suite_twoqubit``), one grid point or pair at
a time through a dense propagator.  They are the per-point references for
those batched sweeps, with their own seeds and metrics; the two sweeps are
kept apart on purpose, so that neither takes its grid, seed or metric as an
argument.
"""

import time

import numpy as np

from holosim.chain import ChainLayout, block_sz, embed
from holosim.checks import _aux_population, _excited_fixity
from holosim.compiler import (
    Reflection,
    Rotation,
    XYGate,
    circuit_unitary,
    compile_circuit,
    compile_rotation,
)
from holosim.gates import (
    bloch_angles,
    bloch_vector,
    compose_rule,
    entangling_verdict,
    entanglement_entropy,
    extract_logical_gate,
    one_qubit_gate,
    projected_block_maps,
    two_qubit_gate,
)
from holosim.holonomy import certify
from holosim.linalg import gate_fidelity
from holosim.pulses import (
    ENVELOPES,
    OneQubitPulse,
    ThreeSitePulse,
    propagate_exact,
    propagate_stepped,
    schedule_propagator,
)

from oracles import random_unit_vector, taylor_expm

_SUITE_START = time.perf_counter()

THETA_GRID = np.linspace(0.0, np.pi, 16)
PHI_GRID = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
VARTHETA_GRID = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)


def report(number, description, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({description}): {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_one_qubit_gate_law():
    start = time.perf_counter()
    layout = ChainLayout(2)
    eye2 = np.eye(2)
    worst = 1.0
    for theta in THETA_GRID:
        for phi in PHI_GRID:
            U = propagate_exact(OneQubitPulse(1, theta, phi), layout)
            target = np.kron(one_qubit_gate(bloch_vector(theta, phi)), eye2)
            rep = extract_logical_gate(U[:, layout.logical_indices()], layout, target=target)
            worst = min(worst, rep.fidelity_vs_target)
    elapsed = time.perf_counter() - start
    report(
        1,
        "pi-pulse reflection law on 16x16 angle grid",
        worst >= 1.0 - 1e-10 and elapsed < 5.0,
        f"min fidelity {worst:.3e} (>= 1-1e-10), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_composition_law():
    rng = np.random.default_rng(314159)
    layout = ChainLayout(1)
    worst_dev = 0.0
    for _ in range(1000):
        n, m = random_unit_vector(rng), random_unit_vector(rng)
        tn, pn = bloch_angles(n)
        tm, pm = bloch_angles(m)
        U = schedule_propagator(
            [OneQubitPulse(1, tn, pn), OneQubitPulse(1, tm, pm)], layout
        )
        got = extract_logical_gate(U[:, layout.logical_indices()], layout).logical_gate
        worst_dev = max(worst_dev, float(np.max(np.abs(got - compose_rule(n, m)))))

    worst_fid = 1.0
    for _ in range(200):
        axis = random_unit_vector(rng)
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        n, m = compile_rotation(axis, angle)
        target = taylor_expm(0.5 * angle * one_qubit_gate(axis), 1.0)
        worst_fid = min(worst_fid, gate_fidelity(compose_rule(n, m), target))

    report(
        2,
        "two-pulse composition law",
        worst_dev < 1e-10 and worst_fid >= 1.0 - 1e-10,
        f"1000 simulated pairs: max deviation {worst_dev:.3e} (< 1e-10); "
        f"200 rotation round-trips: min fidelity {worst_fid:.3e} (>= 1-1e-10)",
    )


def test_criterion_3_projected_block_maps():
    layout = ChainLayout(2)
    idx = layout.logical_indices()
    worst = 0.0
    for vt in VARTHETA_GRID:
        for area in np.linspace(2.0 * np.pi / 16, 2.0 * np.pi, 16):
            U = propagate_exact(ThreeSitePulse(1, vt, area=area), layout)
            A, c = projected_block_maps(vt, area)
            worst = max(
                worst,
                float(np.max(np.abs(U[np.ix_(idx[1:3], idx[1:3])] - A))),
                abs(U[idx[3], idx[3]] - c),
            )
    report(
        3,
        "partial-area block maps on 32x16 grid",
        worst < 1e-10,
        f"max entrywise deviation {worst:.3e} (< 1e-10)",
    )


def test_criterion_4_two_qubit_gate_at_pi():
    layout = ChainLayout(2)
    idx = layout.logical_indices()
    worst_fid, worst_leak, worst_aux = 1.0, 0.0, 0.0
    for vt in VARTHETA_GRID:
        U = propagate_exact(ThreeSitePulse(1, vt), layout)
        rep = extract_logical_gate(U[:, idx], layout, target=two_qubit_gate(vt))
        worst_fid = min(worst_fid, rep.fidelity_vs_target)
        worst_leak = max(worst_leak, rep.leakage)
        worst_aux = max(worst_aux, _aux_population(U[:, idx], layout))
    report(
        4,
        "pi-area exchange gate vs closed form",
        worst_fid >= 1.0 - 1e-10 and worst_leak < 1e-10 and worst_aux < 1e-12,
        f"min fidelity {worst_fid:.3e} (>= 1-1e-10), max leakage {worst_leak:.3e} (< 1e-10), "
        f"max auxiliary residual {worst_aux:.3e} (< 1e-12)",
    )


def test_criterion_5_holonomy_certification():
    layout = ChainLayout(2)
    counts = [64, 128, 256, 512, 1024, 2048, 4096]
    details = []
    ok = True
    for label, pulse in (
        ("one-qubit", OneQubitPulse(1, np.pi / 4, 0.0)),
        ("three-site", ThreeSitePulse(1, np.pi / 2)),
    ):
        rep = certify(pulse, layout, samples=4096, strict=False)
        ok &= rep.parallel_transport_residual < 1e-9
        ok &= abs(rep.dynamical_phase) < 1e-9
        ok &= rep.cyclicity_residual < 1e-8
        ok &= rep.cross_fidelity >= 1.0 - 1e-6

        deficits = np.array([1.0 - certify(pulse, layout, samples=count, strict=False).cross_fidelity
                             for count in counts])
        max_deficit = float(np.max(deficits))
        if max_deficit <= 1e-12:
            # the discrete loop is exact at every sample count (deficits at
            # the roundoff floor), which satisfies the O(1/samples) decay
            # requirement vacuously; a log-log slope fit of pure roundoff
            # noise would be meaningless, so it is skipped
            slope_note = f"converged at roundoff (max deficit {max_deficit:.1e})"
        else:
            slope = np.polyfit(np.log(counts), np.log(np.maximum(deficits, 1e-16)), 1)[0]
            ok &= slope <= -0.9
            slope_note = f"slope {slope:.2f} (<= -0.9)"
        details.append(
            f"{label}: PHP {rep.parallel_transport_residual:.1e}, "
            f"dyn {abs(rep.dynamical_phase):.1e}, cyc {rep.cyclicity_residual:.1e}, "
            f"cross-fid deficit {1.0 - rep.cross_fidelity:.1e}, {slope_note}"
        )
    report(5, "holonomy certification for both gate families", ok, "; ".join(details))


def test_criterion_6_envelope_independence():
    details = []
    ok = True
    for label, make, layout in (
        ("one-qubit", lambda env: OneQubitPulse(1, np.pi / 4, 0.0, envelope=env), ChainLayout(1)),
        ("three-site", lambda env: ThreeSitePulse(1, np.pi / 2, envelope=env), ChainLayout(2)),
    ):
        gates = [propagate_stepped(make(env), 10_000, layout) for env in ENVELOPES]
        worst = min(
            gate_fidelity(gates[i], gates[j])
            for i in range(len(gates))
            for j in range(i + 1, len(gates))
        )
        ok &= worst >= 1.0 - 1e-9
        details.append(f"{label}: min mutual fidelity {worst:.12f}")
    report(6, "equal-area envelopes give the same gate at 1e4 steps", ok,
           "; ".join(details) + " (>= 1-1e-9)")


def test_criterion_7_sz_block_structure():
    layout = ChainLayout(2)
    sz = block_sz(1, layout)
    worst_comm, worst_fix = 0.0, 0.0
    for vt in VARTHETA_GRID:
        for area in (np.pi, 1.3):
            U = propagate_exact(ThreeSitePulse(1, vt, area=area), layout)
            worst_comm = max(worst_comm, float(np.linalg.norm(U @ sz - sz @ U)))
            worst_fix = max(worst_fix, _excited_fixity(U, layout))
    report(
        7,
        "total pseudo-spin block structure",
        worst_comm < 1e-10 and worst_fix < 1e-12,
        f"max [U, S_z] norm {worst_comm:.3e} (< 1e-10), "
        f"max |e>-state motion {worst_fix:.3e} (< 1e-12)",
    )


def test_criterion_8_entangling_universality_witness():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    out = two_qubit_gate(np.pi / 2) @ np.kron(plus, plus)
    entropy_dev = abs(entanglement_entropy(out) - np.log(2.0))

    worst_local = 0.0
    for vt in (0.0, np.pi):
        verdict, power = entangling_verdict(two_qubit_gate(vt))
        worst_local = max(worst_local, power)
        assert not verdict
    report(
        8,
        "entangling witness at vartheta=pi/2, none at 0 and pi",
        entropy_dev < 1e-9 and worst_local < 1e-8,
        f"|entropy - ln 2| {entropy_dev:.3e} (< 1e-9), "
        f"max local-gate entangling power {worst_local:.3e} (< 1e-8)",
    )


def test_criterion_9_three_qubit_end_to_end():
    layout = ChainLayout(3)
    circuit = [
        Rotation(1, (0.0, 0.0, 1.0), np.pi / 2),
        XYGate(1, np.pi / 2),
        Reflection(2, (1.0, 0.0, 0.0)),
        XYGate(2, 2.1),
        Rotation(3, (0.6, 0.0, 0.8), 0.9),
    ]
    schedule = compile_circuit(circuit, layout)
    U = schedule_propagator(schedule, layout)
    rep = extract_logical_gate(U[:, layout.logical_indices()], layout,
                               target=circuit_unitary(circuit, layout))

    # gates addressed to the first logical pair must not touch qubit 3
    sub = [Rotation(1, (0.0, 0.0, 1.0), np.pi / 2), XYGate(1, np.pi / 2)]
    U_sub = schedule_propagator(compile_circuit(sub, layout), layout)
    G = extract_logical_gate(U_sub[:, layout.logical_indices()], layout).logical_gate
    third_factor_dev = float(
        np.max(np.abs(G - np.kron(G[np.ix_([0, 2, 4, 6], [0, 2, 4, 6])], np.eye(2))))
    )
    worst_comm = 0.0
    U_pulse = propagate_exact(ThreeSitePulse(1, np.pi / 2), layout)
    for a in range(3):
        for b in range(3):
            E = np.zeros((3, 3))
            E[a, b] = 1.0
            O = embed(E, 5, layout)
            worst_comm = max(worst_comm, float(np.linalg.norm(U_pulse @ O - O @ U_pulse)))

    elapsed = time.perf_counter() - _SUITE_START
    report(
        9,
        "three-qubit compiled circuit and locality",
        rep.fidelity_vs_target >= 1.0 - 1e-8
        and third_factor_dev < 1e-10
        and worst_comm < 1e-10
        and elapsed < 60.0,
        f"5-gate circuit fidelity deficit {1.0 - rep.fidelity_vs_target:.3e} (<= 1e-8), "
        f"third-qubit factor deviation {third_factor_dev:.3e} (< 1e-10), "
        f"max site-5 commutator {worst_comm:.3e} (< 1e-10), "
        f"acceptance-suite runtime {elapsed:.1f}s (< 60s)",
    )
