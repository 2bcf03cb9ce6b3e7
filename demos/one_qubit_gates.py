#!/usr/bin/env python3
"""Walkthrough: one-qubit gates from single pi-area pulses.

A pi-area two-field pulse at the site of a logical qubit reflects its Bloch
vector: the gate is n.sigma with n set by the pulse angles (theta, phi).
Two reflections compose into an arbitrary rotation, which is how the
compiler realizes generic one-qubit gates.
"""

import numpy as np

from holosim import (
    ChainLayout,
    OneQubitPulse,
    bloch_angles,
    bloch_vector,
    compile_rotation,
    compose_rule,
    extract_logical_gate,
    gate_fidelity,
    logical_frame,
    one_qubit_gate,
    run_schedule,
)

np.set_printoptions(precision=6, suppress=True, linewidth=100)

layout = ChainLayout(1)  # a single qutrit
print("chain: 1 logical qubit on", layout.n_sites, "site(s), Hilbert dimension", 3 ** layout.n_sites,
      "of which", layout.dim, "are reachable (no auxiliary |e>)")

# --- a Hadamard from one pulse ------------------------------------------
theta, phi = np.pi / 4, 0.0
pulse = OneQubitPulse(qubit=1, theta=theta, phi=phi)  # area defaults to pi
# only the 2^N logical columns of the propagator are needed
report = extract_logical_gate(run_schedule([pulse], logical_frame(layout), layout), layout)

n = bloch_vector(theta, phi)
print("\npulse angles theta=pi/4, phi=0  ->  n =", n)
print("extracted logical gate:\n", report.logical_gate.real)
print("target n.sigma:\n", one_qubit_gate(n).real)
print("fidelity:", gate_fidelity(report.logical_gate, one_qubit_gate(n)))
print("leakage out of the qubit subspace:", report.leakage)

# --- the excited level is only populated mid-pulse -----------------------
psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
half = run_schedule([OneQubitPulse(1, theta, phi, area=np.pi / 2)], psi0, layout)
print("\nmid-pulse |e> population (area pi/2):", abs(half[2]) ** 2)
print("after the full pi pulse it returns to zero:", abs(run_schedule([pulse], psi0, layout)[2]) ** 2)

# --- two pulses make a rotation ------------------------------------------
axis, angle = np.array([0.0, 0.0, 1.0]), np.pi / 2
n1, m1 = compile_rotation(axis, angle)
print("\nrotation by pi/2 about z splits into reflections")
print("  n =", n1, " m =", m1)

schedule = [
    OneQubitPulse(1, *bloch_angles(n1)),
    OneQubitPulse(1, *bloch_angles(m1)),
]
gate = extract_logical_gate(run_schedule(schedule, logical_frame(layout), layout), layout).logical_gate
target = compose_rule(n1, m1)
print("simulated two-pulse gate:\n", np.round(gate, 6))
print("closed-form composition n.m - i sigma.(n x m):\n", np.round(target, 6))
print("fidelity:", gate_fidelity(gate, target))
