#!/usr/bin/env python3
"""Walkthrough: compile a logical circuit to pulses and run it.

Shows the full pipeline on a 3-qubit chain (5 sites, 243-dimensional):
circuit -> pulse schedule -> logical columns of the chain propagator ->
extracted logical gate, checked against the analytic gate product.  The same pipeline is exposed by
the command line as ``holosim compile`` / ``holosim simulate`` /
``holosim extract-gate`` with JSON documents.
"""

import numpy as np

from holosim import (
    ChainLayout,
    Reflection,
    Rotation,
    XYGate,
    circuit_unitary,
    compile_circuit,
    extract_logical_gate,
    logical_encode,
    logical_frame,
    run_schedule,
)
from holosim.formats import dumps, schedule_to_obj

np.set_printoptions(precision=4, suppress=True, linewidth=120)

layout = ChainLayout(3)
print("chain: 3 logical qubits on", layout.n_sites, "sites, Hilbert dimension", layout.full_dim,
      "of which", layout.dim, "are reachable (no auxiliary |e>)")

circuit = [
    Rotation(qubit=1, axis=(0.0, 0.0, 1.0), angle=np.pi / 2),
    XYGate(pair=1, vartheta=np.pi / 2),
    Reflection(qubit=2, n=(1.0, 0.0, 0.0)),
    XYGate(pair=2, vartheta=2.1),
    Rotation(qubit=3, axis=(0.6, 0.0, 0.8), angle=0.9),
]

schedule = compile_circuit(circuit, layout)
print(f"\n{len(circuit)} gates compile to {len(schedule)} pulses:")
for i, pulse in enumerate(schedule):
    print(f"  {i}: {pulse}")

print("\nschedule as a JSON document (the CLI file format):")
print(dumps(schedule_to_obj(schedule[:2])))

# --- the compiled schedule reproduces the analytic product -----------------
# only the 2^N logical columns of the propagator are needed, not all 108 reachable ones
columns = run_schedule(schedule, logical_frame(layout), layout)
target = circuit_unitary(circuit, layout)
report = extract_logical_gate(columns, layout, target=target)
print("extracted 8x8 logical gate vs analytic product:")
print("  fidelity:", report.fidelity_vs_target)
print("  leakage: ", report.leakage)

# --- state-level run --------------------------------------------------------
psi = run_schedule(schedule, logical_encode([0, 0, 0], layout), layout)
amps = psi[layout.logical_rows()]
print("\nfinal logical amplitudes from |000>:")
for bits, amp in zip(range(8), amps):
    if abs(amp) > 1e-12:
        print(f"  |{bits:03b}>: {amp:.4f}   p = {abs(amp)**2:.4f}")
print("total logical population:", float(np.sum(np.abs(amps) ** 2)))
