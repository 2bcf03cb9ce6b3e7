#!/usr/bin/env python3
"""Walkthrough: the entangling gate from one three-site coupling pulse.

Two logical qubits sit on the outer sites of a three-site block; the middle
site is an auxiliary that mediates an XY exchange.  Driving the block for a
pi pulse area enacts a two-qubit gate that exchanges |01> and |10> with
mixing angle vartheta, flips the sign of |11>, and returns the auxiliary to
|0> exactly.
"""

import numpy as np

from holosim import (
    ChainLayout,
    OneQubitPulse,
    ThreeSitePulse,
    entangling_verdict,
    entanglement_entropy,
    extract_logical_gate,
    gate_fidelity,
    logical_encode,
    makhlin_invariants,
    projected_block_maps,
    propagate_exact,
    run_schedule,
    two_qubit_gate,
)

np.set_printoptions(precision=6, suppress=True, linewidth=120)

layout = ChainLayout(2)
print("chain: 2 logical qubits on", layout.n_sites, "sites, Hilbert dimension", layout.full_dim,
      "of which", layout.dim, "are reachable (no auxiliary |e>)")

# --- the pi-area gate matches its closed form -----------------------------
vt = np.pi / 2
U = propagate_exact(ThreeSitePulse(pair=1, vartheta=vt), layout)
report = extract_logical_gate(U[:, layout.logical_indices()], layout)
print(f"\nextracted logical gate at vartheta = pi/2 (basis |00>,|01>,|10>,|11>):")
print(report.logical_gate.real)
print("closed form:")
print(two_qubit_gate(vt).real)
print("fidelity:", gate_fidelity(report.logical_gate, two_qubit_gate(vt)))
print("leakage:", report.leakage)

# --- partial areas are not cyclic: the block maps are contractions --------
print("\npartial-area behavior on the |01>,|10> block (vartheta = pi/2):")
idx = layout.logical_indices()
for area in (np.pi / 2, np.pi, 2 * np.pi):
    A, c = projected_block_maps(vt, area)
    Ua = propagate_exact(ThreeSitePulse(1, vt, area=area), layout)
    numeric = Ua[np.ix_(idx[1:3], idx[1:3])]
    sv = np.linalg.svd(A, compute_uv=False)
    print(f"  area {area/np.pi:.1f}*pi: |A - numeric| = {np.max(np.abs(A - numeric)):.2e}, "
          f"singular values {np.round(sv, 6)}, scalar on |11> = {c.real:+.3f}")

# --- entangling power ------------------------------------------------------
print("\nentangling diagnostics (e_p = (2/9)(1 - |G1|), at most 2/9 = 0.222222):")
for angle in (0.0, np.pi / 2, np.pi):
    verdict, power = entangling_verdict(two_qubit_gate(angle))
    G1, G2 = makhlin_invariants(two_qubit_gate(angle))
    print(f"  vartheta = {angle/np.pi:.1f}*pi: entangling = {verdict}, "
          f"entangling power e_p = {power:.6f}, G1 = {G1:.3f}, G2 = {G2:+.3f}")

# --- a maximally entangled state from product input ------------------------
# Hadamard pulses on both qubits, then the exchange pulse
schedule = [
    OneQubitPulse(1, np.pi / 4, 0.0),
    OneQubitPulse(2, np.pi / 4, 0.0),
    ThreeSitePulse(1, np.pi / 2),
]
psi = run_schedule(schedule, logical_encode([0, 0], layout), layout)
amps = psi[layout.logical_rows()]
print("\n|00> -> H x H -> exchange pulse gives logical amplitudes", np.round(amps.real, 4))
print("entanglement entropy:", entanglement_entropy(amps), "(ln 2 =", float(np.log(2)), ")")
