"""holosim: pulse-level simulation and verification of holonomic gates
on a chain of three-level systems.

N logical qubits live on the odd sites of a chain of 2N-1 qutrits.  Gates
are driven by single pulses -- a two-field drive on one site for one-qubit
reflections, a three-site XY coupling for the entangling gate -- and every
gate is certified to be purely geometric: the computational subspace is
transported around a closed loop with no dynamical phase, and the gate is
recovered independently from the loop geometry (a discrete Wilson loop).
"""

from .linalg import (
    expm_hermitian,
    gate_fidelity,
    polar_unitary,
    unitarity_defect,
)
from .chain import (
    ChainLayout,
    block_sz,
    embed,
    h1,
    h3,
    logical_encode,
    logical_frame,
)
from .pulses import (
    ENVELOPES,
    OneQubitPulse,
    ThreeSitePulse,
    block_hamiltonian,
    cumulative_area,
    propagate_exact,
    propagate_stepped,
    run_schedule,
    schedule_propagator,
)
from .gates import (
    GateReport,
    bloch_angles,
    bloch_vector,
    compose_rule,
    entangling_verdict,
    entanglement_entropy,
    extract_logical_gate,
    makhlin_invariants,
    one_qubit_gate,
    projected_block_maps,
    schmidt_coefficients,
    two_qubit_gate,
)
from .holonomy import (
    HolonomyError,
    HolonomyReport,
    SubspacePath,
    certify,
    check_parallel_transport,
    trace_subspace,
    wilson_loop,
)
from .compiler import (
    Reflection,
    Rotation,
    XYGate,
    circuit_unitary,
    compile_circuit,
    compile_gate,
    compile_rotation,
)

__version__ = "0.1.0"

__all__ = [
    "expm_hermitian",
    "gate_fidelity",
    "polar_unitary",
    "unitarity_defect",
    "ChainLayout",
    "block_sz",
    "embed",
    "h1",
    "h3",
    "logical_encode",
    "logical_frame",
    "ENVELOPES",
    "OneQubitPulse",
    "ThreeSitePulse",
    "block_hamiltonian",
    "cumulative_area",
    "propagate_exact",
    "propagate_stepped",
    "run_schedule",
    "schedule_propagator",
    "GateReport",
    "bloch_angles",
    "bloch_vector",
    "compose_rule",
    "entangling_verdict",
    "entanglement_entropy",
    "extract_logical_gate",
    "makhlin_invariants",
    "one_qubit_gate",
    "projected_block_maps",
    "schmidt_coefficients",
    "two_qubit_gate",
    "HolonomyError",
    "HolonomyReport",
    "SubspacePath",
    "certify",
    "check_parallel_transport",
    "trace_subspace",
    "wilson_loop",
    "Reflection",
    "Rotation",
    "XYGate",
    "circuit_unitary",
    "compile_circuit",
    "compile_gate",
    "compile_rotation",
    "__version__",
]
