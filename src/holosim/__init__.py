"""holosim: pulse-level simulation and verification of holonomic gates
on a chain of three-level systems.

N logical qubits live on the odd sites of a chain of 2N-1 qutrits.  Gates
are driven by single pulses -- a two-field drive on one site for one-qubit
reflections, a three-site XY coupling for the entangling gate -- and every
gate is certified to be purely geometric: the computational subspace is
transported around a closed loop with no dynamical phase, and the gate is
recovered independently from the loop geometry (a discrete Wilson loop).
"""

from .linalg import *
from .chain import *
from .pulses import *
from .gates import *
from .holonomy import *
from .compiler import *
from . import chain, compiler, gates, holonomy, linalg, pulses  # bound by name for the sums below

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += linalg.__all__
__all__ += chain.__all__
__all__ += pulses.__all__
__all__ += gates.__all__
__all__ += holonomy.__all__
__all__ += compiler.__all__
