"""Every field of every pulse and gate class is read: a copy that changes one field, by a change that is
no symmetry of that field, differs from the original in something the program computes from it.  A
field that nothing reads fails here, by name."""

from dataclasses import fields, replace
from typing import get_args

import numpy as np
import pytest

from holosim.chain import ChainLayout
from holosim.compiler import Gate, Reflection, Rotation, XYGate
from holosim.formats import pulse_to_dict
from holosim.pulses import ENVELOPES, OneQubitPulse, Pulse, ThreeSitePulse, cumulative_area, local_propagator

# a chain with a second qubit and a second pair to move to
LAYOUT = ChainLayout(3)

ORIGINALS = {
    OneQubitPulse: OneQubitPulse(1, 0.7, 0.3, area=1.3, envelope=ENVELOPES[0]),
    ThreeSitePulse: ThreeSitePulse(1, 0.9, area=2.2, envelope=ENVELOPES[0]),
    Rotation: Rotation(1, (0.6, 0.0, 0.8), 1.1),
    Reflection: Reflection(1, (0.6, 0.0, 0.8)),
    XYGate: XYGate(1, 0.9),
}

# one changed value per field name: an index moves, an angle or area takes another value, a vector turns
# (a rescaled one would be the same axis), and the envelope becomes another entry of ENVELOPES
CHANGES = {
    "qubit": 2, "pair": 2, "theta": 1.9, "phi": -0.5, "vartheta": 2.3, "area": 0.8, "envelope": ENVELOPES[1],
    "axis": (0.0, 0.6, 0.8), "angle": 0.7, "n": (0.0, 0.6, 0.8),
}

CASES = [(cls, f.name) for cls in get_args(Pulse) + get_args(Gate) for f in fields(cls)]


def _read(obj):
    """What the program reads of a pulse (its Λ site, its propagator, its accumulated area) or of a gate
    (its logical operator and its pulses' documents)."""
    if isinstance(obj, Pulse):
        return (obj.lambdas(LAYOUT)[0], local_propagator(obj, LAYOUT)[1],
                cumulative_area(obj.envelope, obj.area, np.linspace(0.0, 1.0, 64)))
    return (*obj.logical(LAYOUT), [pulse_to_dict(p) for p in obj.pulses(LAYOUT)])


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("cls,name", CASES, ids=[f"{cls.__name__}.{name}" for cls, name in CASES])
def test_every_field_is_read(cls, name):
    assert name in CHANGES, f"no change is known for {cls.__name__}.{name}"
    original = ORIGINALS[cls]
    changed = replace(original, **{name: CHANGES[name]})
    assert getattr(changed, name) != getattr(original, name)
    assert not all(_same(a, b) for a, b in zip(_read(original), _read(changed), strict=True)), (
        f"{cls.__name__}.{name} changed and nothing the program reads did")
