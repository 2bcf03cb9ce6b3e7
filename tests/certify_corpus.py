"""The certify record corpus: seeded pulses, the record ``certify`` makes of each, and its rewrite.

``corpus/certify.json`` holds one record per case: the pulse, the chain size, the sample count,
the four measured values, the failures, ``passed`` and both gates as [re, im] pairs.  The cases are
every qubit and every pair at N = 1-3 (seeded angles, pi areas, the envelopes in turn), 64- and
1025-sample variants of two of them (a cached and a built path table), and one partial-area pulse
of each kind, which fails on cyclicity and has no Wilson gate.

Rewrite the file, and print the largest change per key against the one it replaces, with

    PYTHONPATH=src python tests/certify_corpus.py
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from holosim.chain import ChainLayout
from holosim.formats import dumps, pulse_to_dict
from holosim.holonomy import certify
from holosim.pulses import ENVELOPES, OneQubitPulse, ThreeSitePulse

CORPUS = Path(__file__).resolve().parent / "corpus" / "certify.json"
_ABSENT = object()  # the value of a key that a record lacks


def cases() -> list:
    """The (pulse, n_logical, samples) of every record, in the corpus's order."""
    rng = np.random.default_rng(28)
    envelopes = itertools.cycle(ENVELOPES)
    out = []
    for n in (1, 2, 3):
        for qubit in range(1, n + 1):
            pulse = OneQubitPulse(qubit, rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi),
                                  envelope=next(envelopes))
            out.append((pulse, n, 1024))
        for pair in range(1, n):
            out.append((ThreeSitePulse(pair, rng.uniform(-math.pi, math.pi), envelope=next(envelopes)), n, 1024))
    for pulse, n, _ in (out[0], out[3]):  # qubit 1 at N = 1 and pair 1 at N = 2
        out += [(pulse, n, 64), (pulse, n, 1025)]
    out.append((OneQubitPulse(1, rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi),
                              area=rng.uniform(0.5, 2.5), envelope=next(envelopes)), 2, 1024))
    out.append((ThreeSitePulse(2, rng.uniform(-math.pi, math.pi), area=rng.uniform(0.5, 2.5),
                               envelope=next(envelopes)), 3, 1024))
    return out


def record(pulse, n_logical: int, samples: int) -> dict:
    """The corpus record of ``certify(pulse, ChainLayout(n_logical), samples, strict=False)``, as JSON reads it."""
    report = certify(pulse, ChainLayout(n_logical), samples, strict=False)
    gates = {name: None if gate is None else gate.tolist()
             for name, gate in (("wilson_gate", report.wilson_gate), ("propagator_gate", report.propagator_gate))}
    return json.loads(dumps({
        "pulse": pulse_to_dict(pulse), "n_logical": n_logical, "samples": samples,
        "parallel_transport_residual": report.parallel_transport_residual,
        "dynamical_phase": report.dynamical_phase,
        "cyclicity_residual": report.cyclicity_residual,
        "cross_fidelity": report.cross_fidelity,
        "failures": list(report.failures), "passed": report.passed, **gates,
    }))


def change(old, new) -> float:
    """The largest absolute difference between two JSON values' numbers (a bool is not a number), or
    inf if their keys, lengths, strings, bools or nulls differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            return math.inf
        return max((change(old[key], new[key]) for key in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return math.inf
        return max((change(a, b) for a, b in zip(old, new)), default=0.0)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return abs(old - new)
    return 0.0 if type(old) is type(new) and old == new else math.inf


def changes_per_key(old_records: list, new_records: list) -> dict:
    """The largest ``change`` of each record key over the records, inf for a key or record that one side lacks."""
    if len(old_records) != len(new_records):
        return {"records": math.inf}
    keys = dict.fromkeys(key for r in (*old_records, *new_records) for key in r)
    return {key: max(change(old.get(key, _ABSENT), new.get(key, _ABSENT))
                     for old, new in zip(old_records, new_records)) for key in keys}


def main() -> int:
    new = [record(*case) for case in cases()]
    old = json.loads(CORPUS.read_text())["records"] if CORPUS.exists() else []
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(dumps({"records": new}))
    print(f"wrote {len(new)} records to {CORPUS.name}")
    for key, value in changes_per_key(old, new).items():
        print(f"  {key}: largest change {value:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
