"""The circuit report corpus: seeded circuit documents and the CLI reports of each, and its rewrite.

``corpus/circuits.json`` holds ten cases for each chain size N = 1-4.  The first circuit of each size
has every gate kind on every qubit and every pair, in a seeded order; the next three have random
gates whose rotation axes lie within 6 degrees of +x or -x, where ``compile_rotation`` changes its
first reflection axis; the rest are random draws of one to six gates.  Each case stores its circuit
document, an initial bitstring, and the reports of ``compile``, of ``extract-gate`` and ``simulate``
on the compiled schedule.  The first case of each size also stores both reports of a leaky copy of
that schedule, with one pulse at a partial area and a gaussian envelope (``_leaky``).

Every report is made by ``holosim.cli.main`` from files, as the command line makes it.  Rewrite
``corpus/circuits.json`` and ``corpus/certify.json`` (``certify_corpus``), and print the largest
change per report kind and per key against the files they replace, with

    PYTHONPATH=src python tests/circuit_corpus.py
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import certify_corpus
from certify_corpus import changes_per_key
from holosim.cli import main as cli_main
from holosim.formats import dumps

CORPUS = Path(__file__).resolve().parent / "corpus" / "circuits.json"
SIZES = (1, 2, 3, 4)
CASES_PER_SIZE = 10
NEAR_X_CASES = 3  # after the coverage circuit
NEAR_X_DEGREES = 6.0
REPORT_KINDS = ("compile", "extract-gate", "simulate", "leaky extract-gate", "leaky simulate")


def _unit(rng) -> list:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def _near_x(rng) -> list:
    """A unit axis at most ``NEAR_X_DEGREES`` from +x or -x, in a random direction off it."""
    tilt, turn = math.radians(rng.uniform(0.0, NEAR_X_DEGREES)), rng.uniform(0.0, 2.0 * math.pi)
    sign = 1.0 if rng.integers(0, 2) else -1.0
    return [sign * math.cos(tilt), math.sin(tilt) * math.cos(turn), math.sin(tilt) * math.sin(turn)]


def _gate(rng, kind: str, index: int, axis) -> dict:
    if kind == "rotation":
        return {"kind": "rotation", "qubit": index, "axis": axis(rng),
                "angle": rng.uniform(-2.0 * math.pi, 2.0 * math.pi)}
    if kind == "reflection":
        return {"kind": "reflection", "qubit": index, "n": axis(rng)}
    return {"kind": "xy", "pair": index, "vartheta": rng.uniform(-2.0 * math.pi, 2.0 * math.pi)}


def _slots(n: int) -> list:
    """Every (gate kind, qubit or pair) at chain size ``n``."""
    return [(kind, q) for kind in ("rotation", "reflection") for q in range(1, n + 1)] + \
           [("xy", p) for p in range(1, n)]


def cases() -> list:
    """The (name, circuit document, initial bits, leaky) of every case, in the corpus's order."""
    rng = np.random.default_rng(33)
    out = []
    for n in SIZES:
        slots = _slots(n)
        for k in range(CASES_PER_SIZE):
            if k == 0:
                chosen, axis = [slots[j] for j in rng.permutation(len(slots))], _unit
            else:
                chosen = [slots[j] for j in rng.integers(0, len(slots), size=int(rng.integers(1, 7)))]
                axis = _near_x if k <= NEAR_X_CASES else _unit
            gates = [_gate(rng, kind, index, axis) for kind, index in chosen]
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            out.append((f"N{n}-{k}", {"gates": gates}, bits, k == 0))
    return out


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"holosim {' '.join(argv)} exited {code}")


def _leaky(schedule: dict) -> dict:
    """The schedule document with its first three-site pulse, or its first pulse if it has none, at area 1.3
    and a gaussian envelope."""
    pulses = [dict(p) for p in schedule["pulses"]]
    kinds = [p["type"] for p in pulses]
    pulses[kinds.index("three_site") if "three_site" in kinds else 0].update(area=1.3, envelope="gaussian")
    return {"pulses": pulses}


def record(name: str, circuit: dict, bits: str, leaky: bool) -> dict:
    """The corpus record of one case: its inputs and its reports, each as JSON reads it."""
    n = str(len(bits))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "circuit.json").write_text(json.dumps(circuit), encoding="utf-8")
        _run(["compile", "--circuit", str(tmp / "circuit.json"), "--qubits", n, "--out", str(tmp / "compile.json")])
        reports = {"compile": json.loads((tmp / "compile.json").read_text(encoding="utf-8"))}
        schedules = {"": tmp / "compile.json"}
        if leaky:
            schedules["leaky "] = tmp / "leaky.json"
            schedules["leaky "].write_text(json.dumps(_leaky(reports["compile"])), encoding="utf-8")
        for prefix, schedule in schedules.items():
            for command, extra in (("extract-gate", []), ("simulate", ["--initial", bits])):
                out = tmp / "report.json"
                _run([command, "--schedule", str(schedule), "--qubits", n, "--out", str(out), *extra])
                reports[prefix + command] = json.loads(out.read_text(encoding="utf-8"))
    return {"name": name, "circuit": circuit, "initial": bits, "reports": reports}


def changes_per_kind(old_records: list, new_records: list) -> dict:
    """The largest change per key of each report kind's reports (``changes_per_key``), keyed by kind; a kind
    that one side has for a record where the other has not changes by inf."""
    out = {}
    for kind in REPORT_KINDS:
        old, new = ([r["reports"].get(kind) for r in records] for records in (old_records, new_records))
        if [r is None for r in old] != [r is None for r in new]:
            out[kind] = {"records": math.inf}
        else:
            out[kind] = changes_per_key([r for r in old if r is not None], [r for r in new if r is not None])
    return out


def main() -> int:
    certify_corpus.main()
    new = [record(*case) for case in cases()]
    old = json.loads(CORPUS.read_text())["records"] if CORPUS.exists() else []
    CORPUS.write_text(dumps({"records": new}))
    print(f"wrote {len(new)} records to {CORPUS.name}")
    for kind, changes in changes_per_kind(old, new).items():
        print(f"  {kind}:")
        for key, value in changes.items():
            print(f"    {key}: largest change {value:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
