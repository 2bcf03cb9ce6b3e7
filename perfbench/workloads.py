"""The four benchmark workloads: inputs, the timed operation and its check.

Each workload makes operation ``i``'s inputs from ``(seed, i)`` alone, so
the same seed gives the same inputs.  ``run`` is the timed operation: an
in-process call of ``holosim.cli.main(argv)`` or of the library, looked up
through its module at call time so that a traced run sees the rebound
function.  ``check`` compares the output with a reference the program does
not compute on the same path and raises ``CheckFailed`` when it is off;
with ``perturbed=True`` it compares against a slightly wrong reference,
which must fail -- that is how a run shows its gate can fail at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import numpy as np

# Acceptance bounds, as in the repository's verification suites.
FIDELITY_BOUND = 1.0 - 1e-8
LEAKAGE_BOUND = 1e-10
# A 1e-3 rad rotation on one qubit changes a gate's fidelity by ~1.2e-7,
# ten times the fidelity bound: a perturbed reference just out of bounds.
PERTURB_ANGLE = 1e-3


class CheckFailed(Exception):
    """An operation's output is outside its reference tolerance."""


def _mod(name):
    return sys.modules[f"holosim.{name}"]


def _cli(argv) -> tuple[int, str]:
    """Run the CLI in-process; return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _mod("cli").main(argv)
    return code, out.getvalue()


def _fidelity(A, B) -> float:
    """Phase-invariant |Tr(A^dag B)| / dim, computed here, not by the program."""
    return abs(np.trace(np.conj(A).T @ B)) / A.shape[0]


def _perturbation(n_logical: int, qubit: int = 1) -> np.ndarray:
    """exp(-i a/2 X) on one qubit of an n-qubit register."""
    half = 0.5 * PERTURB_ANGLE
    rx = np.array([[math.cos(half), -1j * math.sin(half)],
                   [-1j * math.sin(half), math.cos(half)]])
    return np.kron(np.kron(np.eye(2 ** (qubit - 1)), rx), np.eye(2 ** (n_logical - qubit)))


def _pairs_to_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _unit_vector(rng) -> list[float]:
    v = rng.normal(size=3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _random_gate(rng, n_logical: int) -> dict:
    kind = ("rotation", "reflection", "xy")[int(rng.integers(0, 3))]
    if kind == "rotation":
        return {"kind": "rotation", "qubit": int(rng.integers(1, n_logical + 1)),
                "axis": _unit_vector(rng), "angle": float(rng.uniform(-2 * math.pi, 2 * math.pi))}
    if kind == "reflection":
        return {"kind": "reflection", "qubit": int(rng.integers(1, n_logical + 1)),
                "n": _unit_vector(rng)}
    return {"kind": "xy", "pair": int(rng.integers(1, n_logical)),
            "vartheta": float(rng.uniform(0.0, 2 * math.pi))}


class Workload:
    name = ""
    # The traced function(s) expected to hold most of an operation's wall
    # time; the traced run checks that their total_s shares sum above half.
    dominant = ("pulses.propagate_exact",)
    # The parts of run.host_calibration whose speed tracks this workload's:
    # the host's drift slows interpreter code, FFTs, small eigh and matrix
    # products by different factors, and workloads mix them differently.
    calibration = ("loop", "fft", "eigh128", "matmul243")

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int):
        return np.random.default_rng([self.seed, i])

    def path(self, stem: str) -> str:
        return str(self.workdir / stem)


class SimulateN4(Workload):
    """``holosim simulate`` at N=4 on schedules of one or two pi-area pulses.

    Operation i runs schedule ``i mod 4`` of: a reflection on qubit 1, then
    a reflection on qubit k with an XY gate on pair k-1, for k = 2, 3, 4.
    The dense eigh at N=4 takes ~10 s for this qubit-1 pulse and ~4.5 s for
    any other pulse, so the four schedules cost about the same.  The eigh
    time at qubit 1 also varies with the pulse angles (5.8-11.6 s on a
    2-vCPU Xeon), and a run holds only ~3 operations, so the gate
    parameters are one fixed table; the seed draws each operation's
    logical input state.
    """

    name = "simulate-n4"
    N = 4
    # Its one 2187x2187 eigh per pulse follows a 400x400 eigh (per-operation
    # residual 7-8% against 10-13% uncorrected) and not the small parts (10-11%).
    calibration = ("eigh400",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        table = np.random.default_rng(20140408)
        reflections = [{"kind": "reflection", "qubit": q, "n": _unit_vector(table)} for q in (1, 2, 3, 4)]
        xy = [{"kind": "xy", "pair": p, "vartheta": float(table.uniform(0.0, 2 * math.pi))} for p in (1, 2, 3)]
        self.circuits = [[reflections[0]]] + [[reflections[k], xy[k - 1]] for k in (1, 2, 3)]

    def make(self, i: int):
        bits = "".join(str(int(b)) for b in self.rng(i).integers(0, 2, self.N))
        layout = _mod("chain").ChainLayout(self.N)
        circuit = _mod("formats").circuit_from_obj({"gates": self.circuits[i % len(self.circuits)]})
        schedule = _mod("compiler").compile_circuit(circuit, layout)
        sched_file = self.path(f"schedule-{i}.json")
        with open(sched_file, "w", encoding="utf-8") as fh:
            json.dump(_mod("formats").schedule_to_obj(schedule), fh)
        expected = _mod("compiler").circuit_unitary(circuit, layout)
        out = self.path(f"report-{i}.json")
        argv = ["simulate", "--schedule", sched_file, "--qubits", str(self.N),
                "--initial", bits, "--out", out]
        return {"argv": argv, "out": out, "expected": expected, "column": int(bits, 2)}

    def run(self, inputs):
        return _cli(inputs["argv"])[0]

    def check(self, inputs, code, perturbed=False):
        if code != 0:
            raise CheckFailed(f"simulate exited {code}")
        with open(inputs["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        expected = inputs["expected"]
        if perturbed:  # on qubit N, which the first schedule leaves in a basis state
            expected = _perturbation(self.N, self.N) @ expected
        got = _pairs_to_matrix(report["final_amplitudes"])
        overlap = abs(np.vdot(expected[:, inputs["column"]], got))
        if not overlap >= FIDELITY_BOUND:
            raise CheckFailed(f"overlap 1 - {1.0 - overlap:.3e} with the circuit_unitary column")
        if not report["leakage"] <= LEAKAGE_BOUND:
            raise CheckFailed(f"leakage {report['leakage']:.3e}")


class CircuitsN3(Workload):
    """``holosim compile`` then ``holosim extract-gate`` on a random 6-gate circuit at N=3."""

    name = "circuits-n3"
    N = 3
    GATES = 6

    def make(self, i: int):
        rng = self.rng(i)
        circuit_file = self.path(f"circuit-{i}.json")
        with open(circuit_file, "w", encoding="utf-8") as fh:
            json.dump({"gates": [_random_gate(rng, self.N) for _ in range(self.GATES)]}, fh)
        schedule, gate = self.path(f"schedule-{i}.json"), self.path(f"gate-{i}.json")
        n = str(self.N)
        return {"compile": ["compile", "--circuit", circuit_file, "--qubits", n, "--out", schedule],
                "extract": ["extract-gate", "--schedule", schedule, "--qubits", n, "--out", gate],
                "schedule": schedule, "gate": gate}

    def run(self, inputs):
        code = _cli(inputs["compile"])[0]
        return code if code else _cli(inputs["extract"])[0]

    def check(self, inputs, code, perturbed=False):
        if code != 0:
            raise CheckFailed(f"compile or extract-gate exited {code}")
        with open(inputs["schedule"], encoding="utf-8") as fh:
            predicted = _pairs_to_matrix(json.load(fh)["predicted_gate"])
        with open(inputs["gate"], encoding="utf-8") as fh:
            report = json.load(fh)
        if perturbed:
            predicted = _perturbation(self.N) @ predicted
        if report["cyclic"] is not True:
            raise CheckFailed("extracted gate is not cyclic")
        fidelity = _fidelity(predicted, _pairs_to_matrix(report["logical_gate"]))
        if not fidelity >= FIDELITY_BOUND:
            raise CheckFailed(f"fidelity 1 - {1.0 - fidelity:.3e} against predicted_gate")


class CertifyN3(Workload):
    """Library ``certify(pulse, ChainLayout(3), samples=1024, strict=False)``.

    Every third operation is a three-site pulse, the rest one-qubit pulses:
    three-site certification is ~15% slower, and a fixed mix keeps a run's
    median inside one of the two clusters.
    """

    name = "certify-n3"
    dominant = ("holonomy.trace_subspace",)
    N = 3
    SAMPLES = 1024

    def make(self, i: int):
        rng = self.rng(i)
        pulses = _mod("pulses")
        envelope = pulses.ENVELOPES[int(rng.integers(0, len(pulses.ENVELOPES)))]
        if i % 3 == 2:
            pulse = pulses.ThreeSitePulse(pair=int(rng.integers(1, self.N)),
                                          vartheta=float(rng.uniform(0.0, 2 * math.pi)),
                                          area=math.pi, envelope=envelope)
        else:
            x, y, z = _unit_vector(rng)
            pulse = pulses.OneQubitPulse(qubit=int(rng.integers(1, self.N + 1)),
                                         theta=math.acos(z), phi=math.atan2(y, x) % (2 * math.pi),
                                         area=math.pi, envelope=envelope)
        return {"pulse": pulse, "layout": _mod("chain").ChainLayout(self.N)}

    def expected_gate(self, pulse) -> np.ndarray:
        """Closed-form gate in the certification frame (gates module formulas)."""
        gates = _mod("gates")
        if isinstance(pulse, _mod("pulses").ThreeSitePulse):
            left, right = 2 ** (pulse.pair - 1), 2 ** (self.N - pulse.pair - 1)
            return np.kron(np.kron(np.eye(left), gates.two_qubit_gate(pulse.vartheta)), np.eye(right))
        return gates.one_qubit_gate(gates.bloch_vector(pulse.theta, pulse.phi))

    def run(self, inputs):
        return _mod("holonomy").certify(inputs["pulse"], inputs["layout"],
                                        samples=self.SAMPLES, strict=False)

    def check(self, inputs, report, perturbed=False):
        if not report.passed:
            raise CheckFailed("certify failed: " + "; ".join(report.failures))
        expected = self.expected_gate(inputs["pulse"])
        if perturbed:
            expected = _perturbation(int(math.log2(expected.shape[0]))) @ expected
        for label, gate in (("propagator", report.propagator_gate), ("wilson", report.wilson_gate)):
            fidelity = _fidelity(expected, gate)
            if not fidelity >= FIDELITY_BOUND:
                raise CheckFailed(f"{label} gate fidelity 1 - {1.0 - fidelity:.3e} against the closed form")


class VerifyAll(Workload):
    """``holosim verify --suite all``, the release gate; the seed changes nothing."""

    name = "verify-all"
    dominant = ("pulses.propagate_exact", "gates.entangling_verdict")

    def make(self, i: int):
        return {"argv": ["verify", "--suite", "all"]}

    def run(self, inputs):
        return _cli(inputs["argv"])

    def check(self, inputs, result, perturbed=False):
        code, text = result
        if code != 0:
            raise CheckFailed(f"verify exited {code}")
        lines = text.splitlines()
        checks = [line for line in lines if line.startswith("[")]
        if not checks or lines[-1] != f"suite 'all': {len(checks)}/{len(checks)} checks passed":
            raise CheckFailed(f"unexpected summary {lines[-1] if lines else ''!r}")
        for line in checks:
            status, rest = line.split("] ", 1)
            measured, comparison, threshold = rest.rsplit("measured=", 1)[1].split(" ")
            measured, threshold = float(measured), float(threshold)
            if perturbed:  # each tolerance tightened a millionfold
                threshold = threshold * 1e-6 if comparison == "<=" else 1.0 - (1.0 - threshold) * 1e-6
            ok = measured <= threshold if comparison == "<=" else measured >= threshold
            if status != "[PASS" or not ok:
                raise CheckFailed(f"check not passed: {line}")


WORKLOADS = {w.name: w for w in (SimulateN4, CircuitsN3, CertifyN3, VerifyAll)}


def warm_up(workdir) -> None:
    """Import and initialise what the first operation would otherwise pay for."""
    sched = workdir / "warmup-schedule.json"
    sched.write_text(json.dumps({"pulses": [{"type": "three_site", "pair": 1, "vartheta": 0.4}]}))
    for argv in (["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "01"],
                 ["extract-gate", "--schedule", str(sched), "--qubits", "2"]):
        code, _ = _cli(argv)
        if code != 0:
            raise CheckFailed(f"warm-up {argv[0]} exited {code}")
