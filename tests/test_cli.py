import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holosim import cli
from holosim.chain import ChainLayout, logical_encode
from holosim.cli import main
from holosim.formats import dumps, schedule_to_obj
from holosim.gates import two_qubit_gate
from holosim.linalg import gate_fidelity
from holosim.pulses import ENVELOPES, OneQubitPulse, ThreeSitePulse, run_schedule


MISSING = "/nonexistent.json"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def write_schedule(path, pulses):
    path.write_text(dumps(schedule_to_obj(pulses)), encoding="utf-8")


def write_circuit(path, gates):
    path.write_text(json.dumps({"gates": gates}), encoding="utf-8")


def unpack_matrix(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


class TestSimulate:
    def test_empty_schedule_is_identity(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [])
        assert main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "00"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["final_amplitudes"] == [[1, 0], [0, 0], [0, 0], [0, 0]]
        assert report["leakage"] == 0

    def test_exchange_pulse_swaps_logical_pair(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [ThreeSitePulse(1, np.pi / 2)])
        assert main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "01"]) == 0
        report = json.loads(capsys.readouterr().out)
        amps = np.array([complex(re, im) for re, im in report["final_amplitudes"]])
        assert np.allclose(amps, [0, 0, 1, 0], atol=1e-12)
        assert report["leakage"] < 1e-12

    def test_hadamard_pulse_amplitudes(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [OneQubitPulse(1, np.pi / 4, 0.0)])
        assert main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "00"]) == 0
        report = json.loads(capsys.readouterr().out)
        amps = np.array([complex(re, im) for re, im in report["final_amplitudes"]])
        want = np.array([1, 0, 1, 0]) / np.sqrt(2)
        inner = np.vdot(want, amps)
        assert abs(abs(inner) - 1.0) < 1e-12

    def test_site_populations(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [])
        main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "10"])
        report = json.loads(capsys.readouterr().out)
        assert report["site_populations"][0] == [0, 1, 0]
        assert report["site_populations"][1] == [1, 0, 0]
        assert report["site_populations"][2] == [1, 0, 0]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_site_populations_equal_the_per_site_reductions(self, tmp_path, capsys, n):
        # the report's running reduction against one full reduction per site, over every other axis
        rng = np.random.default_rng(40 + n)
        schedule = []
        for _ in range(6):
            area = rng.uniform(0.3, 3.0)
            if n > 1 and rng.integers(0, 2):
                schedule.append(ThreeSitePulse(int(rng.integers(1, n)), rng.uniform(-3, 3), area=area))
            else:
                schedule.append(OneQubitPulse(int(rng.integers(1, n + 1)), rng.uniform(0, 3), rng.uniform(-3, 3),
                                              area=area, envelope="gaussian"))
        bits = [int(b) for b in rng.integers(0, 2, size=n)]
        sched = tmp_path / "s.json"
        write_schedule(sched, schedule)
        assert main(["simulate", "--schedule", str(sched), "--qubits", str(n),
                     "--initial", "".join(map(str, bits))]) == 0
        report = json.loads(capsys.readouterr().out)
        layout = ChainLayout(n)
        marg = np.abs(run_schedule(schedule, logical_encode(bits, layout), layout).reshape(layout.site_dims)) ** 2
        for site, (d, got) in enumerate(zip(layout.site_dims, report["site_populations"])):
            want = marg.sum(axis=tuple(i for i in range(layout.n_sites) if i != site))
            assert np.max(np.abs(np.array(got[:d]) - want)) <= 1e-15
            assert got[d:] == [0.0] * (3 - d)
        assert len(report["site_populations"]) == layout.n_sites

    def test_bad_bitstring(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [])
        assert main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "012"]) == 2

    def test_missing_file(self, capsys):
        assert main(["simulate", "--schedule", "/nonexistent.json", "--qubits", "2",
                     "--initial", "00"]) == 2

    def test_deterministic_output_files(self, tmp_path):
        sched = tmp_path / "s.json"
        write_schedule(sched, [OneQubitPulse(1, 0.3, 0.4), ThreeSitePulse(1, 1.1)])
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "11",
              "--out", str(out1)])
        main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "11",
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestVerify:
    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "foo"])
        assert err.value.code == 2

    def test_run_suite_rejects_unknown_names(self):
        from holosim.checks import run_suite

        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("blah")

    def test_onequbit_suite_passes(self, capsys):
        assert main(["verify", "--suite", "onequbit"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_twoqubit_suite_passes(self, capsys):
        assert main(["verify", "--suite", "twoqubit"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_compiler_suite_passes(self, capsys):
        assert main(["verify", "--suite", "compiler"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_holonomy_suite_passes(self, capsys):
        assert main(["verify", "--suite", "holonomy"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 8

    def test_failure_exit_code(self, monkeypatch, capsys):
        # a cross-fidelity bound above 1 fails both Wilson checks and only them
        monkeypatch.setattr("holosim.checks.CERTIFY_CROSS_FIDELITY", 2.0)
        assert main(["verify", "--suite", "holonomy"]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 2
        assert out.splitlines()[-1] == "suite 'holonomy': 6/8 checks passed"

    def test_help_lists_only_suite(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--help"])
        assert err.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--suite"}

    @pytest.mark.parametrize("flag,value", [("--tol", "1"), ("--samples", "64")])
    def test_bounds_and_sampling_are_fixed(self, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "all", flag, value])
        assert err.value.code == 2


class TestCompile:
    def test_compile_reflection(self, tmp_path, capsys):
        circ = tmp_path / "c.json"
        write_circuit(circ, [{"kind": "reflection", "qubit": 1, "n": [0, 0, 1]}])
        assert main(["compile", "--circuit", str(circ), "--qubits", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pulses"]) == 1
        assert doc["pulses"][0]["theta"] == 0
        assert doc["pulses"][0]["phi"] == 0
        assert doc["pulses"][0]["area"] == pytest.approx(np.pi)
        assert doc["provenance"][0]["rule"].startswith("reflection")

    def test_compile_pipeline_matches_prediction(self, tmp_path):
        circ = tmp_path / "c.json"
        write_circuit(
            circ,
            [
                {"kind": "rotation", "qubit": 1, "axis": [0, 0, 1], "angle": 1.5707963267948966},
                {"kind": "xy", "pair": 1, "vartheta": 1.5707963267948966},
            ],
        )
        compiled = tmp_path / "compiled.json"
        assert main(["compile", "--circuit", str(circ), "--qubits", "2",
                     "--out", str(compiled)]) == 0
        doc = json.loads(compiled.read_text())
        assert len(doc["pulses"]) == 3
        predicted = unpack_matrix(doc["predicted_gate"])

        # run the compiled schedule through extract-gate and compare
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"pulses": doc["pulses"]}), encoding="utf-8")
        gate_out = tmp_path / "gate.json"
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "2",
                     "--out", str(gate_out)]) == 0
        gate_doc = json.loads(gate_out.read_text())
        extracted = unpack_matrix(gate_doc["logical_gate"])
        assert gate_fidelity(extracted, predicted) >= 1.0 - 1e-9
        assert gate_doc["cyclic"] is True
        assert gate_doc["leakage"] < 1e-10

    def test_invalid_gate_indices(self, tmp_path, capsys):
        circ = tmp_path / "c.json"
        write_circuit(circ, [{"kind": "xy", "pair": 5, "vartheta": 0.2}])
        assert main(["compile", "--circuit", str(circ), "--qubits", "2"]) == 2
        assert "gates[0]" in capsys.readouterr().err

    def test_provenance_kind_is_the_circuit_document_kind(self, tmp_path, capsys):
        gates = [{"kind": "reflection", "qubit": 1, "n": [1, 0, 0]},
                 {"kind": "xy", "pair": 1, "vartheta": 0.8},
                 {"kind": "rotation", "qubit": 2, "axis": [0, 1, 0], "angle": 2.3}]
        circ = tmp_path / "c.json"
        write_circuit(circ, gates)
        assert main(["compile", "--circuit", str(circ), "--qubits", "2"]) == 0
        provenance = json.loads(capsys.readouterr().out)["provenance"]
        assert [p["kind"] for p in provenance] == ["reflection", "xy", "rotation"]
        assert [p["rule"].split(":")[0] for p in provenance] == ["reflection", "xy", "rotation"]
        assert [p["pulses"] for p in provenance] == [[0], [1], [2, 3]]

    @pytest.mark.parametrize("gate,message", [
        ({"kind": "reflection", "qubit": 1, "n": [float("nan"), 0, 0]}, "unit vector must be finite"),
        ({"kind": "rotation", "qubit": 1, "axis": [0, float("nan"), 1], "angle": 1.0},
         "rotation axis must be finite"),
    ], ids=["reflection", "rotation"])
    def test_nan_vector_is_named(self, gate, message, tmp_path, capsys):
        # json.loads reads the NaN literal that json.dumps writes
        circ = tmp_path / "c.json"
        write_circuit(circ, [gate])
        assert "NaN" in circ.read_text()
        assert main(["compile", "--circuit", str(circ), "--qubits", "1"]) == 2
        err = capsys.readouterr().err
        assert f"gates[0]: {message}" in err and "Traceback" not in err

    def test_huge_axis_compiles_as_its_direction(self, tmp_path, capsys):
        # finite, but its squares overflow: it was refused as "must be finite", with a RuntimeWarning
        reports = []
        for axis in ([1e300, 1e300, 0], [1, 1, 0]):
            circ = tmp_path / "c.json"
            write_circuit(circ, [{"kind": "rotation", "qubit": 1, "axis": axis, "angle": 1.0}])
            assert main(["compile", "--circuit", str(circ), "--qubits", "1"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            reports.append(json.loads(out))
        huge, unit = reports
        assert huge["provenance"] == unit["provenance"]
        for got, want in zip(huge["pulses"], unit["pulses"], strict=True):
            assert abs(got["theta"] - want["theta"]) <= 1e-15 and abs(got["phi"] - want["phi"]) <= 1e-15
        assert np.allclose(unpack_matrix(huge["predicted_gate"]), unpack_matrix(unit["predicted_gate"]),
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gate,code,message", [
        ({"kind": "rotation", "qubit": 1, "axis": [1e300, 1e300, 0], "angle": 1.0}, 0, ""),
        ({"kind": "reflection", "qubit": 1, "n": [1e200, 0, 0]}, 2,
         "error: gates[0]: expected a unit vector, got norm 1e+200\n"),
    ], ids=["rotation", "reflection"])
    def test_huge_vector_under_warnings_as_errors(self, gate, code, message, tmp_path):
        # as CI runs the console script: a warning would end in a traceback and exit 1
        circ = tmp_path / "c.json"
        write_circuit(circ, [gate])
        env = dict(os.environ, PYTHONWARNINGS="error")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "holosim.cli", "compile", "--circuit", str(circ),
                                 "--qubits", "1"], env=env, capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (code, message)

    def test_compile_then_simulate_matches_prediction(self, tmp_path, capsys):
        circ = tmp_path / "c.json"
        write_circuit(
            circ,
            [
                {"kind": "reflection", "qubit": 1, "n": [1, 0, 0]},
                {"kind": "xy", "pair": 1, "vartheta": 0.8},
                {"kind": "rotation", "qubit": 2, "axis": [0, 1, 0], "angle": 2.3},
            ],
        )
        compiled = tmp_path / "compiled.json"
        assert main(["compile", "--circuit", str(circ), "--qubits", "2",
                     "--out", str(compiled)]) == 0
        doc = json.loads(compiled.read_text())
        predicted = unpack_matrix(doc["predicted_gate"])

        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"pulses": doc["pulses"]}), encoding="utf-8")
        assert main(["simulate", "--schedule", str(sched), "--qubits", "2",
                     "--initial", "00"]) == 0
        report = json.loads(capsys.readouterr().out)
        amps = np.array([complex(re, im) for re, im in report["final_amplitudes"]])
        want = predicted[:, 0]
        fidelity = abs(np.vdot(want, amps))
        assert fidelity >= 1.0 - 1e-8
        assert report["leakage"] < 1e-10


class TestLargeChainGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            # 3**14 2**13 reachable amplitudes, 584 GiB
            ["simulate", "--schedule", MISSING, "--qubits", "14", "--initial", "0" * 14],
            # an estimate beyond the float range
            ["simulate", "--schedule", MISSING, "--qubits", "400", "--initial", "0" * 400],
            # 3**11 2**10 x 2**11 reachable logical columns, 5.4 TiB
            ["extract-gate", "--schedule", MISSING, "--qubits", "11"],
            # a 2**40 x 2**40 circuit unitary
            ["compile", "--circuit", MISSING, "--qubits", "40"],
        ],
    )
    def test_over_budget_request_exits_before_reading_input(self, argv, capsys):
        # the input file does not exist: the budget is checked before anything is read
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err

    def test_a_huge_chain_is_refused_promptly(self):
        # 3^(2N - 1) at N = 10^8 has over 3 * 10^8 bits, and forming it took minutes; compile's 4^N took
        # a second.  The chain- and register-sized budgets of simulate, extract-gate and compile refuse
        # such a chain from the logarithm of its size.  One fresh interpreter times each command
        script = ("import contextlib, io, json, time\n"
                  "from holosim.cli import main\n"
                  "for argv in (['simulate', '--schedule', 'x', '--qubits', '100000000', '--initial', '0'],\n"
                  "             ['extract-gate', '--schedule', 'x', '--qubits', '100000000'],\n"
                  "             ['compile', '--circuit', 'x', '--qubits', '100000000']):\n"
                  "    err, start = io.StringIO(), time.perf_counter()\n"
                  "    with contextlib.redirect_stderr(err):\n"
                  "        code = main(argv)\n"
                  "    print(json.dumps([code, time.perf_counter() - start, err.getvalue()]))\n")
        result = TestInProcessReuse.fresh_python("-c", script)
        assert result.returncode == 0, result.stderr
        runs = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(runs) == 3
        for (code, seconds, err), what in zip(runs, ("simulate", "the logical frame", "compile")):
            assert code == 2 and seconds < 0.5, (code, seconds, err)
            assert err.startswith(f"error: {what} at N=100000000 needs about 2^")
            assert err.endswith(" GiB, more than any physical memory\n"), err

    @pytest.mark.parametrize("n", [10**18, 10**20])
    def test_extract_gate_budgets_the_frame_before_forming_2_to_the_n(self, n, capsys):
        # 2^N was formed before the budget: at N = 10^18 its MemoryError printed a bare "error: ", and at 10^20
        # the shift ended in an OverflowError traceback with exit 1.  The frame's 96 * 12^(N-1) bytes are
        # budgeted from N alone
        assert main(["extract-gate", "--schedule", MISSING, "--qubits", str(n)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the logical frame at N={n} needs about 2^"), err
        assert err.endswith(" GiB, more than any physical memory\n") and "Traceback" not in err

    def test_compile_estimate_covers_the_rendering(self, tmp_path, monkeypatch):
        # a dense 2^7 x 2^7 unitary (a rotation on every qubit, an XY gate on every pair), whose JSON
        # text outweighs the array about 18-fold: compile's traced peak stays within the estimate it budgets
        n = 7
        circ = tmp_path / "c.json"
        write_circuit(circ, [{"kind": "rotation", "qubit": q, "axis": [0.6, 0.3, 0.74], "angle": 0.7 + 0.1 * q}
                             for q in range(1, n + 1)] +
                      [{"kind": "xy", "pair": p, "vartheta": 0.9 + 0.05 * p} for p in range(1, n)])
        asked = []
        check = cli.check_memory

        def recorded(what, nbytes):
            asked.append(nbytes)
            check(what, nbytes)

        monkeypatch.setattr(cli, "check_memory", recorded)
        tracemalloc.start()
        try:
            assert main(["compile", "--circuit", str(circ), "--qubits", str(n), "--out", str(tmp_path / "o.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(asked) == 1 and peak <= asked[0] <= 2 * peak, (peak, asked)

    def test_simulate_reaches_seven_qubits(self, tmp_path, capsys):
        # 3**7 2**6 reachable states of the chain's 3**13: a dense propagator of the chain would need
        # 37 TiB, the local kernel only touches the 2.1 MiB state
        sched = tmp_path / "s.json"
        write_schedule(sched, [OneQubitPulse(7, np.pi / 4, 0.0), ThreeSitePulse(6, 1.1),
                               OneQubitPulse(1, 2.0, 0.5), ThreeSitePulse(1, np.pi / 2)])
        assert main(["simulate", "--schedule", str(sched), "--qubits", "7",
                     "--initial", "0100011"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["norm"] - 1.0) <= 1e-12
        assert report["leakage"] <= 1e-10

    def test_allocation_failure_is_a_resource_error(self, tmp_path, capsys):
        # the 3**12 2**11 x 2**12 reachable logical columns (about 65 TiB) exceed any host's memory
        sched = tmp_path / "s.json"
        write_schedule(sched, [])
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "12"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_extract_gate_at_five_qubits(self, tmp_path, capsys):
        # 3**5 2**4 x 32 reachable logical columns, about 1.9 MiB; the full chain's propagator would need 5.8 GiB
        circ, compiled = tmp_path / "c.json", tmp_path / "compiled.json"
        write_circuit(circ, [{"kind": "xy", "pair": 4, "vartheta": 0.7},
                             {"kind": "rotation", "qubit": 5, "axis": [0.6, 0.0, 0.8], "angle": 1.3},
                             {"kind": "xy", "pair": 1, "vartheta": 2.2}])
        assert main(["compile", "--circuit", str(circ), "--qubits", "5", "--out", str(compiled)]) == 0
        doc = json.loads(compiled.read_text())
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"pulses": doc["pulses"]}), encoding="utf-8")
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "5"]) == 0
        gate_doc = json.loads(capsys.readouterr().out)
        assert gate_doc["cyclic"] is True and gate_doc["leakage"] < 1e-10
        extracted = unpack_matrix(gate_doc["logical_gate"])
        assert gate_fidelity(extracted, unpack_matrix(doc["predicted_gate"])) >= 1.0 - 1e-10


class TestExtractGate:
    def test_two_qubit_diagnostics(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [ThreeSitePulse(1, np.pi / 2)])
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        extracted = unpack_matrix(doc["logical_gate"])
        assert gate_fidelity(extracted, two_qubit_gate(np.pi / 2)) >= 1.0 - 1e-10
        assert doc["entangling"] is True
        assert doc["entangling_power"] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert doc["makhlin_g1"] == pytest.approx([0.0, 0.0], abs=1e-10)
        assert doc["makhlin_g2"] == pytest.approx(-1.0, abs=1e-10)

    def test_noncyclic_schedule_reported(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [ThreeSitePulse(1, np.pi / 2, area=np.pi / 2)])
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cyclic"] is False
        assert doc["leakage"] > 0.1

    @pytest.mark.parametrize("qubits,pulse,diagnosed", [
        (2, ThreeSitePulse(1, np.pi / 2), True),
        (2, ThreeSitePulse(1, np.pi / 2, area=np.pi / 2), False),  # not cyclic
        (1, OneQubitPulse(1, np.pi / 4, 0.0), False),
        (3, ThreeSitePulse(1, np.pi / 2), False),
    ])
    def test_entangling_keys_only_for_a_cyclic_two_qubit_gate(self, qubits, pulse, diagnosed, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [pulse])
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", str(qubits)]) == 0
        keys = ["qubits", "pulses", "cyclic", "leakage", "logical_gate"]
        if diagnosed:
            keys += ["makhlin_g1", "makhlin_g2", "entangling", "entangling_power"]
        assert list(json.loads(capsys.readouterr().out)) == keys


class TestInProcessReuse:
    """One process runs many commands through one shared parser; each must act as in a fresh one."""

    @staticmethod
    def fresh_python(*args):
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    built.append(kwargs.get('prog'))\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import holosim.cli\n"
                "print(len(built))\n")
        result = self.fresh_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"

    def test_many_calls_build_one_parser_tree(self, monkeypatch, tmp_path, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()  # so that this test's first call builds the tree
        sched = tmp_path / "s.json"
        write_schedule(sched, [ThreeSitePulse(1, np.pi / 2)])
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "2"]) == 0
        tree = len(built)
        assert tree == 1 + len(cli._COMMANDS)  # the root parser and one per command
        for _ in range(5):
            assert main(["simulate", "--schedule", str(sched), "--qubits", "2", "--initial", "01"]) == 0
            assert main(["extract-gate", "--schedule", str(sched), "--qubits", "2"]) == 0
            with pytest.raises(SystemExit):
                main(["compile"])
        capsys.readouterr()
        assert len(built) == tree
        assert cli.build_parser() is cli.build_parser()

    def test_tracer_sees_commands_after_the_parser_is_built(self, tmp_path, capsys):
        # perfbench's tracer rebinds the cmd_* functions; a parser built before that must not hold the originals
        spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        sched = tmp_path / "s.json"
        write_schedule(sched, [ThreeSitePulse(1, np.pi / 2)])
        argv = ["extract-gate", "--schedule", str(sched), "--qubits", "2"]
        assert main(argv) == 0
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            assert main(argv) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        table = tracer.table(1)
        assert table["cli.cmd_extract_gate"]["calls"] == 1
        assert table["formats.dumps"]["calls"] == 1

    def test_sequence_matches_fresh_processes(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps at the width a fresh process sees
        circuit, bad = tmp_path / "c.json", tmp_path / "bad.json"
        write_circuit(circuit, [{"kind": "rotation", "qubit": 1, "axis": [0, 0, 1], "angle": 1.5707963},
                                {"kind": "xy", "pair": 1, "vartheta": 1.5707963},
                                {"kind": "reflection", "qubit": 2, "n": [1, 0, 0]}])
        bad.write_text('{"pulses": [', encoding="utf-8")
        schedule, gate, state = (str(tmp_path / name) for name in ("s.json", "g.json", "st.json"))
        steps = [  # (argv, exit code, report file or None)
            (["compile", "--circuit", str(circuit), "--qubits", "2", "--out", schedule], 0, schedule),
            (["simulate", "--schedule", schedule, "--qubits", "two", "--initial", "00"], 2, None),
            (["extract-gate", "--schedule", str(bad), "--qubits", "2"], 2, None),
            (["verify", "--help"], 0, None),
            (["extract-gate", "--schedule", schedule, "--qubits", "2", "--out", gate], 0, gate),
            (["simulate", "--schedule", schedule, "--qubits", "2", "--initial", "01", "--out", state], 0, state),
            (["verify", "--suite", "onequbit"], 0, None),
        ]

        def run_in_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err

        runs = []
        for _ in range(2):  # the second pass reuses a parser that has already failed and printed help
            run = []
            for argv, code, report in steps:
                got = run_in_process(argv)
                assert got[0] == code, (argv, got)
                run.append((*got, Path(report).read_bytes() if report else None))
            runs.append(run)
        assert runs[0] == runs[1]
        assert runs[0][3][1].startswith("usage: holosim verify") and "--suite" in runs[0][3][1]

        for (argv, _, report), (code, out, err, data) in zip(steps, runs[0]):
            fresh = self.fresh_python("-m", "holosim.cli", *argv)
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err), argv
            if report:
                assert Path(report).read_bytes() == data, argv


class TestBadInput:
    def test_schedule_that_is_a_directory(self, tmp_path, capsys):
        assert main(["simulate", "--schedule", str(tmp_path), "--qubits", "1", "--initial", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_out_that_is_a_directory(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        write_schedule(sched, [])
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "1",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,doc,message", [
        # a misspelled optional field would otherwise fall back to a square pi pulse
        ("--schedule", {"pulses": [{"type": "one_qubit", "qubit": 1, "theta": 0.3, "phi": 0.0,
                                    "envelop": "gaussian", "aera": 1.0}]}, "pulses[0]: unknown field 'envelop'"),
        ("--schedule", {"pulses": [{"type": "three_site", "pair": 1, "vartheta": 0.3, "kind": "xy"}]},
         "pulses[0]: unknown field 'kind'"),
        # a pulse carries no duration: a document that sets one is refused by name, not run as if it were read
        ("--schedule", {"pulses": [{"type": "one_qubit", "qubit": 1, "theta": 0.3, "phi": 0.0, "duration": 1.0}]},
         "pulses[0]: unknown field 'duration'"),
        ("--circuit", {"gates": [{"kind": "xy", "pair": 1, "vartheta": 0.3},
                                 {"kind": "reflection", "qubit": 1, "n": [0, 0, 1], "angle": 1.0}]},
         "gates[1]: unknown field 'angle'"),
    ])
    def test_unknown_field_is_refused(self, flag, doc, message, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        command = "extract-gate" if flag == "--schedule" else "compile"
        assert main([command, flag, str(path), "--qubits", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, extra", [("simulate", ["--initial", "00"]), ("extract-gate", [])])
    def test_a_pulse_off_the_chain_is_named(self, command, extra, tmp_path, capsys, monkeypatch):
        # the second pulse addresses pair 2 of a two-qubit chain: it is named by its index, and refused before
        # any pulse is applied
        sched = tmp_path / "s.json"
        write_schedule(sched, [OneQubitPulse(1, 0.7, 0.3), ThreeSitePulse(2, 0.9), OneQubitPulse(2, 0.1, 0.2)])
        applied = []
        monkeypatch.setattr(cli, "run_schedule", lambda *args: applied.append(args))
        assert main([command, "--schedule", str(sched), "--qubits", "2", *extra]) == 2
        assert capsys.readouterr() == ("", "error: pulses[1]: pair 2 out of range 1..1\n")
        assert applied == []

    def test_compile_output_keeps_its_top_level_keys_readable(self, tmp_path, capsys):
        # predicted_gate and provenance sit beside "pulses": document keys stay open
        circ, sched = tmp_path / "c.json", tmp_path / "s.json"
        write_circuit(circ, [{"kind": "xy", "pair": 1, "vartheta": 0.3}])
        assert main(["compile", "--circuit", str(circ), "--qubits", "2", "--out", str(sched)]) == 0
        assert main(["extract-gate", "--schedule", str(sched), "--qubits", "2"]) == 0

    @pytest.mark.parametrize("command,flag", [("extract-gate", "--schedule"), ("compile", "--circuit")])
    def test_deeply_nested_document(self, command, flag, tmp_path, capsys):
        doc = tmp_path / "d.json"
        doc.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main([command, flag, str(doc), "--qubits", "1"]) == 2
        assert "nested too deeply" in capsys.readouterr().err


# Field names of both document kinds; a mutation sets one of them to an arbitrary value.
_FIELDS = ("type", "qubit", "theta", "phi", "pair", "vartheta", "area", "envelope", "duration",
           "kind", "axis", "angle", "n")
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=4)),
    max_leaves=10,
)
_angles = st.floats(-10, 10)
_vectors = st.lists(_angles, min_size=3, max_size=3)
_pulses = st.one_of(
    st.fixed_dictionaries({"type": st.just("one_qubit"), "qubit": st.integers(1, 2), "theta": _angles,
                           "phi": _angles, "area": _angles, "envelope": st.sampled_from(ENVELOPES)}),
    st.fixed_dictionaries({"type": st.just("three_site"), "pair": st.just(1), "vartheta": _angles,
                           "area": _angles}),
)
_gates = st.one_of(
    st.fixed_dictionaries({"kind": st.just("rotation"), "qubit": st.integers(1, 2), "axis": _vectors,
                           "angle": _angles}),
    st.fixed_dictionaries({"kind": st.just("reflection"), "qubit": st.integers(1, 2), "n": _vectors}),
    st.fixed_dictionaries({"kind": st.just("xy"), "pair": st.just(1), "vartheta": _angles}),
)


@st.composite
def _documents(draw):
    """A well-formed schedule or circuit, often with one field set to an arbitrary value."""
    key, entry = draw(st.sampled_from((("pulses", _pulses), ("gates", _gates))))
    entries = draw(st.lists(entry, max_size=3))
    if entries and draw(st.booleans()):
        draw(st.sampled_from(entries))[draw(st.sampled_from(_FIELDS))] = draw(_values)
    return {key: entries}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Mostly well-formed documents (json.dumps writes NaN and Infinity, which json.loads reads back),
# then arbitrary JSON values and arbitrary text.
_texts = st.one_of(_documents().map(json.dumps), _documents().map(json.dumps),
                   _values.map(json.dumps), st.text(max_size=20))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_texts, qubits=st.integers(1, 2))
def test_documents_never_raise(fuzz_dir, text, qubits):
    path = fuzz_dir / "doc.json"
    path.write_text(text, encoding="utf-8")
    n = str(qubits)
    for argv in (["simulate", "--schedule", str(path), "--qubits", n, "--initial", "0" * qubits],
                 ["extract-gate", "--schedule", str(path), "--qubits", n],
                 ["compile", "--circuit", str(path), "--qubits", n]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) in (0, 2)
        assert "Traceback" not in err.getvalue()
