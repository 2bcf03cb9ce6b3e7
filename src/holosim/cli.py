"""Command-line front end.

Subcommands::

    holosim simulate     --schedule F --qubits N --initial BITS [--out F]
    holosim verify       --suite NAME
    holosim compile      --circuit F --qubits N [--out F]
    holosim extract-gate --schedule F --qubits N [--out F]

Exit codes: 0 success, 1 verification failure, 2 usage, parse or resource error.
Report files are deterministic: fixed field order, floats with 17
significant digits.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .chain import ChainLayout, check_columns, logical_encode, logical_frame
from .checks import SUITE_NAMES, run_suite
from .compiler import compile_gate, circuit_unitary
from .formats import FormatError, dumps, loads_circuit, loads_schedule, pulse_to_dict, schedule_to_obj
from .gates import entangling_verdict, extract_logical_gate, makhlin_invariants
from .linalg import check_memory, power_bytes
from .pulses import run_schedule

__all__ = ["main", "build_parser"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one shared parser, built by the first call and not at import.

    It names each command but holds no function: ``main`` looks the ``cmd_*`` function up in
    ``_COMMANDS`` on every call, so a rebinding there (perfbench's tracer makes one) takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="holosim",
        description="Simulate, verify and compile holonomic gates on a qutrit chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a pulse schedule on a logical basis state")
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--qubits", required=True, type=int, help="number of logical qubits N")
    p.add_argument("--initial", required=True, help="initial logical bitstring, length N")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)

    p = sub.add_parser("compile", help="compile a logical circuit into a pulse schedule")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--qubits", required=True, type=int)
    p.add_argument("--out", help="write the schedule document here instead of stdout")

    p = sub.add_parser("extract-gate", help="extract the logical gate of a schedule")
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.add_argument("--qubits", required=True, type=int)
    p.add_argument("--out", help="write the gate report here instead of stdout")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_report(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_bits(bits: str, n: int) -> list[int]:
    if len(bits) != n or any(c not in "01" for c in bits):
        raise FormatError(f"--initial must be a bitstring of length {n}, got {bits!r}")
    return [int(c) for c in bits]


def _read_schedule(path: str, layout: ChainLayout) -> list:
    """The schedule document at ``path``, each pulse placed on the chain before any is applied: a pulse that
    does not fit is named by its index, as a parse error names it."""
    schedule = loads_schedule(_read(path))
    for i, pulse in enumerate(schedule):
        try:
            pulse.lambdas(layout)
        except ValueError as exc:
            raise FormatError(f"pulses[{i}]: {exc}") from None
    return schedule


def cmd_simulate(args) -> int:
    layout = ChainLayout(args.qubits)
    check_columns(f"simulate at N={args.qubits}", layout, 1)
    schedule = _read_schedule(args.schedule, layout)
    bits = _parse_bits(args.initial, layout.n_logical)
    psi = run_schedule(schedule, logical_encode(bits, layout), layout)

    amplitudes = psi[layout.logical_rows()]
    logical_population = float(np.sum(np.abs(amplitudes) ** 2))
    # one running reduction, site 1 first: a site's marginal sums out the sites after it, and the sum over the
    # site carries on to the next one
    rest = np.abs(psi) ** 2
    site_populations = []
    for d in layout.site_dims:
        rest = rest.reshape(d, -1)
        populations = rest.sum(axis=1).tolist()
        rest = rest.sum(axis=0)
        # an auxiliary site has no |e> in the reachable space: its population there is 0
        site_populations.append(populations + [0.0] * (3 - d))

    report = {
        "qubits": layout.n_logical,
        "initial": args.initial,
        "basis": "logical, lexicographic in n1..nN",
        "final_amplitudes": amplitudes.tolist(),
        "leakage": max(0.0, 1.0 - logical_population),
        "site_populations": site_populations,
        "norm": float(np.linalg.norm(psi)),
    }
    _write_report(dumps(report), args.out)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"[{status}] {r.name}: measured={r.measured:.6e} {r.comparison} {r.threshold:.6e}")
    print(f"suite {args.suite!r}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_compile(args) -> int:
    layout = ChainLayout(args.qubits)
    # the 2^N x 2^N unitary, 16 bytes an entry, and its JSON rendering, at most 252 bytes an entry at N = 8-10
    # (the entry's complex from tolist(), and its [re, im] text in its row's and in the document's string)
    what = f"compile at N={args.qubits}"
    check_memory(what, power_bytes(what, 16 + 252, 4, layout.n_logical))
    circuit = loads_circuit(_read(args.circuit))
    schedule = []
    provenance = []
    for i, gate in enumerate(circuit):
        try:
            pulses = compile_gate(gate, layout)
        except ValueError as exc:
            raise FormatError(f"gates[{i}]: {exc}") from None
        provenance.append({
            "gate": i,
            "kind": gate.kind,
            "pulses": list(range(len(schedule), len(schedule) + len(pulses))),
            "rule": gate.rule,
        })
        schedule.extend(pulses)

    document = schedule_to_obj(schedule)
    document["predicted_gate"] = circuit_unitary(circuit, layout).tolist()
    document["provenance"] = provenance
    _write_report(dumps(document), args.out)
    return 0


def cmd_extract_gate(args) -> int:
    layout = ChainLayout(args.qubits)
    frame = logical_frame(layout)  # budgeted where it is built, before the schedule is read
    schedule = _read_schedule(args.schedule, layout)
    columns = run_schedule(schedule, frame, layout)
    report = extract_logical_gate(columns, layout)

    doc = {
        "qubits": layout.n_logical,
        "pulses": [pulse_to_dict(p) for p in schedule],
        "cyclic": report.cyclic,
        "leakage": report.leakage,
        "logical_gate": report.logical_gate.tolist(),
    }
    if report.cyclic and layout.n_logical == 2:
        doc["makhlin_g1"], doc["makhlin_g2"] = makhlin_invariants(report.logical_gate)
        doc["entangling"], doc["entangling_power"] = entangling_verdict(report.logical_gate)
    _write_report(dumps(doc), args.out)
    return 0


_COMMANDS = {"simulate": cmd_simulate, "verify": cmd_verify, "compile": cmd_compile,
             "extract-gate": cmd_extract_gate}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:  # bad input or an unmet resource limit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
