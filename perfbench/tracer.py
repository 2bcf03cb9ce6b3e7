"""Outside-in span tracer for holosim's public functions.

The program is not edited.  ``Tracer.install`` rebinds each traced function,
in every ``holosim.*`` module namespace (and module-level dict) that holds
that function object, to a wrapper that records one span per call; names
imported with ``from .pulses import ...`` hold their own reference, so
rebinding only the defining module would miss them.  ``uninstall`` puts
the originals back, so untraced operations run the program untouched.

A span is (id, parent id, operation id, name, start, end, raised, bytes).
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from dataclasses import fields, is_dataclass

import numpy as np

# (module, function, byte stat or None).  ``out`` sums the nbytes of arrays
# in the return value (or the length of a returned string); ``in`` is the
# length of the document text passed in.
TRACED = (
    ("linalg", "expm_hermitian", None),
    ("linalg", "polar_unitary", None),
    ("linalg", "gate_fidelity", None),
    ("chain", "h1", None),
    ("chain", "h3", None),
    ("pulses", "block_hamiltonian", "out"),
    ("pulses", "propagate_exact", "out"),
    ("pulses", "propagate_stepped", None),
    ("pulses", "schedule_propagator", None),
    ("pulses", "run_schedule", None),
    ("gates", "extract_logical_gate", None),
    ("gates", "entangling_verdict", None),
    ("gates", "makhlin_invariants", None),
    ("holonomy", "certify", None),
    ("holonomy", "trace_subspace", "out"),
    ("holonomy", "check_parallel_transport", None),
    ("holonomy", "wilson_loop", None),
    ("compiler", "compile_gate", None),
    ("compiler", "compile_circuit", None),
    ("compiler", "circuit_unitary", None),
    ("checks", "suite_onequbit", None),
    ("checks", "suite_twoqubit", None),
    ("checks", "suite_holonomy", None),
    ("checks", "suite_compiler", None),
    ("formats", "loads_schedule", "in"),
    ("formats", "loads_circuit", "in"),
    ("formats", "dumps", "out"),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_compile", None),
    ("cli", "cmd_extract_gate", None),
    ("cli", "cmd_verify", None),
)

NAMES = tuple(f"{module}.{func}" for module, func, _ in TRACED)

# An operation's failure surfaces at these entry points; inner functions'
# error counts are kept in the full per-function table only.
ENTRY_POINTS = ("holonomy.certify", "cli.cmd_simulate", "cli.cmd_compile",
                "cli.cmd_extract_gate", "cli.cmd_verify")


def array_bytes(value) -> int:
    """nbytes of a returned array, of the arrays in a returned dataclass, or a string's length."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if is_dataclass(value):
        return sum(v.nbytes for v in (getattr(value, f.name) for f in fields(value))
                   if isinstance(v, np.ndarray))
    return 0


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.op = -1
        self._next_id = 0
        self._stack = []  # [span id, start, child seconds] per open span
        self.sid = array("q")
        self.parent = array("q")
        self.opid = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.nbytes = array("q")
        self.self_s = array("d")
        self._originals = {}
        self._patches = []  # (namespace dict, key, original)

    def _wrap(self, index: int, fn, byte_stat):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = self._next_id
            self._next_id = span + 1
            frame = [span, 0.0, 0.0]
            stack.append(frame)
            raised = 1
            out = None
            frame[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.sid.append(span)
                self.parent.append(stack[-1][0] if stack else -1)
                self.opid.append(self.op)
                self.name.append(index)
                self.start.append(frame[1])
                self.end.append(t1)
                self.raised.append(raised)
                self.self_s.append(duration - frame[2])
                if byte_stat == "out":
                    self.nbytes.append(array_bytes(out))
                elif byte_stat == "in" and args and isinstance(args[0], str):
                    self.nbytes.append(len(args[0].encode("utf-8")))
                else:
                    self.nbytes.append(0)
        return traced

    def install(self):
        """Rebind every traced function wherever a holosim module holds it."""
        if not self._originals:
            for index, (module, func, byte_stat) in enumerate(TRACED):
                fn = getattr(sys.modules[f"holosim.{module}"], func)
                self._originals[id(fn)] = (fn, self._wrap(index, fn, byte_stat))
        replace = self._originals
        for modname, module in list(sys.modules.items()):
            if modname != "holosim" and not modname.startswith("holosim."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patches.append((namespace, key, value))
                    namespace[key] = replace[id(value)][1]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace and replace[id(v)][0] is v:
                            self._patches.append((value, k, v))
                            value[k] = replace[id(v)][1]

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def top_level_seconds(self) -> dict:
        """Per operation, the wall time covered by spans with no traced parent."""
        top = np.asarray(self.parent) == -1
        ops = np.asarray(self.opid)[top]
        duration = (np.asarray(self.end) - np.asarray(self.start))[top]
        return {int(op): float(duration[ops == op].sum()) for op in np.unique(ops)}

    def table(self, ops: int) -> dict:
        """Per-function totals divided by ``ops`` traced operations."""
        calls = np.zeros(len(NAMES))
        total = np.zeros(len(NAMES))
        self_s = np.zeros(len(NAMES))
        errors = np.zeros(len(NAMES))
        nbytes = np.zeros(len(NAMES))
        name = np.frombuffer(self.name, dtype=np.uint16) if len(self.name) else np.zeros(0, int)
        duration = np.asarray(self.end) - np.asarray(self.start)
        np.add.at(calls, name, 1)
        np.add.at(total, name, duration)
        np.add.at(self_s, name, np.asarray(self.self_s))
        np.add.at(errors, name, np.asarray(self.raised, dtype=float))
        np.add.at(nbytes, name, np.asarray(self.nbytes, dtype=float))
        scale = 1.0 / max(ops, 1)
        return {
            n: {"calls": float(calls[i] * scale), "total_s": float(total[i] * scale),
                "self_s": float(self_s[i] * scale), "errors": float(errors[i] * scale),
                "bytes": float(nbytes[i] * scale)}
            for i, n in enumerate(NAMES)
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\traised\tbytes\n")
            for i in range(len(self.sid)):
                fh.write(f"{self.sid[i]}\t{self.parent[i]}\t{self.opid[i]}\t{NAMES[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.raised[i]}\t{self.nbytes[i]}\n")
