#!/usr/bin/env python3
"""holosim benchmark: run one workload in this fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory and nowhere else.  One client issues operations in a
closed loop (the next starts only after the previous one returned) until
``--seconds`` have passed and at least ``MIN_OPS`` operations ran, checks
every output against its reference, and prints the metrics named in
``BENCHMARK.json``: the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.  An untraced run also times a calibration kernel
after every operation and reports throughput corrected for the host's
speed (``ref_ops_per_s``); the uncorrected ``ops_per_s`` is in the record.
The last line of standard output is the result object; the line before it
is the full record (environment, sample counts, op_p90_s where defined,
failed_frac).
Records and the traced run's spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 9
# A run always completes this many operations, so that at N=4, where one
# operation takes ~10 s, the count (and the median) does not depend on
# whether the time limit falls just before or just after an operation ends.
MIN_OPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads, set before numpy is imported.  Two threads run the N=4 eigh
# ~1.5x faster than one.  verify-all's matrices are 9x9 and 27x27, where the
# second thread only spins: in alternating 22 s runs on 2 vCPUs, two threads
# gave 0.33-0.44 operations/s and one thread 0.36-0.37.
BLAS_THREADS = {"verify-all": 1}
# The host's speed drifts by up to ~35% over tens of seconds, in the
# program's code and in any other code alike.  An untraced run times the
# workload's calibration kernel after every operation, for at least
# CAL_SHARE of that operation's time, and divides each operation's time by
# the kernel's slowdown against CAL_REF_S, each part's median time on a
# 2-vCPU Xeon.
CAL_REF_S = {"loop": 0.0037, "fft": 0.0042, "eigh128": 0.0056, "matmul243": 0.0014, "eigh400": 0.070}
CAL_SHARE = 0.02


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import holosim from this checkout's src/, or stop."""
    if not (SRC / "holosim" / "cli.py").is_file():
        fail(f"no holosim sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import holosim.cli  # noqa: F401
    import holosim
    if Path(holosim.__file__).resolve().parent != SRC / "holosim":
        fail(f"imported holosim from {holosim.__file__}, not from {SRC}")
    return holosim


def host_calibration(parts):
    """Return ``burst(seconds)``: the host's slowdown now, as a median over at least ``seconds``.

    One kernel run times each named part -- an interpreter loop, FFTs,
    Hermitian eigh and a complex matrix product, at the workload's BLAS
    threads -- and returns the geometric mean of their times over
    ``CAL_REF_S``.  None of the parts calls holosim.
    """
    import numpy as np
    rng = np.random.default_rng(0)

    def hermitian(n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a + a.conj().T

    signal = np.exp(2j * np.pi * rng.random(4096))
    herm128, herm400 = hermitian(128), hermitian(400)
    square = rng.normal(size=(243, 243)) + 1j * rng.normal(size=(243, 243))

    def loop():
        acc = 0
        for k in range(40_000):
            acc += k * k % 7

    def ffts():
        for _ in range(50):
            np.fft.fft(signal)

    kernels = {"loop": loop, "fft": ffts, "eigh128": lambda: np.linalg.eigh(herm128),
               "matmul243": lambda: square @ square, "eigh400": lambda: np.linalg.eigh(herm400)}
    chosen = [(kernels[name], CAL_REF_S[name]) for name in parts]

    def once() -> float:
        logs = 0.0
        for kernel, ref in chosen:
            t0 = time.perf_counter()
            kernel()
            logs += math.log((time.perf_counter() - t0) / ref)
        return math.exp(logs / len(chosen))

    def burst(seconds: float) -> float:
        once()  # refills the caches the operation evicted; not counted
        samples = []
        end = time.perf_counter() + seconds
        while not samples or time.perf_counter() < end:
            samples.append(once())
        return statistics.median(samples)

    return burst


def measure_setup() -> list[float]:
    """Seconds from interpreter start until holosim.cli is imported, in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, holosim.cli; print(repr(time.time()))"
    samples = []
    for k in range(SETUP_SAMPLES + 1):  # the first fills the bytecode cache
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if k:
            samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def environment(seed: int) -> dict:
    import numpy as np
    config = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: config.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: config.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """The checkout's commit if it is a git work tree (read from .git, no git call)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def quantile_record(latencies: list[float]) -> dict:
    record = {"samples": len(latencies), "op_p50_s": statistics.median(latencies)}
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        record["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    return record


def per_layer(tracer, traced: list[float], untraced: list[float], dominant, record: dict) -> dict:
    """Per-layer metrics of a traced run; adds the shares and the dominant-layer check to ``record``."""
    from tracer import ENTRY_POINTS, NAMES, TRACED
    table = tracer.table(len(traced))
    metrics = {}
    for name, (_, _, byte_stat) in zip(NAMES, TRACED):
        row = table[name]
        metrics[f"{name}.calls"] = (row["calls"], "1/op")
        metrics[f"{name}.total_s"] = (row["total_s"], "s/op")
        metrics[f"{name}.self_s"] = (row["self_s"], "s/op")
        if name in ENTRY_POINTS:
            metrics[f"{name}.errors"] = (row["errors"], "1/op")
        if byte_stat:
            metrics[f"{name}.{byte_stat}_bytes"] = (row["bytes"], "B/op")
    top = tracer.top_level_seconds()  # keyed by operation index, one traced run each
    unattributed = [wall - top.get(op, 0.0) for op, wall in enumerate(traced)]
    metrics["trace.unattributed_s"] = (sum(unattributed) / len(traced), "s/op")
    metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced) - 1.0, "ratio")
    metrics["trace.spans"] = (len(tracer.sid) / len(traced), "1/op")

    op_wall = sum(traced) / len(traced)
    total_share = {n: r["total_s"] / op_wall for n, r in table.items() if r["calls"]}
    share = sum(total_share.get(name, 0.0) for name in dominant)
    record.update(
        traced_ops=len(traced), op_wall_s=op_wall,
        self_share={n: r["self_s"] / op_wall for n, r in table.items() if r["calls"]},
        total_share=total_share, table=table,
        dominant={"layers": list(dominant), "share": share, "holds": share > 0.5},
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = min(BLAS_THREADS.get(args.workload, 2), len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    import_program()
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailed, warm_up

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        warm_up(workdir)

        tracer = Tracer() if args.trace else None
        calibrate = None if tracer else host_calibration(workload.calibration)
        cal_before = calibrate(0.1) if calibrate else None
        cal_samples, ref_times = [], []  # burst medians; operation times over the slowdown
        latencies = {False: [], True: []}  # keyed by "traced"
        failures = []
        attempted = 0
        first = None
        start = time.perf_counter()
        i = 0
        while i < MIN_OPS or time.perf_counter() - start < args.seconds:
            inputs = workload.make(i)
            # A traced run times every input twice, traced and untraced, in
            # alternating order, so the overhead compares identical work.
            modes = [False] if tracer is None else ([True, False] if i % 2 else [False, True])
            for traced in modes:
                attempted += 1
                if traced:
                    tracer.op = i
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    outcome = workload.run(inputs)
                except Exception:  # an operation that raises counts as failed
                    outcome = None
                    failures.append(f"op {i}: " + traceback.format_exc(limit=-1).strip().splitlines()[-1])
                finally:
                    t1 = time.perf_counter()
                    if traced:
                        tracer.uninstall()
                latencies[traced].append(t1 - t0)
                if calibrate:
                    cal_after = calibrate(CAL_SHARE * (t1 - t0))
                    ref_times.append((t1 - t0) / (0.5 * (cal_before + cal_after)))
                    cal_samples.append(cal_after)
                    cal_before = cal_after
                if outcome is None:
                    continue
                try:
                    workload.check(inputs, outcome)
                    if first is None:
                        first = (inputs, outcome)
                except Exception as exc:  # malformed output fails the check too
                    failures.append(f"op {i}: {exc!r}")
            i += 1

        # The gate must reject a slightly wrong reference.
        gate_rejects_perturbed = False
        if first is not None:
            try:
                workload.check(*first, perturbed=True)
            except CheckFailed:
                gate_rejects_perturbed = True

        failed = len(failures)
        timed = latencies[False]
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "load": "closed loop, 1 client, 1 process", "env": environment(args.seed),
                  "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
                  "failures": failures[:5], "gate_rejects_perturbed": gate_rejects_perturbed}
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "ref_ops_per_s": (len(ref_times) / sum(ref_times), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
            record.update(quantile_record(timed), ops_per_s=len(timed) / sum(timed),
                          host_speed=1.0 / statistics.median(cal_samples),
                          latencies_s=timed, setup_samples_s=setup, host_slowdowns=cal_samples)
        else:
            metrics = per_layer(tracer, latencies[True], timed, workload.dominant, record)
            tracer.write(OUT / f"spans-{args.workload}.tsv.gz")

        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        missing = [name for name in wanted if name not in metrics]
        if missing:
            fail(f"metrics named in BENCHMARK.json but not measured: {missing}")
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

        for name in wanted:
            value, unit = metrics[name]
            print(f"{args.workload:12s} {name:45s} {value:.6g} {unit}")
        print(json.dumps(record))
        print(json.dumps({"correct": failed == 0 and gate_rejects_perturbed, "attempted": attempted,
                          "failed": failed, "metrics": {n: record["metrics"][n] for n in wanted}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
