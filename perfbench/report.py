#!/usr/bin/env python3
"""Run every workload and print its metrics, spread and traced-run report.

    python3 perfbench/report.py [--seeds 1 2 3] [--seconds S] [--workloads W ...]

Each (workload, seed) runs ``perfbench/run.py`` in a fresh process, first
untraced (end-to-end metrics) and then traced (per-layer metrics).  With
several seeds, each end-to-end metric is given as the median over seeds and
the spread (inter-quartile distance over median) that the benchmark's
bounds are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One fresh-process run; returns (result, record)."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    for workload in args.workloads:
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        print(f"== {workload}: {len(args.seeds)} run(s) of {args.seconds} s, seeds {args.seeds}")
        rows = [(m["name"], m["unit"], f"(bound {m['bound']:.0%})",
                 [r["metrics"][m["name"]]["value"] for r, _ in results]) for m in spec["end_to_end"]]
        for name, unit in (("ops_per_s", "1/s"), ("host_speed", "ratio"), ("op_p50_s", "s")):
            rows.append((name, unit, "(record only)", [record[name] for _, record in results]))
        for name, unit, bound, values in rows:
            line = f"  {name:12s} {statistics.median(values):12.6g} {unit:4s}"
            if len(values) >= 4:
                line += f"  spread {spread(values):6.1%} {bound}"
            print(line)
        for result, record in results:
            p90 = (f"op_p90_s {record['op_p90_s']:.6g} s" if "op_p90_s" in record
                   else "op_p90_s undefined (< 100 samples)")
            values = ", ".join(f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items())
            print(f"  seed {record['env']['seed']}: correct {result['correct']}, {values}, "
                  f"op_p50_s {record['op_p50_s']:.4g} s, {p90} over {record['samples']} ops, "
                  f"failed_frac {record['failed_frac']:.6g} ({record['failed']}/{record['attempted']})")
        result, record = run(workload, args.seeds[0], args.seconds, 1)
        shares = sorted(record["self_share"].items(), key=lambda kv: -kv[1])
        print(f"  traced (seed {args.seeds[0]}, {record['traced_ops']} op(s), "
              f"{record['op_wall_s']:.4g} s/op): self_s share of operation wall time")
        for name, share in shares:
            if share >= 0.005:
                print(f"    {name:38s} {share:7.1%}")
        metrics = result["metrics"]
        print(f"    trace.unattributed_s {metrics['trace.unattributed_s']['value']:.4g} s/op, "
              f"trace.overhead_frac {metrics['trace.overhead_frac']['value']:+.2%}")
        dominant = record["dominant"]
        print(f"    dominant layer {' + '.join(dominant['layers'])}: total_s share "
              f"{dominant['share']:.1%} -> {'holds' if dominant['holds'] else 'DOES NOT HOLD'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
