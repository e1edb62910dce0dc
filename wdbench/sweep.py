#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it.

Usage, from the root of a source checkout::

    python3 wdbench/sweep.py [--workloads a,b] [--seeds 1-10] [--seconds 25] [--trace-seed 1]

For every workload, runs ``wdbench/run.py`` once per seed untraced and once
traced (seed ``--trace-seed``), then prints per metric the median, the
quartiles and the quartile spread as a share of the median (the steadiness
figure the bounds in ``BENCHMARK.json`` are set against), the failed share,
per op its median reference time, its raw wall times and how closely it
slows down with the speed probe, and the per-layer metrics of the traced run.
These are the figures quoted in ``wdbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, WORKLOADS  # noqa: E402


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    began = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = time.perf_counter() - began
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        result["record"] = json.load(fh)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def _elasticity(samples: list[dict], i: int) -> float:
    """Slope of log(own time of op ``i``) against log(probe speed), negated.

    1 when the op slows down exactly as the probe does, so that rescaling
    by the probe's speed gives the op the same reference time at any speed.
    """
    speeds = [p["op_speed"][i] for p in samples]
    own = [math.log(p["op_ref"][i] / s) for p, s in zip(samples, speeds)]
    try:
        return -statistics.linear_regression([math.log(s) for s in speeds], own).slope
    except statistics.StatisticsError:  # one speed only
        return float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-seed", type=int, default=1, help="seed of the traced run; -1 skips it")
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        runs = [_run(workload, s, args.seconds, 0) for s in _seeds(args.seeds)]
        print(f"== {workload}: {len(runs)} runs of {args.seconds:g} s")
        for name in runs[0]["metrics"]:
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:12s} median {med:.4g} {unit}  quartiles {q1:.4g}..{q3:.4g}  spread {sp:.3f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        passes = [len(r["record"]["passes"]) for r in runs]
        print(f"  correct {all(r['correct'] for r in runs)}  failed share {shares}  "
              f"passes per run {min(passes)}..{max(passes)}  "
              f"run took {min(r['elapsed'] for r in runs):.1f}..{max(r['elapsed'] for r in runs):.1f} s")  # fmt: skip
        ops = runs[0]["record"]["ops"]
        for i, op in enumerate(ops):
            samples = [p for r in runs for p in r["record"]["passes"]]
            refs = [p["op_ref"][i] for p in samples]
            walls = [p["op_wall"][i] for p in samples]
            print(f"  op {op:16s} {statistics.median(refs):.3f} reference s; "
                  f"raw wall median {statistics.median(walls):.3f} s, min {min(walls):.3f} s; "
                  f"elasticity {_elasticity(samples, i):.2f}")  # fmt: skip
        walls = [p["wall"] for r in runs for p in r["record"]["passes"]]
        speeds = [p["speed"] for r in runs for p in r["record"]["passes"]]
        print(f"  raw pass wall: median {statistics.median(walls):.3f} s, spread of run medians "
              f"{spread([statistics.median(p['wall'] for p in r['record']['passes']) for r in runs])[3]:.3f}; "
              f"pass speed {min(speeds):.2f}..{max(speeds):.2f}")  # fmt: skip
        if args.trace_seed >= 0:
            traced = _run(workload, args.trace_seed, args.seconds, 1)
            print(f"  traced run (seed {args.trace_seed}), per pass:")
            for name, m in traced["metrics"].items():
                if m["value"]:
                    print(f"    {name:30s} {m['value']:.4g} {m['unit']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
