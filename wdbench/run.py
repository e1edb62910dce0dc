#!/usr/bin/env python3
"""Benchmark of ``wdbounds``: one workload per run, one JSON result line.

Usage, from the root of a source checkout::

    python3 wdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``soundness_batch``, ``grid_defect``, ``grid_exact`` and
``curvature_cli`` (see ``wdbench/README.md``).  The script byte-compiles
``src/wdbounds`` (the build step of a pure-Python package) and pins itself,
and with it every process it starts, to one CPU.  It starts the speed probe
(``speed.py``) on that CPU, then ``SETUP_RUNS`` fresh interpreters that only
set the workload up, then one fresh interpreter that sets up, warms up, times
whole passes for ``--seconds`` and checks every output.  Every child runs
with ``src`` on its path and BLAS/OpenMP pinned to one thread.  Times are
rescaled to reference seconds with the probe's record.  The raw record of
each child goes to ``wdbench-out/``; the last line on standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``solve_s``,
``cpu_s``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` the per-layer
ones.  The script exits non-zero, printing no result, when the checkout
holds no ``src/wdbounds`` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from speed import Speed
from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "wdbounds")
OUT_DIR = os.path.join(ROOT, "wdbench-out")
WORKLOADS = ("soundness_batch", "grid_defect", "grid_exact", "curvature_cli")
#: Extra interpreters that only time set-up; setup_s is the median over them
#: and the measuring child.
SETUP_RUNS = 6
#: Layer metrics also reported for the set-up (raw wall seconds and counts).
SETUP_LAYERS = ("models.build_s", "metric.validate_calls", "metric.validate_s")
#: Wall-clock limit of one child, so a run ends well inside three minutes.
CHILD_TIMEOUT = 150
#: Thread pools pinned to one thread: OpenBLAS would otherwise start one
#: thread per core for every small matrix product.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of wdbounds (one workload per run).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args, out: str, extra: list[str]) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", out,
    ] + extra  # fmt: skip
    if os.path.exists(out):
        os.remove(out)
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
                   stdout=subprocess.DEVNULL)  # fmt: skip
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(record: dict) -> dict:
    """End-to-end metrics of an untraced run."""
    passes = record["passes"]
    return {
        "solve_s": {"value": _median(p["wall_ref"] for p in passes), "unit": "s"},
        "cpu_s": {"value": _median(p["cpu_ref"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": _median(record["setup_ref"]), "unit": "s"},
    }


def per_layer(record: dict) -> dict:
    """Per-layer metrics of a traced run: medians over the traced passes."""
    traced = [p for p in record["passes"] if p["traced"]]
    plain = [p for p in record["passes"] if not p["traced"]]
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        metrics[name] = {"value": _median(p["layers"][name] for p in traced), "unit": unit}
    for name in SETUP_LAYERS:
        unit = LAYER_METRICS[name][0]
        metrics["setup." + name] = {"value": record["setup_layers"][name], "unit": unit}
    traced_s = _median(p["wall_ref"] for p in traced)
    plain_s = _median(p["wall_ref"] for p in plain)
    metrics["trace.traced_pass_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_pass_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    return metrics


def _start_probe(out: str) -> subprocess.Popen:
    """Start the speed probe and wait until it samples."""
    if os.path.exists(out):
        os.remove(out)
    probe = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "speed.py"), "--out", out],
        env=_child_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )  # fmt: skip
    if probe.stdout.readline().strip() != "ready":
        _stop_probe(probe)
        raise OSError("the speed probe did not start")
    return probe


def _stop_probe(probe: subprocess.Popen) -> None:
    """Close the probe's input, which stops it, and wait until it has ended."""
    probe.stdin.close()
    try:
        probe.wait(timeout=10)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.wait()


def rescale(record: dict, speed: Speed) -> None:
    """Add reference-second times (``*_ref``) to a measuring child's record."""
    for rec in record["passes"]:
        begin, end = rec["span"]
        rec["wall"] = end - begin
        rec["own_wall"] = end - begin - speed.busy(begin, end)
        rec["speed"] = speed.speed(begin, end)
        rec["wall_ref"] = rec["own_wall"] * rec["speed"]
        rec["cpu_ref"] = rec["cpu"] * rec["speed"]
        if rec["traced"]:  # layer times rescaled like the pass that holds them
            for name, value in rec["layers"].items():
                if LAYER_METRICS[name][0] == "s":
                    rec["layers"][name] = value * rec["wall_ref"] / rec["wall"]
        rec["op_wall"] = [b - a for a, b in rec["op_spans"]]
        rec["op_speed"] = [speed.speed(a, b) for a, b in rec["op_spans"]]
        rec["op_ref"] = [speed.reference_seconds(a, b) for a, b in rec["op_spans"]]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no wdbounds sources under {PACKAGE}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # build: byte-compile once, so no child pays for compilation inside set-up
    subprocess.run([sys.executable, "-m", "compileall", "-q", PACKAGE, HERE],
                   check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)  # fmt: skip
    # one CPU for every process from here on, so the probe shares the
    # measured process's CPU and sees the speed it runs at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    probe = _start_probe(f"{stem}-speed.json")
    try:
        setup_spans = []
        for i in range(SETUP_RUNS):
            setup_spans.append(_child(args, f"{stem}-setup{i}.json", ["--setup-only"])["setup_span"])
        record = _child(
            args, f"{stem}.json", ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
        setup_spans.append(record["setup_span"])
    finally:
        _stop_probe(probe)
    with open(f"{stem}-speed.json", encoding="utf-8") as fh:
        speed = Speed(json.load(fh))
    record["setup_ref"] = [speed.reference_seconds(a, b) for a, b in setup_spans]
    record["setup_wall"] = [b - a for a, b in setup_spans]
    rescale(record, speed)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    metrics = per_layer(record) if args.trace else end_to_end(record)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
