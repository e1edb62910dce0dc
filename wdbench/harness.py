"""One benchmark process: set up a workload, time whole passes, check outputs.

Run by ``run.py`` in a fresh interpreter per run::

    python wdbench/harness.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
    python wdbench/harness.py --workload NAME --seed N --setup-only --out FILE

The process imports ``wdbounds`` and builds the workload's inputs (timed as
set-up), runs one warm-up op, then makes whole passes over the op list until
the next pass would end after ``--seconds``.  It records the raw wall span
(``CLOCK_MONOTONIC``) and CPU time of each op in every pass; ``run.py``
rescales them with the speed probe that ran beside this process.  Outputs
are checked only after the last pass, and only after the peak memory was
read, so neither the reference solver nor its imports count.  With
``--setup-only`` the process stops after set-up.

With ``--trace 1`` the passes alternate between untraced and traced, and
each traced pass records the per-layer metrics of that pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from speed import clock

CPU = time.process_time


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--out", required=True, help="file for the JSON record")
    return parser.parse_args(argv)


def _run_op(fn):
    """``(output, error)`` of one op; an exception is the op's failure."""
    try:
        return fn(), None
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    start = clock()
    import workloads  # imports wdbounds and numpy: part of set-up

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    workdir = os.path.dirname(os.path.abspath(args.out))
    wl = workloads.make(args.workload, args.seed, workdir)
    record = {"workload": args.workload, "seed": args.seed, "setup_span": (start, clock())}
    if args.setup_only:
        return _write(args.out, record)

    if tracer is not None:
        record["setup_layers"] = tracer_mod.layer_metrics(tracer)
        tracer.uninstall()

    _run_op(wl.ops[0][1])  # warm-up: lazy imports, first-touch allocations

    labels = [label for label, _ in wl.ops]
    outputs = {label: {} for label in labels}  # label -> fingerprint -> [output, count]
    errors = {label: [] for label in labels}
    passes = []
    began = clock()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        op_spans, op_cpu = [], []
        p_wall, p_cpu = clock(), CPU()
        for label, fn in wl.ops:
            o_wall, o_cpu = clock(), CPU()
            out, err = _run_op(fn)
            op_spans.append((o_wall, clock()))
            op_cpu.append(CPU() - o_cpu)
            if err is not None:
                errors[label].append(err)
            else:
                seen = outputs[label].setdefault(workloads.fingerprint(out), [out, 0])
                seen[1] += 1
        rec = {"span": (p_wall, clock()), "cpu": CPU() - p_cpu, "op_spans": op_spans, "op_cpu": op_cpu}
        if traced:
            tracer.uninstall()
            rec["layers"] = tracer_mod.layer_metrics(tracer)
        rec["traced"] = traced
        passes.append(rec)
        elapsed = clock() - began
        typical = statistics.median(p["span"][1] - p["span"][0] for p in passes)
        enough = tracer is None or len(passes) >= 2
        if enough and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = wrong = 0
    problems = []
    for label in labels:
        failed += len(errors[label])
        problems += [f"{label}: {e}" for e in sorted(set(errors[label]))]
        for out, count in outputs[label].values():
            try:
                found = wl.check(label, out)
            except Exception:  # a check that cannot run fails the op
                found = [f"{label}: check raised\n{traceback.format_exc()}"]
            if found:
                failed += count
                wrong += count
                problems += found
    record.update(
        ops=labels,
        passes=passes,
        attempted=len(passes) * len(labels),
        failed=failed,
        problems=problems,
        peak_rss_mb=peak_rss_mb,
        correct=wrong == 0,
    )
    return _write(args.out, record)


def _write(path: str, record: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
