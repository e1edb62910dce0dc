"""Tests of the benchmark's own checks, tracer, harness and speed probe.

Each check must accept the output of ``wdbounds`` and reject the same output
with one value perturbed.  Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q wdbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

pytest.importorskip("scipy")

import harness  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _perturb_csv(text: str, row_name: str, column: int, delta: float) -> str:
    """Add ``delta`` to one value of the first row whose first field is ``row_name``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if not line.startswith("#") and fields[0] == row_name and fields[column]:
            fields[column] = repr(float(fields[column]) + delta)
            lines[i] = ",".join(fields)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no row {row_name!r} with a value in column {column}")


@pytest.fixture(scope="module")
def soundness(tmp_path_factory):
    wl = workloads.make("soundness_batch", SEED, str(tmp_path_factory.mktemp("s")))
    label, op = next((lab, op) for lab, op in wl.ops if len(wl.instances[int(lab[8:])]["blocks"]) > 1)
    return wl, label, op()


def test_soundness_accepts_and_rejects(soundness):
    wl, label, curve = soundness
    assert wl.check(label, curve) == []
    exact = curve.exact.copy()
    exact[-1] += 1e-4
    assert wl.check(label, dataclasses.replace(curve, exact=exact))
    columns = dict(curve.columns)
    columns["timevarying"] = curve.exact - 1e-3  # a bound below the exact error
    assert wl.check(label, dataclasses.replace(curve, columns=columns))


@pytest.fixture(scope="module")
def grid_defect(tmp_path_factory):
    wl = workloads.make("grid_defect", SEED, str(tmp_path_factory.mktemp("d")))
    label, op = wl.ops[0]
    return wl, label, op()


def test_grid_defect_accepts(grid_defect):
    wl, label, text = grid_defect
    assert wl.check(label, text) == []


@pytest.mark.parametrize(
    "row, column, delta",
    [
        ("0", 1, 1e-4),  # W0 in the linear bound
        ("2", 1, 1e-4),  # slope of the linear bound (t=T is the last row)
        ("2", 2, 10.0),  # clipped value above raw and d_max
        ("1", 3, 1e-4),  # exp-k closed form
        ("2", 5, 1e3),  # hybrid above min(linear, exp-k)
    ],
)
def test_grid_defect_rejects(grid_defect, row, column, delta):
    wl, label, text = grid_defect
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln[:1].isdigit()]
    target = {"0": data[0], "1": data[100], "2": data[-1]}[row]
    fields = lines[target].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[target] = ",".join(fields)
    assert wl.check(label, "\n".join(lines) + "\n")


def test_grid_exact_accepts_and_rejects(tmp_path):
    wl = workloads.make("grid_exact", SEED, str(tmp_path))
    label, op = wl.ops[0]
    values = op()
    assert wl.check(label, values) == []
    bad = values.copy()
    bad[1] += 1e-5
    assert wl.check(label, bad)


@pytest.fixture(scope="module")
def curvature(tmp_path_factory):
    wl = workloads.make("curvature_cli", SEED, str(tmp_path_factory.mktemp("c")))
    return wl, {label: op() for label, op in wl.ops}


@pytest.mark.parametrize("label", ["line_min", "line_rooted_min", "box_k_only"])
def test_curvature_accepts(curvature, label):
    wl, outputs = curvature
    assert wl.check(label, outputs[label]) == []


@pytest.mark.parametrize(
    "label, row, column, delta",
    [
        ("line_min", "kappa_min", 4, -1e-3),  # kappa_min not the minimum over all pairs
        ("line_rooted_min", "pair", 4, 1e-3),  # a pair's kappa off the HiGHS value
        ("line_rooted_min", "k_min", 3, 1e-6),
        ("box_k_only", "K_global", 3, 1e-6),
        ("box_k_only", "pair", 3, 1e-6),
    ],
)
def test_curvature_rejects(curvature, label, row, column, delta):
    wl, outputs = curvature
    assert wl.check(label, _perturb_csv(outputs[label], row, column, delta))


def test_curvature_rejects_kappa_below_k(curvature):
    wl, outputs = curvature
    lines = outputs["line_min"].splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == "pair" and fields[4]:
            fields[3] = repr(float(fields[4]) + 1.0)  # k above kappa
            lines[i] = ",".join(fields)
            break
    assert any("below k" in p for p in wl.check("line_min", "\n".join(lines) + "\n"))


def test_tracer_counts_calls_under_every_name():
    from wdbounds import bounds, markov
    from wdbounds.aggregation import Partition, partition_aggregation_ctmc
    from wdbounds.models import random_instance

    gen, met, p0 = random_instance(5, 3, metric_kind="line")
    agg = partition_aggregation_ctmc(gen, Partition(((1, 2), (3, 4, 5))))
    t = tracer.Tracer()
    t.install()
    try:
        markov.transient_ctmc(p0, gen, 0.5)
        bounds.exact_error_curve(p0, gen, met, agg, np.array([0.5, 1.0]))
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t)
    # one direct call plus two per grid point through the name bounds imported
    assert metrics["markov.transient_calls"] == 5
    assert metrics["transport.w1_calls"] == 2
    assert metrics["bounds.exact_curve_s"] > metrics["markov.transient_s"] > 0.0
    assert metrics["transport.lp_fallbacks"] == 0
    assert bounds.transient_ctmc is markov.transient_ctmc  # patches removed


def test_tracer_self_time_excludes_children():
    from wdbounds import bounds
    from wdbounds.aggregation import Partition, partition_aggregation_ctmc
    from wdbounds.models import random_instance

    gen, met, p0 = random_instance(6, 4, metric_kind="graph")
    agg = partition_aggregation_ctmc(gen, Partition(((1, 2, 3), (4, 5, 6))))
    t = tracer.Tracer()
    t.install()
    try:
        bounds.compute_bound_curve(
            gen, met, agg, p0, np.linspace(0, 1, 3), variants=("timevarying", "local")
        )
    finally:
        t.uninstall()
    tv = t.stats["bounds.bound_linear_K_timevarying"]
    assert 0.0 < tv.self_time < tv.total
    assert t.stats["markov.transient_ctmc"].calls > 0


def test_tracer_skips_missing_targets(monkeypatch):
    from wdbounds import markov

    monkeypatch.setattr(markov, "__all__", list(markov.__all__) + ["no_such_function"])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert tracer.layer_metrics(t)["markov.transient_calls"] == 0


def test_harness_counts_failed_ops(tmp_path, monkeypatch):
    class Broken:
        def __init__(self, seed, workdir):
            self.ops = [("ok", lambda: "fine"), ("raises", self._raise), ("wrong", lambda: "bad")]

        @staticmethod
        def _raise():
            raise RuntimeError("boom")

        def check(self, label, output):
            return [] if output == "fine" else [f"{label}: wrong output"]

    monkeypatch.setitem(workloads.WORKLOADS, "broken", Broken)
    out = tmp_path / "rec.json"
    harness.main(["--workload", "broken", "--seed", "1", "--seconds", "0.01", "--out", str(out)])
    rec = json.loads(out.read_text())
    assert rec["attempted"] == 3 * len(rec["passes"])
    assert rec["failed"] == 2 * len(rec["passes"])
    assert rec["correct"] is False


def test_speed_rescales_by_sampled_speed():
    ref = speed.REFERENCE_LOOP_S
    # bursts of 0.1 s at 0.5 s (speed 0.5) and 1.5 s (speed 0.8)
    sp = speed.Speed([(1.5, 1.6, ref / 0.8), (0.5, 0.6, ref / 0.5)])
    assert sp.busy(0.0, 2.0) == pytest.approx(0.2)
    assert sp.busy(0.55, 1.0) == pytest.approx(0.05)
    # 2 s of wall time, 0.2 s of it the probe's, at a mean speed of 0.65
    assert sp.reference_seconds(0.0, 2.0) == pytest.approx(1.8 * 0.65)
    # fewer samples inside than MIN_SAMPLES: the nearest ones
    assert sp.speed(1.2, 2.0) == pytest.approx(0.65)
    with pytest.raises(ValueError):
        speed.Speed([]).speed(0.0, 1.0)


def test_speed_probe_does_not_depend_on_the_measured_code(tmp_path):
    """The probe reads the same speed beside interpreter and numpy work.

    The two kinds of work alternate every 50 ms beside the probe, on one CPU.
    Each pair of neighbouring stretches sees the same state of the host, so
    the median over pairs of their speed ratio is the probe's dependence on
    the work beside it.
    """
    big = np.random.default_rng(0).random((400, 400))

    def interpreter():
        total = 0
        for i in range(2000):
            total += i

    def arrays():  # single-threaded numpy over 1.3 MB arrays, unlike a BLAS product
        float(np.sort(big * 1.5, axis=0)[200].sum())

    spans = []
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    probe = run._start_probe(str(tmp_path / "speed.json"))
    try:
        end = speed.clock() + 8.0
        while speed.clock() < end:
            pair = []
            for work in (interpreter, arrays):
                begin = speed.clock()
                while speed.clock() < begin + 0.05:
                    work()
                pair.append((begin, speed.clock()))
            spans.append(pair)
    finally:
        run._stop_probe(probe)
        os.sched_setaffinity(0, affinity)
    sp = speed.Speed(json.loads((tmp_path / "speed.json").read_text()))

    def mean_speed(begin, end):
        inside = [s for b, s in zip(sp.begins, sp.speeds) if begin <= b < end]
        return statistics.fmean(inside) if inside else None

    ratios = []
    for interp, arr in spans:
        pair = mean_speed(*interp), mean_speed(*arr)
        if None not in pair:
            ratios.append(pair[1] / pair[0])
    assert len(ratios) > len(spans) // 2
    assert statistics.median(ratios) == pytest.approx(1.0, abs=0.05)
