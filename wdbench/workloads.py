"""The four benchmark workloads: inputs made from a seed, operations, checks.

A workload is built from ``(seed, workdir)``; building it is the set-up
that ``setup_s`` times.  ``ops`` lists ``(label, callable)`` pairs; one pass
calls each once, in order.  ``check(label, output)`` compares an output with
a reference computed by :mod:`oracle` (scipy, imported only when checking)
and returns the problems found, an empty list when the output is right.

The seed changes the numbers a workload feeds in, but not the shape of its
problems: it relabels states, reorders the states listed in blocks, sets a
horizon, or rescales rates together with the time unit.  The work in a pass
therefore hardly depends on the seed, so the spread of a metric over runs
with different seeds is the machine's noise, not a change of input size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

# calls go through the module objects, so the tracer's patches see them
from wdbounds import aggregation, bounds, cli, metric, models
from wdbounds.aggregation import Partition
from wdbounds.markov import Generator, ProbVec, dirac
from wdbounds.models import Box, JumpDistribution

__all__ = ["WORKLOADS", "make", "fingerprint", "run_cli"]

#: All seven bound variants.
ALL_VARIANTS = ("linear", "timevarying", "exp-k", "exp-kappa", "local", "hybrid", "hybrid-kappa")
#: Instance seeds of the soundness batch (the C06 acceptance test starts at 60_000);
#: twelve from here make a pass of about 6 s on the reference machine.
SOUNDNESS_BASE = 90_012
SOUNDNESS_COUNT = 12
#: 2-D grids as (side, block side): 8x8 in 2x2 blocks and 9x9 in 3x3 blocks.
GRIDS = ((8, 2), (9, 3))
#: Nearest-neighbour jumps of a 2-D box walk.
JUMPS_2D = [[[1, 0], 0.25], [[-1, 0], 0.25], [[0, 1], 0.25], [[0, -1], 0.25]]
#: Jumps +-1 and +-2 of the line walk.
JUMPS_LINE = [[[1], 0.25], [[-1], 0.25], [[2], 0.25], [[-2], 0.25]]
LINE_STATES = 24
ROOT_RATE = 0.05
BOX_SIDE = 20
#: Times (in units of the walk's own rate) at which the exact curve is evaluated.
EXACT_TIMES = (0.5, 1.0, 1.5, 2.0)
#: Tolerances of the checks: values computed by two exact methods, and a
#: bound that must not fall below the exact error.
EXACT_TOL = 1e-7
SOUND_TOL = 1e-6


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _random_partition(rng: np.random.Generator, n: int) -> tuple[tuple[int, ...], ...]:
    """Random blocks of a random count, as the C06 acceptance test draws them."""
    n_blocks = int(rng.integers(1, n + 1))
    perm = rng.permutation(n) + 1
    if n_blocks == 1:
        blocks = [perm]
    else:
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
        blocks = np.split(perm, cuts)
    return tuple(tuple(sorted(int(v) for v in b)) for b in blocks)


def _grid_blocks(side: int, block: int) -> list[list[int]]:
    """Square blocks of a ``side x side`` grid, states numbered row by row from 1."""
    return [
        [i * side + j + 1 for i in range(bi, bi + block) for j in range(bj, bj + block)]
        for bi in range(0, side, block)
        for bj in range(0, side, block)
    ]


def run_cli(argv: list[str]) -> str:
    """Run ``wdbounds`` in-process and return its standard output.

    A non-zero exit code raises, so the op counts as failed.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wdbounds {argv[0]} exited with code {code}")
    return buf.getvalue()


def fingerprint(output) -> str:
    """A digest of an op's output, so each distinct output is checked once."""
    h = hashlib.sha256()
    if isinstance(output, str):
        h.update(output.encode())
    elif isinstance(output, np.ndarray):
        h.update(np.ascontiguousarray(output).tobytes())
    else:  # BoundCurve
        h.update(output.t.tobytes())
        h.update(b"" if output.exact is None else output.exact.tobytes())
        for name in sorted(output.columns):
            h.update(name.encode())
            h.update(output.columns[name].tobytes())
    return h.hexdigest()


def _close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


class SoundnessBatch:
    """Random n<=10 aggregations, all seven variants plus the exact curve."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.t = np.linspace(0.0, 2.0, 7)
        self.instances = []
        self.ops = []
        for i in range(SOUNDNESS_COUNT):
            rng = np.random.default_rng(SOUNDNESS_BASE + i)
            n = int(rng.integers(3, 11))
            kind = ("line", "graph", "discrete")[int(rng.integers(0, 3))]
            gen, met, p0 = models.random_instance(n, SOUNDNESS_BASE + i, metric_kind=kind)
            blocks = _random_partition(rng, n)
            # the seed relabels the states: new state k is old state order[k]
            order = np.random.default_rng([seed, i]).permutation(n)
            new_label = np.empty(n, dtype=int)
            new_label[order] = np.arange(1, n + 1)
            q = gen.q[np.ix_(order, order)]
            dist = met.dist[np.ix_(order, order)]
            inst = {
                "q": q,
                "dist": dist,
                "p0": p0.p[order],
                "blocks": tuple(tuple(sorted(int(new_label[j - 1]) for j in b)) for b in blocks),
            }
            inst["gen"] = Generator(q)
            inst["metric"] = metric.validate_metric(dist)
            inst["p0_vec"] = ProbVec(inst["p0"])
            inst["agg"] = aggregation.partition_aggregation_ctmc(inst["gen"], Partition(inst["blocks"]))
            self.instances.append(inst)
            self.ops.append((f"instance{i}", self._op(inst)))

    def _op(self, inst):
        def op():
            return bounds.compute_bound_curve(
                inst["gen"],
                inst["metric"],
                inst["agg"],
                inst["p0_vec"],
                self.t,
                variants=ALL_VARIANTS,
                with_exact=True,
            )

        return op

    def check(self, label: str, curve) -> list[str]:
        import oracle

        inst = self.instances[int(label.removeprefix("instance"))]
        n = len(inst["p0"])
        a = oracle.uniform_disaggregation(inst["blocks"], n)
        lam = oracle.membership(inst["blocks"], n)
        theta = a @ inst["q"] @ lam
        pi0 = inst["p0"] @ lam
        ref = np.array(
            [
                oracle.w1(
                    oracle.transient(pi0, theta, t) @ a,
                    oracle.transient(inst["p0"], inst["q"], t),
                    inst["dist"],
                )
                for t in self.t
            ]
        )
        problems = []
        if curve.exact is None or not _close(curve.exact, ref, EXACT_TOL):
            problems.append(f"{label}: exact curve {curve.exact} differs from expm+HiGHS {ref}")
        for name in ALL_VARIANTS:
            vals = curve.columns.get(name)
            if vals is None or vals.shape != ref.shape:
                problems.append(f"{label}: variant {name} missing")
            elif float((vals - ref).min()) < -SOUND_TOL:
                problems.append(f"{label}: {name} falls {float((ref - vals).max()):.3g} below the exact error")
        return problems


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class GridDefect:
    """``wdbounds bounds`` on 2-D box walks, called through ``cli.main``."""

    def __init__(self, seed: int, workdir: str) -> None:
        # The seed sets the horizon and the order of the states listed in
        # each block, neither of which changes the work.  Reordering the
        # blocks or rescaling the rates would: the defect rows carry rounding
        # residue that the transport kernel pivots on (2122 to 2423 pivots
        # for the same 8x8 defect).
        rng = np.random.default_rng(seed)
        self.cases = {}
        self.ops = []
        for side, block in GRIDS:
            horizon = _log_uniform(rng, 1.0, 4.0)
            blocks = [[int(v) for v in rng.permutation(b)] for b in _grid_blocks(side, block)]
            path = os.path.join(workdir, f"grid_defect_{side}x{side}_partition.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(blocks, fh)
            argv = [
                "bounds", "--builtin", "grid",
                "--grid-lo", "0,0", "--grid-hi", f"{side - 1},{side - 1}",
                "--grid-jumps", json.dumps(JUMPS_2D),
                "--partition-from-file", path,
                "--p0", "dirac:1", "--T", repr(horizon), "--grid", "200",
            ]  # fmt: skip
            label = f"grid{side}"
            self.cases[label] = dict(side=side, horizon=horizon, blocks=blocks)
            self.ops.append((label, lambda argv=argv: run_cli(argv)))

    def check(self, label: str, text: str) -> list[str]:
        import oracle

        case = self.cases[label]
        side = case["side"]
        n = side * side
        q, dist = oracle.box_walk((side, side), 1.0, JUMPS_2D)
        a = oracle.uniform_disaggregation(case["blocks"], n)
        lam = oracle.membership(case["blocks"], n)
        theta = a @ q @ lam
        b = max(oracle.w1_signed(row, dist) for row in theta @ a - a @ q)
        p0 = np.zeros(n)
        p0[0] = 1.0
        w0 = oracle.w1((p0 @ lam) @ a, p0, dist)
        big_k = oracle.K_global(q, dist)
        kmin = oracle.k_min(q, dist)
        d_max = float(dist.max())

        header, rows = _parse_csv(text)
        want = ["t"] + [f"{v}_{c}" for v in ("linear", "exp-k", "hybrid") for c in ("raw", "clipped")]
        if header != want or len(rows) != 200:
            return [f"{label}: unexpected table shape {header} x {len(rows)}"]
        cols = dict(zip(header, np.array(rows, dtype=float).T))
        t = cols["t"]
        problems = []
        if not _close(t, np.linspace(0.0, case["horizon"], 200), 1e-12):
            problems.append(f"{label}: time grid is not 200 points on [0, T]")
        if not _close(cols["linear_raw"], w0 + t * (b + big_k), EXACT_TOL):
            slope = (cols["linear_raw"][-1] - cols["linear_raw"][0]) / t[-1]
            problems.append(
                f"{label}: linear bound W0={cols['linear_raw'][0]!r}, slope={slope!r}; "
                f"reference W0={w0!r}, B+K={b + big_k!r}"
            )
        exp_ref = w0 + b * t if kmin == 0 else (w0 - b / kmin) * np.exp(-kmin * t) + b / kmin
        if not _close(cols["exp-k_raw"], exp_ref, EXACT_TOL):
            problems.append(f"{label}: exp-k bound differs from (W0 - B/k) e^(-kt) + B/k")
        if (cols["hybrid_raw"] > np.minimum(cols["linear_raw"], cols["exp-k_raw"]) + EXACT_TOL).any():
            problems.append(f"{label}: hybrid bound exceeds min(linear, exp-k)")
        for v in ("linear", "exp-k", "hybrid"):
            raw, clipped = cols[f"{v}_raw"], cols[f"{v}_clipped"]
            if (clipped > np.minimum(raw, d_max) + 1e-12 * max(1.0, d_max)).any():
                problems.append(f"{label}: {v}_clipped exceeds min({v}_raw, d_max={d_max!r})")
        return problems


class GridExact:
    """``exact_error_curve`` on the same 2-D grids from a corner point mass."""

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.cases = {}
        self.ops = []
        jumps = JumpDistribution(tuple((tuple(off), p) for off, p in JUMPS_2D))
        for side, block in GRIDS:
            # the seed sets the rate and with it the time unit, so the grid
            # points fall at the same multiples of the walk's own time scale
            rate = _log_uniform(rng, 1.0, 2.0)
            t = np.array(EXACT_TIMES) / rate
            blocks = _grid_blocks(side, block)
            blocks = [blocks[i] for i in rng.permutation(len(blocks))]
            box = Box((0, 0), (side - 1, side - 1))
            gen, met = models.translation_invariant_ctmc(box, rate, jumps)
            agg = aggregation.partition_aggregation_ctmc(gen, Partition(tuple(tuple(b) for b in blocks)))
            p0 = dirac(gen.n, 1)
            label = f"grid{side}"
            self.cases[label] = dict(side=side, rate=rate, blocks=blocks, t=t)
            self.ops.append(
                (label, lambda p0=p0, gen=gen, met=met, agg=agg, t=t: bounds.exact_error_curve(p0, gen, met, agg, t))
            )

    def check(self, label: str, values) -> list[str]:
        import oracle

        case = self.cases[label]
        side = case["side"]
        n = side * side
        q, dist = oracle.box_walk((side, side), case["rate"], JUMPS_2D)
        a = oracle.uniform_disaggregation(case["blocks"], n)
        lam = oracle.membership(case["blocks"], n)
        theta = a @ q @ lam
        p0 = np.zeros(n)
        p0[0] = 1.0
        ref = np.array(
            [
                oracle.w1(oracle.transient(p0 @ lam, theta, t) @ a, oracle.transient(p0, q, t), dist)
                for t in case["t"]
            ]
        )
        if not _close(values, ref, EXACT_TOL):
            return [f"{label}: exact curve {values} differs from expm+HiGHS {ref}"]
        return []


class CurvatureCli:
    """``wdbounds curvature`` on a line walk (plain and rooted) and a 20x20 box."""

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        rate = _log_uniform(rng, 1.0, 1.25)
        line = [
            "curvature", "--builtin", "grid", "--grid-lo", "0", "--grid-hi", str(LINE_STATES - 1),
            "--grid-jumps", json.dumps(JUMPS_LINE), "--grid-rate", repr(rate), "--pairs", "min",
        ]  # fmt: skip
        rooted = line + ["--grid-root", "1", "--grid-root-rate", repr(ROOT_RATE * rate)]
        box = [
            "curvature", "--builtin", "grid", "--grid-lo", "0,0",
            "--grid-hi", f"{BOX_SIDE - 1},{BOX_SIDE - 1}",
            "--grid-jumps", json.dumps(JUMPS_2D), "--grid-rate", repr(rate), "--k-only",
        ]  # fmt: skip
        self.rate = rate
        self.ops = [
            ("line_min", lambda: run_cli(line)),
            ("line_rooted_min", lambda: run_cli(rooted)),
            ("box_k_only", lambda: run_cli(box)),
        ]

    def _model(self, label: str):
        import oracle

        if label == "box_k_only":
            return oracle.box_walk((BOX_SIDE, BOX_SIDE), self.rate, JUMPS_2D)
        root = 1 if label == "line_rooted_min" else None
        return oracle.box_walk((LINE_STATES,), self.rate, JUMPS_LINE, root, ROOT_RATE * self.rate)

    def check(self, label: str, text: str) -> list[str]:
        import oracle

        q, dist = self._model(label)
        n = len(q)
        header, rows = _parse_csv(text)
        if header != ["name", "r", "s", "k", "kappa"]:
            return [f"{label}: unexpected header {header}"]
        pairs = [row for row in rows if row[0] == "pair"]
        summary = {row[0]: row for row in rows if row[0] != "pair"}
        problems = []
        if len(pairs) != n * (n - 1) // 2:
            problems.append(f"{label}: {len(pairs)} pair rows, expected {n * (n - 1) // 2}")
        kmat = oracle.k_matrix(q, dist)
        idx = np.array([[int(row[1]) - 1, int(row[2]) - 1] for row in pairs])
        k_out = np.array([float(row[3]) for row in pairs])
        if pairs and not _close(k_out, kmat[idx[:, 0], idx[:, 1]], 1e-9):
            problems.append(f"{label}: pairwise k differs from the closed form")
        if "k_min" not in summary or not _close(float(summary["k_min"][3]), oracle.k_min(q, dist), 1e-9):
            problems.append(f"{label}: k_min differs from the closed form")
        if "K_global" not in summary or not _close(
            float(summary["K_global"][3]), oracle.K_global(q, dist), 1e-9
        ):
            problems.append(f"{label}: K_global differs from the closed form")
        if label == "box_k_only":
            if any(row[4] for row in pairs) or "kappa_min" in summary:
                problems.append(f"{label}: --k-only reported curvature values")
            return problems

        kappa = oracle.kappa_all(q, dist)
        reported = {(int(row[1]), int(row[2])): (float(row[3]), float(row[4])) for row in pairs if row[4]}
        if not reported:
            problems.append(f"{label}: no pair carries an exact curvature")
        for (r, s), (k, kap) in reported.items():
            if kap < k - EXACT_TOL * max(1.0, abs(k)):
                problems.append(f"{label}: kappa({r},{s})={kap!r} is below k={k!r}")
            if not _close(kap, kappa[(r, s)], EXACT_TOL):
                problems.append(f"{label}: kappa({r},{s})={kap!r}, HiGHS gives {kappa[(r, s)]!r}")
        ref_min = min(kappa.values())
        if "kappa_min" not in summary:
            problems.append(f"{label}: no kappa_min line")
        else:
            kap_min = float(summary["kappa_min"][4])
            if not _close(kap_min, ref_min, EXACT_TOL):
                problems.append(f"{label}: kappa_min={kap_min!r}, HiGHS minimum over all pairs {ref_min!r}")
            if label == "line_min" and kap_min < -1e-7:
                problems.append(f"{label}: kappa_min={kap_min!r} is negative on a box walk")
        return problems


WORKLOADS = {
    "soundness_batch": SoundnessBatch,
    "grid_defect": GridDefect,
    "grid_exact": GridExact,
    "curvature_cli": CurvatureCli,
}


def make(name: str, seed: int, workdir: str):
    """Build the named workload's inputs from ``seed``."""
    return WORKLOADS[name](seed, workdir)
