"""Batch command-line front-end.

Subcommands
-----------
* ``w1``        - Wasserstein distance between two distributions, optionally
  with the optimal coupling and potential (CSV);
* ``curvature`` - pairwise coarse Ricci curvature and the summary constants
  (CSV);
* ``bounds``    - certified error-bound curves for an aggregation, optionally
  with the exact error (CSV);
* ``aggregate`` - build an aggregation and report its defect (JSON).

Models are single JSON documents (``--model file.json``) or built-ins
(``--builtin toy``, ``--builtin grid`` with ``--grid-*`` flags).  A model
holds ``n``, a ``generator`` (dense rows, or ``{"triplets": [[r, s, rate],
...]}``; the diagonal may be omitted) or a ``dtmc`` matrix, a ``metric`` spec
(``discrete`` / ``line`` / ``graph`` / ``explicit`` / ``product``), and
optionally ``partition``, ``alpha``, ``initial`` and an explicit
``aggregation``.

Output goes to stdout (data) and stderr (diagnostics).  CSV files carry
``#``-prefixed metadata lines, then a header row; every value is printed with
17 significant digits.  Exit codes: 0 success, 2 validation error, 3
numerical failure.

Distribution specs: ``dirac:<i>``, ``uniform``, ``uniform-block:<b>``,
``file:<path>`` (a JSON array).
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .aggregation import (
    Aggregation,
    Partition,
    epsilon_partition,
    partition_aggregation_ctmc,
    partition_aggregation_dtmc,
)
from .curvature import curvature_report
from .errors import NumericalFailure, WdboundsError
from .markov import Generator, ProbVec, TransitionMatrix, dirac
from .metric import (
    Metric,
    discrete_metric,
    line_metric,
    product_metric,
    shortest_path_metric,
    validate_metric,
)
from .models import Box, JumpDistribution, toy_ctmc, translation_invariant_ctmc
from .transport import SUPPORT_TOL, wasserstein

__all__ = ["main", "Model", "load_model", "load_model_dict"]


# --------------------------------------------------------------------------
# canonical JSON
# --------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """A float at 17 significant digits (round-trips exactly through JSON)."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"non-finite number {obj!r} cannot be serialized")
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {canonical_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --------------------------------------------------------------------------
# model files
# --------------------------------------------------------------------------


@dataclass
class Model:
    """A loaded model.

    ``chain`` is the model's CTMC :class:`Generator` or DTMC
    :class:`TransitionMatrix`, ``None`` when it declares neither.
    """

    n: int
    chain: Generator | TransitionMatrix | None = None
    metric: Metric | None = None
    partition: Partition | None = None
    alpha: list[np.ndarray] | None = None
    initial: ProbVec | None = None
    agg: Aggregation | None = None


def _typed(val, kind: type, what: str):
    """``val`` as a JSON object, array, integer or number (``kind`` is ``dict``,
    ``list``, ``int`` or ``float``); other values, booleans too, are refused."""
    types = {dict: dict, list: (list, tuple), int: numbers.Integral, float: numbers.Real}[kind]
    if isinstance(val, bool) or not isinstance(val, types):
        raise ValueError(f"{what} must be {kind.__name__}, got {val!r}")
    return kind(val) if kind in (int, float) else val


def _partition(doc) -> Partition:
    """Partition blocks as a JSON array of arrays of 1-based states."""
    blocks = [_typed(b, list, "partition block") for b in _typed(doc, list, "partition")]
    return Partition(tuple(tuple(_typed(v, int, "partition state") for v in b) for b in blocks))


def _float_array(val, ndim: int, what: str) -> np.ndarray:
    """``val``, ``ndim`` levels of JSON arrays of numbers, as a float array.

    Objects, strings, null, ragged rows and all-boolean arrays give numpy
    another dtype or shape than an ``ndim``-d array of numbers, and are refused.
    """
    try:
        arr = np.asarray(val)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        kind = "an array of numbers" if ndim == 1 else "a matrix of numbers with equal rows"
        raise ValueError(f"{what} must be {kind}")
    return arr.astype(float, copy=False)


def _float_matrix(val, rows: int, cols: int, what: str) -> np.ndarray:
    """A ``rows x cols`` :func:`_float_array`.  NaN and inf are refused by the
    object built from it: a generator, transition matrix, metric or ``A Lambda = I``."""
    mat = _float_array(val, 2, what)
    if mat.shape != (rows, cols):
        raise ValueError(f"{what} must be {rows}x{cols}, got shape {mat.shape}")
    return mat


def _matrix_doc(mat: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in mat]


def _parse_metric_spec(spec, n: int) -> Metric:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("metric spec must be an object with a 'kind' field")
    kind = spec["kind"]
    known_fields = {
        "discrete": {"kind"},
        "line": {"kind", "positions"},
        "graph": {"kind", "edges"},
        "explicit": {"kind", "dist"},
        "product": {"kind", "components"},
    }
    if not isinstance(kind, str) or kind not in known_fields:
        raise ValueError(f"unknown metric kind {kind!r}")
    unknown = set(spec) - known_fields[kind]
    if unknown:
        raise ValueError(f"unknown fields in {kind!r} metric spec: {sorted(unknown)}")
    if kind == "discrete":
        return discrete_metric(n)
    if kind == "line":
        positions = _typed(spec["positions"], list, "line positions")
        positions = [_typed(v, float, "line position") for v in positions]
        if len(positions) != n:
            raise ValueError(f"line metric needs {n} positions, got {len(positions)}")
        return line_metric(np.array(positions))
    if kind == "graph":
        edges = []
        for e in _typed(spec["edges"], list, "graph edges"):
            if len(_typed(e, list, "graph edge")) != 3:
                raise ValueError(f"graph edge must be [r, s, weight], got {e!r}")
            r, s, w = (_typed(v, typ, "graph edge entry") for v, typ in zip(e, (int, int, float)))
            edges.append((min(r, s), max(r, s), w))
        return shortest_path_metric(n, edges)
    if kind == "explicit":
        return validate_metric(_float_matrix(spec["dist"], n, n, "metric"))
    # product
    comps = []
    for comp in _typed(spec["components"], list, "product components"):
        if not isinstance(comp, dict) or "weight" not in comp or "n" not in comp:
            raise ValueError("product component must carry 'n', 'weight' and a metric spec")
        weight = _typed(comp["weight"], float, "component weight")
        sub_n = _typed(comp["n"], int, "component n")
        sub_spec = {k: v for k, v in comp.items() if k not in ("weight", "n")}
        comps.append((_parse_metric_spec(sub_spec, sub_n), weight))
    metric = product_metric(comps)
    if metric.n != n:
        raise ValueError(f"product metric has {metric.n} states but the model has {n}")
    return metric


def _parse_generator(val, n: int) -> Generator:
    if isinstance(val, dict):
        unknown = set(val) - {"triplets"}
        if unknown:
            raise ValueError(f"unknown generator fields: {sorted(unknown)}")
        q = np.zeros((n, n))
        seen = set()
        for t in _typed(val["triplets"], list, "triplets"):
            if len(_typed(t, list, "generator triplet")) != 3:
                raise ValueError(f"generator triplet must be [r, s, rate], got {t!r}")
            r, s, rate = (_typed(v, typ, "triplet entry") for v, typ in zip(t, (int, int, float)))
            if not (1 <= r <= n and 1 <= s <= n):
                raise ValueError(f"triplet index ({r},{s}) out of range 1..{n}")
            if (r, s) in seen:
                raise ValueError(f"duplicate generator triplet for ({r},{s})")
            seen.add((r, s))
            q[r - 1, s - 1] = rate
    else:
        q = _float_matrix(val, n, n, "generator")
    diag = np.diagonal(q)
    off_sums = q.sum(axis=1) - diag
    if np.allclose(diag, 0.0) and (off_sums > 0).any():
        q = q.copy()
        np.fill_diagonal(q, -off_sums)
    return Generator(q)


def load_model_dict(doc: dict) -> Model:
    """Validate a model document and return the loaded :class:`Model`."""
    if not isinstance(doc, dict):
        raise ValueError("model file must be a JSON object")
    known = {"n", "generator", "dtmc", "metric", "partition", "alpha", "initial", "aggregation"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown model fields: {sorted(unknown)}")
    if "n" not in doc:
        raise ValueError("model file must declare 'n'")
    n = _typed(doc["n"], int, "n")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    chain = None
    if "generator" in doc and "dtmc" in doc:
        raise ValueError("model declares both 'generator' and 'dtmc'")
    if "generator" in doc:
        chain = _parse_generator(doc["generator"], n)
    if "dtmc" in doc:
        chain = TransitionMatrix(_float_matrix(doc["dtmc"], n, n, "dtmc matrix"))

    metric = None
    if "metric" in doc:
        metric = _parse_metric_spec(doc["metric"], n)

    partition = None
    if "partition" in doc:
        partition = _partition(doc["partition"])
        if partition.n != n:
            raise ValueError(f"partition covers {partition.n} states but the model has {n}")

    alpha = None
    if "alpha" in doc:
        if partition is None:
            raise ValueError("'alpha' requires a 'partition'")
        blocks = _typed(doc["alpha"], list, "alpha")
        alpha = [_float_array(a, 1, "alpha block") for a in blocks]

    initial = None
    if "initial" in doc:
        vec = _float_array(doc["initial"], 1, "initial distribution")
        if vec.shape != (n,):
            raise ValueError(f"initial distribution must have {n} entries")
        initial = ProbVec(vec)

    agg = None
    if "aggregation" in doc:
        spec = _typed(doc["aggregation"], dict, "aggregation")
        unknown = set(spec) - {"a", "theta", "pi", "lam"}
        if unknown:
            raise ValueError(f"unknown aggregation fields: {sorted(unknown)}")
        if "a" not in spec:
            raise ValueError("explicit aggregation must carry 'a'")
        a = _float_array(spec["a"], 2, "aggregation matrix")
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(f"aggregation matrix must have {n} columns")
        m = a.shape[0]
        lam = None
        if "lam" in spec:
            lam = _float_matrix(spec["lam"], n, m, "lifting matrix")
        if "theta" in spec and "pi" in spec:
            raise ValueError(
                "aggregation carries both a CTMC generator (theta) and a DTMC matrix (pi)"
            )
        agg_chain = None
        if "theta" in spec:
            agg_chain = Generator(_float_matrix(spec["theta"], m, m, "aggregated generator"))
        if "pi" in spec:
            agg_chain = TransitionMatrix(_float_matrix(spec["pi"], m, m, "aggregated dtmc"))
        if chain is not None and agg_chain is not None and type(agg_chain) is not type(chain):
            have, want = ("pi", "generator") if isinstance(chain, Generator) else ("theta", "dtmc")
            raise ValueError(f"aggregation carries '{have}' but the model's chain is a '{want}'")
        agg = Aggregation(a=a, lam=lam, chain=agg_chain)

    return Model(
        n=n,
        chain=chain,
        metric=metric,
        partition=partition,
        alpha=alpha,
        initial=initial,
        agg=agg,
    )


def load_model(path: str) -> Model:
    """Load and validate a model JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return load_model_dict(doc)


# --------------------------------------------------------------------------
# shared CLI plumbing
# --------------------------------------------------------------------------


def _add_model_args(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="path to a model JSON file")
    src.add_argument("--builtin", choices=["toy", "grid"], help="use a built-in model")
    sub.add_argument("--grid-lo", default="0", help="grid builtin: comma-separated lower corner")
    sub.add_argument("--grid-hi", default="4", help="grid builtin: comma-separated upper corner")
    sub.add_argument("--grid-rate", type=float, default=1.0, help="grid builtin: jump rate")
    sub.add_argument(
        "--grid-jumps",
        default="[[[1], 0.5], [[-1], 0.5]]",
        help="grid builtin: JSON list of [offset-vector, probability] pairs",
    )
    sub.add_argument("--grid-root", type=int, default=None, help="grid builtin: root state")
    sub.add_argument(
        "--grid-root-rate", type=float, default=0.0, help="grid builtin: rate to the root"
    )


def _resolve_model(args) -> Model:
    """A model file, loaded and validated, or a built-in, whose constructor
    has already validated its generator and metric."""
    if args.model is not None:
        return load_model(args.model)
    if args.builtin == "toy":
        gen, metric = toy_ctmc()
        return Model(n=gen.n, chain=gen, metric=metric)
    lo = tuple(int(v) for v in args.grid_lo.split(","))
    hi = tuple(int(v) for v in args.grid_hi.split(","))
    support = []
    for jump in _typed(json.loads(args.grid_jumps), list, "--grid-jumps"):
        _require(len(_typed(jump, list, "jump")) == 2, f"jump {jump!r} is not [offset, p]")
        off = tuple(_typed(v, int, "jump offset") for v in _typed(jump[0], list, "jump offset"))
        support.append((off, _typed(jump[1], float, "jump probability")))
    jumps = JumpDistribution(tuple(support))
    gen, metric = translation_invariant_ctmc(
        Box(lo, hi), args.grid_rate, jumps, root=args.grid_root, root_rate=args.grid_root_rate
    )
    return Model(n=gen.n, chain=gen, metric=metric)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _parse_dist(spec: str, model: Model) -> ProbVec:
    n = model.n
    if spec == "uniform":
        return ProbVec(np.full(n, 1.0 / n))
    if spec.startswith("dirac:"):
        return dirac(n, int(spec.split(":", 1)[1]))
    if spec.startswith("uniform-block:"):
        _require(model.partition is not None, "uniform-block needs a model with a partition")
        b = int(spec.split(":", 1)[1])
        blocks = model.partition.blocks
        _require(1 <= b <= len(blocks), f"block index {b} out of range 1..{len(blocks)}")
        p = np.zeros(n)
        for r in blocks[b - 1]:
            p[r - 1] = 1.0 / len(blocks[b - 1])
        return ProbVec(p)
    if spec.startswith("file:"):
        with open(spec.split(":", 1)[1], encoding="utf-8") as fh:
            vec = _float_array(json.load(fh), 1, "distribution file")
        _require(vec.shape == (n,), f"distribution file must hold {n} entries")
        return ProbVec(vec)
    raise ValueError(
        f"unknown distribution spec {spec!r}; expected dirac:<i>, uniform, "
        "uniform-block:<b> or file:<path>"
    )


def _metadata_line(args, sub: str, keys: list[str]) -> str:
    parts = [f"# wdbounds {sub}"]
    parts.append(f"model={args.model if args.model else 'builtin:' + args.builtin}")
    for key in keys:
        parts.append(f"{key}={getattr(args, key.replace('-', '_'))}")
    return " ".join(parts)


def _emit_csv(lines: list[str]) -> None:
    sys.stdout.write("".join(line + "\n" for line in lines))


def _resolve_aggregation(model: Model, partition: Partition | None) -> Aggregation:
    """An aggregation from an explicit spec or a (possibly overriding) partition."""
    if partition is not None:
        _require(model.chain is not None, "aggregation needs a generator or a dtmc matrix")
        if isinstance(model.chain, Generator):
            return partition_aggregation_ctmc(model.chain, partition, model.alpha)
        return partition_aggregation_dtmc(model.chain, partition, model.alpha)
    if model.agg is not None:
        return model.agg
    if model.partition is not None:
        return _resolve_aggregation(model, model.partition)
    raise ValueError("model supplies neither a partition nor an explicit aggregation")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_w1(args) -> int:
    model = _resolve_model(args)
    _require(model.metric is not None, "w1 needs a model with a metric")
    p = _parse_dist(args.p, model)
    q = _parse_dist(args.q, model)
    result = wasserstein(p, q, model.metric, method=args.method)
    lines = [_metadata_line(args, "w1", ["p", "q", "method"]), "kind,r,s,value"]
    lines.append(f"w1,,,{_fmt(result.value)}")
    if args.coupling:
        gamma = result.coupling.gamma
        for r in range(model.n):
            for s in range(model.n):
                if gamma[r, s] > SUPPORT_TOL:
                    lines.append(f"coupling,{r + 1},{s + 1},{_fmt(gamma[r, s])}")
    if args.potential:
        for r in range(model.n):
            lines.append(f"potential,{r + 1},,{_fmt(result.potential.f[r])}")
    _emit_csv(lines)
    return 0


def _column_text(values: np.ndarray, nan_text: str, end: str) -> list[str]:
    """Each value's ``_fmt`` text (``nan_text`` for NaN) plus ``end``.

    Each distinct value other than NaN is formatted once and gathered back
    into place.
    """
    known = ~np.isnan(values)
    distinct, inverse = np.unique(values[known], return_inverse=True)
    text = [_fmt(v) + end for v in distinct.tolist()] + [nan_text + end]
    index = np.full(values.size, distinct.size)  # NaN: the last text
    index[known] = inverse
    return np.array(text, dtype=object)[index].tolist()


def _write_pair_rows(
    r: np.ndarray, s: np.ndarray, k: np.ndarray | None, kappa: np.ndarray | None
) -> None:
    """Write ``pair,r,s,k,kappa`` rows to stdout, one block per ``r``.

    ``k`` or ``kappa`` is ``None`` for an empty column; a NaN kappa (not
    solved) is written as an empty field.  Each column is formatted once,
    each distinct value once: k and kappa repeat a lot on symmetric walks.
    """
    states = np.array([f"{i}," for i in range(int(s.max(initial=0)) + 1)], dtype=object)
    s_text = states[s].tolist()
    k_text = [","] * len(r) if k is None else _column_text(k, "nan", ",")
    kappa_text = ["\n"] * len(r) if kappa is None else _column_text(kappa, "", "\n")
    cuts = [0, *(np.flatnonzero(np.diff(r)) + 1).tolist(), len(r)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # a row is "pair,<r>," "<s>," "<k>," "<kappa>\n"
        row_parts = [f"pair,{r[lo]},"] * (4 * (hi - lo))
        row_parts[1::4] = s_text[lo:hi]
        row_parts[2::4] = k_text[lo:hi]
        row_parts[3::4] = kappa_text[lo:hi]
        sys.stdout.write("".join(row_parts))


def _cmd_curvature(args) -> int:
    model = _resolve_model(args)
    _require(model.metric is not None, "curvature needs a model with a metric")
    _require(model.chain is not None, "curvature needs a generator or a dtmc matrix")
    if args.pairs in ("all", "min"):
        pairs: str | tuple[int, int] = args.pairs
    else:
        try:
            r, s = (int(v) for v in args.pairs.split(","))
        except ValueError:
            raise ValueError(f"--pairs must be 'all', 'min' or 'r,s', got {args.pairs!r}") from None
        pairs = (r, s)
    report = curvature_report(model.chain, model.metric, pairs=pairs, k_only=args.k_only)
    meta = _metadata_line(args, "curvature", ["pairs", "k_only"])
    _emit_csv([meta, "name,r,s,k,kappa"])
    _write_pair_rows(report.r, report.s, report.k, None if args.k_only else report.kappa)
    tail = []
    if report.k_min is not None:  # a CTMC: k_min and K_global come together
        tail += [f"k_min,,,{_fmt(report.k_min)},", f"K_global,,,{_fmt(report.K_global)},"]
    if report.kappa_min is not None:
        tail.append(f"kappa_min,,,,{_fmt(report.kappa_min)}")
    _emit_csv(tail)
    return 0


def _load_partition_file(path: str) -> Partition:
    with open(path, encoding="utf-8") as fh:
        return _partition(json.load(fh))


def _cmd_bounds(args) -> int:
    model = _resolve_model(args)
    _require(model.metric is not None, "bounds needs a model with a metric")
    _require(isinstance(model.chain, Generator), "bounds needs a CTMC model (a 'generator')")
    partition = _load_partition_file(args.partition_from_file) if args.partition_from_file else None
    agg = _resolve_aggregation(model, partition)
    if args.p0 is not None:
        p0 = _parse_dist(args.p0, model)
    else:
        _require(model.initial is not None, "bounds needs --p0 or a model 'initial'")
        p0 = model.initial
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    t = bounds_mod.time_grid(args.T, args.grid)
    curve = bounds_mod.compute_bound_curve(
        model.chain, model.metric, agg, p0, t, variants=variants, with_exact=args.exact
    )
    header = ["t"]
    if args.exact:
        header.append("exact")
    for name in variants:
        header += [f"{name}_raw", f"{name}_clipped"]
    lines = [
        _metadata_line(args, "bounds", ["T", "grid", "variants", "exact", "p0"]),
        ",".join(header),
    ]
    clipped = curve.clipped()
    columns = [curve.t]
    if args.exact:
        columns.append(curve.exact)
    for name in variants:
        columns += [curve.columns[name], clipped[name]]
    # one %-format per row writes what _fmt writes per cell; + 0.0 turns -0.0 into 0.0
    table = np.column_stack(columns) + 0.0
    row_format = ",".join(["%.17g"] * len(columns))
    lines += [row_format % tuple(row) for row in table.tolist()]
    _emit_csv(lines)
    return 0


def _cmd_aggregate(args) -> int:
    model = _resolve_model(args)
    if args.eps is not None:
        _require(model.metric is not None, "--eps needs a model with a metric")
        partition = epsilon_partition(model.metric, args.eps)
    elif args.partition_from_file:
        partition = _load_partition_file(args.partition_from_file)
    else:
        partition = None
    agg = _resolve_aggregation(model, partition)
    report: dict = {"m": agg.m, "n": agg.n, "a": _matrix_doc(agg.a)}
    src = partition if partition is not None else agg.partition
    if src is not None:
        report["partition"] = [list(b) for b in src.blocks]
    ctmc = isinstance(agg.chain, Generator)
    if agg.chain is not None:  # of the model's kind: the loader and the builders see to it
        report["theta" if ctmc else "pi"] = _matrix_doc(agg.chain.q if ctmc else agg.chain.p)
    if model.metric is not None and model.chain is not None and agg.chain is not None:
        v, norm = bounds_mod.defect(model.chain, model.metric, agg)
        report["defect_vector"] = [float(x) for x in v]
        report["defect_norm"] = norm
    sys.stdout.write(canonical_json(report) + "\n")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="wdbounds",
        description="Certified Wasserstein error bounds for aggregated Markov chains.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    w1 = subs.add_parser("w1", help="Wasserstein distance between two distributions")
    _add_model_args(w1)
    w1.add_argument("--p", required=True, help="first distribution spec")
    w1.add_argument("--q", required=True, help="second distribution spec")
    w1.add_argument("--coupling", action="store_true", help="emit the optimal coupling")
    w1.add_argument("--potential", action="store_true", help="emit the optimal potential")
    w1.add_argument(
        "--method", choices=["transport", "lp"], default="transport", help="solver route"
    )
    w1.set_defaults(func=_cmd_w1)

    curv = subs.add_parser("curvature", help="pairwise coarse Ricci curvature")
    _add_model_args(curv)
    curv.add_argument("--pairs", default="min", help="'all', 'min' or 'r,s'")
    curv.add_argument("--k-only", action="store_true", help="skip all exact curvature solves")
    curv.set_defaults(func=_cmd_curvature)

    bnd = subs.add_parser("bounds", help="certified error-bound curves")
    _add_model_args(bnd)
    bnd.add_argument("--T", type=float, default=1.0, help="time horizon")
    bnd.add_argument(
        "--grid", type=int, default=bounds_mod.GRID_POINTS, help="number of grid points"
    )
    bnd.add_argument(
        "--variants",
        default=",".join(bounds_mod.DEFAULT_VARIANTS),
        help="comma list of " + ",".join(bounds_mod.VARIANTS),
    )
    bnd.add_argument("--exact", action="store_true", help="also compute the exact error")
    bnd.add_argument("--p0", default=None, help="initial distribution spec")
    bnd.add_argument(
        "--partition-from-file", default=None, help="JSON file with partition blocks"
    )
    bnd.set_defaults(func=_cmd_bounds)

    agg = subs.add_parser("aggregate", help="build an aggregation and report its defect")
    _add_model_args(agg)
    group = agg.add_mutually_exclusive_group()
    group.add_argument("--eps", type=float, default=None, help="epsilon for metric clustering")
    group.add_argument(
        "--partition-from-file", default=None, help="JSON file with partition blocks"
    )
    agg.set_defaults(func=_cmd_aggregate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except WdboundsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
