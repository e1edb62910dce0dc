"""End-to-end tests of the command-line front-end.

Each test drives :func:`wdbounds.cli.main` in-process and parses the CSV/JSON
it writes to stdout.  Reference numbers are the same hand-verified anchors
used by the library tests (the six-state line example, the three-state chain
and its uniformization).
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wdbounds._kernels as kernels_mod
import wdbounds.bounds as bounds_mod
import wdbounds.cli as cli_mod
import wdbounds.metric as metric_mod
import wdbounds.models as models_mod
from wdbounds.cli import (
    _fmt,
    _write_pair_rows,
    load_model,
    main,
)
from wdbounds.errors import NumericalFailure
from wdbounds.aggregation import Partition, partition_aggregation_dtmc
from wdbounds.markov import Generator, TransitionMatrix, uniformize
from wdbounds.metric import (
    discrete_metric,
    irreducible_pairs,
    line_metric,
    product_metric,
    validate_metric,
)
from wdbounds.models import random_instance

TOY_Q = [
    [-1.0, 0.0, 1.0],
    [1.0, -4.0, 3.0],
    [0.0, 2.0, -2.0],
]
TOY_D = [
    [0.0, 1.0, 5.0],
    [1.0, 0.0, 4.0],
    [5.0, 4.0, 0.0],
]
# uniformization of TOY_Q at rate 4
TOY_P = [
    [0.75, 0.0, 0.25],
    [0.25, 0.0, 0.75],
    [0.0, 0.5, 0.5],
]

LINE6_POS = [0.0, 2.0, 3.0, 4.5, 6.0, 7.0]
P6 = [0.35, 0.25, 0.05, 0.25, 0.1, 0.0]
Q6 = [0.2, 0.45, 0.05, 0.0, 0.05, 0.25]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out: str) -> tuple[list[str], list[str], list[list[str]]]:
    lines = out.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return meta, header, rows


@pytest.fixture()
def toy_model(tmp_path):
    doc = {
        "n": 3,
        "generator": TOY_Q,
        "metric": {"kind": "explicit", "dist": TOY_D},
        "partition": [[1, 2], [3]],
        "initial": [0.5, 0.5, 0.0],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def line6_model(tmp_path):
    doc = {"n": 6, "metric": {"kind": "line", "positions": LINE6_POS}}
    path = tmp_path / "line6.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def dtmc_model(tmp_path):
    doc = {"n": 3, "dtmc": TOY_P, "metric": {"kind": "explicit", "dist": TOY_D}}
    path = tmp_path / "dtmc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _dist_file(tmp_path, name: str, vec) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(list(vec)))
    return f"file:{path}"


def test_w1_line_example(capsys, tmp_path, line6_model) -> None:
    p_spec = _dist_file(tmp_path, "p.json", P6)
    q_spec = _dist_file(tmp_path, "q.json", Q6)
    code, out, err = run_cli(
        capsys,
        "w1",
        "--model",
        line6_model,
        "--p",
        p_spec,
        "--q",
        q_spec,
        "--coupling",
        "--potential",
    )
    assert code == 0, err
    meta, header, rows = parse_csv(out)
    assert meta[0].startswith("# wdbounds w1")
    assert header == ["kind", "r", "s", "value"]

    value = float(next(r[3] for r in rows if r[0] == "w1"))
    assert value == pytest.approx(0.975, abs=1e-12)

    dist = np.abs(np.subtract.outer(LINE6_POS, LINE6_POS))
    gamma = np.zeros((6, 6))
    for kind, r, s, v in rows:
        if kind == "coupling":
            gamma[int(r) - 1, int(s) - 1] = float(v)
    np.testing.assert_allclose(gamma.sum(axis=1), P6, atol=1e-9)
    np.testing.assert_allclose(gamma.sum(axis=0), Q6, atol=1e-9)
    assert float(np.sum(gamma * dist)) == pytest.approx(value, abs=1e-9)
    # one-sided coupling: no state both sends and receives mass
    off = gamma - np.diag(np.diag(gamma))
    assert not np.any((off.sum(axis=1) > 1e-10) & (off.sum(axis=0) > 1e-10))

    f = np.zeros(6)
    for kind, r, _, v in rows:
        if kind == "potential":
            f[int(r) - 1] = float(v)
    # the potential certifies the same value and is 1-Lipschitz
    assert float(f @ (np.array(P6) - np.array(Q6))) == pytest.approx(value, abs=1e-9)
    assert np.all(np.abs(f[:, None] - f[None, :]) <= dist + 1e-9)

    # the generic LP route reports the same distance
    code2, out2, _ = run_cli(
        capsys, "w1", "--model", line6_model, "--p", p_spec, "--q", q_spec, "--method", "lp"
    )
    assert code2 == 0
    _, _, rows2 = parse_csv(out2)
    assert float(rows2[0][3]) == pytest.approx(value, abs=1e-9)


def test_w1_identical_distributions(capsys, toy_model) -> None:
    code, out, _ = run_cli(
        capsys, "w1", "--model", toy_model, "--p", "uniform", "--q", "uniform"
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][3]) == 0.0


def test_w1_errors_exit_two(capsys, tmp_path, toy_model) -> None:
    bad = _dist_file(tmp_path, "bad.json", [0.5, 0.5])  # wrong length
    code, _, err = run_cli(capsys, "w1", "--model", toy_model, "--p", bad, "--q", "uniform")
    assert code == 2
    assert "ValueError" in err

    code, _, err = run_cli(
        capsys, "w1", "--model", toy_model, "--p", "dirac:7", "--q", "uniform"
    )
    assert code == 2
    assert "IndexOutOfRange" in err

    code, _, err = run_cli(
        capsys, "w1", "--model", toy_model, "--p", "gaussian", "--q", "uniform"
    )
    assert code == 2
    assert "unknown distribution spec" in err


def test_curvature_toy_table(capsys, toy_model) -> None:
    code, out, err = run_cli(capsys, "curvature", "--model", toy_model, "--pairs", "all")
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert header == ["name", "r", "s", "k", "kappa"]
    table = {(int(r[1]), int(r[2])): (float(r[3]), float(r[4])) for r in rows if r[0] == "pair"}
    expected = {(1, 2): (-14.0, -6.0), (1, 3): (2.6, 2.6), (2, 3): (4.75, 4.75)}
    assert set(table) == set(expected)
    for pair, (k, kap) in expected.items():
        assert table[pair][0] == pytest.approx(k, abs=1e-9)
        assert table[pair][1] == pytest.approx(kap, abs=1e-9)
    summary = {r[0]: r for r in rows if r[0] != "pair"}
    assert float(summary["k_min"][3]) == pytest.approx(-14.0, abs=1e-9)
    assert float(summary["K_global"][3]) == pytest.approx(14.0, abs=1e-9)
    assert float(summary["kappa_min"][4]) == pytest.approx(-6.0, abs=1e-9)


def test_curvature_single_pair_and_k_only(capsys, toy_model) -> None:
    code, out, _ = run_cli(capsys, "curvature", "--model", toy_model, "--pairs", "3,2")
    assert code == 0
    _, _, rows = parse_csv(out)
    pair_rows = [r for r in rows if r[0] == "pair"]
    assert len(pair_rows) == 1
    assert (int(pair_rows[0][1]), int(pair_rows[0][2])) == (2, 3)
    assert float(pair_rows[0][4]) == pytest.approx(4.75, abs=1e-9)

    code, out, _ = run_cli(capsys, "curvature", "--model", toy_model, "--pairs", "all", "--k-only")
    assert code == 0
    _, _, rows = parse_csv(out)
    for r in rows:
        if r[0] == "pair":
            assert r[4] == ""  # no curvature LPs were run
    assert not any(r[0] == "kappa_min" for r in rows)


def test_curvature_dtmc_model(capsys, dtmc_model) -> None:
    code, out, err = run_cli(capsys, "curvature", "--model", dtmc_model, "--pairs", "all")
    assert code == 0, err
    _, _, rows = parse_csv(out)
    table = {(int(r[1]), int(r[2])): float(r[4]) for r in rows if r[0] == "pair"}
    assert table[(1, 2)] == pytest.approx(-1.5, abs=1e-9)
    assert table[(1, 3)] == pytest.approx(0.65, abs=1e-9)
    assert table[(2, 3)] == pytest.approx(0.6875, abs=1e-9)
    kmin = next(float(r[4]) for r in rows if r[0] == "kappa_min")
    assert kmin == pytest.approx(-1.5, abs=1e-9)

    code, _, err = run_cli(
        capsys, "curvature", "--model", dtmc_model, "--pairs", "all", "--k-only"
    )
    assert code == 2
    # k_matrix's own refusal: a DTMC has no k
    assert err == "ValueError: k and the bounds need a CTMC generator, got TransitionMatrix\n"


@pytest.mark.parametrize("seed", range(12))
def test_dtmc_curvature_min_matches_all(capsys, tmp_path, seed) -> None:
    """--pairs min solves the irreducible pairs only, with the same values
    and the same minimum as --pairs all."""
    kind = ("line", "graph", "discrete", "integer_line")[seed % 4]
    n = 3 + seed % 6
    gen, metric, _ = random_instance(n, 500 + seed, metric_kind=kind.replace("integer_", ""))
    dist = metric.dist
    if kind == "integer_line":
        dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    pmat, _ = uniformize(gen)
    doc = {"n": n, "dtmc": pmat.p.tolist(), "metric": {"kind": "explicit", "dist": dist.tolist()}}
    path = tmp_path / "dtmc.json"
    path.write_text(json.dumps(doc))
    tables = {}
    for mode in ("all", "min"):
        code, out, err = run_cli(capsys, "curvature", "--model", str(path), "--pairs", mode)
        assert code == 0, err
        _, _, rows = parse_csv(out)
        pairs = [r for r in rows if r[0] == "pair"]
        assert [(int(r[1]), int(r[2])) for r in pairs] == [
            (r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)
        ]
        tables[mode] = [r[4] for r in pairs] + [next(r[4] for r in rows if r[0] == "kappa_min")]
    solved = irreducible_pairs(validate_metric(dist))
    assert [v != "" for v in tables["min"][:-1]] == solved.tolist()
    for full, reduced, keep in zip(tables["all"], tables["min"], solved):
        if keep:
            assert reduced == full
    full_min, reduced_min = float(tables["all"][-1]), float(tables["min"][-1])
    assert abs(reduced_min - full_min) <= 1e-12 * (1.0 + abs(full_min))
    if kind == "integer_line":
        assert solved.sum() == n - 1


def test_curvature_single_state_exits_two(capsys, tmp_path) -> None:
    path = tmp_path / "one.json"
    for chain in ({"generator": [[0.0]]}, {"dtmc": [[1.0]]}):
        path.write_text(json.dumps({"n": 1, **chain, "metric": {"kind": "discrete"}}))
        code, _, err = run_cli(capsys, "curvature", "--model", str(path), "--pairs", "min")
        assert code == 2, chain
        assert err.startswith("SingleState"), err


@pytest.mark.parametrize("model", ["toy_model", "dtmc_model"])
def test_curvature_pair_order_does_not_matter(capsys, request, model) -> None:
    """``--pairs 3,2`` prints the row of ``2,3``; only the metadata line,
    which echoes the command line, differs.  One pair's kappa is not the
    chain's least curvature, so neither prints a ``kappa_min`` row."""
    path = request.getfixturevalue(model)
    printed = []
    for pair in ("3,2", "2,3"):
        code, out, err = run_cli(capsys, "curvature", "--model", path, "--pairs", pair)
        assert code == 0, err
        assert out.startswith(f"# wdbounds curvature model={path} pairs={pair} ")
        printed.append(out.split("\n", 1)[1])
    assert printed[0] == printed[1]
    assert "\npair,2,3," in printed[0]
    assert "\nkappa_min," not in printed[0]


@pytest.mark.parametrize("pairs", ["1,2,3", "2", "1,x", ""])
def test_curvature_malformed_pairs_exit_two(capsys, pairs) -> None:
    code, out, err = run_cli(capsys, "curvature", "--builtin", "toy", "--pairs", pairs)
    assert code == 2 and out == ""
    assert err == f"ValueError: --pairs must be 'all', 'min' or 'r,s', got {pairs!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--builtin", "toy", "--margin", "1"],
        ["bounds", "--builtin", "toy", "--margin", "1"],
        ["w1", "--builtin", "toy", "--p", "dirac:1", "--q", "dirac:2", "--canonical"],
    ],
)
def test_removed_flags_are_rejected(capsys, argv) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: values that repeat, -0.0, NaN and infinities, plus arbitrary floats
PAIR_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.25, 1 / 3, 1e-300, np.nan, np.inf]), st.floats()
)


@st.composite
def pair_tables(draw):
    """Row-major ``r < s`` pairs of up to 7 states, with k (or None) and kappa columns."""
    n = draw(st.integers(2, 7))
    all_pairs = [(r, s) for r in range(1, n) for s in range(r + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
    r, s = (np.array(col) for col in zip(*sorted(chosen)))
    k = draw(st.none() | st.lists(PAIR_VALUES, min_size=r.size, max_size=r.size))
    kappa = draw(st.lists(PAIR_VALUES, min_size=r.size, max_size=r.size))
    return r, s, None if k is None else np.array(k), np.array(kappa)


@settings(max_examples=200, deadline=None)
@given(pair_tables())
def test_pair_rows_match_a_plain_writer(table) -> None:
    r, s, k, kappa = table
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_pair_rows(r, s, k, kappa)
    k_col = [None] * r.size if k is None else k.tolist()
    expected = "".join(
        f"pair,{a},{b},{'' if kv is None else _fmt(kv)},{'' if kap != kap else _fmt(kap)}\n"
        for a, b, kv, kap in zip(r.tolist(), s.tolist(), k_col, kappa.tolist())
    )
    assert out.getvalue() == expected


def _subcommand_argv(toy_model: str) -> dict[str, list[str]]:
    return {
        "w1": ["w1", "--model", toy_model, "--p", "dirac:1", "--q", "dirac:3", "--coupling"],
        "curvature": ["curvature", "--model", toy_model, "--pairs", "all"],
        "bounds": ["bounds", "--model", toy_model, "--T", "0.5", "--grid", "3", "--exact"],
        "aggregate": ["aggregate", "--model", toy_model],
    }


def test_one_parser_per_process(capsys, toy_model) -> None:
    cli_mod.build_parser.cache_clear()
    for argv in _subcommand_argv(toy_model).values():
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    info = cli_mod.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("command", ["w1", "curvature", "bounds", "aggregate"])
def test_argparse_failure_leaves_the_parser_unchanged(capsys, toy_model, command) -> None:
    argv = _subcommand_argv(toy_model)[command]
    code, first, err = run_cli(capsys, *argv)
    assert code == 0, err
    # the failing call sets every option it can before argparse rejects it
    bad = {
        "w1": ["--potential", "--method", "lp", "--p", "uniform"],
        "curvature": ["--k-only", "--pairs", "1,2"],
        "bounds": ["--T", "2", "--grid", "9", "--variants", "linear", "--p0", "dirac:2"],
        "aggregate": ["--eps", "0.5"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + bad + ["--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, second, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert second == first


def test_bounds_csv(capsys, tmp_path, toy_model) -> None:
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--model",
        toy_model,
        "--T",
        "1.0",
        "--grid",
        "5",
        "--variants",
        "linear,exp-k,hybrid",
        "--exact",
    )
    assert code == 0, err
    _, header, rows = parse_csv(out)
    assert header == [
        "t",
        "exact",
        "linear_raw",
        "linear_clipped",
        "exp-k_raw",
        "exp-k_clipped",
        "hybrid_raw",
        "hybrid_clipped",
    ]
    t = np.array([float(r[0]) for r in rows])
    np.testing.assert_allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0])
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    np.testing.assert_allclose(cols["linear_raw"], 15.0 * t, atol=1e-9)
    np.testing.assert_allclose(cols["exp-k_raw"], (np.exp(14.0 * t) - 1.0) / 14.0, rtol=1e-9)
    assert np.all(cols["exp-k_clipped"] <= 5.0 + 1e-12)
    assert cols["exp-k_clipped"][-1] == pytest.approx(5.0)
    # every bound dominates the exact error
    for name in ("linear_raw", "exp-k_raw", "hybrid_raw"):
        assert np.all(cols[name] >= cols["exact"] - 1e-6)
    assert cols["exact"][0] == pytest.approx(0.0, abs=1e-12)


def test_bounds_singleton_partition_exact_zero(capsys, tmp_path, toy_model) -> None:
    part = tmp_path / "singletons.json"
    part.write_text(json.dumps([[1], [2], [3]]))
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--model",
        toy_model,
        "--partition-from-file",
        str(part),
        "--T",
        "0.8",
        "--grid",
        "5",
        "--variants",
        "linear",
        "--exact",
    )
    assert code == 0, err
    _, header, rows = parse_csv(out)
    exact = np.array([float(r[header.index("exact")]) for r in rows])
    np.testing.assert_allclose(exact, 0.0, atol=1e-9)


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_bounds_non_finite_horizon_exits_two(capsys, tmp_path, toy_model, horizon) -> None:
    code, out, err = run_cli(
        capsys, "bounds", "--model", toy_model, "--T", horizon, "--exact", "--variants", "linear"
    )
    assert code == 2 and out == ""
    assert "finite" in err


def test_bounds_discrete_metric_model(capsys, tmp_path) -> None:
    doc = {
        "n": 3,
        "generator": TOY_Q,
        "metric": {"kind": "discrete"},
        "partition": [[1, 2], [3]],
        "initial": [0.5, 0.5, 0.0],
    }
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "bounds", "--model", str(path), "--T", "2.0", "--grid", "5",
        "--variants", "exp-k,linear",
    )
    assert code == 0, err
    _, header, rows = parse_csv(out)
    t = np.array([float(r[0]) for r in rows])
    exp_raw = np.array([float(r[header.index("exp-k_raw")]) for r in rows])
    lin_raw = np.array([float(r[header.index("linear_raw")]) for r in rows])
    np.testing.assert_allclose(exp_raw, 1.0 - np.exp(-t), atol=1e-12)
    np.testing.assert_allclose(lin_raw, t, atol=1e-12)


@pytest.mark.parametrize("variants", [",", "linear,linear", "exp-k, exp-k"])
def test_bounds_empty_or_repeated_variants_exit_two(capsys, monkeypatch, toy_model, variants):
    """An empty or repeated ``--variants`` list is refused before any bound
    input is computed."""

    def unexpected(*args, **kwargs):
        raise AssertionError("bound inputs computed")

    monkeypatch.setattr(bounds_mod, "prepare_bound_inputs", unexpected)
    code, out, err = run_cli(capsys, "bounds", "--model", toy_model, "--variants", variants)
    assert code == 2 and out == ""
    assert err.startswith("ValueError: expected one or more distinct bound variants")


def test_bounds_requires_ctmc(capsys, dtmc_model) -> None:
    code, _, err = run_cli(capsys, "bounds", "--model", dtmc_model)
    assert code == 2
    assert "CTMC" in err


def test_bounds_refuses_a_dtmc_model_with_everything_else_given(capsys, tmp_path, dtmc_model):
    """The paper's bounds are for CTMCs: a DTMC model with a start law and a
    partition is still refused, before any aggregation or solve, with one
    stderr line and nothing on stdout."""
    part = tmp_path / "part.json"
    part.write_text("[[1, 2], [3]]")
    code, out, err = run_cli(
        capsys, "bounds", "--model", dtmc_model, "--p0", "dirac:1",
        "--partition-from-file", str(part),
    )  # fmt: skip
    assert code == 2 and out == ""
    assert err == "ValueError: bounds needs a CTMC model (a 'generator')\n"


def test_aggregate_json(capsys, toy_model) -> None:
    code, out, err = run_cli(capsys, "aggregate", "--model", toy_model, "--eps", "1.0")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["m"] == 2 and doc["n"] == 3
    assert doc["partition"] == [[1, 2], [3]]
    np.testing.assert_allclose(doc["theta"], [[-2.0, 2.0], [2.0, -2.0]], atol=1e-12)
    np.testing.assert_allclose(doc["defect_vector"], [1.0, 1.0], atol=1e-9)
    assert doc["defect_norm"] == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(doc["a"], [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], atol=1e-12)


def test_aggregate_below_min_distance_is_identity(capsys, toy_model) -> None:
    # eps below the smallest distance clusters nothing: zero defect
    code, out, _ = run_cli(capsys, "aggregate", "--model", toy_model, "--eps", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 3
    assert doc["partition"] == [[1], [2], [3]]
    assert doc["defect_norm"] == pytest.approx(0.0, abs=1e-12)


def test_aggregate_partition_file_and_errors(capsys, tmp_path, toy_model) -> None:
    part = tmp_path / "blocks.json"
    part.write_text(json.dumps([[3], [1, 2]]))
    code, out, _ = run_cli(
        capsys, "aggregate", "--model", toy_model, "--partition-from-file", str(part)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"n": 3, "generator": TOY_Q}))
    code, _, err = run_cli(capsys, "aggregate", "--model", str(bare))
    assert code == 2
    assert "neither a partition nor an explicit aggregation" in err


def test_aggregate_refuses_an_aggregation_with_both_chains(capsys, tmp_path) -> None:
    doc = {
        "n": 3,
        "generator": TOY_Q,
        "metric": {"kind": "explicit", "dist": TOY_D},
        "aggregation": {
            "a": [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
            "lam": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "theta": [[-1.0, 1.0], [2.5, -2.5]],
            "pi": [[0.5, 0.5], [0.5, 0.5]],
        },
    }
    path = tmp_path / "both.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "aggregate", "--model", str(path))
    assert code == 2 and out == ""
    assert err.startswith("ValueError: aggregation carries both") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["aggregate", "bounds"])
@pytest.mark.parametrize(
    "chain_key, chain, agg_key, agg_chain",
    [
        ("generator", TOY_Q, "pi", [[0.5, 0.5], [0.5, 0.5]]),
        ("dtmc", TOY_P, "theta", [[-1.0, 1.0], [2.5, -2.5]]),
    ],
)
def test_aggregation_of_the_other_chain_kind_exits_two(
    capsys, tmp_path, command, chain_key, chain, agg_key, agg_chain
) -> None:
    """The loader refuses an explicit aggregation whose chain is not of the
    model's kind, so no command runs with an aggregation it has no defect for."""
    doc = {
        "n": 3,
        chain_key: chain,
        "metric": {"kind": "explicit", "dist": TOY_D},
        "aggregation": {"a": [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], agg_key: agg_chain},
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--model", str(path))
    assert code == 2 and out == ""
    want = f"ValueError: aggregation carries '{agg_key}' but the model's chain is a '{chain_key}'"
    assert err.strip() == want


def test_aggregate_dtmc_reports_pi_and_its_defect(capsys, tmp_path, dtmc_model) -> None:
    part = tmp_path / "part.json"
    part.write_text(json.dumps([[1, 2], [3]]))
    code, out, err = run_cli(
        capsys, "aggregate", "--model", dtmc_model, "--partition-from-file", str(part)
    )
    assert code == 0, err
    doc = json.loads(out)
    assert "theta" not in doc and "pi" in doc
    pmat = TransitionMatrix(np.array(TOY_P))
    agg = partition_aggregation_dtmc(pmat, Partition(((1, 2), (3,))))
    v, norm = bounds_mod.defect(pmat, validate_metric(np.array(TOY_D)), agg)
    assert doc["defect_vector"] == v.tolist() == [0.25, 0.25]
    assert doc["defect_norm"] == norm


# a 2-point line at weight 1 times a 2-state discrete metric at weight 0.5
PRODUCT_COMPONENTS = [
    {"kind": "line", "n": 2, "positions": [0.0, 1.5], "weight": 1.0},
    {"kind": "discrete", "n": 2, "weight": 0.5},
]


def test_model_validation_errors(capsys, tmp_path) -> None:
    cases = [
        ({"n": 3, "generator": TOY_Q, "dtmc": TOY_P}, "both 'generator' and 'dtmc'"),
        ({"generator": TOY_Q}, "must declare 'n'"),
        ({"n": 3, "metric": {"kind": "taxicab"}}, "unknown metric kind 'taxicab'"),
        ({"n": 3, "alpha": [[1.0]]}, "'alpha' requires a 'partition'"),
        ({"n": 3, "generator": TOY_Q, "flavour": "sour"}, "unknown model fields: ['flavour']"),
        ({"n": 0}, "n must be positive, got 0"),
        ({"n": 3, "generator": {"triplets": [[1, 4, 1.0]]}}, "(1,4) out of range 1..3"),
        ({"n": 3, "generator": {"triplets": [[1, 2, 1.0], [1, 2, 2.0]]}}, "duplicate generator"),
        ({"n": 3, "generator": {"triplets": [[1, 2]]}}, "triplet must be [r, s, rate]"),
        ({"n": 3, "metric": {"kind": "discrete", "scale": 2}}, "unknown fields in 'discrete'"),
        ({"n": 3, "metric": {"kind": "line", "positions": [0, 1]}}, "needs 3 positions, got 2"),
        (
            {"n": 3, "metric": {"kind": "product", "components": [{"kind": "discrete", "n": 3}]}},
            "component must carry 'n', 'weight'",
        ),
        (
            {"n": 3, "metric": {"kind": "product", "components": [PRODUCT_COMPONENTS[1]]}},
            "product metric has 2 states but the model has 3",
        ),
        ({"n": 3, "partition": [[1, 2]]}, "partition covers 2 states but the model has 3"),
        ({"n": 3, "initial": [0.5, 0.5]}, "initial distribution must have 3 entries"),
        ({"n": 3, "aggregation": {"lam": [[1.0], [1.0], [1.0]]}}, "must carry 'a'"),
        ({"n": 3, "aggregation": {"a": [[0.5, 0.5]]}}, "must have 3 columns"),
    ]
    for i, (doc, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "w1", "--model", str(path), "--p", "uniform", "--q", "uniform")
        assert code == 2, doc
        assert err.startswith("ValueError: ") and message in err and err.count("\n") == 1, err


def test_product_metric_model(capsys, tmp_path) -> None:
    triplets = [[1, 2, 1.0], [2, 1, 2.0], [1, 3, 0.5], [3, 4, 1.0], [4, 2, 0.25]]
    doc = {
        "n": 4,
        "generator": {"triplets": triplets},
        "metric": {"kind": "product", "components": PRODUCT_COMPONENTS},
    }
    path = tmp_path / "product.json"
    path.write_text(json.dumps(doc))
    model = load_model(str(path))
    direct = product_metric([(line_metric([0.0, 1.5]), 1.0), (discrete_metric(2), 0.5)])
    np.testing.assert_array_equal(model.metric.dist, direct.dist)

    code, out, err = run_cli(capsys, "curvature", "--model", str(path), "--pairs", "all")
    assert code == 0, err
    assert sum(r[0] == "pair" for r in parse_csv(out)[2]) == 6


# model documents with one field of the wrong JSON type: the loader refuses
# each with a one-line message, and never truncates "n" to an integer
WRONG_TYPED_MODELS = {
    "partition-nested": {"n": 3, "partition": [[1, [2]], [3]]},
    "n-array": {"n": [2]},
    "n-fraction": {"n": 2.7, "metric": {"kind": "discrete"}},
    "n-boolean": {"n": True, "metric": {"kind": "discrete"}},
    "triplets-scalar": {"n": 3, "generator": {"triplets": 5}},
    "positions-scalar": {"n": 3, "metric": {"kind": "line", "positions": 5}},
    "edge-scalar": {"n": 3, "metric": {"kind": "graph", "edges": [5]}},
    "alpha-scalar": {"n": 3, "partition": [[1, 2], [3]], "alpha": 5},
    "components-scalar": {"n": 3, "metric": {"kind": "product", "components": 5}},
    # an object, a string or a ragged row where a numeric array belongs
    "initial-object": {"n": 3, "initial": [{}, 1, 0]},
    "initial-string": {"n": 2, "initial": ["0.5", 0.5], "metric": {"kind": "discrete"}},
    "generator-object": {"n": 1, "generator": [[{}]]},
    "generator-ragged": {"n": 2, "generator": [[0, 1], [1]]},
    "dtmc-object": {"n": 1, "dtmc": [[{}]]},
    "alpha-object": {"n": 3, "partition": [[1, 2], [3]], "alpha": [[{}], [1]]},
    "aggregation-a-object": {"n": 3, "aggregation": {"a": [[{}]]}},
    "aggregation-pi0-object": {
        "n": 3,
        "generator": TOY_Q,
        "aggregation": {"a": [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], "pi0": [{}, 1]},
    },
}


@pytest.mark.parametrize(
    "doc, argv",
    [
        *(
            pytest.param(doc, ["w1", "--p", "uniform", "--q", "uniform"], id=name)
            for name, doc in WRONG_TYPED_MODELS.items()
        ),
        *(
            pytest.param(None, ["curvature", "--builtin", "grid", "--grid-jumps", jumps], id=name)
            for name, jumps in (("jumps-flat", "[[1, 0.5]]"), ("jumps-null", "null"), ("jumps-5", "5"))
        ),
        pytest.param(None, ["aggregate", "--builtin", "toy", "--eps", "nan"], id="eps-nan"),
    ],
)
def test_wrong_typed_input_exits_two(capsys, tmp_path, doc, argv) -> None:
    if doc is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--model", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, err
    assert "Traceback" not in err and len(err.splitlines()) == 1, err
    assert out == ""


def test_aggregation_pi0_is_an_unknown_field(capsys, tmp_path) -> None:
    """Nothing read ``aggregation.pi0``: the start is always Lambda^T p_0."""
    doc = {
        "n": 3,
        "generator": TOY_Q,
        "metric": {"kind": "explicit", "dist": TOY_D},
        "aggregation": {
            "a": [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
            "lam": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "pi0": [0.0, 1.0],
        },
    }
    path = tmp_path / "pi0.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "bounds", "--model", str(path), "--p0", "dirac:1")
    assert code == 2 and out == ""
    assert err == "ValueError: unknown aggregation fields: ['pi0']\n"


def test_wrong_typed_distribution_file_exits_two(capsys, tmp_path) -> None:
    path = tmp_path / "dist.json"
    path.write_text(json.dumps([{}, 1, 0]))
    code, out, err = run_cli(capsys, "w1", "--builtin", "toy", "--p", f"file:{path}", "--q", "uniform")
    assert code == 2, err
    assert "Traceback" not in err and len(err.splitlines()) == 1, err
    assert "distribution file" in err
    assert out == ""


def test_dist_specs(capsys, toy_model) -> None:
    code, out, _ = run_cli(
        capsys, "w1", "--model", toy_model, "--p", "uniform-block:1", "--q", "dirac:3"
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    # mass 0.5 at states 1,2 moved to state 3: 0.5*5 + 0.5*4 = 4.5
    assert float(rows[0][3]) == pytest.approx(4.5, abs=1e-12)

    code, _, err = run_cli(
        capsys, "w1", "--model", toy_model, "--p", "uniform-block:9", "--q", "uniform"
    )
    assert code == 2
    assert "out of range" in err


def test_builtin_models(capsys) -> None:
    # toy builtin matches the model-file toy
    code, out, _ = run_cli(capsys, "w1", "--builtin", "toy", "--p", "dirac:1", "--q", "dirac:3")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx(5.0, abs=1e-12)

    # grid builtin: pure +1 walk on 0..3, distance between the diracs is 3
    code, out, _ = run_cli(
        capsys,
        "w1",
        "--builtin",
        "grid",
        "--grid-lo",
        "0",
        "--grid-hi",
        "3",
        "--grid-jumps",
        "[[[1], 1.0]]",
        "--p",
        "dirac:1",
        "--q",
        "dirac:4",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx(3.0, abs=1e-12)

    # default +-1/2 walk is translation invariant: nonnegative curvature
    code, out, _ = run_cli(capsys, "curvature", "--builtin", "grid", "--pairs", "min")
    assert code == 0
    _, _, rows = parse_csv(out)
    kmin = next(float(r[4]) for r in rows if r[0] == "kappa_min")
    assert kmin >= -1e-7


@pytest.fixture()
def gate_counts(monkeypatch):
    """Counts of metric gate calls (validate_metric, lattice_metric) and
    Generator constructions."""
    counts = {"metric": 0, "generator": 0}
    post_init = Generator.__post_init__

    def counted(gate):
        def wrapper(*args, **kwargs):
            counts["metric"] += 1
            return gate(*args, **kwargs)

        return wrapper

    def counted_post_init(self):
        counts["generator"] += 1
        post_init(self)

    for name in ("validate_metric", "lattice_metric"):
        wrapper = counted(getattr(metric_mod, name))
        for mod in (metric_mod, models_mod, cli_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    monkeypatch.setattr(Generator, "__post_init__", counted_post_init)
    return counts


@pytest.mark.parametrize(
    "builtin",
    [
        ["--builtin", "toy", "--pairs", "all"],
        ["--builtin", "grid", "--grid-lo", "0,0", "--grid-hi", "3,3", "--grid-jumps",
         "[[[1, 0], 0.5], [[0, -1], 0.5]]", "--k-only"],
        ["--builtin", "grid", "--grid-hi", "6", "--pairs", "min"],
    ],
)
def test_builtin_is_validated_once(capsys, gate_counts, builtin) -> None:
    code, _, err = run_cli(capsys, "curvature", *builtin)
    assert code == 0, err
    assert gate_counts == {"metric": 1, "generator": 1}


@pytest.mark.parametrize(
    "rates",
    [
        ["--grid-rate", "nan"],
        ["--grid-rate", "inf"],
        ["--grid-root", "1", "--grid-root-rate", "nan"],
    ],
)
def test_builtin_rejects_non_finite_rates(capsys, rates) -> None:
    code, _, err = run_cli(capsys, "curvature", "--builtin", "grid", "--grid-hi", "3", *rates)
    assert code == 2
    assert "not finite" in err


def test_builtin_refuses_a_root_rate_without_a_root(capsys) -> None:
    """A root rate with no root state is refused, not dropped."""
    code, out, err = run_cli(
        capsys, "curvature", "--builtin", "grid", "--grid-hi", "5",
        "--grid-jumps", "[[[1], 0.5], [[-1], 0.5]]", "--grid-root-rate", "0.3",
    )  # fmt: skip
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "without a root" in err


def test_model_file_is_validated_once(gate_counts, toy_model) -> None:
    model = load_model(toy_model)
    assert model.metric is not None and model.chain is not None
    assert gate_counts == {"metric": 1, "generator": 1}


def test_cli_output_deterministic(capsys, tmp_path, line6_model) -> None:
    p_spec = _dist_file(tmp_path, "p.json", P6)
    q_spec = _dist_file(tmp_path, "q.json", Q6)
    argv = ["w1", "--model", line6_model, "--p", p_spec, "--q", q_spec, "--coupling"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_numerical_failure_exits_three(capsys, monkeypatch, toy_model) -> None:
    def boom(*args, **kwargs):
        raise NumericalFailure("iteration limit reached")

    monkeypatch.setattr("wdbounds.cli.wasserstein", boom)
    code, _, err = run_cli(capsys, "w1", "--model", toy_model, "--p", "uniform", "--q", "uniform")
    assert code == 3
    assert "NumericalFailure" in err


def test_stalled_kernel_exits_three_and_lp_route_still_answers(capsys, monkeypatch, tmp_path):
    """A kernel that stops short of the optimum ends ``w1`` with exit 3 and
    one stderr line; ``--method lp`` never uses the kernel and still gives
    the unforced value.  The 8-state instance's 3x5 block takes three pivots."""
    _, metric, p = random_instance(8, 16, metric_kind="graph")
    q = np.random.default_rng(16).dirichlet(np.ones(8))
    model = tmp_path / "graph8.json"
    model.write_text(
        json.dumps({"n": 8, "metric": {"kind": "explicit", "dist": metric.dist.tolist()}})
    )
    p_spec = _dist_file(tmp_path, "p.json", p.p.tolist())
    q_spec = _dist_file(tmp_path, "q.json", q.tolist())
    argv = ["w1", "--model", str(model), "--p", p_spec, "--q", q_spec]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    expected = float(parse_csv(out)[2][0][3])
    real_loop = kernels_mod.transport_loop

    def no_pivots(cost, p, q, tol, max_iter):
        return real_loop(cost, p, q, tol, 0)

    monkeypatch.setattr(kernels_mod, "transport_loop", no_pivots)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("NumericalFailure: ")
    assert "3x5 block" in err
    code, out, err = run_cli(capsys, *argv, "--method", "lp")
    assert code == 0, err
    assert float(parse_csv(out)[2][0][3]) == pytest.approx(expected, abs=1e-12)
