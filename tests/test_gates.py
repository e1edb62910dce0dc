"""Validation gates refuse NaN and infinite entries.

Python's ``json`` reads the literals ``NaN``, ``Infinity`` and ``-Infinity``,
so such entries reach the gates from model files and ``file:``
distributions.  Each gate, and each CLI input that goes through one, is
tried with the valid value and then with NaN, +inf and -inf in one entry.
The probability gate (:func:`wdbounds.markov._clean_distribution`) is also
checked bit for bit against the per-row loop it replaced, and against a
frozen copy of the entry-wise gate that its one-minimum test replaced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from wdbounds.aggregation import Aggregation, Partition, partition_aggregation_ctmc
from wdbounds.cli import main
from wdbounds.curvature import _kappa_min, k_matrix, kappa, kappa_min
from wdbounds.errors import BadAlpha, NumericalFailure, RowSumNotZero
from wdbounds.markov import (
    CLAMP_TOL,
    SUM_TOL,
    Generator,
    ProbVec,
    TransitionMatrix,
    _clean_distribution,
)
from wdbounds.metric import Metric, line_metric, validate_metric
from wdbounds.models import JumpDistribution
from wdbounds.transport import Coupling, Potential, SignedRow, wasserstein_signed

TOY_Q = [[-1.0, 0.0, 1.0], [1.0, -4.0, 3.0], [0.0, 2.0, -2.0]]
TOY_D = [[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]]
TOY_P = [[0.75, 0.0, 0.25], [0.25, 0.0, 0.75], [0.0, 0.5, 0.5]]
A = [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
LAM = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _put(mat, x: float, at: tuple[int, int]) -> list[list[float]]:
    """``mat`` with entry ``at`` set to ``x``."""
    out = [list(row) for row in mat]
    out[at[0]][at[1]] = x
    return out


#: gate -> (build from the one entry x, the valid x, the error a non-finite x raises)
GATES = {
    "ProbVec": (lambda x: ProbVec(np.array([x, 1.0, 0.0])), 0.0, ValueError),
    "TransitionMatrix": (lambda x: TransitionMatrix(_put(TOY_P, x, (0, 1))), 0.0, ValueError),
    "Generator": (lambda x: Generator(_put(TOY_Q, x, (0, 1))), 0.0, ValueError),
    "validate_metric": (lambda x: validate_metric(_put(TOY_D, x, (0, 1))), 1.0, ValueError),
    "Aggregation.a": (lambda x: Aggregation(a=_put(A, x, (0, 1))), 0.5, ValueError),
    "Aggregation.lam": (lambda x: Aggregation(a=A, lam=_put(LAM, x, (0, 0))), 1.0, ValueError),
    "alpha": (
        lambda x: partition_aggregation_ctmc(
            Generator(TOY_Q), Partition(((1, 2), (3,))), alpha=[np.array([x, 1.0]), np.ones(1)]
        ),
        0.0,
        BadAlpha,
    ),
    "SignedRow": (lambda x: SignedRow(np.array([x, 1.0, -1.0])), 0.0, RowSumNotZero),
    "Coupling": (
        lambda x: Coupling(_put(np.eye(2) / 2, x, (0, 1)), [0.5, 0.5], [0.5, 0.5]),
        0.0,
        ValueError,
    ),
    "Potential": (
        lambda x: Potential(np.array([0.0, x, 5.0]), validate_metric(TOY_D)),
        1.0,
        ValueError,
    ),
    "JumpDistribution": (lambda x: JumpDistribution((((1,), x), ((-1,), 1.0))), 0.0, ValueError),
}

BASE_MODEL = {
    "n": 3,
    "generator": TOY_Q,
    "metric": {"kind": "explicit", "dist": TOY_D},
    "partition": [[1, 2], [3]],
}
AGGREGATE = ["aggregate", "--model", "<file>"]

#: CLI input -> (the JSON document holding the one entry x, the valid x, argv)
CLI_INPUTS = {
    "initial": (lambda x: {**BASE_MODEL, "initial": [x, 1.0, 0.0]}, 0.0, AGGREGATE),
    "file": (
        lambda x: [x, 1.0, 0.0],
        0.0,
        ["w1", "--builtin", "toy", "--p", "file:<file>", "--q", "dirac:1"],
    ),
    "dtmc": (
        lambda x: {**BASE_MODEL, "generator": None, "dtmc": _put(TOY_P, x, (0, 1))},
        0.0,
        AGGREGATE,
    ),
    "alpha": (lambda x: {**BASE_MODEL, "alpha": [[x, 1.0], [1.0]]}, 0.0, AGGREGATE),
    "aggregation.a": (
        lambda x: {**BASE_MODEL, "aggregation": {"a": _put(A, x, (0, 1))}},
        0.5,
        AGGREGATE,
    ),
    "aggregation.lam": (
        lambda x: {**BASE_MODEL, "aggregation": {"a": A, "lam": _put(LAM, x, (0, 0))}},
        1.0,
        AGGREGATE,
    ),
    "aggregation.theta": (
        lambda x: {**BASE_MODEL, "aggregation": {"a": A, "theta": [[-1.0, x], [1.0, -1.0]]}},
        1.0,
        AGGREGATE,
    ),
    "aggregation.pi": (
        lambda x: {
            **BASE_MODEL,
            "generator": None,
            "dtmc": TOY_P,
            "aggregation": {"a": A, "pi": [[x, 1.0], [0.5, 0.5]]},
        },
        0.0,
        AGGREGATE,
    ),
    "generator": (lambda x: {**BASE_MODEL, "generator": _put(TOY_Q, x, (0, 1))}, 0.0, AGGREGATE),
    "metric": (
        lambda x: {**BASE_MODEL, "metric": {"kind": "explicit", "dist": _put(TOY_D, x, (0, 1))}},
        1.0,
        AGGREGATE,
    ),
}


@pytest.mark.parametrize("bad", sorted(NON_FINITE))
@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_refuses_non_finite_entry(gate, bad) -> None:
    build, valid, error = GATES[gate]
    build(valid)
    with pytest.raises(error), np.errstate(invalid="ignore"):
        build(NON_FINITE[bad])


def _run(doc, argv: list[str], tmp_path) -> tuple[int, str, str, int]:
    """Exit code, stdout, stderr and the number of warnings of one CLI run
    with ``doc`` written as JSON (``NaN`` and ``Infinity`` literals included)."""
    path = tmp_path / "input.json"
    doc = {k: v for k, v in doc.items() if v is not None} if isinstance(doc, dict) else doc
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("<file>", str(path)) for a in argv])
    return code, out.getvalue(), err.getvalue(), len(caught)


@pytest.mark.parametrize("bad", sorted(NON_FINITE))
@pytest.mark.parametrize("field", sorted(CLI_INPUTS))
def test_cli_refuses_non_finite_entry(field, bad, tmp_path) -> None:
    build, valid, argv = CLI_INPUTS[field]
    code, _, err, _ = _run(build(valid), argv, tmp_path)
    assert code == 0, err
    code, out, err, n_warnings = _run(build(NON_FINITE[bad]), argv, tmp_path)
    assert code == 2, err
    assert "Traceback" not in err and len(err.splitlines()) == 1, err
    assert n_warnings == 0  # a warning would add lines to the console's stderr
    assert out == ""


def _frozen_row_loop(p: np.ndarray) -> np.ndarray:
    """The per-row loop of ``TransitionMatrix`` before the shared gate."""
    rows = []
    for r in range(p.shape[0]):
        row = p[r]
        if (row < -CLAMP_TOL).any():
            raise ValueError(f"row {r + 1} has a negative entry")
        row = np.where(row < 0, 0.0, row)
        total = float(row.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"row {r + 1} sums to {total!r}")
        rows.append(row / total)
    return np.vstack(rows)


def test_gate_matches_the_frozen_row_loop_bit_for_bit() -> None:
    """Rows with rounding-level negatives and masses off 1 by up to 5e-10, so
    clamping and the division both change bits, for every n from 1 to 400."""
    rng = np.random.default_rng(16)
    for n in range(1, 401):
        zero = rng.random((3, n)) < 0.2
        zero[:, 0] = False
        p = np.where(zero, 0.0, rng.dirichlet(np.ones(n), size=3))
        p *= (1.0 + rng.uniform(-5e-10, 5e-10, size=(3, 1))) / p.sum(axis=1, keepdims=True)
        p[zero & (rng.random((3, n)) < 0.5)] = -0.5 * CLAMP_TOL
        want = _frozen_row_loop(p)
        assert _clean_distribution(p, "matrix").tobytes() == want.tobytes(), n
        for r in range(3):
            assert _clean_distribution(p[r], "row").tobytes() == want[r].tobytes(), (n, r)


def _frozen_gate(p: np.ndarray, what: str) -> np.ndarray:
    """The probability gate before one minimum decided refusal and clamping:
    an entry-wise test against ``-CLAMP_TOL`` and an unconditional clamp."""
    low = p < -CLAMP_TOL
    if low.any():
        *row, i = np.argwhere(low)[0]
        name = f"{what} row {row[0] + 1}" if row else what
        raise ValueError(f"{name} has negative entry {float(p[(*row, i)])!r} at position {i + 1}")
    p = np.where(p < 0, 0.0, p)
    if p.ndim == 1:
        total = float(p.sum())
        if abs(total - 1.0) <= SUM_TOL:
            return p / total
        raise ValueError(f"{what} sums to {total!r}, expected 1")
    totals = p.sum(axis=1)
    ok = np.abs(totals - 1.0) <= SUM_TOL
    if ok.all():
        return p / totals[:, None]
    r = int(np.argmin(ok))
    raise ValueError(f"{what} row {r + 1} sums to {float(totals[r])!r}, expected 1")


def _gate_outcome(gate, p: np.ndarray):
    """The gate's output as (dtype, shape, bytes), or its refusal's type and message."""
    try:
        out = gate(p, "law")
    except ValueError as err:  # a subclass would show in the type
        return type(err), str(err)
    return out.dtype.str, out.shape, out.tobytes()


#: Entries that decide how the gate ends: kept, clamped, refused or left to the mass test.
POISONS = (
    -0.0,
    -0.5 * CLAMP_TOL,
    -CLAMP_TOL,
    float(np.nextafter(-CLAMP_TOL, -np.inf)),
    -1.0,
    math.nan,
    math.inf,
    -math.inf,
)


def test_gate_matches_the_frozen_entrywise_gate() -> None:
    """Same bytes, or the same exception type and message, on 1-d and 2-d
    input: clean laws with masses off 1 by up to 5e-10, then each poison
    entry alone and each pair of them, in one row and across rows (in both
    orders), and empty rows."""
    rng = np.random.default_rng(30)
    base = rng.dirichlet(np.ones(5), size=3)
    base *= (1.0 + rng.uniform(-5e-10, 5e-10, size=(3, 1))) / base.sum(axis=1, keepdims=True)
    cases = [base, base * (1.0 + 2.0 * SUM_TOL), np.zeros((2, 0))]
    for x in POISONS:
        for at in ((0, 1), (2, 4)):
            p = base.copy()
            p[at] = x
            cases.append(p)
        for y in POISONS:
            for at, bt in (((0, 1), (0, 3)), ((0, 1), (2, 0)), ((2, 4), (0, 0))):
                p = base.copy()
                p[at] = x
                p[bt] = y
                cases.append(p)
    for p in cases:
        assert _gate_outcome(_clean_distribution, p) == _gate_outcome(_frozen_gate, p), p
        for row in (*p, np.zeros(0)):
            want = _gate_outcome(_frozen_gate, row)
            assert _gate_outcome(_clean_distribution, row) == want, row


def _overflowing_line() -> tuple[Generator, Metric]:
    """Rates of 1e10 on a line at 0, 1e300 and 1.5e300: ``Q d`` overflows."""
    q = np.full((3, 3), 1e10)
    np.fill_diagonal(q, -2e10)
    return Generator(q), line_metric(np.array([0.0, 1e300, 1.5e300]))


def test_overflowing_transport_cost_raises() -> None:
    """Rates of 1e10 on distances of 1e300: every plan's cost overflows, and
    neither kappa_min nor a signed row may settle on such a value.

    kappa_min stops at its ``k`` matrix, so the transport guard is also
    reached through ``kappa``, which builds none, and through the pair
    loop of kappa_min on finite stand-in ``k`` values."""
    gen, metric = _overflowing_line()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure):
            kappa_min(gen, metric)
        with pytest.raises(NumericalFailure):
            wasserstein_signed(np.array([1e10, -1e10, 0.0]), metric)
        for r, s in ((1, 2), (2, 3)):
            with pytest.raises(NumericalFailure, match="signed transport plan has cost"):
                kappa(gen, metric, r, s)
        with pytest.raises(NumericalFailure, match="signed transport plan has cost"):
            _kappa_min(gen, metric, np.zeros((3, 3)))


def test_overflowing_k_matrix_raises(tmp_path) -> None:
    """A ``k`` that is not finite raises without a warning, and
    the CLI exits 3 with one line on stderr and no warning."""
    gen, metric = _overflowing_line()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="not finite"):
            k_matrix(gen, metric)
    model = {
        "n": 3,
        "generator": gen.q.tolist(),
        "metric": {"kind": "line", "positions": [0.0, 1e300, 1.5e300]},
    }
    for argv in (["--k-only"], ["--pairs", "min"], ["--pairs", "all"], ["--pairs", "1,2"]):
        code, out, err, n_warnings = _run(model, ["curvature", "--model", "<file>", *argv], tmp_path)
        assert code == 3, (argv, err)
        assert len(err.splitlines()) == 1 and "not finite" in err, (argv, err)
        assert n_warnings == 0
        assert out == ""
