"""Two-phase simplex in equality form: optima, duals and the raising statuses."""

from __future__ import annotations

import numpy as np
import pytest

from wdbounds import lp
from wdbounds.errors import NumericalFailure
from wdbounds.lp import solve

from .oracles import lp_vertex_maximum


def _with_slacks(a_ub, b_ub, a_eq=None, b_eq=None):
    """Rows ``a_ub x <= b_ub`` and ``a_eq x == b_eq`` as equality rows over
    ``(x, s) >= 0``, with one slack column per inequality row."""
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    k, n = a_ub.shape
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    rows = np.vstack([np.hstack([a_ub, np.eye(k)]), np.hstack([a_eq, np.zeros((len(a_eq), k))])])
    return rows, np.concatenate([np.asarray(b_ub, dtype=float), b_eq])


def _padded(c, cols):
    return np.concatenate([np.asarray(c, dtype=float), np.zeros(cols - len(c))])


def test_known_optimum_and_duals():
    a, b = _with_slacks([[1.0, 1.0], [1.0, 0.0]], [4.0, 2.0])
    sol = solve(_padded([3.0, 2.0], 4), a, b)
    assert np.allclose(sol.x[:2], [2.0, 2.0], atol=1e-9)
    assert sol.value == pytest.approx(10.0, abs=1e-9)
    # the optimum equals duals . b, and the slack columns make the duals >= 0
    assert sol.value == pytest.approx(float(sol.duals @ b), abs=1e-8)
    assert np.allclose(sol.duals, [2.0, 1.0], atol=1e-8)
    assert sol.iterations > 0


def test_equality_row_and_dual():
    sol = solve([2.0, 1.0], [[1.0, 1.0]], [1.0])
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)
    assert sol.value == pytest.approx(2.0, abs=1e-10)
    assert sol.duals.shape == (1,)
    assert sol.duals[0] == pytest.approx(2.0, abs=1e-8)


def test_negative_rhs_rows():
    """x >= 2 written as -x + s = -2 exercises row normalization; x <= 5 as a row."""
    a, b = _with_slacks([[-1.0], [1.0]], [-2.0, 5.0])
    sol = solve(_padded([-1.0], 3), a, b)
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.value == pytest.approx(-2.0, abs=1e-9)
    assert sol.value == pytest.approx(float(sol.duals @ b), abs=1e-9)


def test_upper_bounds_reached_through_phase_one():
    """Optimum with every variable at its upper bound (posed as rows), where
    the row x1 + x2 >= 6 starts phase 1 from an infeasible slack basis."""
    a, b = _with_slacks([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-6.0, 5.0, 4.0])
    c = _padded([2.0, 3.0], 5)
    sol = solve(c, a, b)
    assert np.allclose(sol.x[:2], [5.0, 4.0], atol=1e-9)
    assert sol.value == pytest.approx(22.0, abs=1e-9)
    assert sol.value == pytest.approx(float(c @ sol.x), abs=1e-9)


def test_infeasible_programs_raise():
    # contradictory inequality rows: x <= 1 and x >= 3
    a, b = _with_slacks([[1.0], [-1.0]], [1.0, -3.0])
    with pytest.raises(NumericalFailure, match="infeasible"):
        solve(_padded([1.0], 3), a, b)
    # contradictory equalities
    with pytest.raises(NumericalFailure, match="infeasible"):
        solve([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 3.0])
    # a row that demands more than the box rows allow
    a, b = _with_slacks([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-5.0, 1.0, 1.0])
    with pytest.raises(NumericalFailure, match="infeasible"):
        solve(_padded([1.0, 1.0], 5), a, b)


def test_unbounded_programs_raise():
    with pytest.raises(NumericalFailure, match="unbounded"):
        solve([1.0], np.zeros((0, 1)), np.zeros(0))
    # a free pair (x1, x2), split into nonnegative parts, escaping along
    # x1 - x2 while the row x1 + x2 <= 1 holds on the ray
    with pytest.raises(NumericalFailure, match="unbounded"):
        solve([1.0, -1.0, -1.0, 1.0, 0.0], [[1.0, -1.0, 1.0, -1.0, 1.0]], [1.0])


def test_input_validation():
    with pytest.raises(ValueError):
        solve([1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        solve([1.0], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        solve([1.0], [[1.0]], [1.0, 2.0])


def test_degenerate_and_tiny_problems():
    # single variable fixed by an equality, zero objective
    sol = solve([0.0], [[2.0]], [1.0])
    assert sol.x[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    # redundant equality rows must not derail phase 1
    b = np.array([1.0, 2.0])
    sol = solve([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], b)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.value == pytest.approx(float(sol.duals @ b), abs=1e-9)
    # nearly redundant rows still bind: 1e-8 x3 = 0 (above) and -5e-8 x3 = 0
    # (below) pin x3 to 0, though phase 1 ends with an artificial in the row
    for eps in (1e-8, -5e-8):
        sol = solve([0.0, 0.0, 1.0], [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + eps]], [1.0, 1.0])
        assert sol.x[2] == pytest.approx(0.0, abs=1e-12)
        assert sol.value == pytest.approx(0.0, abs=1e-12)
    # a zero-width box, x <= 2 and x >= 2 as rows, pins the point
    a, b = _with_slacks([[1.0], [-1.0]], [2.0, -2.0])
    sol = solve(_padded([3.0], 3), a, b)
    assert sol.x[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.value == pytest.approx(6.0, abs=1e-12)


def test_random_battery_against_vertex_enumeration():
    """120 random box-bounded programs, the box and the inequality rows posed
    as equality rows with slack columns; the simplex raises exactly when the
    brute force finds the program infeasible and matches its value otherwise."""
    n_optimal = n_infeasible = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        k_ub = int(rng.integers(0, 4))
        k_eq = int(rng.integers(0, min(n, 2) + 1))
        c = rng.uniform(-2.0, 2.0, size=n)
        a_ub = rng.uniform(-2.0, 2.0, size=(k_ub, n))
        b_ub = rng.uniform(-1.0, 3.0, size=k_ub)
        a_eq = rng.uniform(-2.0, 2.0, size=(k_eq, n))
        b_eq = rng.uniform(-1.0, 2.0, size=k_eq)
        upper = rng.uniform(0.5, 3.0, size=n)
        brute = lp_vertex_maximum(c, a_ub, b_ub, a_eq, b_eq, np.zeros(n), upper)
        a, b = _with_slacks(np.vstack([a_ub, np.eye(n)]), np.concatenate([b_ub, upper]), a_eq, b_eq)
        cc = _padded(c, a.shape[1])
        if brute is None:
            with pytest.raises(NumericalFailure, match="infeasible"):
                solve(cc, a, b)
            n_infeasible += 1
            continue
        sol = solve(cc, a, b)
        assert sol.value == pytest.approx(brute, abs=1e-7), f"seed {seed}"
        assert sol.value == pytest.approx(float(cc @ sol.x), abs=1e-8)
        n_optimal += 1
    # the battery must genuinely exercise both outcomes
    assert n_optimal >= 40 and n_infeasible >= 10


def test_random_duals_identity_without_upper_bounds():
    """The optimal value equals duals . b, the duals are dual feasible
    (``a^T y >= c``), and the inequality rows' duals are nonnegative with
    complementary slackness."""
    for seed in range(40):
        rng = np.random.default_rng(1_000 + seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 2.0, size=n)
        a_ub = rng.uniform(-1.0, 2.0, size=(k, n))
        b_ub = rng.uniform(0.1, 3.0, size=k)  # x = 0 feasible
        # a simplex row keeps the program bounded
        a_ub = np.vstack([a_ub, np.ones(n)])
        b_ub = np.concatenate([b_ub, [rng.uniform(1.0, 4.0)]])
        a, b = _with_slacks(a_ub, b_ub)
        cc = _padded(c, a.shape[1])
        sol = solve(cc, a, b)
        assert sol.value == pytest.approx(float(sol.duals @ b), abs=1e-7)
        assert (a.T @ sol.duals >= cc - 1e-9).all()
        assert (sol.duals >= -1e-9).all()
        slack = b_ub - a_ub @ sol.x[:n]
        assert np.abs(sol.duals * slack).max() < 1e-6


def test_iteration_limit_raises(monkeypatch):
    a, b = _with_slacks(np.vstack([np.eye(6), np.ones((1, 6))]), [1.0] * 6 + [3.0])
    monkeypatch.setattr(lp, "MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match="iteration limit"):
        solve(_padded(np.ones(6), a.shape[1]), a, b)
