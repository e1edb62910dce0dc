"""Exact W1: both solver routes, optimal-pair checks, one-sided couplings."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdbounds import transport
from wdbounds.aggregation import Partition, partition_aggregation_ctmc
from wdbounds.bounds import exact_error_curve
from wdbounds.curvature import kappa
from wdbounds.errors import DimensionMismatch, NumericalFailure, RowSumNotZero
from wdbounds.markov import ProbVec, dirac
from wdbounds.metric import discrete_metric, line_metric, validate_metric
from wdbounds.models import Box, JumpDistribution, random_instance, translation_invariant_ctmc
from wdbounds.transport import (
    Coupling,
    Potential,
    SignedRow,
    row_wasserstein_vector,
    wasserstein,
    wasserstein_signed,
)

from .oracles import frozen_signed_ot, transport_vertex_minimum, verify_optimal_pair

# Six states on a line; these two distributions have W1 = 0.975 and the dual
# optimum is attained by f = (2, 0, 1, 2.5, 1, 0).
LINE6 = line_metric(np.array([0.0, 2.0, 3.0, 4.5, 6.0, 7.0]))
P6 = np.array([0.35, 0.25, 0.05, 0.25, 0.1, 0.0])
Q6 = np.array([0.2, 0.45, 0.05, 0.0, 0.05, 0.25])
F6 = np.array([2.0, 0.0, 1.0, 2.5, 1.0, 0.0])

# An optimal coupling for (P6, Q6) in which states 3 and 5 both send and
# receive mass, and the one-sided plan that rerouting it produces.
GAMMA6_TWO_SIDED = np.zeros((6, 6))
GAMMA6_TWO_SIDED[0, 0] = 0.2
GAMMA6_TWO_SIDED[0, 1] = 0.15
GAMMA6_TWO_SIDED[1, 1] = 0.25
GAMMA6_TWO_SIDED[2, 1] = 0.05
GAMMA6_TWO_SIDED[3, 2] = 0.05
GAMMA6_TWO_SIDED[3, 4] = 0.05
GAMMA6_TWO_SIDED[3, 5] = 0.15
GAMMA6_TWO_SIDED[4, 5] = 0.1

GAMMA6_ONE_SIDED = np.zeros((6, 6))
GAMMA6_ONE_SIDED[0, 0] = 0.2
GAMMA6_ONE_SIDED[0, 1] = 0.15
GAMMA6_ONE_SIDED[1, 1] = 0.25
GAMMA6_ONE_SIDED[2, 2] = 0.05
GAMMA6_ONE_SIDED[3, 1] = 0.05
GAMMA6_ONE_SIDED[3, 5] = 0.2
GAMMA6_ONE_SIDED[4, 4] = 0.05
GAMMA6_ONE_SIDED[4, 5] = 0.05


def _probvec_pair(seed: int, n: int) -> tuple[ProbVec, ProbVec]:
    rng = np.random.default_rng(seed)
    return ProbVec(rng.dirichlet(np.ones(n))), ProbVec(rng.dirichlet(np.ones(n)))


def test_six_state_line_example():
    p, q = ProbVec(P6), ProbVec(Q6)
    res = wasserstein(p, q, LINE6)
    assert res.value == pytest.approx(0.975, abs=1e-9)
    # the known dual optimum attains the same objective
    assert float((P6 - Q6) @ F6) == pytest.approx(0.975, abs=1e-12)
    report = verify_optimal_pair(res.coupling, res.potential, LINE6)
    assert report.all_ok
    assert report.primal_cost == pytest.approx(report.dual_value, abs=1e-7)
    # the generic-LP route lands on the same value
    res_lp = wasserstein(p, q, LINE6, method="lp")
    assert res_lp.value == pytest.approx(0.975, abs=1e-9)
    assert verify_optimal_pair(res_lp.coupling, res_lp.potential, LINE6).all_ok


def test_verify_optimal_pair_flags_two_sided_states():
    coup = Coupling(GAMMA6_TWO_SIDED, P6, Q6)
    assert coup.cost(LINE6) == pytest.approx(0.975, abs=1e-12)
    report = verify_optimal_pair(coup, Potential(F6, LINE6), LINE6)
    assert not report.one_sided_ok  # states 3 and 5 send and receive
    # the same optimum rerouted so that no state both sends and receives
    one_sided = Coupling(GAMMA6_ONE_SIDED, P6, Q6)
    assert one_sided.cost(LINE6) == pytest.approx(0.975, abs=1e-12)
    assert verify_optimal_pair(one_sided, Potential(F6, LINE6), LINE6).all_ok


def test_identical_distributions():
    p = ProbVec(np.array([0.3, 0.3, 0.4]))
    m = validate_metric(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]]))
    res = wasserstein(p, p, m)
    assert res.value == 0.0
    assert verify_optimal_pair(res.coupling, res.potential, m).all_ok


def test_rational_vertex_instance():
    """A 4-state instance whose exact optimum is 17/40, from enumerating every
    basis tree of the transportation polytope in exact arithmetic."""
    m = line_metric(np.array([0.0, 2.0, 3.0, 4.5]))
    p = np.array([7.0, 5.0, 1.0, 7.0]) / 20.0
    q = np.array([4.0, 9.0, 1.0, 6.0]) / 20.0
    pf = [Fraction(int(x), 20) for x in (7, 5, 1, 7)]
    qf = [Fraction(int(x), 20) for x in (4, 9, 1, 6)]
    cost = [[Fraction(m.dist[i, j]).limit_denominator(10**6) for j in range(4)] for i in range(4)]
    exact = transport_vertex_minimum(pf, qf, cost)
    assert exact == Fraction(17, 40)
    for method in ("transport", "lp"):
        res = wasserstein(ProbVec(p), ProbVec(q), m, method=method)
        assert res.value == pytest.approx(float(exact), abs=1e-12)


def test_vertex_oracle_battery():
    """Random rational instances (n <= 4) against exact vertex enumeration."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        denom = 24
        pw = rng.multinomial(denom, np.ones(n) / n)
        qw = rng.multinomial(denom, np.ones(n) / n)
        positions = np.arange(n, dtype=float) + rng.integers(0, 3, size=n) * 0.5
        positions = np.cumsum(rng.integers(1, 5, size=n).astype(float)) / 2.0
        m = line_metric(positions)
        pf = [Fraction(int(x), denom) for x in pw]
        qf = [Fraction(int(x), denom) for x in qw]
        cost = [
            [Fraction(m.dist[i, j]).limit_denominator(10**6) for j in range(n)]
            for i in range(n)
        ]
        exact = float(transport_vertex_minimum(pf, qf, cost))
        res = wasserstein(ProbVec(pw / denom), ProbVec(qw / denom), m)
        assert res.value == pytest.approx(exact, abs=1e-11), f"seed {seed}"


@given(st.integers(2, 8), st.integers(0, 10_000), st.integers(-15, 12))
@settings(max_examples=60, deadline=None)
def test_both_routes_agree_and_verify(n, seed, k):
    """Both routes give the same W1 in any distance unit 10^k."""
    rng = np.random.default_rng(seed)
    p, q = _probvec_pair(seed, n)
    m = line_metric(np.cumsum(rng.uniform(0.2, 1.5, size=n)) * 10.0**k)
    res_t = wasserstein(p, q, m, method="transport")
    res_l = wasserstein(p, q, m, method="lp")
    assert abs(res_l.value - res_t.value) <= 1e-9 * res_t.value
    assert verify_optimal_pair(res_t.coupling, res_t.potential, m).all_ok
    assert verify_optimal_pair(res_l.coupling, res_l.potential, m).all_ok
    # the value-only route makes the same solve and builds no coupling or potential
    assert wasserstein(p, q, m, value_only=True) == (res_t.value, None, None)


def test_signed_routes_agree_at_any_mass():
    """Both routes of the signed solve agree on zero-sum vectors of mass
    1e-13 ... 1, the size of the residue that defect rows carry."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        d = line_metric(np.cumsum(rng.uniform(0.2, 1.5, size=n))).dist
        v = rng.normal(size=n)
        v -= v.mean()
        v /= np.abs(v).sum() / 2.0  # unit mass in each part
        for k in range(-13, 1):
            values = [
                transport._signed_ot(v * 10.0**k, lambda r, s: d[np.ix_(r, s)], method).value
                for method in ("transport", "lp")
            ]
            assert abs(values[1] - values[0]) <= 1e-9 * values[0], (seed, k)


@st.composite
def _signed_problems(draw):
    """A zero-sum vector on 2 to 12 states, entries between 1e-300 and 1e300
    in absolute value, a cost matrix and a route.  A block may have one row
    or one column."""
    n = draw(st.integers(2, 12))
    signs = np.array(draw(st.lists(st.sampled_from((1.0, -1.0, 0.0)), min_size=n, max_size=n)))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    signs[i], signs[j] = 1.0, -1.0
    mags = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    v = signs * mags * 10.0 ** draw(st.integers(-297, 297))
    neg = v < 0
    v[neg] *= float(v[~neg].sum()) / -float(v[neg].sum())
    cost = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n * n, max_size=n * n)))
    return v, cost.reshape(n, n), draw(st.sampled_from(("transport", "lp")))


def _signed_outcome(solve, v, cost, method):
    """Every field of the plan as (dtype, shape, bytes), or the failure's message."""
    try:
        plan = solve(v, lambda r, s: cost[np.ix_(r, s)], method)
    except NumericalFailure as err:
        return str(err)
    return [(np.asarray(x).dtype.str, np.shape(x), np.asarray(x).tobytes()) for x in plan]


@given(_signed_problems())
@example((np.array([3e299, 7e299, -1e300]), np.arange(9.0).reshape(3, 3), "transport"))
@example((np.array([-2e-300, 5e-301, 1.5e-300]), np.eye(3) - 0.5, "transport"))
@settings(max_examples=200, deadline=None)
def test_signed_solve_matches_the_frozen_solve_bit_for_bit(problem):
    """Value, supports, plan, duals and slack are the frozen solve's bytes."""
    v, cost, method = problem
    want = _signed_outcome(frozen_signed_ot, v, cost, method)
    assert _signed_outcome(transport._signed_ot, v, cost, method) == want


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_w1_is_a_metric_on_distributions(n, seed):
    rng = np.random.default_rng(seed)
    m = line_metric(np.cumsum(rng.uniform(0.2, 1.5, size=n)))
    p = ProbVec(rng.dirichlet(np.ones(n)))
    q = ProbVec(rng.dirichlet(np.ones(n)))
    u = ProbVec(rng.dirichlet(np.ones(n)))
    wpq = wasserstein(p, q, m).value
    wqp = wasserstein(q, p, m).value
    assert wpq == pytest.approx(wqp, abs=1e-9)
    wpu = wasserstein(p, u, m).value
    wqu = wasserstein(q, u, m).value
    assert wpu <= wpq + wqu + 1e-9
    assert wasserstein(p, p, m).value <= 1e-15


def test_signed_rows_and_matrix_norm():
    toy_q = np.array([[-1.0, 0.0, 1.0], [1.0, -4.0, 3.0], [0.0, 2.0, -2.0]])
    toy_d = validate_metric(
        np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
    )
    theta = np.array([[-2.0, 2.0], [2.0, -2.0]])
    a = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    defect = theta @ a - a @ toy_q
    vec = row_wasserstein_vector(defect, toy_d)
    assert np.allclose(vec, [1.0, 1.0], atol=1e-12)
    assert vec.max() == pytest.approx(1.0, abs=1e-12)
    # scalar signed rows
    assert wasserstein_signed(np.array([0.5, -0.5, 0.0]), toy_d) == pytest.approx(0.5, abs=1e-12)
    assert wasserstein_signed(np.zeros(3), toy_d) == 0.0
    # homogeneity: W(c v) = c W(v)
    v = np.array([0.3, 0.4, -0.7])
    assert wasserstein_signed(3.0 * v, toy_d) == pytest.approx(
        3.0 * wasserstein_signed(v, toy_d), abs=1e-12
    )
    # signed value equals mass-normalized two-distribution distance
    pos = np.where(v > 0, v, 0.0)
    neg = np.where(v < 0, -v, 0.0)
    mass = pos.sum()
    direct = wasserstein(ProbVec(pos / mass), ProbVec(neg / mass), toy_d).value
    assert wasserstein_signed(v, toy_d) == pytest.approx(mass * direct, abs=1e-12)
    # a row with nonzero sum has no finite signed distance
    with pytest.raises(RowSumNotZero) as exc:
        row_wasserstein_vector(np.array([[0.5, -0.5, 0.0], [1.0, 1.0, 1.0]]), toy_d)
    assert "2" in str(exc.value)


@pytest.mark.parametrize("side, block, distinct", [(8, 2, 9), (9, 3, 9)])
def test_row_wasserstein_vector_solves_each_distinct_row_once(monkeypatch, side, block, distinct):
    """The defect rows of a box walk with square blocks repeat away from the
    boundary: on the 8x8 walk with 2x2 blocks 16 rows pose 9 distinct
    problems, on the 9x9 walk with 3x3 blocks 9 rows pose 9.  Each is solved
    once, and the values equal the per-row loop bit for bit."""
    jumps = JumpDistribution(
        (((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25))
    )
    gen, metric = translation_invariant_ctmc(Box((0, 0), (side - 1, side - 1)), 1.0, jumps)
    blocks = [
        tuple(r * side + c + 1 for r in range(br, br + block) for c in range(bc, bc + block))
        for br in range(0, side, block)
        for bc in range(0, side, block)
    ]
    agg = partition_aggregation_ctmc(gen, Partition(tuple(blocks)))
    mat = agg.chain.q @ agg.a - agg.a @ gen.q
    loop = np.array([wasserstein_signed(row, metric) for row in mat])
    calls = []
    signed = transport.wasserstein_signed

    def counting(row, metric):
        calls.append(1)
        return signed(row, metric)

    monkeypatch.setattr(transport, "wasserstein_signed", counting)
    values = row_wasserstein_vector(mat, metric)
    assert len(calls) == distinct
    np.testing.assert_array_equal(values.view(np.int64), loop.view(np.int64))


def test_tv_identity_under_discrete_metric():
    """On the discrete metric, W1 collapses to total variation."""
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        p = ProbVec(rng.dirichlet(np.ones(n)))
        q = ProbVec(rng.dirichlet(np.ones(n)))
        res = wasserstein(p, q, discrete_metric(n))
        tv = 0.5 * float(np.abs(p.p - q.p).sum())
        assert abs(res.value - tv) <= 1e-12, f"seed {seed}"


def test_validation_errors():
    m3 = discrete_metric(3)
    with pytest.raises(DimensionMismatch):
        wasserstein(ProbVec(np.array([0.5, 0.5])), ProbVec(np.ones(3) / 3), m3)
    with pytest.raises(DimensionMismatch):
        wasserstein(ProbVec(np.ones(4) / 4), ProbVec(np.ones(4) / 4), m3)
    with pytest.raises(ValueError):
        wasserstein(ProbVec(np.ones(3) / 3), ProbVec(np.ones(3) / 3), m3, method="sinkhorn")
    with pytest.raises(ValueError):
        Coupling(np.eye(3) / 3.0, np.ones(3) / 3, np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError):
        Coupling(np.array([[0.6, -0.1], [0.0, 0.5]]), np.array([0.5, 0.5]), np.array([0.6, 0.4]))
    with pytest.raises(DimensionMismatch):
        Coupling(np.eye(2) / 2.0, np.ones(3) / 3, np.ones(3) / 3)
    with pytest.raises(ValueError):
        Potential(np.array([0.0, 5.0, 0.0]), m3)  # not 1-Lipschitz for d = 1
    with pytest.raises(ValueError):
        Potential(np.array([1.0, 1.5, 1.2]), m3)  # minimum is not 0
    with pytest.raises(RowSumNotZero):
        SignedRow(np.array([0.5, 0.4]))
    with pytest.raises(DimensionMismatch):
        wasserstein_signed(np.array([0.5, -0.5]), m3)


def test_verify_detects_corruption():
    # marginal-preserving rectangle move away from the optimum
    g = GAMMA6_ONE_SIDED.copy()
    eps = 0.04
    g[0, 0] -= eps
    g[0, 1] += eps
    g[3, 1] -= eps
    g[3, 0] += eps
    bad = Coupling(g, P6, Q6)
    report = verify_optimal_pair(bad, Potential(F6, LINE6), LINE6)
    assert not report.slackness_ok
    assert not report.duality_ok
    assert not report.all_ok
    # a valid but non-optimal potential breaks duality only
    flat = Potential(np.zeros(6), LINE6)
    report2 = verify_optimal_pair(Coupling(GAMMA6_ONE_SIDED, P6, Q6), flat, LINE6)
    assert report2.potential_ok
    assert not report2.duality_ok


@pytest.mark.parametrize("c", [1e-9, 1e9])
def test_wasserstein_scale_invariance(c):
    """W1(p, q; c d) = c W1(p, q; d), and the certificate holds in either unit."""
    for seed in range(20):
        _, metric, p0 = random_instance(6, seed, metric_kind="graph")
        q = ProbVec(np.random.default_rng(seed).dirichlet(np.ones(6)))
        base = wasserstein(p0, q, metric).value
        scaled_metric = validate_metric(metric.dist * c)
        res = wasserstein(p0, q, scaled_metric)
        assert abs(res.value / c - base) <= 1e-9 * base, seed
        assert verify_optimal_pair(res.coupling, res.potential, scaled_metric).all_ok, seed


def test_invalid_solver_potential_is_numerical_failure(monkeypatch):
    # State 3 carries equal mass in p and q, so raising f(3) leaves the dual
    # value (and the gap check) untouched but breaks the Lipschitz property.
    p = ProbVec(np.array([0.5, 0.25, 0.25]))
    q = ProbVec(np.array([0.25, 0.5, 0.25]))
    real = transport._potential_from_row_duals

    def broken(u, metric):
        return real(u, metric) + np.array([0.0, 0.0, 10.0])

    monkeypatch.setattr(transport, "_potential_from_row_duals", broken)
    with pytest.raises(NumericalFailure, match="1-Lipschitz"):
        wasserstein(p, q, discrete_metric(3))


def _record_kernel_shapes(monkeypatch) -> list:
    shapes = []
    real = transport._kernels.transport_loop

    def recording(cost, p, q, tol, max_iter):
        shapes.append(cost.shape)
        return real(cost, p, q, tol, max_iter)

    monkeypatch.setattr(transport._kernels, "transport_loop", recording)
    return shapes


def test_wasserstein_solves_only_the_supports_of_p_minus_q(monkeypatch):
    # blocks with one row or one column have forced plans and skip the kernel
    shapes = _record_kernel_shapes(monkeypatch)
    forced = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        p = rng.dirichlet(np.ones(n))
        q = np.where(rng.random(n) < 0.4, p, rng.dirichlet(np.ones(n)))
        p, q = ProbVec(p), ProbVec(q / q.sum())  # normalized, as wasserstein sees them
        m = line_metric(np.cumsum(rng.uniform(0.2, 1.5, size=n)))
        shapes.clear()
        res = wasserstein(p, q, m)
        diff = p.p - q.p
        block = (int((diff > 0).sum()), int((diff < 0).sum()))
        if min(block) == 1:
            forced.add(block[0] == 1)
            assert shapes == [], seed
        else:
            assert shapes == [block], seed
        # the shared mass stays on the diagonal
        assert np.all(np.diagonal(res.coupling.gamma) >= np.minimum(p.p, q.p))
        assert verify_optimal_pair(res.coupling, res.potential, m).all_ok, seed
    assert forced == {True, False}  # both a single row and a single column
    shapes.clear()
    assert wasserstein(p, p, m).value == 0.0
    assert shapes == []  # p = q makes no kernel call


def test_wasserstein_coupling_is_one_sided_without_canonicalization():
    # P6/Q6 admit the two-sided optimum GAMMA6_TWO_SIDED
    for method in ("transport", "lp"):
        res = wasserstein(ProbVec(P6), ProbVec(Q6), LINE6, method=method)
        report = verify_optimal_pair(res.coupling, res.potential, LINE6)
        assert report.one_sided_ok and report.all_ok, method
        for seed in range(10):
            p, q = _probvec_pair(seed, 7)
            m = line_metric(np.arange(7.0))  # integer distances: many optimal plans
            res = wasserstein(p, q, m, method=method)
            assert verify_optimal_pair(res.coupling, res.potential, m).one_sided_ok, (method, seed)


def test_stalled_kernel_raises_and_never_reaches_the_lp(monkeypatch):
    """A kernel stopped at ``max_iter=0`` is a numerical failure, and no
    ``method="transport"`` solve calls the LP; ``method="lp"`` still gives
    the value of the unforced kernel.

    The instance is one where Russell's start is not optimal (its 3x5 block
    takes three pivots), so the stopped kernel really stalls.
    """
    real_loop = transport._kernels.transport_loop
    real_solve = transport.solve
    solves = []
    pivots = []

    def counting_pivots(cost, p, q, tol, max_iter):
        out = real_loop(cost, p, q, tol, max_iter)
        pivots.append(out[4])
        return out

    def no_pivots(cost, p, q, tol, max_iter):
        return real_loop(cost, p, q, tol, 0)

    def counting(lp, *args, **kwargs):
        solves.append(lp)
        return real_solve(lp, *args, **kwargs)

    _, m, p = random_instance(8, 16, metric_kind="graph")
    q = ProbVec(np.random.default_rng(16).dirichlet(np.ones(8)))
    monkeypatch.setattr(transport._kernels, "transport_loop", counting_pivots)
    expected = wasserstein(p, q, m).value
    assert pivots == [3]
    monkeypatch.setattr(transport._kernels, "transport_loop", no_pivots)
    monkeypatch.setattr(transport, "solve", counting)
    for value_only in (False, True):
        with pytest.raises(NumericalFailure, match="3x5 block after 0 of 3600 pivots"):
            wasserstein(p, q, m, value_only=value_only)
    assert solves == []
    res = wasserstein(p, q, m, method="lp")
    assert len(solves) == 1
    assert res.value == pytest.approx(expected, abs=1e-12)
    assert verify_optimal_pair(res.coupling, res.potential, m).all_ok


def test_forced_plans_skip_the_kernel(monkeypatch):
    """A block with one row or one column is solved in closed form.

    The plan ships the one row to every column (or every row to the one
    column); its value matches the kernel's on the same block within
    ``1e-15 * max|cost| * mass`` and its row duals equal the kernel's bit for bit.
    """
    real = transport._kernels.transport_loop
    calls = []

    def recording(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(transport._kernels, "transport_loop", recording)
    rng = np.random.default_rng(12)
    for case in range(400):
        k = int(rng.integers(1, 13))
        shape = (1, k) if case % 2 else (k, 1)
        if case % 3:
            cost = rng.uniform(-10.0, 10.0, size=shape)
        else:
            cost = rng.integers(-3, 4, size=shape).astype(float)
        cost[0, 0] = 1.0  # max|cost| > 0
        p = rng.dirichlet(np.ones(shape[0])) * rng.uniform(0.1, 5.0)
        q = rng.dirichlet(np.ones(shape[1]))
        q *= float(p.sum()) / float(q.sum())
        value, gamma, u = transport._ot(p, q, cost, float(np.abs(cost).max()))
        assert calls == [], case
        forced = q.reshape(1, -1) if shape[0] == 1 else p.reshape(-1, 1)
        assert np.array_equal(gamma, forced), case
        tol = 1e-11 * float(np.abs(cost).max())
        status, kgamma, ku, _, _ = real(cost, p, q, tol, 200 * sum(shape) + 2000)
        assert status == transport._kernels.STATUS_OPTIMAL
        scale = float(np.abs(cost).max()) * float(p.sum())
        assert abs(value - float(np.sum(kgamma * cost))) <= 1e-15 * scale, case
        assert np.array_equal(u, ku), case
    # through the public entry points: one sending and one receiving state
    line = line_metric(np.arange(5.0))
    assert wasserstein_signed(np.array([1.0, -0.25, 0.0, -0.5, -0.25]), line) == 2.75
    assert wasserstein_signed(np.array([0.25, 0.0, 0.5, -1.0, 0.25]), line) == 1.5
    assert calls == []


def test_plan_missing_a_margin_raises(monkeypatch):
    """Every caller of the signed solve checks the plan's margins.

    The patched kernel's plan ships only half of its first row's mass.  Then
    three plans are spoiled after the solve, keeping its value: one ships
    twice its first column's mass, one sends a flow below
    ``-MARGINAL_TOL * mass`` round a cycle that keeps every margin, and one
    carries a NaN flow.
    """
    real = transport._kernels.transport_loop
    calls = []

    def short(cost, p, q, tol, max_iter):
        status, gamma, u, v, it = real(cost, p, q, tol, max_iter)
        calls.append(cost.shape)
        gamma[0] *= 0.5
        return status, gamma, u, v, it

    monkeypatch.setattr(transport._kernels, "transport_loop", short)
    with pytest.raises(NumericalFailure, match="margins"):
        wasserstein_signed(np.array([0.5, 0.5, -0.5, -0.5]), line_metric(np.arange(4.0)))
    assert calls == [(2, 2)]

    gen, metric, _ = random_instance(6, 0, "graph")
    calls.clear()
    with pytest.raises(NumericalFailure, match="margins"):
        kappa(gen, metric, 1, 3)  # a 3x3 block
    assert calls

    jumps = JumpDistribution((((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)))
    gen, metric = translation_invariant_ctmc(Box((0, 0), (5, 5)), 1.0, jumps)
    blocks = tuple(
        tuple(i * 6 + j + 1 for i in range(bi, bi + 3) for j in range(bj, bj + 3))
        for bi in (0, 3)
        for bj in (0, 3)
    )
    agg = partition_aggregation_ctmc(gen, Partition(blocks))
    calls.clear()
    with pytest.raises(NumericalFailure, match="margins"):
        exact_error_curve(dirac(gen.n, 1), gen, metric, agg, np.array([0.0, 1.0, 2.0]))
    assert calls

    monkeypatch.setattr(transport._kernels, "transport_loop", real)
    real_ot = transport._ot

    def double_column(gamma):  # every residue >= 0, column 1's above the slack
        gamma[:, 0] *= 2.0

    def negative_flow(gamma):
        t = float(gamma[0, 0]) + 1e-3
        gamma[[0, 1], [0, 1]] -= t
        gamma[[0, 1], [1, 0]] += t

    def nan_flow(gamma):
        gamma[0, 0] = np.nan

    gen, metric, _ = random_instance(6, 0, "graph")
    for spoil in (double_column, negative_flow, nan_flow):

        def spoiled(*args):
            value, gamma, u = real_ot(*args)
            gamma = gamma.copy()
            spoil(gamma)
            return value, gamma, u

        monkeypatch.setattr(transport, "_ot", spoiled)
        with pytest.raises(NumericalFailure, match="margins"):
            wasserstein_signed(np.array([0.5, 0.5, -0.5, -0.5]), line_metric(np.arange(4.0)))
        with pytest.raises(NumericalFailure, match="margins"):
            kappa(gen, metric, 1, 3)
