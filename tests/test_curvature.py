"""Coarse Ricci curvature: exact pair LPs, closed-form bounds, prefilter."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wdbounds.curvature as curvature_mod
import wdbounds.transport as transport_mod
from wdbounds.aggregation import Partition, partition_aggregation_ctmc
from wdbounds.bounds import defect, prepare_bound_inputs
from wdbounds.curvature import (
    _k_constants,
    curvature_report,
    k_matrix,
    kappa,
    kappa_all_pairs,
    kappa_min,
)
from wdbounds.errors import DimensionMismatch, NumericalFailure, SamePair, SingleState
from wdbounds.markov import Generator, ProbVec, TransitionMatrix, dirac, uniformize
from wdbounds.metric import discrete_metric, irreducible_pairs, line_metric, validate_metric
from wdbounds.models import Box, JumpDistribution, random_instance, translation_invariant_ctmc
from wdbounds.transport import _row_supports, wasserstein

from .oracles import (
    DERIVATIVE_PIN_SLACK,
    _lipschitz_value,
    curvature_bounds_exact,
    kappa_finite_difference,
    transient_series,
    wasserstein_derivative,
)

TOY_Q = np.array([[-1.0, 0.0, 1.0], [1.0, -4.0, 3.0], [0.0, 2.0, -2.0]])
TOY_D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])

# pair -> (kappa, k) for TOY_Q under TOY_D
TOY_TABLE = {(1, 2): (-6.0, -14.0), (1, 3): (2.6, 2.6), (2, 3): (4.75, 4.75)}
# same chain under the discrete metric
TOY_TABLE_DISCRETE = {(1, 2): (2.0, 1.0), (1, 3): (1.0, 1.0), (2, 3): (5.0, 5.0)}


@pytest.fixture(scope="module")
def toy():
    return Generator(TOY_Q), validate_metric(TOY_D)


def _k_pair(gen, metric, r, s):
    """``k(r,s)`` from its closed form, two dot products for the one pair."""
    d = metric.dist
    qr, qs = gen.row(r), gen.row(s)
    own_r = min(float(qr @ d[:, r - 1]), float(qr @ d[:, s - 1]))
    own_s = min(float(qs @ d[:, s - 1]), float(qs @ d[:, r - 1]))
    return -(own_r + own_s) / metric.d(r, s)


def test_toy_pair_table_both_methods(toy):
    gen, metric = toy
    kmat = k_matrix(gen, metric)
    for (r, s), (kap, klow) in TOY_TABLE.items():
        assert kappa(gen, metric, r, s) == pytest.approx(kap, abs=1e-9)
        # curvature is symmetric in the pair
        assert kappa(gen, metric, s, r) == pytest.approx(kap, abs=1e-9)
        assert kmat[r - 1, s - 1] == pytest.approx(klow, abs=1e-12)
    assert curvature_report(gen, metric, k_only=True).k_min == pytest.approx(-14.0, abs=1e-12)
    k_loc = _k_constants(kmat, metric)[2]
    assert k_loc.max() == pytest.approx(14.0, abs=1e-12)
    for r, want in ((1, 14.0), (2, 14.0), (3, 0.0)):
        assert k_loc[r - 1] == pytest.approx(want, abs=1e-12)


def test_toy_discrete_metric_table(toy):
    gen, _ = toy
    metric = discrete_metric(3)
    kmat = k_matrix(gen, metric)
    for (r, s), (kap, klow) in TOY_TABLE_DISCRETE.items():
        assert kappa(gen, metric, r, s) == pytest.approx(kap, abs=1e-9)
        assert kmat[r - 1, s - 1] == pytest.approx(klow, abs=1e-12)
        # discrete metric: k(r,s) = Q(r,s) + Q(s,r)
        assert klow == TOY_Q[r - 1, s - 1] + TOY_Q[s - 1, r - 1]
    assert _k_constants(kmat, metric)[1] == 0.0  # k > 0 everywhere here


def test_k_matrix_closed_form(toy):
    gen, metric = toy
    kmat = k_matrix(gen, metric)
    assert np.isnan(np.diagonal(kmat)).all()
    for r in range(1, 4):
        for s in range(1, 4):
            if r != s:
                assert kmat[r - 1, s - 1] == pytest.approx(
                    _k_pair(gen, metric, r, s), abs=1e-12
                )
    assert np.allclose(kmat[~np.eye(3, dtype=bool)], kmat.T[~np.eye(3, dtype=bool)])


@pytest.mark.parametrize("density", [1.0, 0.3, 0.0])
def test_k_matrix_product_sums_nonzeros_in_column_order(density):
    """``Q d`` inside k_matrix equals a plain loop over each row's nonzeros,
    bit for bit, and a BLAS product to rounding."""
    for seed in range(6):
        gen, metric, _ = random_instance(3 + seed, 40 + seed, metric_kind="graph", density=density)
        q, d = gen.q, metric.dist
        got = curvature_mod._q_times_d(gen, d)
        for a in range(gen.n):
            for b in range(gen.n):
                acc = 0.0
                for c in np.flatnonzero(q[a]):
                    acc += float(q[a, c]) * float(d[c, b])
                assert got[a, b] == acc
        scale = np.abs(q).sum(axis=1).max() * d.max()
        np.testing.assert_allclose(got, q @ d, rtol=0, atol=1e-13 * scale)


def test_k_matrix_is_bitwise_symmetric():
    """``k(r,s)`` and ``k(s,r)`` are the same bits: ``own + own.T`` adds the
    same two terms either way and ``d`` is exactly symmetric, so
    :func:`kappa_min` reads the upper triangle alone."""
    kinds = ("line", "graph", "discrete")
    instances = [
        random_instance(3 + seed % 8, 900 + seed, metric_kind=kinds[seed % 3])[:2]
        for seed in range(24)
    ]
    grid = JumpDistribution((((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)))
    instances.append(translation_invariant_ctmc(Box((0, 0), (7, 7)), 1.0, grid))
    # the same two as matrices: the scan, where the walks take the closed form
    instances += [(Generator(gen.q), metric) for gen, metric in instances[-2:]]
    for gen, metric in instances:
        kmat = k_matrix(gen, metric)
        np.testing.assert_array_equal(_bits(kmat), _bits(kmat.T))


def test_kappa_dominates_k_randomized():
    for seed in range(25):
        gen, metric, _ = random_instance(int(np.random.default_rng(seed).integers(3, 9)), seed)
        kmat = k_matrix(gen, metric)
        kap = kappa_all_pairs(gen, metric)
        off = ~np.eye(gen.n, dtype=bool)
        assert (kap[off] >= kmat[off] - 1e-7).all(), f"seed {seed}"


def test_kappa_matches_lp_oracles_randomized():
    """The transport route against the dense LP that remains, on every pair.

    ``_lipschitz_value`` with the pin held exact is the curvature LP itself.
    ``-wasserstein_derivative(delta_r, delta_s) / d(r,s)`` relaxes the pin by
    ``DERIVATIVE_PIN_SLACK * d_max * |delta_r - delta_s|_1``, which can only
    lower it, by at most the slack times the pin's multiplier (at most the
    moved mass ``|obj+|_1``).
    """
    for seed in range(24):
        kind = ("line", "graph", "discrete")[seed % 3]
        n = int(np.random.default_rng(seed).integers(3, 9))
        gen, metric, _ = random_instance(n, 100 + seed, metric_kind=kind)
        eye = np.eye(n)
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                kap = kappa(gen, metric, r, s)
                drs = metric.d(r, s)
                obj = gen.row(r) - gen.row(s)
                pin = eye[r - 1] - eye[s - 1]
                exact_pin = -_lipschitz_value(obj, metric, pin, drs, drs) / drs
                assert kap == pytest.approx(exact_pin, rel=1e-9, abs=1e-9), (seed, r, s)
                oracle = -wasserstein_derivative(
                    ProbVec(eye[r - 1]), ProbVec(eye[s - 1]), gen, metric
                ) / drs
                pin_slack = DERIVATIVE_PIN_SLACK * metric.d_max * 2.0
                slack = pin_slack * float(obj[obj > 0].sum()) / drs
                assert oracle <= kap + 1e-9 * max(1.0, abs(kap)), (seed, r, s)
                assert kap - oracle <= 1e-9 * max(1.0, abs(kap)) + slack, (seed, r, s)


@pytest.mark.parametrize("c", [1e-9, 1e9])
def test_kappa_scale_invariance(c):
    """kappa(Q; c d) = kappa(Q; d) and kappa(c Q; d) = c kappa(Q; d)."""
    for seed in range(12):
        kind = ("line", "graph", "discrete")[seed % 3]
        n = int(np.random.default_rng(seed).integers(3, 9))
        gen, metric, _ = random_instance(n, 700 + seed, metric_kind=kind)
        scaled_metric = validate_metric(metric.dist * c)
        scaled_gen = Generator(gen.q * c)
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                kap = kappa(gen, metric, r, s)
                tol = 1e-9 * max(1.0, abs(kap))
                assert abs(kappa(gen, scaled_metric, r, s) - kap) <= tol, (seed, r, s)
                assert abs(kappa(scaled_gen, metric, r, s) / c - kap) <= tol, (seed, r, s)


@pytest.mark.parametrize("c", [1e-9, 1e9])
def test_wasserstein_derivative_scale_invariance(c):
    """d/dt W1 is linear in the metric and in the rates: the pin slack and
    the LP see the same numbers in any unit."""
    for seed in range(20):
        gen, metric, p0 = random_instance(6, seed, metric_kind="graph")
        q = ProbVec(np.random.default_rng(seed).dirichlet(np.ones(6)))
        base = wasserstein_derivative(p0, q, gen, metric)
        tol = 1e-6 * abs(base)
        scaled_metric = validate_metric(metric.dist * c)
        assert abs(wasserstein_derivative(p0, q, gen, scaled_metric) / c - base) <= tol, seed
        scaled_gen = Generator(gen.q * c)
        assert abs(wasserstein_derivative(p0, q, scaled_gen, metric) / c - base) <= tol, seed


def test_kappa_matches_finite_difference_oracle(toy):
    gen, metric = toy

    def w1(p_arr, q_arr):
        return wasserstein(ProbVec(p_arr), ProbVec(q_arr), metric).value

    for (r, s), (kap, _) in TOY_TABLE.items():
        fd = kappa_finite_difference(w1, gen.q, metric.dist, r, s)
        assert fd == pytest.approx(kap, abs=1e-5)
    for seed in range(8):
        gen2, metric2, _ = random_instance(int(np.random.default_rng(seed).integers(3, 7)), 200 + seed)

        def w2(p_arr, q_arr):
            return wasserstein(ProbVec(p_arr), ProbVec(q_arr), metric2).value

        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, gen2.n + 1))
        s = int(rng.integers(1, gen2.n))
        s = s + 1 if s >= r else s
        fd = kappa_finite_difference(w2, gen2.q, metric2.dist, r, s)
        assert fd == pytest.approx(kappa(gen2, metric2, r, s), abs=1e-4), f"seed {seed}"


def test_kappa_min_prefilter_toy(toy):
    gen, metric = toy
    val, strategy = kappa_min(gen, metric)
    assert val == pytest.approx(-6.0, abs=1e-9)
    assert strategy.kappa_solved == (val,)
    # k(2,3) = 4.75 >= tau = -6: one solve suffices
    assert strategy.pairs_solved == ((1, 2),)
    assert strategy.pairs_total == 3
    # d(1,2) + d(2,3) = d(1,3): state 2 lies between 1 and 3
    assert strategy.pairs_irreducible == 2


def test_kappa_min_equals_all_pairs_minimum():
    for seed in range(12):
        n = int(np.random.default_rng(seed).integers(3, 10))
        gen, metric, _ = random_instance(n, 300 + seed)
        full_min = float(np.nanmin(kappa_all_pairs(gen, metric)))
        val, _ = kappa_min(gen, metric)
        assert val == pytest.approx(full_min, abs=1e-9), f"seed {seed}"


def _rooted_line(n: int, seed: int):
    """A walk on the integer line 0..n-1 (exact midpoints everywhere) with
    random jumps of length 1 to 3 and a root that breaks translation
    invariance, built from its matrix, so :func:`kappa_min` scans its pairs."""
    rng = np.random.default_rng(seed)
    lengths = rng.choice([1, 2, 3], size=int(rng.integers(1, 4)), replace=False)
    offsets = [((int(sign * v),), 1.0) for v in lengths for sign in (1, -1)]
    jumps = JumpDistribution(tuple((off, w / len(offsets)) for off, w in offsets))
    root = int(rng.integers(1, n + 1))
    gen, metric = translation_invariant_ctmc(
        Box((0,), (n - 1,)), float(rng.uniform(0.5, 2.0)), jumps, root, float(rng.uniform(0, 1))
    )
    return Generator(gen.q), metric


@given(
    st.sampled_from(["line", "graph", "discrete", "rooted_line"]),
    st.integers(2, 10),
    st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_kappa_min_over_irreducible_pairs_equals_all_pairs_minimum(kind, n, seed):
    if kind == "rooted_line":
        gen, metric = _rooted_line(n, seed)
    else:
        gen, metric, _ = random_instance(n, seed, metric_kind=kind, density=0.7)
    val, strategy = kappa_min(gen, metric)
    full = float(np.nanmin(kappa_all_pairs(gen, metric)))
    assert abs(val - full) <= 1e-12 * (1.0 + abs(full))
    pairs = [(r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]
    reduced = {pair for pair, keep in zip(pairs, irreducible_pairs(metric)) if keep}
    assert set(strategy.pairs_solved) <= reduced
    assert strategy.pairs_irreducible == len(reduced)


def test_kappa_min_solves_few_pairs_on_a_line():
    """On integer lines only neighbours are irreducible, and one exact solve
    suffices: the pair with the least k is solved exactly, the 23 neighbours
    pose 5 distinct local problems, and every other neighbour with ``k <
    tau`` is skipped (its class was visited) or cut by its class bound,
    which both prove ``kappa >= tau``; the rest are cut by k."""
    line = JumpDistribution((((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))
    for root, first, below_tau, cut in ((None, (3, 4), 21, 2), (1, (21, 22), 22, 3)):
        walk, metric = translation_invariant_ctmc(
            Box((0,), (23,)), 1.0, line, root, 0.05 if root else 0.0
        )
        gen = Generator(walk.q)  # no walk record: the scan
        val, strategy = kappa_min(gen, metric)
        assert strategy.pairs_irreducible == 23
        assert strategy.pairs_total == 276
        assert strategy.pairs_solved == (first,)
        assert strategy.kappa_solved == (val,)
        neighbours = np.arange(23)
        _, classes = curvature_mod._pair_classes(
            gen.q,
            _row_supports(gen.q),
            metric.dist,
            neighbours,
            neighbours + 1,
            curvature_mod._closed_cost,
        )
        assert classes.size == 5
        kmat = k_matrix(gen, metric)
        visited = [(r, r + 1) for r in range(1, 24) if kmat[r - 1, r] < val]
        assert len(visited) == below_tau
        assert strategy.pairs_cut == cut
        assert strategy.pairs_skipped == below_tau - 1 - cut
        for pair in visited:
            if pair != first:
                assert kappa(gen, metric, *pair) >= val


@pytest.mark.parametrize("root", [None, 1])
def test_kappa_min_on_line_walks_solves_few_pairs_at_every_rate(root):
    """The 24-state line walk poses 5 distinct local problems among its 23
    neighbouring pairs, so at most 5 are solved exactly at every rate.
    Every neighbouring pair has ``kappa = 0`` up to rounding; skipping a
    visited class does not depend on that rounding.  The minimum is, bit
    for bit, the least ``kappa`` of :func:`kappa_all_pairs` on the
    irreducible pairs (a reducible pair's computed ``kappa`` may round a few
    ulps lower)."""
    line = JumpDistribution((((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))
    for step in range(11):
        rate = 1.0 + 0.025 * step
        walk, metric = translation_invariant_ctmc(
            Box((0,), (23,)), rate, line, root, 0.05 * rate if root else 0.0
        )
        gen = Generator(walk.q)  # no walk record: the scan
        val, strategy = kappa_min(gen, metric)
        assert len(strategy.pairs_solved) <= 5, rate
        full = kappa_all_pairs(gen, metric)[np.triu_indices(24, k=1)]
        assert val == full[irreducible_pairs(metric)].min(), rate


@st.composite
def _builtin_walks(draw):
    """A builtin walk on a 1-D or 2-D box of side 2 to 9 with one to four
    random jump offsets of length up to 3 (asymmetric, and clipped near the
    boundary), and an optional root."""
    dim = draw(st.integers(1, 2))
    sides = draw(st.lists(st.integers(2, 9), min_size=dim, max_size=dim))
    coord = st.integers(-3, 3)
    offsets = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4, unique=True)
    )
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(offsets), max_size=len(offsets)))
    total = sum(weights)
    jumps = JumpDistribution(tuple((off, w / total) for off, w in zip(offsets, weights)))
    box = Box((0,) * dim, tuple(side - 1 for side in sides))
    rate = draw(st.floats(0.5, 2.0))
    n = int(np.prod(sides))
    root = draw(st.none() | st.integers(1, n))
    root_rate = 0.0 if root is None else draw(st.floats(0.0, 1.0))
    return translation_invariant_ctmc(box, rate, jumps, root, root_rate), rate + root_rate


def _exact_walk_rates(walk) -> list[list[Fraction]]:
    """Each off-diagonal rate of a builtin walk, summed in exact arithmetic
    from ``rate * p`` of each offset and the root rate."""
    pts = walk.box.points().tolist()
    index = {tuple(p): i for i, p in enumerate(pts)}
    n = len(pts)
    rates = [[Fraction(0)] * n for _ in range(n)]
    for offset, prob in walk.jumps.support:
        for i, p in enumerate(pts):
            bounds = zip(p, offset, walk.box.lo, walk.box.hi)
            end = tuple(min(max(c + o, lo), hi) for c, o, lo, hi in bounds)
            if prob != 0.0 and index[end] != i:
                rates[i][index[end]] += Fraction(walk.rate * prob)
    if walk.root is not None:
        for i in range(n):
            if i != walk.root - 1:
                rates[i][walk.root - 1] += Fraction(walk.root_rate)
    return rates


@given(_builtin_walks())
@settings(max_examples=40, deadline=None)
@example(  # a subnormal root rate: each product |e| d underflows
    (
        translation_invariant_ctmc(
            Box((0, 0), (1, 2)), 1.0, JumpDistribution((((-3, -3), 1.0),)), 1, 5e-324
        ),
        1.0,
    )
)
def test_kappa_min_of_builtin_walks_by_the_theorem(walk):
    """A builtin walk under its own metric takes the paper's closed form
    (the root rate, 0 unrooted, less the rounding allowance), within
    ``1e-12 * (rate + root rate)`` of the least ``kappa`` over all pairs.
    Its ``k`` is that of its matrix bit for bit.  Under another metric, and as a generator built from its matrix,
    it takes the scan, the same whether the walk is recorded or not."""
    (gen, metric), scale = walk
    val, strategy = kappa_min(gen, metric)
    full = float(np.nanmin(kappa_all_pairs(gen, metric)))
    assert abs(val - full) <= 1e-12 * scale
    # the allowance covers the stored rates' distance from their exact sums
    _, allowance = gen._walk.kappa_floor()
    exact = _exact_walk_rates(gen._walk)
    for r in range(gen.n):
        moved = sum(abs(Fraction(gen.q[r, x]) - exact[r][x]) * Fraction(metric.dist[r, x])
                    for x in range(gen.n) if x != r)  # fmt: skip
        assert 2 * moved <= Fraction(allowance)
    if strategy.route == "closed-form":
        assert val <= gen._walk.root_rate
        assert len(strategy.pairs_solved) == 1
    plain = Generator(gen.q)
    np.testing.assert_array_equal(_bits(k_matrix(gen, metric)), _bits(k_matrix(plain, metric)))
    assert kappa_min(plain, metric)[1].route == "scan"
    for other in (validate_metric(metric.dist * 2), discrete_metric(gen.n)):
        got, got_strategy = kappa_min(gen, other)
        want, want_strategy = kappa_min(plain, other)
        assert got_strategy.route == "scan"
        assert _bits(got) == _bits(want)
        assert got_strategy == want_strategy


def test_kappa_min_of_a_walk_with_no_interior_pair_scans():
    """Every state of the 4-state line with the single jump +5 jumps to
    state 4: no pair of neighbours keeps its jumps inside the box, so there
    is nothing to certify the theorem's 0 and the scan finds ``kappa_min =
    1``."""
    gen, metric = translation_invariant_ctmc(
        Box((0,), (3,)), 1.0, JumpDistribution((((5,), 1.0),))
    )
    assert gen._walk.certifying_pair() is None
    val, strategy = kappa_min(gen, metric)
    assert strategy.route == "scan"
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shift", [1.0, -1.0])
def test_kappa_min_of_a_walk_whose_pair_misses_the_root_rate_scans(monkeypatch, shift):
    """A certifying solve whose ``kappa`` lies a whole unit above or below
    the root rate, far outside the allowance and the solve's gap, does not
    close the bracket: ``kappa_min`` takes the scan and returns what the scan
    returns on the walk's matrix.  Only that first solve is shifted."""
    line = JumpDistribution((((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))
    gen, metric = translation_invariant_ctmc(Box((0,), (23,)), 1.0, line, 1, 0.05)
    want, want_strategy = kappa_min(Generator(gen.q), metric)
    solve = curvature_mod._pair_plan
    calls = []

    def shifted(chain, metric, i, j):
        plan = solve(chain, metric, i, j)
        calls.append((i, j))
        if len(calls) > 1:
            return plan
        return plan._replace(value=plan.value - shift * float(metric.dist[i, j]))

    monkeypatch.setattr(curvature_mod, "_pair_plan", shifted)
    got, strategy = kappa_min(gen, metric)
    assert calls[0] == gen._walk.certifying_pair()
    assert strategy.route == "scan"
    assert _bits(got) == _bits(want)
    assert strategy == want_strategy


@pytest.mark.parametrize(
    "box, jumps",
    [
        (Box((0,), (23,)), ((1,), (-1,), (2,), (-2,))),
        (Box((0, 0), (7, 7)), ((1, 0), (-1, 0), (0, 1), (0, -1))),
        (Box((0, 0), (11, 11)), ((1, 0), (-1, 0), (0, 1), (0, -1))),
        (Box((0, 0), (17, 17)), ((1, 0), (-1, 0), (0, 1), (0, -1))),
        (Box((0, 0), (29, 29)), ((1, 0), (-1, 0), (0, 1), (0, -1))),
    ],
)
def test_kappa_min_of_unrooted_builtin_walks_is_exactly_zero(box, jumps):
    """The benchmark's line walk and the 8x8 to 30x30 box walks: every
    merged rate is exact, so ``kappa_min`` is 0.0 exactly, after one solve."""
    gen, metric = translation_invariant_ctmc(
        box, 1.0, JumpDistribution(tuple((off, 0.25) for off in jumps))
    )
    val, strategy = kappa_min(gen, metric)
    assert _bits(val) == _bits(0.0)
    assert strategy.route == "closed-form"
    assert len(strategy.pairs_solved) == 1


def test_kappa_min_of_the_rooted_line_is_at_most_the_root_rate():
    """On the rooted 24-state line walk, rates 1 to 1.25: the merged jump
    and root rates of the states next to the root are rounded sums, so the
    root rate is lowered by the allowance, and stays within ``1e-12 *
    rate`` of the least ``kappa`` over all pairs."""
    line = JumpDistribution((((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))
    for step in range(11):
        rate = 1.0 + 0.025 * step
        gen, metric = translation_invariant_ctmc(Box((0,), (23,)), rate, line, 1, 0.05 * rate)
        val, strategy = kappa_min(gen, metric)
        _, allowance = gen._walk.kappa_floor()
        assert strategy.route == "closed-form", rate
        assert val <= 0.05 * rate - allowance, rate
        assert abs(val - np.nanmin(kappa_all_pairs(gen, metric))) <= 1e-12 * rate, rate
        if step == 0:  # fl(0.5 + 0.05) is inexact
            assert allowance > 0


def test_pair_classes_tell_apart_equal_problems_at_different_distances():
    """Pairs (1, 2) and (3, 4) move the same mass from state 5 to state 6,
    but lie 1 and 3 apart, so their DTMC curvatures differ (0 and 2/3):
    ``d(r, s)`` is part of a class key."""
    p = np.zeros((6, 6))
    p[[0, 2], 4] = p[[1, 3], 5] = 1.0
    p[4, 5] = p[5, 4] = 1.0
    pmat, metric = TransitionMatrix(p), line_metric(np.array([0.0, 1.0, 10.0, 13.0, 20.0, 21.0]))
    kappa = curvature_report(pmat, metric, pairs="all").kappa[[0, 9]]  # (1, 2), (3, 4)
    np.testing.assert_array_equal(kappa, [0.0, 1 - 1 / 3])


@pytest.mark.parametrize("kind", ["line", "graph"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [8, 14])
def test_pairs_at_distinct_distances_skip_the_key_passes(kind, seed, n):
    """When every pair's ``d(r, s)`` has its own bytes, no two class keys can
    be equal, so ``_signed_classes`` returns every pair alone without
    reading a support (the one given here raises).  The key passes, run by
    adding one repeated pair, give the same classes to the original pairs;
    on 14 states the repeat comes after the first 64 rows."""
    gen, metric, _ = random_instance(n, seed, metric_kind=kind)
    ii, jj = np.triu_indices(gen.n, k=1)
    extra = metric.dist[ii, jj][:, None]
    assert np.unique(extra).size == ii.size

    def no_support(idx):
        raise AssertionError("the key passes ran")

    alone = np.arange(ii.size)
    cls, first = transport_mod._signed_classes(ii.size, 2 * gen.n, no_support, None, extra)
    np.testing.assert_array_equal(cls, alone)
    np.testing.assert_array_equal(first, alone)
    supports = _row_supports(gen.q)
    cls, first = curvature_mod._pair_classes(
        gen.q, supports, metric.dist, np.append(ii, ii[3]), np.append(jj, jj[3]),
        curvature_mod._closed_cost,
    )  # fmt: skip
    np.testing.assert_array_equal(cls, np.append(alone, 3))
    np.testing.assert_array_equal(first, alone)


def _box_walk(dim: int, seed: int):
    """A translation-invariant walk on a box of 8 to 12 points (2-D: 4 or 5 a
    side, 3-D: 3) with random jumps of length 1 or 2 along each axis."""
    rng = np.random.default_rng(seed)
    side = {1: int(rng.integers(8, 13)), 2: int(rng.integers(4, 6)), 3: 3}[dim]
    offsets = []
    for axis in range(dim):
        for length in rng.choice([1, 2], size=int(rng.integers(1, 3)), replace=False):
            for sign in (1, -1):
                off = [0] * dim
                off[axis] = int(sign * length)
                offsets.append(tuple(off))
    weights = rng.uniform(0.5, 1.5, len(offsets))
    jumps = JumpDistribution(tuple(zip(offsets, (weights / weights.sum()).tolist())))
    box = Box((0,) * dim, (side - 1,) * dim)
    return translation_invariant_ctmc(box, float(rng.uniform(0.5, 2.0)), jumps)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@given(
    st.sampled_from(["walk1", "walk2", "walk3", "rooted_line", "line", "graph"]),
    st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_pairs_with_equal_keys_have_bit_identical_kappa(kind, seed):
    """Pairs whose local problems have equal keys have bit-identical
    ``kappa``, CTMC and DTMC alike, and the class solvers
    (``kappa_all_pairs``, ``curvature_report`` of a DTMC) equal the
    per-pair loops bit for bit.  Translation-invariant walks repeat
    their local problems away from the boundary, so on a long enough line
    the CTMC classes are fewer than the pairs."""
    if kind.startswith("walk"):
        gen, metric = _box_walk(int(kind[-1]), seed)
    elif kind == "rooted_line":
        gen, metric = _rooted_line(9, seed)
    else:
        gen, metric, _ = random_instance(8, seed, metric_kind=kind, density=0.6)
    n = gen.n
    ii, jj = np.triu_indices(n, k=1)
    pmat, _ = uniformize(gen)
    for repeats, mat, cost, per_pair, by_class in (
        (
            kind == "walk1",  # the neighbours r, r + 1 with 2 <= r <= n - 4 pose one problem
            gen.q,
            curvature_mod._closed_cost,
            [kappa(gen, metric, r + 1, s + 1) for r, s in zip(ii, jj)],
            kappa_all_pairs(gen, metric)[ii, jj],
        ),
        (
            False,  # the gate divides each row of P by its sum, which may round differently
            pmat.p,
            lambda d, i, j, a, b: d[a, b],
            [kappa(pmat, metric, r + 1, s + 1) for r, s in zip(ii, jj)],
            curvature_report(pmat, metric, pairs="all").kappa,
        ),
    ):
        cls, first = curvature_mod._pair_classes(
            mat, _row_supports(mat), metric.dist, ii, jj, cost
        )
        np.testing.assert_array_equal(_bits(by_class), _bits(per_pair))
        np.testing.assert_array_equal(_bits(per_pair), _bits(np.array(per_pair)[first][cls]))
        np.testing.assert_array_equal(first, np.unique(cls, return_index=True)[1])
        if repeats:
            assert first.size < ii.size


@given(
    st.sampled_from(["line", "graph", "discrete", "rooted_line"]),
    st.integers(2, 10),
    st.integers(0, 10_000),
    st.floats(0.3, 1.0),
    st.sampled_from([-30, 30]),
)
@settings(max_examples=60, deadline=None)
def test_shared_jump_bound_lies_between_k_and_kappa(kind, n, seed, density, j):
    """``k <= k''`` and ``k'' <= kappa`` on every pair, and the computed cut
    value ``k'' - margin`` lies at or below the exact ``k''``.

    ``k`` and ``k''`` are exact rationals of the float inputs
    (:func:`curvature_bounds_exact`), so the first inequality and the margin
    are checked without rounding; the first holds up to the residue by which
    the float metric misses the triangle inequality (0 on exact metrics).
    ``kappa`` comes from the transport solver, within its own rounding.
    Scaling the rates or the metric by ``2^j`` scales the cut values by
    ``2^j`` or 1 exactly, so the cut does not change
    (``test_kappa_min_work_is_scale_free`` checks the pairs cut).
    """
    if kind == "rooted_line":
        gen, metric = _rooted_line(n, seed)
    else:
        gen, metric, _ = random_instance(n, seed, metric_kind=kind, density=density)
    iu = np.triu_indices(n, k=1)
    lower = curvature_mod._shared_jump_bounds(gen.q, _row_supports(gen.q), metric.dist, *iu)
    kappa = kappa_all_pairs(gen, metric)
    for r, s, low in zip(*iu, lower):
        k_exact, kpp_exact, residue = curvature_bounds_exact(gen.q, metric.dist, r, s)
        assert k_exact <= kpp_exact + residue, (r, s)
        assert Fraction(low) <= kpp_exact, (r, s)
        rates = float(np.abs(gen.q[r]).sum() + np.abs(gen.q[s]).sum())
        slack = 1e-12 * rates * metric.d_max / metric.dist[r, s]
        assert float(kpp_exact) <= kappa[r, s] + slack, (r, s)
    c = 2.0**j
    for scaled_gen, scaled_metric, factor in (
        (Generator(gen.q * c), metric, c),
        (gen, validate_metric(metric.dist * c), 1.0),
    ):
        scaled = curvature_mod._shared_jump_bounds(
            scaled_gen.q, _row_supports(scaled_gen.q), scaled_metric.dist, *iu
        )
        np.testing.assert_array_equal(scaled, lower * factor)


def test_shared_jump_bound_that_is_not_finite_cuts_nothing():
    """Rates of 1e10 on distances of 1e300 overflow every bound: it reads
    ``-inf``, so kappa_min goes on to solve the first pair, whose cost
    overflows too and raises, instead of cutting it and returning ``+inf``."""
    q = np.full((3, 3), 1e10)
    np.fill_diagonal(q, -2e10)
    metric = line_metric(np.array([0.0, 1e300, 1.5e300]))
    gen = Generator(q)
    iu = np.triu_indices(3, k=1)
    with np.errstate(all="raise"):  # the bound computes under its own errstate
        lower = curvature_mod._shared_jump_bounds(gen.q, _row_supports(gen.q), metric.dist, *iu)
    assert (lower == -np.inf).all()
    with pytest.raises(NumericalFailure), np.errstate(over="ignore", invalid="ignore"):
        curvature_mod._kappa_min(gen, metric, np.zeros((3, 3)))


@given(
    st.sampled_from(["line", "graph", "discrete", "rooted_line"]),
    st.integers(2, 10),
    st.integers(0, 10_000),
    st.sampled_from([-30, 30]),
)
@settings(max_examples=60, deadline=None)
def test_kappa_min_work_is_scale_free(kind, n, seed, j):
    """Scaling the rates or the metric by ``2^j`` solves, cuts and skips the
    same pairs and scales kappa_min by ``2^j`` or 1, exactly: no cut at tau
    has a unit, and scaling keeps equal problems equal."""
    if kind == "rooted_line":
        gen, metric = _rooted_line(n, seed)
    else:
        gen, metric, _ = random_instance(n, seed, metric_kind=kind, density=0.7)
    val, strategy = kappa_min(gen, metric)
    c = 2.0**j
    for (scaled, scaled_strategy), factor in (
        (kappa_min(Generator(gen.q * c), metric), c),
        (kappa_min(gen, validate_metric(metric.dist * c)), 1.0),
    ):
        assert scaled_strategy.pairs_solved == strategy.pairs_solved
        assert scaled_strategy.pairs_cut == strategy.pairs_cut
        assert scaled_strategy.pairs_skipped == strategy.pairs_skipped
        assert scaled == val * factor


@given(
    st.sampled_from(["line", "graph", "discrete", "rooted_line"]),
    st.integers(2, 10),
    st.integers(0, 10_000),
    st.sampled_from([-30, 0, 30]),
)
@settings(max_examples=60, deadline=None)
def test_kappa_min_is_the_least_kappa_at_every_scale(kind, n, seed, j):
    """On the chain with its rates or its metric scaled by ``2^j``, kappa_min
    equals the minimum over all pairs within ``1e-12`` relative, and the
    same pairs are solved at every scale."""
    if kind == "rooted_line":
        gen, metric = _rooted_line(n, seed)
    else:
        gen, metric, _ = random_instance(n, seed, metric_kind=kind, density=0.7)
    c = 2.0**j
    runs = []
    for scaled_gen, scaled_metric in (
        (gen, metric),
        (Generator(gen.q * c), metric),
        (gen, validate_metric(metric.dist * c)),
    ):
        val, strategy = kappa_min(scaled_gen, scaled_metric)
        full = kappa_all_pairs(scaled_gen, scaled_metric)
        assert abs(val - np.nanmin(full)) <= 1e-12 * (1.0 + abs(np.nanmin(full)))
        runs.append(strategy.pairs_solved)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_dtmc_curvature_hand_values(toy):
    """Uniformized toy chain: P1 = (.75, 0, .25), P2 = (.25, 0, .75),
    P3 = (0, .5, .5).  By hand: W1(P1,P2) = 2.5 (move .5 across d(1,3) = 5),
    W1(P1,P3) = 1.75, W1(P2,P3) = 1.25, so kappa = (-1.5, 0.65, 0.6875)."""
    gen, metric = toy
    pmat, lam = uniformize(gen)
    assert lam == 4.0
    hand = {(1, 2): -1.5, (1, 3): 0.65, (2, 3): 0.6875}
    for (r, s), want in hand.items():
        assert kappa(pmat, metric, r, s) == pytest.approx(want, abs=1e-12)
        # uniformization only bounds the CTMC curvature: DTMC kappa <= CTMC kappa / lam
        assert kappa(pmat, metric, r, s) <= TOY_TABLE[(r, s)][0] / lam + 1e-12
    # and the gap is real: the pin constraint is absent from plain W1
    assert kappa(pmat, metric, 2, 3) < TOY_TABLE[(2, 3)][0] / lam - 0.4


def test_dtmc_curvature_randomized_inequality():
    for seed in range(15):
        n = int(np.random.default_rng(seed).integers(3, 8))
        gen, metric, _ = random_instance(n, 400 + seed)
        pmat, lam = uniformize(gen)
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, n + 1))
        s = int(rng.integers(1, n))
        s = s + 1 if s >= r else s
        assert kappa(pmat, metric, r, s) <= kappa(gen, metric, r, s) / lam + 1e-8


def test_dtmc_identity_chain_is_flat():
    metric = discrete_metric(3)
    pmat = TransitionMatrix(np.eye(3))
    for r, s in ((1, 2), (1, 3), (2, 3)):
        assert kappa(pmat, metric, r, s) == pytest.approx(0.0, abs=1e-12)


def test_derivative_on_dirac_pairs(toy):
    """For point masses the derivative collapses to -kappa(r,s) d(r,s)."""
    gen, metric = toy
    for (r, s), (kap, _) in TOY_TABLE.items():
        p = ProbVec(np.eye(3)[r - 1])
        q = ProbVec(np.eye(3)[s - 1])
        got = wasserstein_derivative(p, q, gen, metric)
        assert got == pytest.approx(-kap * metric.d(r, s), abs=1e-6)


def test_derivative_matches_finite_difference(toy):
    gen, metric = toy
    cases = [
        (np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0])),
        (np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.3])),
    ]
    for p_arr, q_arr in cases:
        got = wasserstein_derivative(ProbVec(p_arr), ProbVec(q_arr), gen, metric)

        def w_at(t: float) -> float:
            pt = transient_series(p_arr, gen.q, t)
            qt = transient_series(q_arr, gen.q, t)
            return wasserstein(ProbVec(pt), ProbVec(qt), metric).value

        w0 = w_at(0.0)
        h = 1e-4
        d1 = (w_at(h) - w0) / h
        d2 = (w_at(h / 2) - w0) / (h / 2)
        assert got == pytest.approx(2.0 * d2 - d1, abs=1e-5)


def test_curvature_report_modes(toy):
    gen, metric = toy
    rep = curvature_report(gen, metric, pairs="all")
    assert len(rep.r) == 3
    assert not np.isnan(rep.kappa).any()
    assert rep.k_min == pytest.approx(-14.0)
    assert rep.K_global == pytest.approx(14.0)
    assert rep.kappa_min == pytest.approx(-6.0, abs=1e-9)
    by_pair = {(r, s): (kap, k) for r, s, k, kap in zip(rep.r, rep.s, rep.k, rep.kappa)}
    for pair, (kap, klow) in TOY_TABLE.items():
        got_kap, got_k = by_pair[pair]
        assert got_kap == pytest.approx(kap, abs=1e-9)
        assert got_k == pytest.approx(klow, abs=1e-12)

    rep_min = curvature_report(gen, metric, pairs="min")
    assert rep_min.kappa_min == pytest.approx(-6.0, abs=1e-9)
    solved = {(1, 2)}
    has_kappa = ~np.isnan(rep_min.kappa)
    assert set(zip(rep_min.r[has_kappa], rep_min.s[has_kappa])) == solved
    assert rep_min.strategy is not None

    rep_one = curvature_report(gen, metric, pairs=(3, 2))
    assert len(rep_one.r) == 1
    assert (rep_one.r[0], rep_one.s[0]) == (2, 3)
    assert rep_one.kappa[0] == pytest.approx(4.75, abs=1e-9)
    assert rep_one.kappa_min is None

    rep_k = curvature_report(gen, metric, pairs="all", k_only=True)
    assert np.isnan(rep_k.kappa).all()
    assert rep_k.kappa_min is None
    assert rep_k.k_min == pytest.approx(-14.0)

    with pytest.raises(ValueError):
        curvature_report(gen, metric, pairs="everything")


@pytest.mark.parametrize("seed", range(6))
def test_curvature_report_of_a_dtmc_matches_kappa_dtmc(seed):
    """For a DTMC the report's kappa is, bit for bit, ``kappa`` on every
    pair (``"all"``), on the pairs :func:`kappa_min` solves (``"min"``, the
    others unsolved) and on a single pair, which gets no ``kappa_min``; a
    DTMC has no ``k``, ``k_min`` or ``K_global``, and only ``"min"`` has a
    strategy, which cuts no pair."""
    kind = ("line", "graph", "discrete")[seed % 3]
    gen, metric, _ = random_instance(3 + seed, 600 + seed, metric_kind=kind)
    pmat, _ = uniformize(gen)
    n = pmat.n
    ii, jj = np.triu_indices(n, k=1)
    per_pair = np.array([kappa(pmat, metric, r + 1, s + 1) for r, s in zip(ii, jj)])
    rep_all = curvature_report(pmat, metric, pairs="all")
    rep_min = curvature_report(pmat, metric, pairs="min")
    strategy = rep_min.strategy
    assert strategy.pairs_cut == 0
    assert strategy.pairs_irreducible == irreducible_pairs(metric).sum()
    solve = np.isin(ii * n + jj, [(r - 1) * n + s - 1 for r, s in strategy.pairs_solved])
    np.testing.assert_array_equal(_bits(rep_all.kappa), _bits(per_pair))
    np.testing.assert_array_equal(_bits(rep_min.kappa[solve]), _bits(per_pair[solve]))
    np.testing.assert_array_equal(_bits(strategy.kappa_solved), _bits(per_pair[solve]))
    assert np.isnan(rep_min.kappa[~solve]).all()
    assert rep_all.kappa_min == per_pair.min()
    assert rep_min.kappa_min == per_pair[irreducible_pairs(metric)].min()
    assert rep_all.strategy is None
    reports = [rep_all, rep_min]
    for pair in ((1, n), (n, 2)):
        rep_one = curvature_report(pmat, metric, pairs=pair)
        np.testing.assert_array_equal(rep_one.r, [min(pair)])
        want = kappa(pmat, metric, *sorted(pair))
        np.testing.assert_array_equal(_bits(rep_one.kappa), _bits([want]))
        assert rep_one.kappa_min is None
        reports.append(rep_one)
        assert rep_one.strategy is None
    for rep in reports:
        assert rep.k is None and rep.k_min is None and rep.K_global is None


def _dtmc_chains():
    """The six chains of the DTMC report test, uniformized, and the
    uniformized 24-state line walk with jumps +-1 and +-2."""
    chains = []
    for seed in range(6):
        kind = ("line", "graph", "discrete")[seed % 3]
        gen, metric, _ = random_instance(3 + seed, 600 + seed, metric_kind=kind)
        chains.append((uniformize(gen)[0], metric))
    line = JumpDistribution((((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))
    gen, metric = translation_invariant_ctmc(Box((0,), (23,)), 1.0, line)
    chains.append((uniformize(gen)[0], metric))
    return chains


@pytest.mark.parametrize("chain_metric", _dtmc_chains())
def test_kappa_min_of_a_dtmc_is_the_least_kappa_bit_for_bit(chain_metric):
    """``kappa_min`` takes a DTMC: its minimum is, bit for bit, the least
    ``kappa_all_pairs`` value, reached by one solve per class of the
    irreducible pairs in row-major order, with nothing cut."""
    pmat, metric = chain_metric
    val, strategy = kappa_min(pmat, metric)
    full = kappa_all_pairs(pmat, metric)
    assert _bits(val) == _bits(np.nanmin(full))
    reduced = irreducible_pairs(metric)
    ii, jj = np.triu_indices(pmat.n, k=1)
    visited = list(zip(ii[reduced] + 1, jj[reduced] + 1))
    assert strategy.pairs_cut == 0
    assert strategy.pairs_irreducible == len(visited)
    assert len(strategy.pairs_solved) + strategy.pairs_skipped == len(visited)
    assert list(strategy.pairs_solved) == [p for p in visited if p in strategy.pairs_solved]
    for (r, s), kap in zip(strategy.pairs_solved, strategy.kappa_solved):
        assert _bits(kap) == _bits(full[r - 1, s - 1])
    if pmat.n == 24:  # the line walk: 4 classes among its 23 neighbouring pairs
        assert len(visited) == 23 and len(strategy.pairs_solved) == 4


def test_curvature_report_min_solves_each_pair_once(monkeypatch):
    gen, metric, _ = random_instance(7, 321, metric_kind="graph")
    calls = []
    pair_plan = curvature_mod._pair_plan

    def counting(gen, metric, i, j):
        calls.append((i + 1, j + 1))
        return pair_plan(gen, metric, i, j)

    monkeypatch.setattr(curvature_mod, "_pair_plan", counting)
    rep = curvature_report(gen, metric, pairs="min")
    monkeypatch.undo()
    solved = rep.strategy.pairs_solved
    assert len(solved) > 1
    # one exact solve per visited pair, in the order visited
    assert calls == list(solved)
    by_pair = {(r, s): kap for r, s, kap in zip(rep.r, rep.s, rep.kappa)}
    for (r, s), kap in zip(solved, rep.strategy.kappa_solved):
        assert by_pair[(r, s)] == kap
        assert kap == kappa(gen, metric, r, s)
    assert np.count_nonzero(~np.isnan(rep.kappa)) == len(solved)
    assert rep.kappa_min == min(rep.strategy.kappa_solved)


@pytest.mark.parametrize("pairs", ["all", "min", (5, 2)])
@pytest.mark.parametrize("k_only", [False, True])
def test_curvature_report_builds_one_k_matrix(monkeypatch, pairs, k_only):
    gen, metric, _ = random_instance(6, 17, metric_kind="graph")
    calls = []
    real = curvature_mod.k_matrix

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(curvature_mod, "k_matrix", counted)
    rep = curvature_report(gen, metric, pairs=pairs, k_only=k_only)
    assert len(calls) == 1
    monkeypatch.undo()
    assert rep.K_global == _k_constants(k_matrix(gen, metric), metric)[1]
    assert rep.k_min == float(np.nanmin(k_matrix(gen, metric)))
    np.testing.assert_array_equal(rep.k, k_matrix(gen, metric)[rep.r - 1, rep.s - 1])


def test_kappa_min_visits_the_prefiltered_pairs_in_increasing_k():
    """The irreducible pairs in increasing k (ties in row-major order) with
    the running minimum tau: a pair with ``k >= tau`` is cut, a pair whose
    class of identical local problems was visited before is skipped, a class
    whose members' largest ``k`` or shared-jump bound ``k'' - margin`` is
    ``>= tau`` is cut too, every other one is solved exactly, and a cut or
    skipped pair has ``kappa >= tau``, so it could not have lowered the
    minimum."""
    instances = []
    for seed in range(6):
        kind = ("line", "graph", "discrete")[seed % 3]
        instances.append(random_instance(8, 330 + seed, metric_kind=kind)[:2])
    # integer positions: most pairs have an exact midpoint
    line = JumpDistribution((((1,), 0.5), ((-2,), 0.5)))
    walks = [translation_invariant_ctmc(Box((0,), (7,)), 1.0, line, root=3, root_rate=0.3)]
    # a translation-invariant walk: its pairs repeat a few local problems
    line = JumpDistribution((((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))
    walks.append(translation_invariant_ctmc(Box((0,), (11,)), 1.05, line))
    # built from their matrices, with no walk record: the scan
    instances += [(Generator(walk.q), metric) for walk, metric in walks]
    cut_anywhere = skipped_anywhere = 0
    for gen, metric in instances:
        n = gen.n
        _, strategy = kappa_min(gen, metric)
        kmat = k_matrix(gen, metric)
        pairs = [(r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]
        mask = irreducible_pairs(metric)
        reduced = [pair for pair, keep in zip(pairs, mask) if keep]
        assert strategy.pairs_total == len(pairs)
        assert strategy.pairs_irreducible == len(reduced)
        k_of = {(r, s): min(kmat[r - 1, s - 1], kmat[s - 1, r - 1]) for r, s in pairs}
        iu = np.triu_indices(n, k=1)
        supports = _row_supports(gen.q)
        lower = curvature_mod._shared_jump_bounds(gen.q, supports, metric.dist, *iu)
        low_of = dict(zip(pairs, lower.tolist()))
        cls, _ = curvature_mod._pair_classes(
            gen.q, supports, metric.dist, *iu, curvature_mod._closed_cost
        )
        class_of = dict(zip(pairs, cls.tolist()))
        floor: dict[int, float] = {}
        for pair in reduced:
            c = class_of[pair]
            floor[c] = max(floor.get(c, -np.inf), k_of[pair], low_of[pair])
        solved = iter(zip(strategy.pairs_solved, strategy.kappa_solved))
        next_solved = next(solved)
        tau = np.inf
        cut = skipped = 0
        visited: set[int] = set()
        for pair in sorted(reduced, key=lambda pair: k_of[pair]):
            if k_of[pair] >= tau:
                continue
            kap = kappa(gen, metric, *pair)
            if class_of[pair] in visited:
                assert kap >= tau
                skipped += 1
                continue
            visited.add(class_of[pair])
            if floor[class_of[pair]] >= tau:
                assert kap >= tau
                cut += 1
            else:
                assert next_solved is not None and pair == next_solved[0]
                assert next_solved[1] == kap
                tau = min(tau, kap)
                next_solved = next(solved, None)
        assert next_solved is None  # every solved pair was visited, in this order
        assert strategy.pairs_cut == cut
        assert strategy.pairs_skipped == skipped
        cut_anywhere += cut
        skipped_anywhere += skipped
    assert cut_anywhere > 0
    assert skipped_anywhere > 0


def test_curvature_and_defect_make_no_lp_call(monkeypatch):
    """kappa_min, kappa and defect run on the transport kernel alone."""

    def no_lp(*args, **kwargs):
        raise AssertionError("dense LP called")

    monkeypatch.setattr(transport_mod, "solve", no_lp)
    instances = []
    for seed in range(15):
        n = int(np.random.default_rng(seed).integers(3, 10))
        kind = ("line", "graph", "discrete")[seed % 3]
        instances.append(random_instance(n, 800 + seed, metric_kind=kind)[:2])
    # the benchmark's line walk (jumps +-1, +-2) and an 8x8 box walk
    line = JumpDistribution((((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))
    instances.append(translation_invariant_ctmc(Box((0,), (23,)), 1.0, line))
    grid = JumpDistribution((((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)))
    instances.append(translation_invariant_ctmc(Box((0, 0), (7, 7)), 1.0, grid))
    # the same two as matrices: the scan, where the walks take the closed form
    instances += [(Generator(gen.q), metric) for gen, metric in instances[-2:]]
    for gen, metric in instances:
        kappa_min(gen, metric)
        pmat, _ = uniformize(gen)
        for r, s in ((1, 2), (1, gen.n)):
            kappa(pmat, metric, r, s)
        n = gen.n
        blocks = [tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1))]
        defect(gen, metric, partition_aggregation_ctmc(gen, Partition(tuple(blocks))))


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_error_conditions(toy, kind):
    """``kappa``, ``kappa_min``, ``kappa_all_pairs`` and ``curvature_report``
    refuse the same inputs for either chain kind, with one message for a
    chain and a metric of different sizes; ``k``, and so ``k_matrix``,
    ``prepare_bound_inputs`` and ``k_only``, exist only for a CTMC and give
    the same refusals."""
    gen, metric = toy
    chain = gen if kind == "ctmc" else uniformize(gen)[0]
    with pytest.raises(SamePair):
        kappa(chain, metric, 2, 2)
    with pytest.raises(DimensionMismatch):
        kappa(chain, metric, 1, 4)
    with pytest.raises(DimensionMismatch, match="chain on 3 states, metric on 4"):
        kappa(chain, discrete_metric(4), 1, 2)
    with pytest.raises(DimensionMismatch):
        curvature_report(chain, discrete_metric(4))
    for whole in (kappa_min, kappa_all_pairs):
        with pytest.raises(DimensionMismatch, match="on 3 states, metric on 4"):
            whole(chain, discrete_metric(4))
    m1 = validate_metric(np.zeros((1, 1)))
    single = Generator(np.zeros((1, 1))) if kind == "ctmc" else TransitionMatrix(np.ones((1, 1)))
    for whole in (curvature_report, kappa_min, kappa_all_pairs):
        with pytest.raises(SingleState):
            whole(single, m1)
    if kind == "ctmc":
        agg = partition_aggregation_ctmc(gen, Partition(((1, 2), (3,))))
        with pytest.raises(DimensionMismatch, match="^chain on 3 states, metric on 4$"):
            k_matrix(gen, discrete_metric(4))
        with pytest.raises(DimensionMismatch, match="^chain on 3 states, metric on 4$"):
            prepare_bound_inputs(gen, discrete_metric(4), agg, dirac(3, 1))
        with pytest.raises(SingleState):
            k_matrix(single, m1)
    else:
        for pairs in ("all", "min", (1, 2)):
            with pytest.raises(ValueError, match="^k and the bounds need a CTMC generator"):
                curvature_report(chain, metric, pairs=pairs, k_only=True)
