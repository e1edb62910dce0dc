"""Acceptance suite: eleven end-to-end criteria, C01 to C12 without C11,
one test (and one pytest pass/fail line) per criterion.  The paper bounds
continuous-time chains only, so no criterion is a DTMC error bound.

Every numeric target is either a hand-verified worked-example value, a closed
form derived independently of the code under test, or a structural guarantee
(domination, inequality, exactness) checked over randomized batteries at the
stated tolerances.  Run with ``-v`` to see the per-criterion lines.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from wdbounds.aggregation import Partition, disaggregate, partition_aggregation_ctmc
from wdbounds.bounds import (
    bound_exponential,
    bound_linear_K,
    bound_linear_K_timevarying,
    compute_bound_curve,
    defect,
    exact_error_curve,
    prepare_bound_inputs,
    time_grid,
)
from wdbounds.curvature import (
    _k_constants,
    k_matrix,
    kappa,
    kappa_all_pairs,
    kappa_min,
)
from wdbounds.markov import Generator, ProbVec, dirac, transient_ctmc
from wdbounds.metric import discrete_metric, line_metric, validate_metric
from wdbounds.models import (
    Box,
    JumpDistribution,
    random_instance,
    toy_ctmc,
    translation_invariant_ctmc,
)
from wdbounds.transport import wasserstein

from .oracles import transport_vertex_minimum, verify_optimal_pair, wasserstein_derivative

TOY_BLOCKS = ((1, 2), (3,))
ALL_VARIANTS = (
    "linear",
    "timevarying",
    "exp-k",
    "exp-kappa",
    "local",
    "hybrid",
    "hybrid-kappa",
)


def _defect_constant(gen: Generator, metric) -> float:
    """``K = max(0, max_{r != s} -d(r,s) k(r,s))``, the maximum of the local defects."""
    return _k_constants(k_matrix(gen, metric), metric)[1]


def _random_partition(rng: np.random.Generator, n: int) -> Partition:
    n_blocks = int(rng.integers(1, n + 1))
    perm = rng.permutation(n) + 1
    if n_blocks == 1:
        blocks = [perm]
    else:
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
        blocks = np.split(perm, cuts)
    return Partition(tuple(tuple(sorted(int(v) for v in b)) for b in blocks))


def test_c01_worked_w1_example() -> None:
    positions = np.array([0.0, 2.0, 3.0, 4.5, 6.0, 7.0])
    metric = line_metric(positions)
    p = ProbVec(np.array([0.35, 0.25, 0.05, 0.25, 0.1, 0.0]))
    q = ProbVec(np.array([0.2, 0.45, 0.05, 0.0, 0.05, 0.25]))
    res = wasserstein(p, q, metric)
    assert res.value == pytest.approx(0.975, abs=1e-9)

    f_star = np.array([2.0, 0.0, 1.0, 2.5, 1.0, 0.0])
    dual_objective = float(f_star @ (p.p - q.p))
    assert dual_objective == pytest.approx(0.975, abs=1e-9)

    report = verify_optimal_pair(res.coupling, res.potential, metric)
    assert report.all_ok, report
    print("C01 worked W1 example: PASS (0.975, optimal pair verified)")


def test_c02_toy_curvature_table() -> None:
    gen, metric = toy_ctmc()
    expected = {(1, 2): (-6.0, -14.0), (1, 3): (2.6, 2.6), (2, 3): (4.75, 4.75)}
    kmat = k_matrix(gen, metric)
    for (r, s), (kap, k) in expected.items():
        assert kappa(gen, metric, r, s) == pytest.approx(kap, abs=1e-7)
        assert kmat[r - 1, s - 1] == pytest.approx(k, abs=1e-7)

    disc = discrete_metric(3)
    expected_disc = {(1, 2): (2.0, 1.0), (1, 3): (1.0, 1.0), (2, 3): (5.0, 5.0)}
    kmat = k_matrix(gen, disc)
    for (r, s), (kap, k) in expected_disc.items():
        assert kappa(gen, disc, r, s) == pytest.approx(kap, abs=1e-7)
        assert kmat[r - 1, s - 1] == pytest.approx(k, abs=1e-7)
    print("C02 toy curvature table: PASS (both metrics, 1e-7)")


def test_c03_toy_aggregation_pipeline() -> None:
    gen, metric = toy_ctmc()
    agg = partition_aggregation_ctmc(gen, Partition(TOY_BLOCKS))
    np.testing.assert_allclose(agg.chain.q, [[-2.0, 2.0], [2.0, -2.0]], atol=1e-12)
    np.testing.assert_allclose(
        agg.chain.q @ agg.a - agg.a @ gen.q,
        [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]],
        atol=1e-12,
    )
    v, norm = defect(gen, metric, agg)
    np.testing.assert_allclose(v, [1.0, 1.0], atol=1e-9)
    assert float(np.nanmin(k_matrix(gen, metric))) == pytest.approx(-14.0, abs=1e-9)
    assert _defect_constant(gen, metric) == pytest.approx(14.0, abs=1e-9)
    assert kappa_min(gen, metric)[0] == pytest.approx(-6.0, abs=1e-7)

    t = time_grid(1.0, 200)
    for p0 in (ProbVec(np.array([0.5, 0.5, 0.0])), dirac(3, 1)):
        inputs = prepare_bound_inputs(gen, metric, agg, p0)
        w0 = inputs.w0
        np.testing.assert_allclose(
            bound_linear_K(inputs, t), w0 + 15.0 * t, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            bound_exponential(inputs, t),
            (w0 + 1.0 / 14.0) * np.exp(14.0 * t) - 1.0 / 14.0,
            rtol=1e-9,
            atol=1e-12,
        )
    print("C03 toy aggregation pipeline: PASS (defect, constants, 200-point grids)")


def test_c04_explicit_aggregated_transient() -> None:
    gen, _ = toy_ctmc()
    agg = partition_aggregation_ctmc(gen, Partition(TOY_BLOCKS))
    pi0 = ProbVec(np.array([1.0, 0.0]))
    for t in np.linspace(0.0, 1.0, 101):
        pi_t = transient_ctmc(pi0, agg.chain, float(t))
        expected = np.array([0.5 * (1.0 + np.exp(-4.0 * t)), 0.5 * (1.0 - np.exp(-4.0 * t))])
        np.testing.assert_allclose(pi_t.p, expected, atol=1e-9)

        lifted = disaggregate(pi_t, agg)
        expected_lift = np.array([expected[0] / 2.0, expected[0] / 2.0, expected[1]])
        np.testing.assert_allclose(lifted.p, expected_lift, atol=1e-9)
    print("C04 explicit aggregated transient: PASS (pi_t and lifted p~_t, 1e-9)")


def test_c05_discrete_metric_recovery() -> None:
    gen, _ = toy_ctmc()
    disc = discrete_metric(3)
    agg = partition_aggregation_ctmc(gen, Partition(TOY_BLOCKS))
    assert _defect_constant(gen, disc) == 0.0

    t = time_grid(1.5, 50)
    for p0 in (ProbVec(np.array([0.5, 0.5, 0.0])), dirac(3, 1)):
        inputs = prepare_bound_inputs(gen, disc, agg, p0)
        w0 = inputs.w0
        np.testing.assert_allclose(bound_linear_K(inputs, t), w0 + t, atol=1e-12)
        np.testing.assert_allclose(
            bound_exponential(inputs, t), (w0 - 1.0) * np.exp(-t) + 1.0, atol=1e-12
        )

    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        w1 = wasserstein(ProbVec(p), ProbVec(q), discrete_metric(n)).value
        tv = 0.5 * float(np.abs(p - q).sum())
        worst = max(worst, abs(w1 - tv))
    assert worst <= 1e-12
    print(f"C05 discrete-metric recovery: PASS (tv match, worst dev {worst:.2e})")


def test_c06_soundness_property_suite() -> None:
    t = np.linspace(0.0, 2.0, 7)
    worst = np.inf
    for seed in range(200):
        rng = np.random.default_rng(60_000 + seed)
        n = int(rng.integers(3, 11))
        kind = ("line", "graph", "discrete")[int(rng.integers(0, 3))]
        gen, metric, p0 = random_instance(n, 60_000 + seed, metric_kind=kind)
        agg = partition_aggregation_ctmc(gen, _random_partition(rng, n))
        curve = compute_bound_curve(
            gen, metric, agg, p0, t, variants=ALL_VARIANTS, with_exact=True
        )
        for name in ALL_VARIANTS:
            gap = float((curve.columns[name] - curve.exact).min())
            worst = min(worst, gap)
            assert gap >= -1e-6, (seed, name, gap)
    print(f"C06 soundness on 200 random aggregations: PASS (worst margin {worst:.2e})")


def test_c07_duality_and_oracle_suite() -> None:
    rng = np.random.default_rng(707)
    worst_gap = 0.0
    worst_route = 0.0
    for i in range(500):
        n = int(rng.integers(2, 10))
        if i % 2 == 0:
            metric = line_metric(np.cumsum(rng.uniform(0.2, 1.5, size=n)))
        else:
            _, metric, _ = random_instance(n, 70_000 + i, metric_kind="graph")
        p = ProbVec(rng.dirichlet(np.ones(n)))
        q = ProbVec(rng.dirichlet(np.ones(n)))
        res = wasserstein(p, q, metric)
        dual = float(res.potential.f @ (p.p - q.p))
        worst_gap = max(worst_gap, abs(res.value - dual))
        res_lp = wasserstein(p, q, metric, method="lp")
        worst_route = max(worst_route, abs(res.value - res_lp.value))
    assert worst_gap <= 1e-7
    assert worst_route <= 1e-8

    # exact rational vertex enumeration, n <= 4
    for seed in range(30):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(2, 5))
        denom = 24
        pw = rng.multinomial(denom, np.ones(n) / n)
        qw = rng.multinomial(denom, np.ones(n) / n)
        positions = np.cumsum(rng.integers(1, 5, size=n).astype(float)) / 2.0
        metric = line_metric(positions)
        pf = [Fraction(int(x), denom) for x in pw]
        qf = [Fraction(int(x), denom) for x in qw]
        cost = [
            [Fraction(metric.dist[i, j]).limit_denominator(10**6) for j in range(n)]
            for i in range(n)
        ]
        exact = float(transport_vertex_minimum(pf, qf, cost))
        res = wasserstein(ProbVec(pw / denom), ProbVec(qw / denom), metric)
        assert res.value == pytest.approx(exact, abs=1e-11), seed
    print(
        f"C07 duality and oracles: PASS (dual gap {worst_gap:.2e}, "
        f"route gap {worst_route:.2e}, 30 rational instances)"
    )


def test_c08_curvature_identity_suite() -> None:
    rng = np.random.default_rng(808)
    for i in range(500):
        n = int(rng.integers(3, 10))
        kind = ("line", "graph", "discrete")[int(rng.integers(0, 3))]
        gen, metric, _ = random_instance(n, 80_000 + i, metric_kind=kind)
        r = int(rng.integers(1, n))
        s = int(rng.integers(r + 1, n + 1))
        k_rs = k_matrix(gen, metric)[r - 1, s - 1]
        assert kappa(gen, metric, r, s) >= k_rs - 1e-9, (i, r, s)

    h = 1e-6
    worst_fd = 0.0
    worst_id = 0.0
    for i in range(100):
        n = int(rng.integers(3, 7))
        gen, metric, _ = random_instance(n, 81_000 + i)
        p = ProbVec(rng.dirichlet(np.ones(n)))
        q = ProbVec(rng.dirichlet(np.ones(n)))
        deriv = wasserstein_derivative(p, q, gen, metric)

        w0 = wasserstein(p, q, metric).value
        ph = transient_ctmc(p, gen, h)
        qh = transient_ctmc(q, gen, h)
        wh = wasserstein(ph, qh, metric).value
        worst_fd = max(worst_fd, abs((wh - w0) / h - deriv))
        assert abs((wh - w0) / h - deriv) <= 1e-3, i

        # point-mass identity: derivative = -kappa(r,s) d(r,s)
        r = int(rng.integers(1, n))
        s = int(rng.integers(r + 1, n + 1))
        d_rs = wasserstein_derivative(dirac(n, r), dirac(n, s), gen, metric)
        target = -kappa(gen, metric, r, s) * metric.d(r, s)
        worst_id = max(worst_id, abs(d_rs - target))
        assert abs(d_rs - target) <= 1e-7, i
    print(
        f"C08 curvature identities: PASS (kappa>=k x500, fd dev {worst_fd:.2e}, "
        f"dirac identity dev {worst_id:.2e})"
    )


def test_c09_translation_invariant_nonnegativity() -> None:
    rng = np.random.default_rng(909)

    def random_jumps(dim: int) -> JumpDistribution:
        if dim == 1:
            offsets = [(1,), (-1,), (2,), (-2,)]
        else:
            offsets = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)]
        k = int(rng.integers(2, len(offsets) + 1))
        chosen = rng.choice(len(offsets), size=k, replace=False)
        w = rng.dirichlet(np.ones(k))
        return JumpDistribution(tuple((offsets[int(c)], float(wi)) for c, wi in zip(chosen, w)))

    configs = [
        (Box((0,), (47,)), random_jumps(1)),
        (Box((0,), (35,)), random_jumps(1)),
        (Box((0,), (29,)), random_jumps(1)),
        (Box((0, 0), (4, 4)), random_jumps(2)),
    ]
    for _ in range(16):
        if rng.random() < 0.5:
            n_states = int(rng.integers(4, 25))
            box = Box((0,), (n_states - 1,))
            jumps = random_jumps(1)
        else:
            a = int(rng.integers(2, 6))
            b = int(rng.integers(2, 5))
            box = Box((0, 0), (a - 1, b - 1))
            jumps = random_jumps(2)
        configs.append((box, jumps))

    worst = np.inf
    for box, jumps in configs:
        rate = float(rng.uniform(0.5, 3.0))
        gen, metric = translation_invariant_ctmc(box, rate, jumps)
        # from the matrix, with no walk record: the scan checks the theorem, not assumes it
        kap, _ = kappa_min(Generator(gen.q), metric)
        worst = min(worst, kap)
        assert kap >= -1e-7, (box, kap)
    print(f"C09 translation-invariant curvature: PASS (20 configs, min kappa {worst:.2e})")


def test_c10_local_constant_improvement() -> None:
    rng = np.random.default_rng(1010)
    for i in range(200):
        n = int(rng.integers(3, 11))
        gen, metric, _ = random_instance(n, 100_000 + i)
        k_loc = _k_constants(k_matrix(gen, metric), metric)[2]
        p_tilde = rng.dirichlet(np.ones(n))
        assert float(p_tilde @ k_loc) <= k_loc.max() + 1e-9, i

    # the locally weighted curve never exceeds the global-K curve
    t = np.linspace(0.0, 1.0, 11)
    cases = [(*toy_ctmc(), Partition(TOY_BLOCKS), ProbVec(np.array([0.5, 0.5, 0.0])))]
    for i in range(5):
        n = int(rng.integers(3, 9))
        gen, metric, p0 = random_instance(n, 101_000 + i)
        cases.append((gen, metric, _random_partition(rng, n), p0))
    for gen, metric, part, p0 in cases:
        agg = partition_aggregation_ctmc(gen, part)
        inputs = prepare_bound_inputs(gen, metric, agg, p0)
        pi0 = ProbVec(p0.p @ agg.lam)
        curves = bound_linear_K_timevarying(inputs, agg, pi0, t)
        local, global_curve = curves["local"], curves["timevarying"]
        assert np.all(local <= global_curve + 1e-9)
        assert np.all(local <= bound_linear_K(inputs, t) + 1e-9)
    print("C10 local constant improvement: PASS (200 draws + curve domination)")


def test_c12_prefilter_correctness() -> None:
    rng = np.random.default_rng(1212)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(3, 13))
        kind = ("line", "graph", "discrete")[int(rng.integers(0, 3))]
        gen, metric, _ = random_instance(n, 120_000 + i, metric_kind=kind)
        fast, strategy = kappa_min(gen, metric)
        brute = float(np.nanmin(kappa_all_pairs(gen, metric)))
        worst = max(worst, abs(fast - brute))
        assert fast == pytest.approx(brute, abs=1e-8), (i, strategy.pairs_solved)
    print(f"C12 prefilter correctness: PASS (50 instances, worst dev {worst:.2e})")
