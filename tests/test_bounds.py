"""Tests for the error-bound family: closed forms, occupation sweep, domination.

The three-state chain with blocks {1,2} and {3} admits hand closed forms for
every bound variant, so most tests compare solver output against analytic
expressions.  Frozen exact-error values were produced by the trusted-route
oracle (series transient + exact transport) in ``tests/oracles.py``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdbounds.aggregation import (
    Partition,
    aggregate_initial,
    partition_aggregation_ctmc,
    partition_aggregation_dtmc,
)
from wdbounds import _kernels
from wdbounds import transport as transport_mod
from wdbounds.bounds import (
    BoundInputs,
    bound_exponential,
    bound_hybrid,
    bound_linear_K,
    bound_linear_K_timevarying,
    compute_bound_curve,
    defect,
    exact_error_curve,
    prepare_bound_inputs,
    time_grid,
)
from wdbounds.errors import DimensionMismatch, NegativeTime, RateUnavailable
from wdbounds.markov import Generator, ProbVec, dirac, transient_ctmc, uniformize
from wdbounds.metric import discrete_metric, validate_metric
from wdbounds import bounds as bounds_mod
from wdbounds import curvature as curvature_mod
from wdbounds.curvature import _k_constants, k_matrix, kappa_min
from wdbounds.models import Box, JumpDistribution, random_instance, translation_invariant_ctmc
from wdbounds.transport import wasserstein

from .oracles import transient_series
from .test_acceptance import _random_partition

TOY_Q = np.array(
    [
        [-1.0, 0.0, 1.0],
        [1.0, -4.0, 3.0],
        [0.0, 2.0, -2.0],
    ]
)
TOY_D = np.array(
    [
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 4.0],
        [5.0, 4.0, 0.0],
    ]
)
TOY_BLOCKS = ((1, 2), (3,))
TOY_P0 = np.array([0.5, 0.5, 0.0])

ALL_VARIANTS = (
    "linear",
    "timevarying",
    "exp-k",
    "exp-kappa",
    "local",
    "hybrid",
    "hybrid-kappa",
)

# Exact aggregation error W1(disaggregated pi_t, p_t) for the toy chain
# started at (0.5, 0.5, 0), frozen from the series-transient + transport
# oracle route.  The curve peaks a little above 0.3 near t = 0.51.
EXACT_ANCHORS = (
    (0.51, 0.30081719),
    (0.57, 0.30055797),
    (1.0, 0.22299332),
)


@pytest.fixture(scope="module")
def toy():
    gen = Generator(TOY_Q)
    metric = validate_metric(TOY_D)
    agg = partition_aggregation_ctmc(gen, Partition(TOY_BLOCKS))
    p0 = ProbVec(TOY_P0)
    inputs = prepare_bound_inputs(gen, metric, agg, p0, with_kappa=True)
    return gen, metric, agg, p0, inputs


def _toy_pi0() -> ProbVec:
    return ProbVec(np.array([1.0, 0.0]))


def test_toy_bound_inputs(toy) -> None:
    _, _, _, _, inputs = toy
    assert inputs.w0 == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(inputs.defect_vector, [1.0, 1.0], atol=1e-9)
    assert inputs.defect_norm == pytest.approx(1.0, abs=1e-9)
    assert inputs.k_min == pytest.approx(-14.0, abs=1e-9)
    assert inputs.K == pytest.approx(14.0, abs=1e-9)
    assert inputs.kappa_min == pytest.approx(-6.0, abs=1e-7)
    np.testing.assert_allclose(inputs.K_local, [14.0, 14.0, 0.0], atol=1e-9)
    assert inputs.d_max == pytest.approx(5.0)


def test_linear_bound_closed_form(toy) -> None:
    # W0 = 0, defect norm 1, K = 14: the linear bound grows at slope 15.
    _, _, _, _, inputs = toy
    t_grid = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(bound_linear_K(inputs, t_grid), 15.0 * t_grid, atol=1e-12)


def test_exponential_bound_closed_form(toy) -> None:
    _, _, _, _, inputs = toy
    t_grid = np.linspace(0.0, 0.4, 9)
    # With contraction rate kappa = k_min = -14 the bound integrates to
    # (W0 - B/kappa) e^{-kappa t} + B/kappa = (e^{14 t} - 1) / 14.
    np.testing.assert_allclose(
        bound_exponential(inputs, t_grid),
        (np.exp(14.0 * t_grid) - 1.0) / 14.0,
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        bound_exponential(inputs, t_grid, rate="kappa_min"),
        (np.exp(6.0 * t_grid) - 1.0) / 6.0,
        rtol=1e-12,
    )


def test_hybrid_switch_point_and_envelope(toy) -> None:
    _, _, _, _, inputs = toy
    t_grid = np.linspace(0.0, 1.0, 201)
    hybrid = bound_hybrid(inputs, t_grid)

    # Exponential growth until the curve reaches K/|k_min| = 1, which happens
    # at t* = ln(15)/14, then linear growth at the worst-case slope B + K.
    t_star = math.log(15.0) / 14.0
    expected = np.where(
        t_grid <= t_star,
        (np.exp(14.0 * t_grid) - 1.0) / 14.0,
        1.0 + 15.0 * (t_grid - t_star),
    )
    np.testing.assert_allclose(hybrid, expected, atol=1e-12)

    # The hybrid curve never exceeds either pure bound.
    linear = bound_linear_K(inputs, t_grid)
    exponential = bound_exponential(inputs, t_grid)
    assert np.all(hybrid <= np.minimum(linear, exponential) + 1e-9)
    # It is strictly better than both somewhere past the switch.
    late = t_grid > t_star + 0.05
    assert np.all(hybrid[late] < exponential[late])


def test_timevarying_equals_linear_for_constant_defect(toy) -> None:
    # The toy defect vector is (1, 1), so pi_s . v == 1 for every distribution
    # pi_s and the time-varying integral collapses to the linear bound.  This
    # pins the quadrature against an exact value.
    _, _, agg, _, inputs = toy
    t_grid = np.linspace(0.0, 1.0, 21)
    curve = bound_linear_K_timevarying(inputs, agg, _toy_pi0(), t_grid)["timevarying"]
    np.testing.assert_allclose(curve, 15.0 * t_grid, atol=1e-8)


def test_local_bound_matches_analytic_integral(toy) -> None:
    # K_local = (14, 14, 0) and the aggregated transient from (1, 0) is
    # pi_s = (1/2 + e^{-4s}/2, 1/2 - e^{-4s}/2).  Lifting to the fine chain
    # gives integrand 1 + 7 + 7 e^{-4s}, hence 8t + (7/4)(1 - e^{-4t}).
    _, _, agg, _, inputs = toy
    t_grid = np.linspace(0.0, 1.0, 21)
    curve = bound_linear_K_timevarying(inputs, agg, _toy_pi0(), t_grid)["local"]
    analytic = 8.0 * t_grid + (7.0 / 4.0) * (1.0 - np.exp(-4.0 * t_grid))
    np.testing.assert_allclose(curve, analytic, atol=1e-6)
    # The local refinement beats the uniform linear bound at every t > 0.
    assert np.all(curve[1:] < bound_linear_K(inputs, t_grid)[1:])


def test_exact_error_curve_frozen_values(toy) -> None:
    gen, metric, agg, p0, _ = toy
    times = np.array([0.0] + [t for t, _ in EXACT_ANCHORS])
    curve = exact_error_curve(p0, gen, metric, agg, times)
    assert curve[0] == pytest.approx(0.0, abs=1e-12)
    for value, (_, expected) in zip(curve[1:], EXACT_ANCHORS):
        assert value == pytest.approx(expected, abs=1e-7)


def test_all_variants_dominate_exact_on_toy(toy) -> None:
    gen, metric, agg, p0, _ = toy
    t_grid = np.linspace(0.0, 1.0, 21)
    curve = compute_bound_curve(
        gen, metric, agg, p0, t_grid, variants=ALL_VARIANTS, with_exact=True
    )
    assert sorted(curve.columns) == sorted(ALL_VARIANTS)
    for name in ALL_VARIANTS:
        assert np.all(curve.columns[name] >= curve.exact - 1e-6), name


def test_bounds_dominate_exact_randomized() -> None:
    t_grid = np.linspace(0.0, 0.8, 9)
    for seed in range(5):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(3, 7))
        gen, metric, p0 = random_instance(n, 4000 + seed)
        cut = int(rng.integers(1, n))
        blocks = (tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1)))
        agg = partition_aggregation_ctmc(gen, Partition(blocks))
        curve = compute_bound_curve(
            gen, metric, agg, p0, t_grid, variants=ALL_VARIANTS, with_exact=True
        )
        for name in ALL_VARIANTS:
            gap = curve.columns[name] - curve.exact
            assert gap.min() >= -1e-6, (seed, name, gap.min())


def test_discrete_metric_toy_bounds() -> None:
    # Under the discrete metric the toy chain has k_min = 1 and K = 0, so the
    # exponential bound contracts: (W0 - 1) e^{-t} + 1 with W0 = 0, and the
    # hybrid bound coincides with it (no switch for nonnegative rates).
    gen = Generator(TOY_Q)
    metric = discrete_metric(3)
    agg = partition_aggregation_ctmc(gen, Partition(TOY_BLOCKS))
    inputs = prepare_bound_inputs(gen, metric, agg, ProbVec(TOY_P0))
    assert inputs.w0 == pytest.approx(0.0, abs=1e-12)
    assert inputs.defect_norm == pytest.approx(1.0, abs=1e-9)
    assert inputs.k_min == pytest.approx(1.0, abs=1e-9)
    assert inputs.K == pytest.approx(0.0, abs=1e-9)

    t_grid = np.linspace(0.0, 2.0, 9)
    expo = bound_exponential(inputs, t_grid)
    np.testing.assert_allclose(expo, 1.0 - np.exp(-t_grid), atol=1e-12)
    np.testing.assert_allclose(bound_hybrid(inputs, t_grid), expo, atol=1e-12)
    np.testing.assert_allclose(bound_linear_K(inputs, t_grid), t_grid, atol=1e-12)


def test_defect_vectors_ctmc_and_dtmc() -> None:
    gen = Generator(TOY_Q)
    metric = validate_metric(TOY_D)
    part = Partition(TOY_BLOCKS)
    agg = partition_aggregation_ctmc(gen, part)
    v, norm = defect(gen, metric, agg)
    np.testing.assert_allclose(v, [1.0, 1.0], atol=1e-9)
    assert norm == pytest.approx(1.0, abs=1e-9)

    # Uniformization divides the generator mismatch by the rate lambda = 4.
    pmat, lam = uniformize(gen)
    dagg = partition_aggregation_dtmc(pmat, part)
    v_d, norm_d = defect(pmat, metric, dagg)
    np.testing.assert_allclose(v_d, v / lam, atol=1e-9)
    assert norm_d == pytest.approx(norm / lam, abs=1e-9)

    with pytest.raises(ValueError, match="no CTMC generator"):
        defect(gen, metric, dagg)
    with pytest.raises(ValueError, match="no DTMC transition matrix"):
        defect(pmat, metric, agg)


def test_defect_scales_with_the_rates() -> None:
    part = Partition(((1, 2, 3), (4, 5), (6, 7, 8)))
    for seed in range(6):
        gen, metric, _ = random_instance(8, seed, metric_kind=("line", "graph")[seed % 2])
        v, norm = defect(gen, metric, partition_aggregation_ctmc(gen, part))
        fast = Generator(gen.q * 1e6)
        v6, norm6 = defect(fast, metric, partition_aggregation_ctmc(fast, part))
        np.testing.assert_allclose(v6, 1e6 * v, rtol=1e-9, err_msg=f"seed {seed}")
        assert norm6 == pytest.approx(1e6 * norm, rel=1e-9)


def test_time_grid_and_grid_validation() -> None:
    np.testing.assert_allclose(time_grid(1.0, 5), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(NegativeTime):
        time_grid(-1.0)
    with pytest.raises(ValueError, match="at least two grid points"):
        time_grid(1.0, 1)
    for points in (2.5, True):
        with pytest.raises(ValueError, match="^grid points must be an integer"):
            time_grid(1.0, points)
    np.testing.assert_array_equal(time_grid(1.0, np.int64(3)), [0.0, 0.5, 1.0])

    ins = BoundInputs(
        w0=0.0, defect_vector=np.array([1.0]), defect_norm=1.0, k_min=-1.0, K=1.0, d_max=5.0
    )
    with pytest.raises(ValueError, match="nondecreasing"):
        bound_linear_K(ins, np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ValueError, match="empty"):
        bound_linear_K(ins, np.array([]))
    with pytest.raises(NegativeTime):
        bound_linear_K(ins, np.array([-0.1, 0.2]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_times_are_rejected(toy, bad) -> None:
    gen, metric, agg, p0, inputs = toy
    with pytest.raises(ValueError, match="finite"):
        time_grid(bad)
    t_grid = np.array([0.0, bad])
    with pytest.raises(ValueError, match="non-finite"):
        bound_linear_K(inputs, t_grid)
    with pytest.raises(ValueError, match="non-finite"):
        exact_error_curve(p0, gen, metric, agg, t_grid)
    with pytest.raises(ValueError, match="non-finite"):
        compute_bound_curve(gen, metric, agg, p0, t_grid, variants=("timevarying",))


def test_missing_rates_raise(toy) -> None:
    gen, metric, agg, p0, _ = toy
    plain = prepare_bound_inputs(gen, metric, agg, p0)
    assert plain.kappa_min is None and plain.K_local is not None
    t_grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(RateUnavailable):
        bound_exponential(plain, t_grid, rate="kappa_min")
    with pytest.raises(ValueError, match="unknown rate"):
        bound_exponential(plain, t_grid, rate="steepest")
    no_local = dataclasses.replace(plain, K_local=None)
    assert set(bound_linear_K_timevarying(no_local, agg, _toy_pi0(), t_grid)) == {"timevarying"}


def test_hybrid_and_exponential_edge_cases() -> None:
    t_grid = np.array([0.0, 0.5, 1.0])
    # Start above the switch level K/|k_min| = 1: immediately linear.
    high = BoundInputs(
        w0=2.0, defect_vector=np.array([1.0]), defect_norm=1.0, k_min=-14.0, K=14.0, d_max=50.0
    )
    np.testing.assert_allclose(bound_hybrid(high, t_grid), 2.0 + 15.0 * t_grid, atol=1e-12)
    # Zero initial error and zero defect: the bound is identically zero even
    # though the curvature rate is negative.
    null = BoundInputs(
        w0=0.0, defect_vector=np.zeros(1), defect_norm=0.0, k_min=-2.0, K=3.0, d_max=5.0
    )
    np.testing.assert_allclose(bound_hybrid(null, t_grid), 0.0, atol=1e-15)
    # kappa = 0 degenerates the exponential bound to W0 + B t, and so does a
    # rate at rounding level (what a flat chain's kappa_min comes out as).
    for rate in (0.0, 1e-16, -1e-16):
        flat = BoundInputs(
            w0=1.0, defect_vector=np.array([2.0]), defect_norm=2.0, k_min=rate, K=1.0, d_max=9.0
        )
        np.testing.assert_allclose(
            bound_exponential(flat, t_grid), 1.0 + 2.0 * t_grid, atol=1e-12
        )


def test_hybrid_starts_at_w0_exactly() -> None:
    """The exponential part of the hybrid curve is ``bound_exponential``, so
    ``t = 0`` gives W0 to the last bit, for either rate.  The instances are
    the first 20 of C06; on seed 60005 the form ``amp e^0 + B/rate`` gave
    0.14320762112161423, below W0 = 0.14320762112161428."""
    for seed in range(60_000, 60_020):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 11))
        kind = ("line", "graph", "discrete")[int(rng.integers(0, 3))]
        gen, metric, p0 = random_instance(n, seed, metric_kind=kind)
        agg = partition_aggregation_ctmc(gen, _random_partition(rng, n))
        inputs = prepare_bound_inputs(gen, metric, agg, p0, with_kappa=True)
        for rate in ("k_min", "kappa_min"):
            assert bound_hybrid(inputs, np.zeros(1), rate)[0] == inputs.w0, (seed, rate)


def test_compute_bound_curve_interface(toy) -> None:
    gen, metric, agg, p0, _ = toy
    t_grid = time_grid(1.0, 5)
    curve = compute_bound_curve(gen, metric, agg, p0, t_grid, variants=("exp-k", "linear"))
    assert curve.exact is None
    assert curve.d_max == pytest.approx(5.0)
    np.testing.assert_allclose(curve.t, t_grid)
    # Clipping caps every column at the metric diameter; the exploding
    # exponential bound saturates at 5 well before t = 1.
    clipped = curve.clipped()
    assert set(clipped) == {"exp-k", "linear"}
    assert clipped["exp-k"][-1] == pytest.approx(5.0)
    assert np.all(clipped["exp-k"] <= 5.0 + 1e-12)
    raw_tail = curve.columns["exp-k"][-1]
    assert raw_tail > 5.0  # raw column kept intact

    with pytest.raises(ValueError, match="unknown bound variants"):
        compute_bound_curve(gen, metric, agg, p0, t_grid, variants=("spline",))
    for variants in ((), ("linear", "exp-k", "linear")):
        with pytest.raises(ValueError, match="one or more distinct bound variants"):
            compute_bound_curve(gen, metric, agg, p0, t_grid, variants=variants)


# one refusal per condition, from every entry of the bound pipeline that the condition applies to
GATE_REFUSALS = {
    "dtmc-chain": (ValueError, "k and the bounds need a CTMC generator, got TransitionMatrix"),
    "aggregation-of-another-size": (DimensionMismatch, "aggregation over 3 states, chain on 4"),
    "aggregation-of-the-other-kind": (ValueError, "aggregation carries no CTMC generator"),
}


@pytest.mark.parametrize("case", GATE_REFUSALS)
def test_bound_pipeline_gate(case, monkeypatch) -> None:
    gen, metric, p0 = random_instance(4, 0)
    part = Partition(((1, 2), (3, 4)))
    agg = partition_aggregation_ctmc(gen, part)
    inputs = prepare_bound_inputs(gen, metric, agg, p0)
    pi0 = aggregate_initial(p0, agg)
    t_grid = time_grid(1.0, 3)
    chain = gen
    if case == "dtmc-chain":
        chain = uniformize(gen)[0]
    elif case == "aggregation-of-another-size":
        agg = partition_aggregation_ctmc(Generator(TOY_Q), Partition(TOY_BLOCKS))
    else:
        agg = partition_aggregation_dtmc(uniformize(gen)[0], part)

    def no_work(*args, **kwargs):
        raise AssertionError("the gate let a solve or a time step run")

    monkeypatch.setattr(transport_mod, "_ot", no_work)
    monkeypatch.setattr(bounds_mod, "transient_ctmc", no_work)
    entries = {
        "prepare_bound_inputs": lambda: prepare_bound_inputs(chain, metric, agg, p0),
        "exact_error_curve": lambda: exact_error_curve(p0, chain, metric, agg, t_grid),
        "compute_bound_curve": lambda: compute_bound_curve(
            chain, metric, agg, p0, t_grid, variants=ALL_VARIANTS, with_exact=True
        ),
    }
    if case == "dtmc-chain":  # k_matrix takes no aggregation; defect takes a DTMC
        entries["k_matrix"] = lambda: k_matrix(chain, metric)
    else:  # neither defect nor the sweep takes the chain's kind
        entries["defect"] = lambda: defect(chain, metric, agg)
        entries["sweep"] = lambda: bound_linear_K_timevarying(inputs, agg, pi0, t_grid)
    kind, message = GATE_REFUSALS[case]
    for name, entry in entries.items():
        with pytest.raises(ValueError) as info:
            entry()
        assert type(info.value) is kind and str(info.value) == message, name


def test_exact_error_against_series_oracle(toy) -> None:
    # Cross-check exact_error_curve at one interior time with an independent
    # series transient for both the fine and aggregated chains.
    gen, metric, agg, p0, _ = toy
    from wdbounds.transport import wasserstein

    t = 0.3
    curve = exact_error_curve(p0, gen, metric, agg, np.array([t]))
    p_t = transient_series(TOY_P0, TOY_Q, t)
    pi_t = transient_series(np.array([1.0, 0.0]), np.asarray(agg.chain.q), t)
    oracle = wasserstein(ProbVec(pi_t @ agg.a), ProbVec(p_t), metric).value
    assert curve[0] == pytest.approx(oracle, abs=1e-9)


def _toy_local_closed_form(t: np.ndarray) -> np.ndarray:
    """The toy local bound 8t + (7/4)(1 - e^{-4t}) (see the test above)."""
    return 8.0 * t + 1.75 * (1.0 - np.exp(-4.0 * t))


@pytest.mark.parametrize(
    "t_grid",
    [
        np.linspace(0.0, 1.0, 21),
        np.array([0.0, 0.0, 0.1, 0.1, 0.1, 0.5, 0.5, 0.9, 1.0, 1.0]),
    ],
    ids=["uniform", "repeated"],
)
def test_certified_integral_brackets_closed_form(toy, t_grid) -> None:
    # The sweep adds the Poisson tail and the carried TV budget, so it can
    # only land above the exact integral, and only by the budget.
    _, _, agg, _, inputs = toy
    curves = bound_linear_K_timevarying(inputs, agg, _toy_pi0(), t_grid)
    for got, exact in (
        (curves["local"], _toy_local_closed_form(t_grid)),
        (curves["timevarying"], 15.0 * t_grid),
    ):
        excess = got - exact
        assert excess.min() >= 0.0
        assert excess.max() <= 1e-9


def test_certified_integral_across_chunks(toy) -> None:
    # The aggregated toy chain has lam = 2, so t = 300 is lam t = 600: the
    # first interval below and the single one after it both cross a chunk.
    _, _, agg, _, inputs = toy
    for t_grid in (np.array([0.0, 300.0]), np.array([0.0, 10.0, 300.0]), np.linspace(0, 300, 7)):
        local = bound_linear_K_timevarying(inputs, agg, _toy_pi0(), t_grid)["local"]
        exact = _toy_local_closed_form(t_grid)
        assert np.all(local >= exact)
        # budget: max(w) = 15 times 1e-12 of carried TV per chunk and step
        assert np.all(local - exact <= 1e-11 * np.maximum(exact, 1.0))


def test_exact_error_curve_matches_restart_route() -> None:
    # Stepping both chains forward must agree with restarting at t = 0.
    t_grid = np.array([0.0, 0.1, 0.1, 0.35, 0.8, 1.5, 3.0])
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(3, 9))
        gen, metric, p0 = random_instance(n, 8000 + seed)
        cut = int(rng.integers(1, n))
        agg = partition_aggregation_ctmc(
            gen, Partition((tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1))))
        )
        pi0 = ProbVec(p0.p @ agg.lam)
        restart = [
            wasserstein(
                ProbVec(transient_ctmc(pi0, agg.chain, t).p @ agg.a),
                transient_ctmc(p0, gen, t),
                metric,
            ).value
            for t in t_grid
        ]
        stepped = exact_error_curve(p0, gen, metric, agg, t_grid)
        np.testing.assert_allclose(stepped, restart, rtol=0, atol=1e-12, err_msg=f"seed {seed}")


def _box_grid_curves():
    """The 8x8 walk in 2x2 blocks and the 9x9 walk in 3x3 blocks, from corner state 1.

    Each case is ``(p0, gen, metric, agg, t_grid)`` with four points on [0.5, 2].
    """
    jumps = JumpDistribution((((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)))
    for side, b in ((8, 2), (9, 3)):
        gen, metric = translation_invariant_ctmc(Box((0, 0), (side - 1, side - 1)), 1.0, jumps)
        blocks = tuple(
            tuple(i * side + j + 1 for i in range(bi, bi + b) for j in range(bj, bj + b))
            for bi in range(0, side, b)
            for bj in range(0, side, b)
        )
        agg = partition_aggregation_ctmc(gen, Partition(blocks))
        yield dirac(gen.n, 1), gen, metric, agg, np.array([0.5, 1.0, 1.5, 2.0])


def test_exact_curve_pivots_on_box_grids(monkeypatch) -> None:
    # W1 on supports gives skewed blocks here (63x1 ... 78x3); the four with
    # one column have forced plans and never reach the kernel.  Russell's
    # start is optimal on the other four (0 pivots); a start by cost alone
    # takes 33 pivots in all, the north-west corner 302.
    pivots = []
    real = _kernels.transport_loop

    def counted(cost, p, q, tol, max_iter):
        out = real(cost, p, q, tol, max_iter)
        pivots.append(out[4])
        return out

    monkeypatch.setattr(_kernels, "transport_loop", counted)
    for case in _box_grid_curves():
        exact_error_curve(*case)
    assert len(pivots) == 4
    assert sum(pivots) <= 5


def test_kappa_min_pivots_on_box_grids(monkeypatch) -> None:
    """kappa_min on the 8x8 and 9x9 box walks solves every visited class to
    optimality in 280 kernel pivots in all from Russell's start (640 from a
    start by cost alone), and each plan carries the row duals that certify
    its value."""
    pivots = []
    plans = []
    real_loop = _kernels.transport_loop
    real_plan = curvature_mod._pair_plan

    def counted(cost, p, q, tol, max_iter):
        out = real_loop(cost, p, q, tol, max_iter)
        pivots.append(out[4])
        return out

    def recording(gen, metric, i, j):
        plan = real_plan(gen, metric, i, j)
        plans.append(plan)
        return plan

    monkeypatch.setattr(_kernels, "transport_loop", counted)
    monkeypatch.setattr(curvature_mod, "_pair_plan", recording)
    solved = 0
    for _, gen, metric, _, _ in _box_grid_curves():
        _, strategy = kappa_min(Generator(gen.q), metric)  # no walk record: the scan
        solved += len(strategy.pairs_solved)
    assert len(plans) == solved
    assert sum(pivots) <= 320
    for plan in plans:
        assert plan.u is not None and plan.u.shape == plan.rows.shape
        assert np.isfinite(plan.u).all()


def test_kernel_pivots_stay_far_below_the_cap(monkeypatch) -> None:
    """A kernel that reaches its cap ``200 (nr + nc) + 2000`` is a numerical
    failure, so the headroom is pinned where pivots peak: all seven variants
    and the exact curve on the 12x12 box walk in 3x3 blocks from corner
    state 1, 201 points on [0, 10].  Every kernel call uses at most 0.5 % of
    its cap (the largest about 0.16 % from Russell's start, 0.47 % from a
    start by cost alone)."""
    shares = []
    real = _kernels.transport_loop

    def counted(cost, p, q, tol, max_iter):
        out = real(cost, p, q, tol, max_iter)
        assert max_iter == 200 * sum(cost.shape) + 2000
        shares.append(out[4] / max_iter)
        return out

    jumps = JumpDistribution((((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)))
    gen, metric = translation_invariant_ctmc(Box((0, 0), (11, 11)), 1.0, jumps)
    blocks = tuple(
        tuple(i * 12 + j + 1 for i in range(bi, bi + 3) for j in range(bj, bj + 3))
        for bi in range(0, 12, 3)
        for bj in range(0, 12, 3)
    )
    agg = partition_aggregation_ctmc(gen, Partition(blocks))
    variants = ("linear", "timevarying", "exp-k", "exp-kappa", "local", "hybrid", "hybrid-kappa")
    monkeypatch.setattr(_kernels, "transport_loop", counted)
    compute_bound_curve(
        gen, metric, agg, dirac(gen.n, 1), time_grid(10.0, 201), variants, with_exact=True
    )
    assert shares and max(shares) <= 0.005


def test_exact_curve_builds_no_coupling_or_potential(toy, monkeypatch) -> None:
    """The curve and the bounds' W0 need W1 only: no n x n coupling or potential.

    With both classes patched to raise, the exact curve and every bound
    variant still run; each exact value equals ``wasserstein(...).value`` on
    the same stepped laws bit for bit, and the bounds equal an unpatched run.
    """
    gen, metric, agg, p0, _ = toy
    cases = [(p0, gen, metric, agg, np.linspace(0.0, 3.0, 7)), *_box_grid_curves()]
    variants = ("linear", "timevarying", "exp-k", "exp-kappa", "local", "hybrid", "hybrid-kappa")

    def refuse(*args, **kwargs):
        raise AssertionError("n x n object built")

    def bound_curves():
        return [
            compute_bound_curve(gen, metric, agg, p0, t_grid, variants).columns
            for p0, gen, metric, agg, t_grid in cases
        ]

    monkeypatch.setattr(transport_mod, "Coupling", refuse)
    monkeypatch.setattr(transport_mod, "Potential", refuse)
    curves = [exact_error_curve(*case) for case in cases]
    bounds = bound_curves()
    monkeypatch.undo()
    for patched, plain in zip(bounds, bound_curves()):
        assert patched.keys() == plain.keys()
        assert all(np.array_equal(patched[name], plain[name]) for name in variants)
    for (p0, gen, metric, agg, t_grid), curve in zip(cases, curves):
        pi_t, p_t, prev = aggregate_initial(p0, agg), p0, 0.0
        for t, value in zip(t_grid, curve):
            pi_t = transient_ctmc(pi_t, agg.chain, float(t) - prev)
            p_t = transient_ctmc(p_t, gen, float(t) - prev)
            prev = float(t)
            assert value == wasserstein(ProbVec(pi_t.p @ agg.a), p_t, metric).value


def test_w1_and_exact_curve_make_no_lp_call(monkeypatch) -> None:
    def no_lp(*args, **kwargs):
        raise AssertionError("dense LP called")

    monkeypatch.setattr(transport_mod, "solve", no_lp)
    for p0, gen, metric, agg, t_grid in _box_grid_curves():
        exact_error_curve(p0, gen, metric, agg, t_grid)
        uniform = ProbVec(np.full(gen.n, 1.0 / gen.n))
        for t in t_grid:
            wasserstein(p0, transient_ctmc(p0, gen, t), metric)
            wasserstein(transient_ctmc(p0, gen, t), uniform, metric)


def test_bound_curve_makes_few_transient_calls(toy, monkeypatch) -> None:
    """One sweep serves the integral variants and the exact curve: per grid
    point one occupation step of the aggregated chain and one step of the
    full chain, one W1 solve per point after t = 0 (whose value is W0), and
    one grid check."""
    gen, metric, agg, p0, inputs = toy
    calls: dict[str, list] = {"aggregated": [], "full": [], "w1": [], "grid": []}

    def stepped(p, chain, h, **kwargs):
        calls["aggregated" if chain is agg.chain else "full"].append(kwargs.get("occupation", False))
        return transient_ctmc(p, chain, h, **kwargs)

    def solved(*args, **kwargs):
        calls["w1"].append(1)
        return wasserstein(*args, **kwargs)

    real_check = bounds_mod._check_grid

    def checked(t_grid):
        calls["grid"].append(1)
        return real_check(t_grid)

    monkeypatch.setattr(bounds_mod, "transient_ctmc", stepped)
    monkeypatch.setattr(bounds_mod, "wasserstein", solved)
    monkeypatch.setattr(bounds_mod, "_check_grid", checked)
    t_grid = time_grid(2.0, 7)
    curve = compute_bound_curve(gen, metric, agg, p0, t_grid, ALL_VARIANTS, with_exact=True)
    assert calls["aggregated"] == [True] * 7
    assert calls["full"] == [False] * 7
    assert len(calls["w1"]) == 1 + 6
    assert len(calls["grid"]) == 1
    assert curve.exact[0] == inputs.w0
    assert sorted(curve.columns) == sorted(ALL_VARIANTS)


def test_defect_of_another_aggregation_is_refused_before_the_sweep(monkeypatch) -> None:
    # inputs for blocks {1,2},{3,4} carry two defect entries; the aggregation has three
    gen, metric, p0 = random_instance(4, 0)
    pairs = partition_aggregation_ctmc(gen, Partition(((1, 2), (3, 4))))
    inputs = prepare_bound_inputs(gen, metric, pairs, p0)
    agg = partition_aggregation_ctmc(gen, Partition(((1, 2), (3,), (4,))))

    def no_work(*args, **kwargs):
        raise AssertionError("a time step ran")

    monkeypatch.setattr(bounds_mod, "transient_ctmc", no_work)
    with pytest.raises(DimensionMismatch, match="^defect vector has 2 entries for 3 aggregates$"):
        bound_linear_K_timevarying(inputs, agg, aggregate_initial(p0, agg), time_grid(1.0, 3))


@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    metric_kind=st.sampled_from(("line", "discrete", "graph")),
    start=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    steps=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=0, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_shared_sweep_matches_the_standalone_curves(n, seed, metric_kind, start, steps) -> None:
    """Every column and the exact curve of one shared sweep are the standalone
    calls' values bit for bit, on nondecreasing grids with repeated points and
    with a first point above 0."""
    gen, metric, p0 = random_instance(n, seed, metric_kind)
    agg = partition_aggregation_ctmc(gen, _random_partition(np.random.default_rng(seed), n))
    t_grid = start + np.cumsum([0.0, *steps])
    curve = compute_bound_curve(gen, metric, agg, p0, t_grid, ALL_VARIANTS, with_exact=True)
    inputs = prepare_bound_inputs(gen, metric, agg, p0, with_kappa=True)
    alone = {
        **bound_linear_K_timevarying(inputs, agg, aggregate_initial(p0, agg), t_grid),
        "linear": bound_linear_K(inputs, t_grid),
        "exp-k": bound_exponential(inputs, t_grid, "k_min"),
        "exp-kappa": bound_exponential(inputs, t_grid, "kappa_min"),
        "hybrid": bound_hybrid(inputs, t_grid, "k_min"),
        "hybrid-kappa": bound_hybrid(inputs, t_grid, "kappa_min"),
    }
    assert sorted(alone) == sorted(ALL_VARIANTS)
    for name in ALL_VARIANTS:
        assert np.array_equal(curve.columns[name], alone[name]), name
    assert np.array_equal(curve.exact, exact_error_curve(p0, gen, metric, agg, t_grid))


def test_prepare_bound_inputs_builds_one_k_matrix(monkeypatch) -> None:
    gen, metric, p0 = random_instance(7, 31)
    agg = partition_aggregation_ctmc(gen, Partition(((1, 2, 3), (4, 5), (6, 7))))
    calls = []
    real = bounds_mod.k_matrix

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(bounds_mod, "k_matrix", counted)
    monkeypatch.setattr(curvature_mod, "k_matrix", counted)
    for with_kappa in (False, True):
        calls.clear()
        inputs = prepare_bound_inputs(gen, metric, agg, p0, with_kappa=with_kappa)
        assert len(calls) == 1, with_kappa
    monkeypatch.undo()
    assert inputs.kappa_min == kappa_min(gen, metric)[0]
    k_loc = _k_constants(k_matrix(gen, metric), metric)[2]
    np.testing.assert_array_equal(inputs.K_local, k_loc)
    assert inputs.K == k_loc.max()
    assert inputs.k_min == float(np.nanmin(k_matrix(gen, metric)))


def test_exponential_bound_overflow_is_inf_not_nan(toy) -> None:
    # W0 = 0 and e^{14 t} overflows at t = 60: the raw bound is +inf (not
    # 0 * inf = nan) and the clipped bound is the diameter.
    gen, metric, agg, p0, _ = toy
    curve = compute_bound_curve(
        gen, metric, agg, p0, np.array([0.0, 30.0, 60.0]), variants=("exp-k",)
    )
    raw = curve.columns["exp-k"]
    assert raw[0] == 0.0 and np.isfinite(raw[1]) and raw[2] == math.inf
    np.testing.assert_array_equal(curve.clipped()["exp-k"], [0.0, 5.0, 5.0])
    # a zero coefficient stays zero however large the exponential gets
    null = BoundInputs(
        w0=0.0, defect_vector=np.zeros(1), defect_norm=0.0, k_min=-14.0, K=14.0, d_max=5.0
    )
    np.testing.assert_array_equal(bound_exponential(null, np.array([0.0, 60.0])), [0.0, 0.0])
