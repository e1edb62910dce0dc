"""Scaling invariances, as properties over random instances and scales.

With ``c`` drawn log-uniformly from ``[1e-6, 1e6]``:

* ``W1(p, q; c d) = c W1(p, q; d)``;
* ``kappa(Q; c d) = kappa(Q; d)`` and ``kappa(c Q; d) = c kappa(Q; d)``;
* every bound variant stays above the exact error when the metric is
  scaled by ``c``, and when the rates are scaled by ``c`` and time by ``1/c``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wdbounds.aggregation import Partition, partition_aggregation_ctmc
from wdbounds.bounds import compute_bound_curve
from wdbounds.curvature import kappa
from wdbounds.markov import Generator, ProbVec
from wdbounds.metric import validate_metric
from wdbounds.models import random_instance
from wdbounds.transport import wasserstein

from .test_bounds import ALL_VARIANTS

scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
kinds = st.sampled_from(["line", "graph", "discrete"])


@given(st.integers(2, 8), st.integers(0, 10_000), kinds, scales)
@settings(max_examples=60, deadline=None)
def test_w1_is_linear_in_the_metric(n, seed, kind, c):
    _, metric, p = random_instance(n, seed, metric_kind=kind)
    q = ProbVec(np.random.default_rng(seed).dirichlet(np.ones(n)))
    base = wasserstein(p, q, metric).value
    scaled = wasserstein(p, q, validate_metric(metric.dist * c)).value
    assert abs(scaled / c - base) <= 1e-9 * base


@given(st.integers(2, 7), st.integers(0, 10_000), kinds, scales)
@settings(max_examples=40, deadline=None)
def test_kappa_is_scale_free_in_d_and_linear_in_q(n, seed, kind, c):
    gen, metric, _ = random_instance(n, seed, metric_kind=kind)
    scaled_metric = validate_metric(metric.dist * c)
    scaled_gen = Generator(gen.q * c)
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            kap = kappa(gen, metric, r, s)
            tol = 1e-9 * max(1.0, abs(kap))
            assert abs(kappa(gen, scaled_metric, r, s) - kap) <= tol, (r, s)
            assert abs(kappa(scaled_gen, metric, r, s) / c - kap) <= tol, (r, s)


@given(st.integers(3, 7), st.integers(0, 10_000), kinds, scales, st.booleans())
@settings(max_examples=30, deadline=None)
def test_bounds_stay_sound_under_rescaling(n, seed, kind, c, scale_rates):
    gen, metric, p0 = random_instance(n, seed, metric_kind=kind)
    t = np.linspace(0.0, 2.0, 5)
    if scale_rates:  # the same curve, with time in units of 1/c
        gen, t = Generator(gen.q * c), t / c
    else:
        metric = validate_metric(metric.dist * c)
    cut = int(np.random.default_rng(seed).integers(1, n))
    partition = Partition((tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1))))
    agg = partition_aggregation_ctmc(gen, partition)
    curve = compute_bound_curve(gen, metric, agg, p0, t, variants=ALL_VARIANTS, with_exact=True)
    for name in ALL_VARIANTS:
        gap = float((curve.columns[name] - curve.exact).min())
        assert gap >= -1e-7 * metric.d_max, (name, gap)
