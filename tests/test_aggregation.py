"""Partitions, disaggregation matrices, and aggregated chains."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdbounds.aggregation import (
    Aggregation,
    Partition,
    aggregate_initial,
    disaggregate,
    epsilon_partition,
    partition_aggregation_ctmc,
    partition_aggregation_dtmc,
)
from wdbounds.errors import BadAlpha, DimensionMismatch
from wdbounds.markov import Generator, ProbVec, TransitionMatrix, uniformize
from wdbounds.metric import validate_metric
from wdbounds.models import random_instance

TOY_Q = np.array([[-1.0, 0.0, 1.0], [1.0, -4.0, 3.0], [0.0, 2.0, -2.0]])
TOY_D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
TOY_PART = Partition(((1, 2), (3,)))


def _line_metric(rng: np.random.Generator, n: int):
    from wdbounds.metric import line_metric

    return line_metric(np.cumsum(rng.uniform(0.2, 1.5, size=n)))


def _random_partition(rng: np.random.Generator, n: int) -> Partition:
    m = int(rng.integers(1, n + 1))
    order = rng.permutation(n) + 1
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False)) if m > 1 else []
    blocks = [tuple(int(i) for i in chunk) for chunk in np.split(order, cuts)]
    return Partition(tuple(blocks))


def test_partition_basics():
    p = TOY_PART
    assert p.n == 3 and p.m == 2
    assert np.array_equal(p.block_of, [0, 0, 1])
    lam = p.membership()
    assert np.array_equal(lam, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # blocks need not be contiguous or sorted
    scattered = Partition(((3, 1), (2,)))
    assert np.array_equal(scattered.block_of, [0, 1, 0])


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition(((1, 2), ()))
    with pytest.raises(ValueError):
        Partition(((1, 2), (4,)))  # skips state 3
    with pytest.raises(ValueError):
        Partition(((1, 2), (2, 3)))  # duplicate state


def test_toy_aggregated_generator():
    gen = Generator(TOY_Q)
    agg = partition_aggregation_ctmc(gen, TOY_PART)
    assert np.allclose(agg.a, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)
    assert np.allclose(agg.chain.q, [[-2.0, 2.0], [2.0, -2.0]], atol=1e-12)
    assert isinstance(agg.chain, Generator)
    assert np.allclose(agg.a @ agg.lam, np.eye(2), atol=1e-15)
    assert agg.m == 2 and agg.n == 3


def test_custom_alpha_weighting():
    gen = Generator(TOY_Q)
    alpha = [np.array([0.25, 0.75]), np.array([1.0])]
    agg = partition_aggregation_ctmc(gen, TOY_PART, alpha=alpha)
    assert np.allclose(agg.a, [[0.25, 0.75, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)
    # Theta is exactly A Q Lambda for the weighted A
    want = agg.a @ TOY_Q @ TOY_PART.membership()
    assert np.allclose(agg.chain.q, want, atol=1e-12)
    assert np.allclose(agg.chain.q[0], [-2.5, 2.5], atol=1e-12)


def test_aggregated_chain_is_built_from_the_kept_a():
    """A weighting whose mass is off 1 by 5e-10 passes the gate, which
    divides A's row by it; Theta and Pi are built from that A, bit for bit."""
    alpha = [np.array([0.25, 0.75 + 5e-10]), np.array([1.0])]
    gen = Generator(TOY_Q)
    agg = partition_aggregation_ctmc(gen, TOY_PART, alpha=alpha)
    assert agg.a[0, 1] != alpha[0][1]
    np.testing.assert_array_equal(agg.chain.q, agg.a @ TOY_Q @ agg.lam)
    pmat, _ = uniformize(gen)
    agg_d = partition_aggregation_dtmc(pmat, TOY_PART, alpha=alpha)
    np.testing.assert_array_equal(agg_d.chain.p, agg_d.a @ pmat.p @ agg_d.lam)


def test_alpha_validation():
    gen = Generator(TOY_Q)
    with pytest.raises(BadAlpha):
        partition_aggregation_ctmc(gen, TOY_PART, alpha=[np.array([1.0])])
    with pytest.raises(BadAlpha):
        partition_aggregation_ctmc(
            gen, TOY_PART, alpha=[np.array([0.5, 0.5, 0.0]), np.array([1.0])]
        )
    with pytest.raises(BadAlpha):
        partition_aggregation_ctmc(
            gen, TOY_PART, alpha=[np.array([-0.5, 1.5]), np.array([1.0])]
        )
    with pytest.raises(BadAlpha):
        partition_aggregation_ctmc(
            gen, TOY_PART, alpha=[np.array([0.5, 0.2]), np.array([1.0])]
        )


def test_aggregate_initial_names_the_missing_lam():
    agg = Aggregation(a=np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="no membership matrix 'lam'"):
        aggregate_initial(ProbVec(np.array([1.0, 0.0, 0.0])), agg)


def test_aggregation_validation():
    with pytest.raises(ValueError):
        Aggregation(a=np.array([[0.5, 0.6], [0.5, 0.4]]))  # row 1 sums to 1.1
    with pytest.raises(ValueError):
        Aggregation(a=np.array([[1.5, -0.5]]))
    lam = np.array([[1.0], [1.0]])
    Aggregation(a=np.array([[0.5, 0.5]]), lam=lam)
    with pytest.raises(DimensionMismatch):
        Aggregation(a=np.array([[0.5, 0.5]]), lam=np.ones((3, 1)))
    with pytest.raises(ValueError):
        # A @ Lambda != I: the block-2 row of A puts no mass in block 2
        Aggregation(
            a=np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]),
            lam=Partition(((1, 2), (3,))).membership(),
        )


def test_aggregation_chain_is_one_field_on_the_aggregates():
    """An aggregation carries one aggregated chain, of either kind (CTMC
    ``Theta`` or DTMC ``Pi``) or none, and that chain lives on the ``m``
    aggregates: a chain of another size is refused when the aggregation is
    built, not later inside a matrix product."""
    a = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    theta = Generator(np.array([[-1.0, 1.0], [2.5, -2.5]]))
    pi_mat = TransitionMatrix(np.full((2, 2), 0.5))
    assert Aggregation(a=a).chain is None
    assert Aggregation(a=a, chain=theta).chain is theta
    assert Aggregation(a=a, chain=pi_mat).chain is pi_mat
    assert [f.name for f in fields(Aggregation)] == ["a", "lam", "chain", "partition"]
    for wrong in (Generator(TOY_Q), TransitionMatrix(np.full((3, 3), 1 / 3))):
        with pytest.raises(DimensionMismatch, match="aggregated chain on 3 states, A has 2 rows"):
            Aggregation(a=a, chain=wrong)


def test_aggregate_initial_and_disaggregate():
    p0 = ProbVec(np.array([0.5, 0.5, 0.0]))
    agg = partition_aggregation_ctmc(Generator(TOY_Q), TOY_PART)
    pi0 = aggregate_initial(p0, agg)
    assert np.array_equal(pi0.p, [1.0, 0.0])
    # the Partition alone suffices
    pi0b = aggregate_initial(p0, TOY_PART)
    assert np.array_equal(pi0b.p, pi0.p)
    lifted = disaggregate(pi0, agg)
    assert np.allclose(lifted.p, [0.5, 0.5, 0.0], atol=1e-15)
    with pytest.raises(DimensionMismatch):
        aggregate_initial(ProbVec(np.array([0.5, 0.5])), agg)
    with pytest.raises(DimensionMismatch):
        disaggregate(ProbVec(np.array([0.2, 0.3, 0.5])), agg)
    no_lam = Aggregation(a=np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        aggregate_initial(p0, no_lam)


def test_uniformization_commutes_with_aggregation():
    """Pi = A P Lambda equals I + Theta/lam when P = I + Q/lam."""
    gen = Generator(TOY_Q)
    pmat, lam = uniformize(gen)
    ctmc_agg = partition_aggregation_ctmc(gen, TOY_PART)
    dtmc_agg = partition_aggregation_dtmc(pmat, TOY_PART)
    assert np.allclose(
        dtmc_agg.chain.p, np.eye(2) + ctmc_agg.chain.q / lam, atol=1e-12
    )
    assert isinstance(dtmc_agg.chain, TransitionMatrix)


def test_epsilon_partition_cases():
    metric = validate_metric(TOY_D)
    assert epsilon_partition(metric, 1.0).blocks == ((1, 2), (3,))
    assert epsilon_partition(metric, 0.5).blocks == ((1,), (2,), (3,))
    assert epsilon_partition(metric, 0.0).blocks == ((1,), (2,), (3,))
    assert epsilon_partition(metric, 5.0).blocks == ((1, 2, 3),)
    assert epsilon_partition(metric, 4.0).blocks == ((1, 2), (3,))
    assert epsilon_partition(metric, float("inf")).blocks == ((1, 2, 3),)
    for eps in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            epsilon_partition(metric, eps)


@given(st.integers(2, 9), st.integers(0, 10_000), st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_epsilon_partition_greedy_invariants(n, seed, eps):
    rng = np.random.default_rng(seed)
    metric = _line_metric(rng, n)
    part = epsilon_partition(metric, eps)
    openers = [blk[0] for blk in part.blocks]
    for blk in part.blocks:
        o = blk[0]
        for member in blk:
            assert metric.dist[o - 1, member - 1] <= eps + 1e-12
    # openers are pairwise farther than eps apart -- otherwise the later one
    # would have been absorbed by the earlier one
    for i, o1 in enumerate(openers):
        for o2 in openers[i + 1 :]:
            assert metric.dist[o1 - 1, o2 - 1] > eps


def _greedy_blocks(dist: np.ndarray, eps: float) -> tuple[tuple[int, ...], ...]:
    """The greedy clustering one pair at a time: each unassigned state opens a
    block and absorbs every later unassigned state within ``eps``."""
    n = dist.shape[0]
    assigned = [False] * n
    blocks = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [i]
        assigned[i] = True
        for j in range(i + 1, n):
            if not assigned[j] and dist[i, j] <= eps:
                members.append(j)
                assigned[j] = True
        blocks.append(tuple(m + 1 for m in members))
    return tuple(blocks)


@given(
    st.integers(1, 14),
    st.integers(0, 10_000),
    st.sampled_from(["line", "graph", "discrete"]),
    st.floats(0.0, 4.0) | st.just(float("inf")),
)
@settings(max_examples=80, deadline=None)
def test_epsilon_partition_matches_the_pairwise_loop(n, seed, kind, eps):
    """The blocks equal those of the one-pair-at-a-time loop on random line,
    graph and discrete metrics, also when ``eps`` is one of the distances."""
    rng = np.random.default_rng(seed)
    if n == 1:
        metric = validate_metric(np.zeros((1, 1)))
    else:
        metric = random_instance(n, seed, metric_kind=kind, density=0.5)[1]
    for e in (eps, float(rng.choice(metric.dist.ravel()))):
        assert epsilon_partition(metric, e).blocks == _greedy_blocks(metric.dist, e)


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_block_mass_is_conserved(n, seed):
    rng = np.random.default_rng(seed)
    part = _random_partition(rng, n)
    p0 = ProbVec(rng.dirichlet(np.ones(n)))
    pi0 = aggregate_initial(p0, part)
    for b, blk in enumerate(part.blocks):
        assert pi0.p[b] == pytest.approx(sum(p0.p[i - 1] for i in blk), abs=1e-12)
    # lifting keeps each block's mass where the aggregate put it
    q = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    agg = partition_aggregation_ctmc(Generator(q), part)
    lifted = disaggregate(pi0, agg)
    for b, blk in enumerate(part.blocks):
        assert sum(lifted.p[i - 1] for i in blk) == pytest.approx(pi0.p[b], abs=1e-12)


def test_dimension_mismatches():
    gen = Generator(TOY_Q)
    with pytest.raises(DimensionMismatch):
        partition_aggregation_ctmc(gen, Partition(((1, 2), (3, 4))))
    pmat, _ = uniformize(gen)
    with pytest.raises(DimensionMismatch):
        partition_aggregation_dtmc(pmat, Partition(((1,), (2,))))
