"""Metric construction and validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdbounds.errors import (
    AsymmetricMatrix,
    DisconnectedGraph,
    DuplicatePosition,
    EmptyProduct,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
)
from wdbounds.metric import (
    TRIANGLE_TOL,
    discrete_metric,
    line_metric,
    product_metric,
    shortest_path_metric,
    validate_metric,
)
from wdbounds.models import Box, JumpDistribution, random_instance, translation_invariant_ctmc

from .oracles import all_paths_shortest

TOY_DIST = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])


def test_validate_metric_accepts_toy():
    m = validate_metric(TOY_DIST)
    assert m.n == 3
    assert m.d_max == 5.0
    assert m.d(1, 2) == 1.0 and m.d(1, 3) == 5.0 and m.d(2, 3) == 4.0
    assert m.d(2, 1) == 1.0


def test_validate_metric_single_state():
    m = validate_metric(np.zeros((1, 1)))
    assert m.n == 1 and m.d_max == 0.0


def test_triangle_violation_names_the_triple():
    bad = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 4.0], [10.0, 4.0, 0.0]])
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(bad)
    r, s, u = exc.value.triple
    # d(r,u) > d(r,s) + d(s,u) at the reported triple
    assert bad[r - 1, u - 1] > bad[r - 1, s - 1] + bad[s - 1, u - 1]
    assert {r, s, u} == {1, 2, 3}


def test_validation_error_cases():
    with pytest.raises(AsymmetricMatrix):
        validate_metric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NegativeDistance):
        validate_metric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(NonzeroDiagonal):
        validate_metric(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ZeroOffDiagonal):
        validate_metric(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        validate_metric(np.zeros((2, 3)))
    with pytest.raises(NegativeDistance):
        validate_metric(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_triangle_tolerance_absorbs_noise():
    d = np.array([[0.0, 1.0, 2.0 + 5e-10], [1.0, 0.0, 1.0], [2.0 + 5e-10, 1.0, 0.0]])
    validate_metric(d)  # inside the 1e-9 tolerance
    d2 = d.copy()
    d2[0, 2] = d2[2, 0] = 2.0 + 1e-8
    with pytest.raises(TriangleViolation):
        validate_metric(d2)


def test_triangle_slack_scales_with_d_max():
    grid = JumpDistribution((((1, 0), 0.25), ((-1, 0), 0.25), ((0, 1), 0.25), ((0, -1), 0.25)))
    _, euclid = translation_invariant_ctmc(Box((0, 0), (5, 5)), 1.0, grid)
    validate_metric(euclid.dist * 1e9)  # rounding of a valid metric, far above 1e-9
    one_percent = np.array([[0.0, 1.0, 2.02], [1.0, 0.0, 1.0], [2.02, 1.0, 0.0]])
    for scale in (1.0, 1e-9, 1e9):
        with pytest.raises(TriangleViolation):
            validate_metric(one_percent * scale)


def test_discrete_metric():
    assert discrete_metric(1).d_max == 0.0
    m2 = discrete_metric(2)
    assert np.array_equal(m2.dist, [[0, 1], [1, 0]])
    m3 = discrete_metric(3)
    off = ~np.eye(3, dtype=bool)
    assert (m3.dist[off] == 1.0).all() and m3.d_max == 1.0


def test_line_metric_worked_positions():
    m = line_metric(np.array([0.0, 2.0, 3.0, 4.5, 6.0, 7.0]))
    assert m.d(1, 2) == 2.0
    assert m.d(2, 3) == 1.0
    assert m.d(3, 4) == 1.5
    assert m.d(4, 5) == 1.5
    assert m.d(5, 6) == 1.0
    assert m.d_max == 7.0


def test_line_metric_two_points_and_duplicates():
    assert line_metric(np.array([0.0, 1.0])).d(1, 2) == 1.0
    with pytest.raises(DuplicatePosition):
        line_metric(np.array([0.0, 0.0]))
    with pytest.raises(DuplicatePosition):
        line_metric(np.array([3.0, 1.0, 3.0]))


def test_shortest_path_five_node_example():
    """The 5-node graph: d(1,4) = 1.5 via 1-2-3-4 or 1-5-3-4."""
    edges = [(1, 2, 0.5), (2, 3, 0.5), (3, 5, 0.5), (5, 1, 0.5), (3, 4, 0.5)]
    m = shortest_path_metric(5, edges)
    assert m.d(1, 4) == 1.5
    # exhaustive-path oracle agreement over every pair
    for r in range(1, 6):
        for s in range(r + 1, 6):
            assert m.d(r, s) == pytest.approx(all_paths_shortest(5, edges, r, s), abs=1e-12)


def test_shortest_path_basics():
    assert shortest_path_metric(2, [(1, 2, 3.0)]).d(1, 2) == 3.0
    with pytest.raises(DisconnectedGraph):
        shortest_path_metric(3, [(1, 2, 1.0)])
    with pytest.raises(ValueError):
        shortest_path_metric(2, [(1, 2, 0.0)])
    with pytest.raises(ValueError):
        shortest_path_metric(2, [(1, 3, 1.0)])
    # parallel edges keep the lighter one
    assert shortest_path_metric(2, [(1, 2, 3.0), (2, 1, 1.0)]).d(1, 2) == 1.0


def test_product_metric():
    base = discrete_metric(2)
    same = product_metric([(base, 1.0)])
    assert np.array_equal(same.dist, base.dist)
    two = product_metric([(base, 1.0), (base, 1.0)])
    assert two.n == 4
    assert two.d(1, 4) == 2.0  # (1,1) vs (2,2)
    half = product_metric([(base, 0.5)])
    assert half.d(1, 2) == 0.5
    with pytest.raises(EmptyProduct):
        product_metric([])
    with pytest.raises(ValueError):
        product_metric([(base, -1.0)])


def test_product_metric_ordering_last_component_fastest():
    line = line_metric(np.array([0.0, 10.0]))
    disc = discrete_metric(2)
    m = product_metric([(line, 1.0), (disc, 1.0)])
    # states: (1,1),(1,2),(2,1),(2,2)
    assert m.d(1, 2) == 1.0  # same line point, discrete flip
    assert m.d(1, 3) == 10.0  # line flip, same discrete
    assert m.d(1, 4) == 11.0


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_derived_metrics_always_validate(n, seed):
    """line and shortest-path constructions always pass validate_metric."""
    rng = np.random.default_rng(seed)
    positions = np.cumsum(rng.uniform(0.1, 2.0, size=n))
    validate_metric(line_metric(positions).dist)
    edges = [(int(rng.integers(1, v)), v, float(rng.uniform(0.1, 3.0))) for v in range(2, n + 1)]
    validate_metric(shortest_path_metric(n, edges).dist)


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_product_of_valid_components_validates(n, seed):
    rng = np.random.default_rng(seed)
    comps = [
        (discrete_metric(n), float(rng.uniform(0.1, 2.0))),
        (line_metric(np.cumsum(rng.uniform(0.1, 1.0, size=3))), float(rng.uniform(0.1, 2.0))),
    ]
    validate_metric(product_metric(comps).dist)


@given(st.integers(3, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_validate_rejects_inflated_entry(n, seed):
    """Bumping one off-diagonal entry of a line metric breaks an axiom."""
    rng = np.random.default_rng(seed)
    m = line_metric(np.cumsum(rng.uniform(0.5, 1.5, size=n)))
    d = m.dist.copy()
    r, s = 0, n - 1
    d[r, s] += 1.0  # asymmetric now
    with pytest.raises(AsymmetricMatrix):
        validate_metric(d)
    d[s, r] += 1.0  # symmetric again but the triangle breaks through a midpoint
    with pytest.raises(TriangleViolation):
        validate_metric(d)


def _triangle_excess(d: np.ndarray) -> np.ndarray:
    """``excess[r, s, u] = d(r,u) - (d(r,s) + d(s,u))`` over all triples."""
    return d[:, None, :] - (d[:, :, None] + d[None, :, :])


@given(
    st.integers(3, 8),
    st.integers(0, 10_000),
    st.sampled_from(["line", "graph", "discrete"]),
    st.integers(0, 3),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_triangle_check_agrees_with_brute_force(n, seed, kind, changes, at_slack):
    """On symmetric matrices with entries lowered or raised, validate_metric
    rejects exactly when some triple exceeds the slack, and names one."""
    rng = np.random.default_rng(seed)
    d = random_instance(n, seed, metric_kind=kind)[1].dist.copy()
    for _ in range(changes):
        r, s, u = rng.choice(n, size=3, replace=False)
        if at_slack:  # within a few slacks of the limit d(r,s) + d(s,u)
            nudge = rng.choice([-2.0, -0.5, 0.5, 2.0]) * TRIANGLE_TOL * d.max()
            d[r, u] = d[u, r] = d[r, s] + d[s, u] + nudge
        else:
            d[r, u] = d[u, r] = d[r, u] * rng.uniform(0.3, 2.0)
    slack = TRIANGLE_TOL * d.max()
    violated = bool((_triangle_excess(d) > slack).any())
    try:
        validate_metric(d)
    except TriangleViolation as exc:
        assert violated
        r, s, u = (v - 1 for v in exc.triple)
        assert d[r, u] - (d[r, s] + d[s, u]) > slack
    else:
        assert not violated
