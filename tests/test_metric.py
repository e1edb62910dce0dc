"""Metric construction and validation."""

from __future__ import annotations

import itertools
from fractions import Fraction

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
import wdbounds.metric as metric_mod
from wdbounds.metric import (
    TRIANGLE_TOL,
    Metric,
    discrete_metric,
    irreducible_pairs,
    lattice_metric,
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


def test_metric_gates_itself(monkeypatch):
    """A bare ``Metric`` refuses every matrix that breaks an axiom other than
    the triangle inequality; each public gate runs those checks once."""
    with pytest.raises(AsymmetricMatrix):
        Metric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NegativeDistance):
        Metric(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match="at least one state"):
        Metric(np.zeros((0, 0)))
    calls = []
    checked = metric_mod._checked_matrix
    monkeypatch.setattr(metric_mod, "_checked_matrix", lambda d: calls.append(d) or checked(d))
    validate_metric(TOY_DIST)
    lattice_metric(np.array([2.0, 1.0, 0.0, 1.0, 2.0]))
    assert len(calls) == 2


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


def _irreducible_oracle(d: np.ndarray) -> np.ndarray:
    """Pairs r < s (row-major) with no z != r, s on a geodesic, in exact
    rational arithmetic."""
    n = d.shape[0]
    exact = [[Fraction(float(v)) for v in row] for row in d]
    return np.array(
        [
            not any(
                exact[r][z] + exact[z][s] == exact[r][s] for z in range(n) if z not in (r, s)
            )
            for r in range(n)
            for s in range(r + 1, n)
        ]
    )


def _metric_with_ties(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "integer_line":
        return line_metric(np.sort(rng.choice(3 * n, size=n, replace=False))).dist
    if kind == "dyadic_graph":  # weights in quarters: path sums are exact
        edges = [(int(rng.integers(1, v)), v, rng.integers(1, 8) / 4) for v in range(2, n + 1)]
        for u, v in rng.integers(1, n + 1, size=(n, 2)):
            if u != v:
                edges.append((int(u), int(v), rng.integers(1, 8) / 4))
        return shortest_path_metric(n, edges).dist
    if kind == "grid_l1":
        side = line_metric(np.arange(3.0))
        return product_metric([(side, 0.5), (line_metric(np.arange(n // 3 + 1.0)), 1.0)]).dist
    return random_instance(n, seed, metric_kind=kind)[1].dist


@given(
    st.sampled_from(["integer_line", "dyadic_graph", "grid_l1", "line", "graph", "discrete"]),
    st.integers(3, 9),
    st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_irreducible_pairs_match_exact_rational_oracle(kind, n, seed):
    d = _metric_with_ties(kind, n, seed)
    np.testing.assert_array_equal(irreducible_pairs(validate_metric(d)), _irreducible_oracle(d))


def test_irreducible_pairs_need_an_exact_midpoint():
    # toy: d(1,2) + d(2,3) = d(1,3), so (1,3) is reducible
    np.testing.assert_array_equal(irreducible_pairs(validate_metric(TOY_DIST)), [True, False, True])
    # 0.1 + 0.2 rounds onto the stored d(1,3), but its rounding error is not zero
    c = 0.1 + 0.2
    rounded = validate_metric([[0.0, 0.1, c], [0.1, 0.0, 0.2], [c, 0.2, 0.0]])
    np.testing.assert_array_equal(irreducible_pairs(rounded), [True, True, True])
    # a detour longer by one part in 1e12 is no midpoint either
    near = 1.0 + 2.0 * (1 + 1e-12)
    detour = validate_metric([[0.0, 1.0, near], [1.0, 0.0, 2.0], [near, 2.0, 0.0]])
    np.testing.assert_array_equal(irreducible_pairs(detour), [True, True, True])
    # 0.5 + 0.25 is exact
    exact = validate_metric([[0.0, 0.5, 0.75], [0.5, 0.0, 0.25], [0.75, 0.25, 0.0]])
    np.testing.assert_array_equal(irreducible_pairs(exact), [True, False, True])
    # two states: the one pair is irreducible
    np.testing.assert_array_equal(irreducible_pairs(discrete_metric(2)), [True])


def _euclidean_differences(shape: tuple[int, ...]) -> np.ndarray:
    diff = np.stack(np.indices(tuple(2 * side - 1 for side in shape)), axis=-1)
    diff -= np.array(shape) - 1
    return np.sqrt((diff.astype(float) ** 2).sum(axis=-1))


def _gathered(f: np.ndarray) -> np.ndarray:
    """``d[i, j] = f[p_i - p_j + centre]`` over the box's points, lexicographic."""
    sides = tuple((side + 1) // 2 for side in f.shape)
    pts = np.array(list(np.ndindex(*sides)))
    centre = np.array(sides) - 1
    return np.array([[f[tuple(p - q + centre)] for q in pts] for p in pts])


BOX_SHAPES = [
    shape for dim in (1, 2, 3) for shape in itertools.product(range(1, 7), repeat=dim)
]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_check_agrees_with_validate_metric_on_boxes(dim):
    """Every box up to 6 per side: the gathered matrix is the explicit
    Euclidean one, and both gates accept it."""
    for shape in (s for s in BOX_SHAPES if len(s) == dim):
        f = _euclidean_differences(shape)
        pts = np.array(list(np.ndindex(*shape)))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]).astype(float) ** 2).sum(axis=2))
        m = lattice_metric(f)
        np.testing.assert_array_equal(m.dist, dist)
        np.testing.assert_array_equal(validate_metric(dist).dist, m.dist)


def _perturbed(shape, rng):
    """A difference table with one entry scaled, together with its mirror
    images along every axis."""
    f = _euclidean_differences(shape)
    centre = np.array(f.shape) // 2
    at = np.array([rng.integers(0, side) for side in f.shape])
    factor = rng.choice([0.3, 0.9, 1 + 0.5 * TRIANGLE_TOL, 1 + 4 * TRIANGLE_TOL, 1.5, 2.0])
    for sign in set(itertools.product([1, -1], repeat=len(shape))):
        f[tuple(centre + (at - centre) * np.array(sign))] *= factor
    return f


@given(st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_lattice_check_flags_a_perturbed_table(dim, seed):
    """On perturbed tables both gates accept or reject together; a rejected
    table's triple is real and exceeds the slack."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(v) for v in rng.integers(2, 6, size=dim))
    f = _perturbed(shape, rng)
    d = _gathered(f)
    try:
        validate_metric(d)
    except (TriangleViolation, ZeroOffDiagonal) as exc:
        with pytest.raises(type(exc)) as caught:
            lattice_metric(f)
    else:
        np.testing.assert_array_equal(lattice_metric(f).dist, d)
        return
    if isinstance(caught.value, TriangleViolation):
        r, s, u = (v - 1 for v in caught.value.triple)
        assert len({r, s, u}) == 3
        assert d[r, u] - (d[r, s] + d[s, u]) > TRIANGLE_TOL * d.max()


def test_lattice_check_rejects_a_table_that_is_not_mirrored():
    """Lowering |(1,-1)| and |(-1,1)| keeps d symmetric but only breaks
    d(x, x + (2,-2)) <= 2 |(1,-1)|, whose offsets a = b = (1,-1) lie outside
    the orthant a >= 0 that is scanned; such a table is refused, not passed."""
    f = _euclidean_differences((4, 4))
    f[4, 2] = f[2, 4] = 0.9 * np.sqrt(2.0)
    with pytest.raises(TriangleViolation):
        validate_metric(_gathered(f))
    with pytest.raises(ValueError, match="mirror"):
        lattice_metric(f)


def test_lattice_check_names_a_real_triple():
    f = _euclidean_differences((4, 3))
    f[5, 2] = f[1, 2] = 3.5  # |(+-2, 0)| raised above 1 + 1
    with pytest.raises(TriangleViolation) as exc:
        lattice_metric(f)
    d = _gathered(f)
    r, s, u = (v - 1 for v in exc.value.triple)
    assert d[r, u] - (d[r, s] + d[s, u]) == pytest.approx(1.5)
    with pytest.raises(AsymmetricMatrix):
        g = _euclidean_differences((4, 3))
        g[5, 2] = 2.5  # (+2, 0) without (-2, 0)
        lattice_metric(g)
    with pytest.raises(ValueError):
        lattice_metric(np.zeros((2, 3)))
