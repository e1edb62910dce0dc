"""Tests for the built-in model constructors.

The translation-invariant box walks are checked against hand-built generator
matrices (boundary projection, state ordering, interior stencils) and against
the structural guarantee that they carry non-negative coarse Ricci curvature.
The rooted variant's lower-bound value k = -9.5 was derived by hand from the
closed form k(r,s) = -(min(G_rr, G_rs) + min(G_ss, G_sr)) / d(r,s) with
G = Q d on the five-state chain printed in the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from wdbounds.curvature import k_matrix, kappa_min
from wdbounds.errors import DimensionMismatch, EmptySupport, IndexOutOfRange
from wdbounds.models import Box, JumpDistribution, random_instance, toy_ctmc, translation_invariant_ctmc

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


def test_toy_ctmc_matrices() -> None:
    gen, metric = toy_ctmc()
    np.testing.assert_array_equal(gen.q, TOY_Q)
    np.testing.assert_array_equal(metric.dist, TOY_D)


def test_boundary_projection_one_dimensional() -> None:
    # Pure +1 jumps on {0, 1, 2}: the top state's jump projects back onto
    # itself and contributes nothing, leaving an absorbing final row.
    gen, metric = translation_invariant_ctmc(
        Box((0,), (2,)), 1.0, JumpDistribution((((1,), 1.0),))
    )
    np.testing.assert_allclose(
        gen.q,
        [
            [-1.0, 1.0, 0.0],
            [0.0, -1.0, 1.0],
            [0.0, 0.0, 0.0],
        ],
    )
    expected_dist = np.abs(np.arange(3)[:, None] - np.arange(3)[None, :]).astype(float)
    np.testing.assert_allclose(metric.dist, expected_dist)


def test_points_lexicographic_order() -> None:
    box = Box((0, 0), (1, 2))
    assert box.dim == 2
    assert box.shape == (2, 3)
    np.testing.assert_array_equal(
        box.points(),
        [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
    )
    # offset boxes shift the points
    np.testing.assert_array_equal(Box((3,), (5,)).points(), [[3], [4], [5]])


def test_interior_rows_are_translates() -> None:
    # Jump offsets +1, -1, +2: states 1..3 (positions 1..3 of 0..5) see the
    # whole stencil without clipping, so their rows are shifted copies.
    jumps = JumpDistribution((((1,), 0.3), ((-1,), 0.45), ((2,), 0.25)))
    gen, metric = translation_invariant_ctmc(Box((0,), (5,)), 2.0, jumps)
    for i in (1, 2, 3):
        assert gen.q[i, i + 1] == pytest.approx(2.0 * 0.3)
        assert gen.q[i, i - 1] == pytest.approx(2.0 * 0.45)
        assert gen.q[i, i + 2] == pytest.approx(2.0 * 0.25)
        assert gen.q[i, i] == pytest.approx(-2.0)
    np.testing.assert_allclose(gen.q.sum(axis=1), 0.0, atol=1e-12)


def test_two_dimensional_euclidean_metric() -> None:
    jumps = JumpDistribution((((0, 1), 0.5), ((1, 0), 0.5)))
    gen, metric = translation_invariant_ctmc(Box((0, 0), (1, 2)), 1.0, jumps)
    pts = Box((0, 0), (1, 2)).points()
    # d((0,0), (1,2)) = sqrt(5); state order matches points()
    assert metric.dist[0, 5] == pytest.approx(np.sqrt(5.0))
    assert metric.dist[0, 3] == pytest.approx(1.0)
    assert metric.dist[1, 4] == pytest.approx(1.0)
    assert gen.q.shape == (pts.shape[0], pts.shape[0])


def test_translation_invariant_curvature_nonnegative() -> None:
    configs = [
        (Box((0,), (4,)), JumpDistribution((((1,), 0.5), ((-1,), 0.5)))),
        (Box((0,), (3,)), JumpDistribution((((1,), 1.0),))),
        (
            Box((0, 0), (2, 2)),
            JumpDistribution(
                (((0, 1), 0.25), ((0, -1), 0.25), ((1, 0), 0.25), ((-1, 0), 0.25))
            ),
        ),
        (Box((0,), (5,)), JumpDistribution((((2,), 0.4), ((-1,), 0.6)))),
    ]
    for box, jumps in configs:
        gen, metric = translation_invariant_ctmc(box, 1.5, jumps)
        kap, _ = kappa_min(gen, metric)
        assert kap >= -1e-7, (box, kap)


def test_root_augmentation_voids_lower_bound_guarantee() -> None:
    jumps = JumpDistribution((((1,), 0.5), ((-1,), 0.5)))
    gen0, met0 = translation_invariant_ctmc(Box((0,), (4,)), 1.0, jumps)
    assert float(np.nanmin(k_matrix(gen0, met0))) == pytest.approx(0.0, abs=1e-12)

    gen, metric = translation_invariant_ctmc(
        Box((0,), (4,)), 1.0, jumps, root=1, root_rate=2.0
    )
    # Every non-root state gains a rate-2 transition to state 1.
    np.testing.assert_allclose(
        gen.q,
        [
            [-0.5, 0.5, 0.0, 0.0, 0.0],
            [2.5, -3.0, 0.5, 0.0, 0.0],
            [2.0, 0.5, -3.0, 0.5, 0.0],
            [2.0, 0.0, 0.5, -3.0, 0.5],
            [2.0, 0.0, 0.0, 0.5, -2.5],
        ],
    )
    # Hand-computed closed-form values: the top corner pair drops to -9.5.
    kmat = k_matrix(gen, metric)
    assert kmat[3, 4] == pytest.approx(-9.5, abs=1e-12)
    assert kmat[0, 4] == pytest.approx(2.25, abs=1e-12)
    assert float(np.nanmin(kmat)) == pytest.approx(-9.5, abs=1e-12)
    # The chain itself still contracts - resets pull mass together - so the
    # voided guarantee is about k, not about the true curvature.
    kap, _ = kappa_min(gen, metric)
    assert kap > 0.0


def test_box_and_jump_validation() -> None:
    with pytest.raises(ValueError, match="lo > hi"):
        Box((2,), (1,))
    with pytest.raises(ValueError, match="equal dimension"):
        Box((0,), (1, 2))
    with pytest.raises(ValueError, match="equal dimension"):
        Box((), ())
    with pytest.raises(EmptySupport):
        JumpDistribution(())
    with pytest.raises(ValueError, match="negative jump probability"):
        JumpDistribution((((1,), -0.5), ((-1,), 1.5)))
    with pytest.raises(ValueError, match="sum to"):
        JumpDistribution((((1,), 0.7),))
    with pytest.raises(ValueError, match="mixed dimensions"):
        JumpDistribution((((1,), 0.5), ((1, 0), 0.5)))

    box = Box((0,), (3,))
    jumps = JumpDistribution((((1,), 1.0),))
    with pytest.raises(ValueError, match="rate must be positive"):
        translation_invariant_ctmc(box, 0.0, jumps)
    with pytest.raises(DimensionMismatch):
        translation_invariant_ctmc(Box((0, 0), (1, 1)), 1.0, jumps)
    with pytest.raises(IndexOutOfRange):
        translation_invariant_ctmc(box, 1.0, jumps, root=9, root_rate=1.0)
    with pytest.raises(ValueError, match="root rate"):
        translation_invariant_ctmc(box, 1.0, jumps, root=1, root_rate=-1.0)
    with pytest.raises(ValueError, match="without a root"):
        translation_invariant_ctmc(box, 1.0, jumps, root_rate=0.3)


def test_random_instance_determinism_and_validity() -> None:
    gen1, met1, p1 = random_instance(6, 42, metric_kind="graph", density=0.8)
    gen2, met2, p2 = random_instance(6, 42, metric_kind="graph", density=0.8)
    np.testing.assert_array_equal(gen1.q, gen2.q)
    np.testing.assert_array_equal(met1.dist, met2.dist)
    np.testing.assert_array_equal(p1.p, p2.p)

    for kind in ("discrete", "line", "graph"):
        gen, metric, p0 = random_instance(5, 7, metric_kind=kind)
        np.testing.assert_allclose(gen.q.sum(axis=1), 0.0, atol=1e-12)
        assert np.all(gen.q - np.diag(np.diag(gen.q)) >= 0.0)
        np.testing.assert_allclose(metric.dist, metric.dist.T)
        assert p0.p.sum() == pytest.approx(1.0)
        d = metric.dist
        n = d.shape[0]
        for r in range(n):
            for s in range(n):
                for u in range(n):
                    assert d[r, s] <= d[r, u] + d[u, s] + 1e-12

    # density 0 drops every off-diagonal rate
    gen0, _, _ = random_instance(4, 3, density=0.0)
    np.testing.assert_array_equal(gen0.q, np.zeros((4, 4)))

    with pytest.raises(ValueError, match="at least two states"):
        random_instance(1, 0)
    with pytest.raises(ValueError, match="density"):
        random_instance(3, 0, density=1.5)
    with pytest.raises(ValueError, match="unknown metric kind"):
        random_instance(3, 0, metric_kind="torus")
