"""Finite metric spaces.

A metric on states ``1..n`` is stored as a dense symmetric matrix of
pairwise distances.  :class:`Metric` itself checks every axiom but the
triangle inequality, which costs ``O(n^3)``: that one is checked by
:func:`validate_metric` (every triple) and :func:`lattice_metric`
(differences of a translation-invariant table), through which every
constructor here goes, up to the stated tolerance.

State indices are 1-based in every public signature and error message;
matrix entry ``dist[r-1, s-1]`` holds the distance between states ``r``
and ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AsymmetricMatrix,
    DisconnectedGraph,
    DuplicatePosition,
    EmptyProduct,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
    ZeroOffDiagonal,
)

__all__ = [
    "Metric",
    "validate_metric",
    "discrete_metric",
    "line_metric",
    "shortest_path_metric",
    "product_metric",
]

#: Slack allowed when checking the triangle inequality, relative to ``d_max``.
TRIANGLE_TOL = 1e-9

#: Entries per block of the vectorized sums in :func:`lattice_metric`,
#: :func:`irreducible_pairs` and :func:`wdbounds.curvature.k_matrix`.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Metric:
    """A matrix that passes every metric axiom but the triangle inequality
    (:func:`_checked_matrix`) on ``n`` states; :func:`validate_metric` also
    checks that one.

    Attributes
    ----------
    dist:
        Symmetric ``(n, n)`` array of distances; read-only.
    """

    dist: np.ndarray
    n: int = field(init=False)
    d_max: float = field(init=False)

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(_checked_matrix(self.dist))
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "n", d.shape[0])
        object.__setattr__(self, "d_max", float(d.max()))

    def d(self, r: int, s: int) -> float:
        """Distance between 1-based states ``r`` and ``s``."""
        return float(self.dist[r - 1, s - 1])


def _checked_matrix(dist: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Every metric axiom except the triangle inequality; returns the float matrix.

    Raises
    ------
    AsymmetricMatrix, NegativeDistance, NonzeroDiagonal, ZeroOffDiagonal
        Each names the offending 1-based indices.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n == 0:
        raise ValueError("distance matrix must have at least one state")

    bad = ~np.isfinite(d)
    if bad.any():
        r, s = np.argwhere(bad)[0]
        raise NegativeDistance(int(r) + 1, int(s) + 1, float(d[r, s]))
    neg = d < 0
    if neg.any():
        r, s = np.argwhere(neg)[0]
        raise NegativeDistance(int(r) + 1, int(s) + 1, float(d[r, s]))
    diag = np.diagonal(d)
    if (diag != 0).any():
        r = int(np.argwhere(diag != 0)[0][0])
        raise NonzeroDiagonal(r + 1, float(diag[r]))
    asym = d != d.T
    if asym.any():
        r, s = np.argwhere(asym)[0]
        raise AsymmetricMatrix(int(r) + 1, int(s) + 1, float(d[r, s]), float(d[s, r]))
    zero_off = (d == 0) & ~np.eye(n, dtype=bool)
    if zero_off.any():
        r, s = np.argwhere(zero_off)[0]
        raise ZeroOffDiagonal(int(r) + 1, int(s) + 1)
    return d


def validate_metric(dist: np.ndarray | Sequence[Sequence[float]]) -> Metric:
    """Check the metric axioms and wrap the matrix in a :class:`Metric`.

    Raises
    ------
    AsymmetricMatrix, NegativeDistance, NonzeroDiagonal, ZeroOffDiagonal,
    TriangleViolation
        Each names the offending 1-based indices.  The triangle check
        allows a slack of ``TRIANGLE_TOL * d_max`` so metrics assembled from
        floating-point arithmetic (shortest paths, products) pass at any
        scale of the distances.
    """
    metric = Metric(dist)
    d, n = metric.dist, metric.n

    # Triangle inequality: d(r,u) <= d(r,s) + d(s,u) + TRIANGLE_TOL * d_max
    # for all r, s, u.  d is symmetric, so the triple (u, s, r) repeats
    # (r, s, u) and r = u cannot violate: one pass per r covers u > r against
    # every s, in an O(n^2) buffer holding excess[s, u - r - 1].
    slack = TRIANGLE_TOL * metric.d_max
    buf = np.empty(n * (n - 1))
    for r in range(n - 1):
        width = n - 1 - r
        excess = buf[: n * width].reshape(n, width)
        np.add(d[r, :, None], d[:, r + 1 :], out=excess)
        np.subtract(d[r, r + 1 :], excess, out=excess)
        k = int(np.argmax(excess))
        s, j = divmod(k, width)
        if excess[s, j] > slack:
            raise TriangleViolation(r + 1, s + 1, r + j + 2, float(excess[s, j]))

    return metric


def lattice_metric(f: np.ndarray) -> Metric:
    """Translation-invariant metric ``d(x, y) = f[x - y]`` on the points of an integer box.

    ``f`` holds one distance per difference of two points: a box of side
    ``L_k`` along axis ``k`` has differences in ``[-(L_k - 1), L_k - 1]``, so
    ``f`` has odd side ``2 L_k - 1`` with the zero difference at its centre.
    It must equal its mirror image along every axis, bitwise, as ``|delta|``
    does.  The states are the box's points in lexicographic order, last
    coordinate fastest, as in :meth:`wdbounds.models.Box.points`.

    The matrix is gathered from ``f`` and goes through the same axiom checks
    as :func:`validate_metric`.  The triangle inequality is checked on
    differences instead of triples of points: ``x, y = x + a, z = y + b``
    lie in the box exactly when ``a``, ``b`` and ``a + b`` are differences
    (per axis, ``{0, a, a + b}`` spans ``max(|a|, |b|, |a + b|)``), so the
    check ``f[a + b] <= f[a] + f[b] + TRIANGLE_TOL * d_max`` over those pairs
    covers every triple, in ``O(n * |f|)`` instead of ``O(n^3)``.  Reflecting
    ``a`` and ``b`` together along the axes where ``a < 0`` maps each
    inequality onto one with ``a >= 0`` and the same values of ``f``, so only
    that orthant of ``a`` is scanned.  A :class:`TriangleViolation` names a
    triple of 1-based states ``x, y, z`` that realizes the violation.

    Raises
    ------
    ValueError
        If ``f`` has an even side or is not mirror-symmetric along every axis.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim == 0 or any(side % 2 == 0 for side in f.shape):
        raise ValueError(f"difference table must have odd sides, got shape {f.shape}")
    sides = tuple((side + 1) // 2 for side in f.shape)
    centre = np.array(sides) - 1
    pts = np.stack(np.unravel_index(np.arange(int(np.prod(sides))), sides), axis=1)
    # flat offset of each point in f; the last point sits at the centre, so
    # f.flat[key[i] - key[j] + key[-1]] = f[p_i - p_j + centre]
    key = np.ravel_multi_index(tuple(pts.T), f.shape)
    metric = Metric(f.ravel()[key[:, None] - key[None, :] + key[-1]])

    if not all(np.array_equal(f, np.flip(f, axis=k)) for k in range(f.ndim)):
        raise ValueError("difference table must be mirror-symmetric along every axis")

    slack = TRIANGLE_TOL * metric.d_max
    # windows[a][b + centre] = f[a + b + centre] for a >= 0, -inf where a + b
    # is not a difference, so those pairs never exceed the slack
    padded = np.pad(f, [(c, c) for c in centre], constant_values=-np.inf)
    orthant = tuple(slice(c, None) for c in centre)
    windows = sliding_window_view(padded, f.shape)[orthant]
    f_a = f[orthant]
    tail = (...,) + (None,) * f.ndim
    step = max(1, _CHUNK // (f.size * (f_a.size // f_a.shape[0])))
    for i in range(0, f_a.shape[0], step):
        excess = windows[i : i + step] - (f_a[i : i + step][tail] + f)
        k = int(np.argmax(excess))
        if excess.flat[k] > slack:
            at = np.unravel_index(k, excess.shape)
            a = np.array(at[: f.ndim])
            a[0] += i
            b = np.array(at[f.ndim :]) - centre
            x = -np.minimum(0, np.minimum(a, a + b))
            r, s, u = (np.ravel_multi_index(tuple(p), sides) + 1 for p in (x, x + a, x + a + b))
            raise TriangleViolation(int(r), int(s), int(u), float(excess.flat[k]))

    return metric


def irreducible_pairs(metric: Metric) -> np.ndarray:
    """Mask of the pairs ``r < s``, in ``np.triu_indices(n, 1)`` order, with no
    state strictly between them.

    A pair is reducible when some ``z`` other than ``r`` and ``s`` satisfies
    ``d(r,z) + d(z,s) == d(r,s)`` in exact arithmetic.  The sum is screened
    in floating point and confirmed with an error-free TwoSum (Knuth, TAOCP
    vol. 2, 4.2.2): ``d(r,s)`` must equal the rounded sum and the rounding
    error must be zero.  A sum that only rounds onto ``d(r,s)`` leaves the
    pair irreducible.
    """
    d = metric.dist
    n = metric.n
    # an infinite d(z,z) keeps z = r and z = s, which add a zero distance, out
    apart = d + np.diag(np.full(n, np.inf))
    reducible = np.zeros((n, n), dtype=bool)
    step = max(1, _CHUNK // (n * n))
    for lo in range(0, n - 1, step):
        rows = slice(lo, min(lo + step, n - 1))
        # hits of d(r,z) + d(z,s) == d(r,s) for r in rows and s >= lo
        r, z, s = np.nonzero(apart[rows, :, None] + apart[None, :, lo:] == d[rows, None, lo:])
        r += lo
        s += lo
        exact = _two_sum_error(d[r, z], d[z, s], d[r, s]) == 0
        reducible[r[exact], s[exact]] = True
    return ~reducible[np.triu_indices(n, k=1)]


def _two_sum_error(a, b, total):
    """``(a + b) - total`` in exact arithmetic, for ``total = fl(a + b)``: the
    error-free TwoSum (Knuth, TAOCP vol. 2, 4.2.2), elementwise on arrays."""
    b_part = total - a
    return (a - (total - b_part)) + (b - b_part)


def discrete_metric(n: int) -> Metric:
    """Discrete metric: distance 1 between any two distinct states."""
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
    d = np.ones((n, n)) - np.eye(n)
    return validate_metric(d)


def line_metric(positions: Sequence[float] | np.ndarray) -> Metric:
    """Metric induced by placing state ``i`` at ``positions[i-1]`` on the real line."""
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("positions must be a nonempty 1-d sequence")
    order = np.argsort(x, kind="stable")
    for a, b in zip(order[:-1], order[1:]):
        if x[a] == x[b]:
            r, s = sorted((int(a) + 1, int(b) + 1))
            raise DuplicatePosition(r, s, float(x[a]))
    d = np.abs(x[:, None] - x[None, :])
    return validate_metric(d)


def shortest_path_metric(n: int, edges: Iterable[tuple[int, int, float]]) -> Metric:
    """Shortest-path metric of an undirected weighted graph on states ``1..n``.

    ``edges`` lists ``(r, s, weight)`` with 1-based endpoints and strictly
    positive weights; parallel edges keep the smallest weight.
    """
    if n < 1:
        raise ValueError(f"need at least one state, got n={n}")
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for r, s, w in edges:
        if not (1 <= r <= n and 1 <= s <= n):
            raise ValueError(f"edge ({r},{s}) endpoint out of range 1..{n}")
        if r == s:
            raise ValueError(f"self-loop edge at state {r} is not allowed")
        if not (w > 0):
            raise ValueError(f"edge ({r},{s}) must have positive weight, got {w!r}")
        w = float(w)
        if w < d[r - 1, s - 1]:
            d[r - 1, s - 1] = d[s - 1, r - 1] = w
    # Floyd-Warshall, one vectorized relaxation per intermediate state.
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    if np.isinf(d).any():
        r, s = np.argwhere(np.isinf(d))[0]
        raise DisconnectedGraph(int(r) + 1, int(s) + 1)
    return validate_metric(d)


def product_metric(components: Sequence[tuple[Metric, float]]) -> Metric:
    """Weighted L1 product of metrics.

    The product state space is ordered lexicographically with the *last*
    component varying fastest, and the distance is the weighted sum of the
    component distances.
    """
    comps = list(components)
    if not comps:
        raise EmptyProduct()
    for m, w in comps:
        if not (w > 0):
            raise ValueError(f"component weight must be positive, got {w!r}")
    d = np.zeros((1, 1))
    for m, w in comps:
        k = m.n
        # d_new[(i,a),(j,b)] = d[i,j] + w * m.dist[a,b], with a, b fastest.
        d = np.kron(d, np.ones((k, k))) + np.kron(np.ones(d.shape), w * m.dist)
    return validate_metric(d)
