"""Finite metric spaces.

A metric on states ``1..n`` is stored as a dense symmetric matrix of
pairwise distances.  :func:`validate_metric` is the single gate through
which every constructor goes, so a :class:`Metric` instance always
satisfies the metric axioms (up to the stated tolerance for the triangle
inequality).

State indices are 1-based in every public signature and error message;
matrix entry ``dist[r-1, s-1]`` holds the distance between states ``r``
and ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

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


@dataclass(frozen=True)
class Metric:
    """A validated metric on ``n`` states.

    Attributes
    ----------
    dist:
        Symmetric ``(n, n)`` array of distances; read-only.
    """

    dist: np.ndarray
    n: int = field(init=False)
    d_max: float = field(init=False)

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(self.dist, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "n", d.shape[0])
        object.__setattr__(self, "d_max", float(d.max()) if d.size else 0.0)

    def d(self, r: int, s: int) -> float:
        """Distance between 1-based states ``r`` and ``s``."""
        return float(self.dist[r - 1, s - 1])


def validate_metric(dist: np.ndarray | Sequence[Sequence[float]], tol: float = TRIANGLE_TOL) -> Metric:
    """Check the metric axioms and wrap the matrix in a :class:`Metric`.

    Raises
    ------
    AsymmetricMatrix, NegativeDistance, NonzeroDiagonal, ZeroOffDiagonal,
    TriangleViolation
        Each names the offending 1-based indices.  The triangle check
        allows a slack of ``tol * d_max`` so metrics assembled from
        floating-point arithmetic (shortest paths, products) pass at any
        scale of the distances.
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

    # Triangle inequality: d(r,u) <= d(r,s) + d(s,u) + tol * d_max for all
    # r, s, u.  d is symmetric, so the triple (u, s, r) repeats (r, s, u) and
    # r = u cannot violate: one pass per r covers u > r against every s, in
    # an O(n^2) buffer holding excess[s, u - r - 1].
    slack = tol * float(d.max())
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

    return Metric(d)


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
