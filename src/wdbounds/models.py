"""Built-in example models used by the tests and the CLI.

* :func:`toy_ctmc` - the three-state chain with metric ``d(1,2)=1``,
  ``d(1,3)=5``, ``d(2,3)=4`` used throughout the documentation;
* :func:`translation_invariant_ctmc` - a random walk on an integer box with
  one jump-offset distribution shared by every state and boundary handled by
  closest-point projection; under the Euclidean metric these chains have
  non-negative coarse Ricci curvature;
* :func:`random_instance` - reproducible random (generator, metric, initial
  distribution) triples for property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySupport, IndexOutOfRange
from .markov import Generator, ProbVec
from .metric import (
    Metric,
    discrete_metric,
    lattice_metric,
    line_metric,
    shortest_path_metric,
    validate_metric,
)

__all__ = [
    "Box",
    "JumpDistribution",
    "toy_ctmc",
    "translation_invariant_ctmc",
    "random_instance",
]


@dataclass(frozen=True)
class Box:
    """An axis-aligned integer box ``[lo_1, hi_1] x ... x [lo_d, hi_d]``."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(int(v) for v in self.lo)
        hi = tuple(int(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be nonempty vectors of equal dimension")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"box has lo > hi: lo={lo}, hi={hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    def points(self) -> np.ndarray:
        """All integer points, lexicographic with the last coordinate fastest."""
        pts = np.array(list(np.ndindex(*self.shape)), dtype=np.int64)
        return pts + np.asarray(self.lo, dtype=np.int64)


@dataclass(frozen=True)
class JumpDistribution:
    """A finitely supported distribution of integer jump offsets."""

    support: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise EmptySupport()
        norm = []
        total = 0.0
        for offset, prob in self.support:
            off = tuple(int(v) for v in np.atleast_1d(offset))
            prob = float(prob)
            if prob < 0:
                raise ValueError(f"negative jump probability {prob!r} for offset {off}")
            norm.append((off, prob))
            total += prob
        if not abs(total - 1.0) <= 1e-12:  # a NaN or infinite probability fails too
            raise ValueError(f"jump probabilities sum to {total!r}, expected 1")
        dims = {len(off) for off, _ in norm}
        if len(dims) != 1:
            raise ValueError(f"jump offsets have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "support", tuple(norm))

    @property
    def dim(self) -> int:
        return len(self.support[0][0])


def toy_ctmc() -> tuple[Generator, Metric]:
    """The three-state example chain and its metric."""
    q = np.array(
        [
            [-1.0, 0.0, 1.0],
            [1.0, -4.0, 3.0],
            [0.0, 2.0, -2.0],
        ]
    )
    d = np.array(
        [
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 4.0],
            [5.0, 4.0, 0.0],
        ]
    )
    return Generator(q), validate_metric(d)


def translation_invariant_ctmc(
    box: Box,
    rate: float,
    jumps: JumpDistribution,
    root: int | None = None,
    root_rate: float = 0.0,
) -> tuple[Generator, Metric]:
    """Projected random walk on an integer box, with the Euclidean metric.

    From every state ``x`` the chain jumps at rate ``rate`` to
    ``clip(x + J)`` where ``J`` is drawn from ``jumps`` and ``clip`` projects
    each coordinate to the box (the closest-point projection).  Jumps that
    project back onto ``x`` contribute no off-diagonal rate.  States are the
    integer points of the box in lexicographic order (last coordinate
    fastest).  These chains have non-negative coarse Ricci curvature under
    the returned Euclidean metric.

    ``root`` (1-based state index) adds an extra transition at ``root_rate``
    from every other state to that state.  The added transitions break
    translation invariance, so the curvature guarantee no longer applies.
    """
    if rate <= 0:
        raise ValueError(f"jump rate must be positive, got {rate!r}")
    if jumps.dim != box.dim:
        raise DimensionMismatch(
            f"jump offsets have dimension {jumps.dim} but the box has {box.dim}"
        )
    pts = box.points()
    n = pts.shape[0]
    lo = np.asarray(box.lo, dtype=np.int64)
    hi = np.asarray(box.hi, dtype=np.int64)
    shape = box.shape
    strides = np.ones(box.dim, dtype=np.int64)
    for k in range(box.dim - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]

    q = np.zeros((n, n))
    for offset, prob in jumps.support:
        if prob == 0.0:
            continue
        target = np.clip(pts + np.asarray(offset, dtype=np.int64), lo, hi)
        idx = (target - lo) @ strides
        moved = idx != np.arange(n)
        q[np.arange(n)[moved], idx[moved]] += rate * prob
    if root is not None:
        if not (1 <= root <= n):
            raise IndexOutOfRange(root, n)
        if root_rate < 0:
            raise ValueError(f"root rate must be nonnegative, got {root_rate!r}")
        others = np.arange(n) != root - 1
        q[others, root - 1] += root_rate
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))

    # |delta| for every difference delta of two points, centred in each axis
    diff = np.stack(np.indices(tuple(2 * side - 1 for side in shape)), axis=-1)
    diff -= np.asarray(shape, dtype=diff.dtype) - 1
    return Generator(q), lattice_metric(np.sqrt((diff.astype(float) ** 2).sum(axis=-1)))


def random_instance(
    n: int, seed: int, metric_kind: str = "line", density: float = 1.0
) -> tuple[Generator, Metric, ProbVec]:
    """Reproducible random generator, metric and initial distribution.

    Off-diagonal rates are uniform on ``[0.2, 2]``, each kept with
    probability ``density``.  ``metric_kind`` is ``"discrete"``, ``"line"``
    (sorted distinct random positions) or ``"graph"`` (random connected
    weighted graph completed by shortest paths).
    """
    if n < 2:
        raise ValueError(f"need at least two states, got {n}")
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    rng = np.random.default_rng(seed)

    q = rng.uniform(0.2, 2.0, size=(n, n))
    q *= rng.random(size=(n, n)) < density
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    gen = Generator(q)

    if metric_kind == "discrete":
        metric = discrete_metric(n)
    elif metric_kind == "line":
        positions = np.cumsum(rng.uniform(0.2, 1.5, size=n))
        metric = line_metric(positions)
    elif metric_kind == "graph":
        edges = []
        for v in range(2, n + 1):
            u = int(rng.integers(1, v))
            edges.append((u, v, float(rng.uniform(0.3, 2.0))))
        extra = max(0, int(round(density * n)) - 1)
        for _ in range(extra):
            u, v = rng.choice(n, size=2, replace=False) + 1
            edges.append((int(u), int(v), float(rng.uniform(0.3, 2.0))))
        metric = shortest_path_metric(n, edges)
    else:
        raise ValueError(
            f"unknown metric kind {metric_kind!r}; expected 'discrete', 'line' or 'graph'"
        )

    p0 = ProbVec(rng.dirichlet(np.ones(n)))
    return gen, metric, p0
