"""State-space aggregation of Markov chains.

An aggregation replaces an ``n``-state chain by an ``m``-state chain
(``m < n`` typically) through a disaggregation matrix ``A`` (rows are
probability distributions: what aggregate ``sigma`` "looks like" on the
original space) and, for partitions, a membership matrix ``Lambda`` with
``A @ Lambda = I``.  The aggregated generator is ``Theta = A Q Lambda``
(transition matrix ``Pi = A P Lambda`` in discrete time); the approximate
transient distribution is ``p~_t = pi_t^T A`` where ``pi_t`` solves the
aggregated chain from ``pi_0 = Lambda^T p_0``.  :attr:`Aggregation.chain`
holds the aggregated chain of either kind, ``Theta`` or ``Pi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadAlpha, DimensionMismatch
from .markov import Generator, ProbVec, TransitionMatrix, _clean_distribution
from .metric import Metric

__all__ = [
    "Partition",
    "Aggregation",
    "partition_aggregation_ctmc",
    "partition_aggregation_dtmc",
    "aggregate_initial",
    "disaggregate",
    "epsilon_partition",
]


@dataclass(frozen=True)
class Partition:
    """A partition of states ``1..n`` into ordered blocks."""

    blocks: tuple[tuple[int, ...], ...]
    n: int = field(init=False)
    m: int = field(init=False)
    block_of: np.ndarray = field(init=False)  # 0-based block index per state

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in blk) for blk in self.blocks)
        if not blocks or any(not blk for blk in blocks):
            raise ValueError("partition needs at least one nonempty block")
        seen = sorted(i for blk in blocks for i in blk)
        n = len(seen)
        if seen != list(range(1, n + 1)):
            raise ValueError("blocks must cover each state 1..n exactly once")
        block_of = np.empty(n, dtype=np.int64)
        for b, blk in enumerate(blocks):
            for i in blk:
                block_of[i - 1] = b
        block_of.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(blocks))
        object.__setattr__(self, "block_of", block_of)

    def membership(self) -> np.ndarray:
        """The 0/1 matrix ``Lambda`` with ``Lambda[i, b] = 1`` iff state ``i+1`` is in block ``b``."""
        lam = np.zeros((self.n, self.m))
        lam[np.arange(self.n), self.block_of] = 1.0
        return lam


@dataclass(frozen=True)
class Aggregation:
    """A (possibly non-partition) aggregation of a Markov chain.

    ``a`` is the ``(m, n)`` disaggregation matrix, its rows passed by the
    probability gate :func:`wdbounds.markov._clean_distribution`; ``lam`` the
    ``(n, m)`` membership matrix of a partition (``None`` otherwise), with
    ``a @ lam = I`` to 1e-9.  ``chain`` is the aggregated chain on the ``m``
    aggregates, a :class:`Generator` ``Theta``, a :class:`TransitionMatrix` ``Pi`` or ``None``.
    """

    a: np.ndarray
    lam: np.ndarray | None = None
    chain: Generator | TransitionMatrix | None = None
    partition: Partition | None = None

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] == 0:
            raise ValueError(f"disaggregation matrix must be 2-d, got shape {a.shape}")
        a = _clean_distribution(a, "disaggregation matrix")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        if self.chain is not None and self.chain.n != a.shape[0]:
            raise DimensionMismatch(
                f"aggregated chain on {self.chain.n} states, A has {a.shape[0]} rows"
            )
        if self.lam is not None:
            lam = np.ascontiguousarray(self.lam, dtype=float)
            if lam.shape != (a.shape[1], a.shape[0]):
                raise DimensionMismatch(
                    f"membership matrix shape {lam.shape} does not match A {a.shape}"
                )
            with np.errstate(invalid="ignore"):  # a NaN or inf entry fails the test
                if not np.abs(a @ lam - np.eye(a.shape[0])).max() <= 1e-9:
                    raise ValueError("A @ Lambda is not the identity")
            lam.setflags(write=False)
            object.__setattr__(self, "lam", lam)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


def _alpha_rows(partition: Partition, alpha: Sequence[np.ndarray] | None) -> np.ndarray:
    """The rows of ``A`` from per-block weightings (uniform by default), each
    passed by :func:`wdbounds.markov._clean_distribution` and put in as given;
    :class:`Aggregation` then divides each row by its mass."""
    a = np.zeros((partition.m, partition.n))
    if alpha is None:
        for b, blk in enumerate(partition.blocks):
            a[b, [i - 1 for i in blk]] = 1.0 / len(blk)
        return a
    if len(alpha) != partition.m:
        raise BadAlpha(f"expected {partition.m} block weightings, got {len(alpha)}")
    for b, (blk, w) in enumerate(zip(partition.blocks, alpha)):
        w = np.asarray(w, dtype=float)
        if w.shape != (len(blk),):
            raise BadAlpha(
                f"block {b + 1} has {len(blk)} states but its weighting has shape {w.shape}"
            )
        try:
            _clean_distribution(w, f"block {b + 1} weighting")
        except ValueError as err:
            raise BadAlpha(str(err)) from None
        a[b, [i - 1 for i in blk]] = w
    return a


def _partition_aggregation(
    chain: Generator | TransitionMatrix, partition: Partition, alpha: Sequence[np.ndarray] | None
) -> Aggregation:
    """``chain`` aggregated over ``partition``: ``A Q Lambda`` or ``A P Lambda``, built
    from the ``A`` that the gate keeps, each row divided by its mass."""
    if chain.n != partition.n:
        raise DimensionMismatch(f"chain on {chain.n} states, partition of {partition.n}")
    lam = partition.membership()
    agg = Aggregation(a=_alpha_rows(partition, alpha), lam=lam, partition=partition)
    mat = chain.q if isinstance(chain, Generator) else chain.p
    object.__setattr__(agg, "chain", type(chain)(agg.a @ mat @ agg.lam))
    return agg


def partition_aggregation_ctmc(
    gen: Generator, partition: Partition, alpha: Sequence[np.ndarray] | None = None
) -> Aggregation:
    """Aggregate a CTMC over a partition: ``Theta = A Q Lambda``.

    ``alpha`` optionally weights the states within each block (one
    probability vector per block, in block order); the default is uniform.
    """
    return _partition_aggregation(gen, partition, alpha)


def partition_aggregation_dtmc(
    pmat: TransitionMatrix, partition: Partition, alpha: Sequence[np.ndarray] | None = None
) -> Aggregation:
    """Aggregate a DTMC over a partition: ``Pi = A P Lambda``, ``alpha`` as above."""
    return _partition_aggregation(pmat, partition, alpha)


def aggregate_initial(p0: ProbVec, agg: Aggregation | Partition) -> ProbVec:
    """Project an initial distribution onto the aggregates: ``pi_0 = Lambda^T p_0``."""
    lam = agg.membership() if isinstance(agg, Partition) else agg.lam
    if lam is None:
        raise ValueError("aggregation has no membership matrix 'lam' to project p_0 with")
    if p0.n != lam.shape[0]:
        raise DimensionMismatch(f"p0 has {p0.n} states but the aggregation has {lam.shape[0]}")
    return ProbVec(p0.p @ lam)


def disaggregate(pi: ProbVec, agg: Aggregation) -> ProbVec:
    """Lift an aggregated distribution back: ``p~ = pi^T A``."""
    if pi.n != agg.m:
        raise DimensionMismatch(f"pi has {pi.n} entries but the aggregation has {agg.m} blocks")
    return ProbVec(pi.p @ agg.a)


def epsilon_partition(metric: Metric, eps: float) -> Partition:
    """Greedy metric clustering: scan states in order; each unassigned state
    opens a block and absorbs all later unassigned states within ``eps``."""
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    n = metric.n
    assigned = np.zeros(n, dtype=bool)
    blocks: list[tuple[int, ...]] = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [i]
        assigned[i] = True
        for j in range(i + 1, n):
            if not assigned[j] and metric.dist[i, j] <= eps:
                members.append(j)
                assigned[j] = True
        blocks.append(tuple(m + 1 for m in members))
    return Partition(tuple(blocks))
