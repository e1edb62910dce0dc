"""Error taxonomy.

Every exception raised for a violated input contract derives from
:class:`WdboundsError`, so callers (in particular the CLI) can distinguish
"your input is bad" from genuine numerical trouble
(:class:`NumericalFailure`) and from plain bugs.

Errors that point at particular states or matrix entries carry the offending
indices, 1-based, in their ``args`` as well as in the message.
"""

from __future__ import annotations

__all__ = [
    "WdboundsError",
    "AsymmetricMatrix",
    "NegativeDistance",
    "NonzeroDiagonal",
    "ZeroOffDiagonal",
    "TriangleViolation",
    "DuplicatePosition",
    "DisconnectedGraph",
    "EmptyProduct",
    "DimensionMismatch",
    "NegativeTime",
    "IndexOutOfRange",
    "NumericalFailure",
    "RowSumNotZero",
    "SamePair",
    "SingleState",
    "BadAlpha",
    "RateUnavailable",
    "EmptySupport",
]


class WdboundsError(ValueError):
    """Base class for all contract violations reported by this package."""


class AsymmetricMatrix(WdboundsError):
    """A distance matrix differs from its transpose."""

    def __init__(self, r: int, s: int, d_rs: float, d_sr: float):
        super().__init__(
            f"distance matrix is asymmetric at ({r},{s}): "
            f"d({r},{s})={d_rs!r} but d({s},{r})={d_sr!r}"
        )
        self.pair = (r, s)


class NegativeDistance(WdboundsError):
    """A distance entry is negative (or not a finite number)."""

    def __init__(self, r: int, s: int, value: float):
        super().__init__(f"d({r},{s})={value!r} is not a valid distance")
        self.pair = (r, s)


class NonzeroDiagonal(WdboundsError):
    """A diagonal entry of a distance matrix is not zero."""

    def __init__(self, r: int, value: float):
        super().__init__(f"d({r},{r})={value!r} but the diagonal must be zero")
        self.index = r


class ZeroOffDiagonal(WdboundsError):
    """Two distinct states are at distance zero."""

    def __init__(self, r: int, s: int):
        super().__init__(f"d({r},{s})=0 but distinct states must have positive distance")
        self.pair = (r, s)


class TriangleViolation(WdboundsError):
    """The triangle inequality fails: d(r,u) > d(r,s) + d(s,u)."""

    def __init__(self, r: int, s: int, u: int, excess: float):
        super().__init__(
            f"triangle inequality violated: d({r},{u}) exceeds "
            f"d({r},{s}) + d({s},{u}) by {excess:.3g}"
        )
        self.triple = (r, s, u)


class DuplicatePosition(WdboundsError):
    """Two states of a line metric share the same position."""

    def __init__(self, r: int, s: int, position: float):
        super().__init__(f"states {r} and {s} share position {position!r}")
        self.pair = (r, s)


class DisconnectedGraph(WdboundsError):
    """A shortest-path metric was requested on a disconnected graph."""

    def __init__(self, r: int, s: int):
        super().__init__(f"no path between states {r} and {s}")
        self.pair = (r, s)


class EmptyProduct(WdboundsError):
    """A product metric needs at least one factor."""

    def __init__(self) -> None:
        super().__init__("product metric needs at least one component")


class DimensionMismatch(WdboundsError):
    """Two objects that must share a dimension do not."""


class NegativeTime(WdboundsError):
    """A time argument is negative."""

    def __init__(self, t: float):
        super().__init__(f"time must be nonnegative, got {t!r}")
        self.t = t


class IndexOutOfRange(WdboundsError):
    """A 1-based state index lies outside 1..n."""

    def __init__(self, index: int, n: int):
        super().__init__(f"state index {index} out of range 1..{n}")
        self.index = index
        self.n = n


class NumericalFailure(RuntimeError):
    """The numerical method did not converge to the required tolerance."""


class RowSumNotZero(WdboundsError):
    """A signed row that must sum to zero does not."""

    def __init__(self, index: int | None, total: float):
        where = "row" if index is None else f"row {index}"
        super().__init__(f"{where} sums to {total:.3g}, expected 0")
        self.index = index
        self.total = total


class SamePair(WdboundsError):
    """A pairwise quantity was requested for r == s."""

    def __init__(self, r: int):
        super().__init__(f"pair ({r},{r}) is not allowed; need two distinct states")
        self.index = r


class SingleState(WdboundsError):
    """A minimum over distinct pairs was requested on a 1-state space."""

    def __init__(self) -> None:
        super().__init__("need at least two states")


class BadAlpha(WdboundsError):
    """A block weighting is not a probability vector supported on its block."""


class RateUnavailable(WdboundsError):
    """A bound was requested with a contraction rate that was not computed."""


class EmptySupport(WdboundsError):
    """A jump distribution has no support."""

    def __init__(self) -> None:
        super().__init__("jump distribution must have at least one offset")
