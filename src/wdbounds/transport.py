"""Exact 1-Wasserstein distances on finite metric spaces.

The shared mass ``min(p, q)`` of two distributions stays in place (by the
triangle inequality some optimal plan leaves it there), so ``W1(p, q)`` is
the cost of moving ``(p - q)+`` onto ``(p - q)-``, and only the block
``supp(p - q)+ x supp(p - q)-`` is solved.  Two independent routes solve it:

* ``method="transport"`` (default) - a transportation simplex specialized to
  the coupling polytope (:func:`wdbounds._kernels.transport_loop`), which
  raises :class:`NumericalFailure` where it stops short of the optimum;
* ``method="lp"`` - the same problem as a generic linear program, handed to
  :func:`wdbounds.lp.solve`; no ``"transport"`` solve reaches it.

Both return the optimal coupling and a Kantorovich potential.  The coupling
is ``diag(min(p, q))`` plus the block's plan, so no state both sends and
receives off-diagonal mass.  The potential is recovered from the block's row duals (``-inf`` off the rows)
by a double c-transform, which makes it 1-Lipschitz with the same objective
value as the primal cost, and it is shifted so its minimum is ``0`` (hence
``0 <= f <= d_max``).

Signed variants measure rows of generator-like matrices: a vector ``v``
with ``sum(v) = 0`` has ``W(v) = W1(v+, v-)``, the cost of moving its
positive part onto its negative part.  They run the same solver on
``supp(v+) x supp(v-)`` (:func:`_signed_ot`), which is also the route of the
curvature solvers in :mod:`wdbounds.curvature`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, NumericalFailure, RowSumNotZero
from .lp import solve
from .markov import ProbVec, _row_supports
from .metric import _CHUNK, Metric

__all__ = [
    "Coupling",
    "Potential",
    "SignedRow",
    "WassersteinResult",
    "wasserstein",
    "wasserstein_signed",
    "row_wasserstein_vector",
]

#: Marginals of a coupling must match the prescribed distributions this well.
MARGINAL_TOL = 1e-8
#: Primal cost and dual potential value must agree this well, per unit of
#: ``d_max * mass``; a potential's complementary slackness, per unit of ``d_max``.
GAP_TOL = 1e-7
#: A potential is 1-Lipschitz when ``f(r) - f(s) <= d(r,s) + LIPSCHITZ_TOL * d_max``.
LIPSCHITZ_TOL = 1e-8
#: A potential's minimum is 0 when ``|min f| <= MIN_TOL * d_max``.
MIN_TOL = 1e-9
#: Coupling entries below this threshold are treated as zero in support logic.
SUPPORT_TOL = 1e-10
#: Signed transport: allowed primal/dual gap per unit of ``max|cost| * mass``.
SIGNED_GAP_REL = 1e-9
#: A signed vector sums to zero when ``|sum| <= ZERO_SUM_REL * max(1, |v|_1)``.
ZERO_SUM_REL = 1e-9


@dataclass(frozen=True)
class Coupling:
    """A transport plan between two distributions on the same state space."""

    gamma: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        g = np.ascontiguousarray(self.gamma, dtype=float)
        p = np.ascontiguousarray(self.p, dtype=float)
        q = np.ascontiguousarray(self.q, dtype=float)
        if g.ndim != 2 or g.shape != (p.size, q.size):
            raise DimensionMismatch(
                f"coupling shape {g.shape} does not match marginals {p.size}, {q.size}"
            )
        if (g < -1e-12).any():
            r, s = np.argwhere(g < -1e-12)[0]
            raise ValueError(f"coupling entry ({r + 1},{s + 1}) is negative: {g[r, s]!r}")
        g = np.where(g < 0, 0.0, g)
        if not np.abs(g.sum(axis=1) - p).max() <= MARGINAL_TOL:  # NaN fails too
            r = int(np.argmax(np.abs(g.sum(axis=1) - p)))
            raise ValueError(f"row marginal {r + 1} deviates beyond {MARGINAL_TOL}")
        if not np.abs(g.sum(axis=0) - q).max() <= MARGINAL_TOL:
            s = int(np.argmax(np.abs(g.sum(axis=0) - q)))
            raise ValueError(f"column marginal {s + 1} deviates beyond {MARGINAL_TOL}")
        for arr in (g, p, q):
            arr.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def cost(self, metric: Metric) -> float:
        """Transport cost of this plan under ``metric``."""
        return float(np.sum(self.gamma * metric.dist))


@dataclass(frozen=True)
class Potential:
    """A Kantorovich potential: 1-Lipschitz, minimum 0 (so values in [0, d_max]).

    Both checks allow slack relative to ``d_max``, so they hold in any unit.
    """

    f: np.ndarray
    metric: Metric = field(repr=False)

    def __post_init__(self) -> None:
        f = np.ascontiguousarray(self.f, dtype=float)
        if f.size != self.metric.n:
            raise DimensionMismatch(
                f"potential has {f.size} entries for a {self.metric.n}-state metric"
            )
        scale = self.metric.d_max
        if not abs(float(f.min())) <= MIN_TOL * scale:  # NaN fails too
            raise ValueError(f"potential minimum is {f.min()!r}, expected 0")
        lip = f[:, None] - f[None, :] - self.metric.dist
        if not lip.max() <= LIPSCHITZ_TOL * scale:
            r, s = np.unravel_index(np.argmax(lip), lip.shape)
            raise ValueError(
                f"potential is not 1-Lipschitz: f({r + 1})-f({s + 1}) exceeds d by {lip.max():.3g}"
            )
        f.setflags(write=False)
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class SignedRow:
    """A signed vector with finite entries and zero sum (a generator-like row)."""

    v: np.ndarray
    index: int | None = None

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.v, dtype=float)
        total = float(v.sum())
        scale = float(np.abs(v).sum())  # inf or NaN when an entry is not finite
        if not (abs(total) <= ZERO_SUM_REL * max(1.0, scale) and math.isfinite(scale)):
            raise RowSumNotZero(self.index, total)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


class WassersteinResult(NamedTuple):
    value: float
    coupling: Coupling | None  # None when only the value was asked for
    potential: Potential | None


def _ot(p: np.ndarray, q: np.ndarray, cost: np.ndarray, cmax: float, method: str = "transport"):
    """Optimal transport between nonnegative vectors of equal total mass.

    ``cost`` is the ``(p.size, q.size)`` block of transport costs; it may be
    negative, and ``cmax`` is ``max |cost|``.  Returns ``(value, gamma, u)``
    with ``u`` the row duals.  The kernel's pricing tolerance is relative to
    ``cmax``, so rescaling the costs by a power of two rescales the answer
    exactly, with the same pivots.  Another factor rounds the costs, the
    start's penalties and the reduced costs differently, which can break a
    tie the other way and change the pivots (about one random block in 20 at
    factors 3.7, 0.1, 1e-3 and 7); the value then moves only in rounding.
    ``method`` is ``"transport"`` (the forced plan below or the
    kernel; a kernel that reaches its cap of ``200 (nr + nc) + 2000`` pivots
    raises :class:`NumericalFailure`) or ``"lp"``.  The LP's tolerances are
    absolute, so it solves the block in units of ``cmax`` and of the mass,
    and its plan, value and duals are scaled back: neither route depends on units.

    With ``method="transport"`` a block with one row or one column has a
    forced plan (the one row ships to every column, or every row ships to
    the one column) and is solved here, with the duals the kernel's tree
    walk would give: ``u = [0]`` for one row, ``u = cost[:, 0] - cost[0, 0]``
    for one column.
    """
    nr, nc = cost.shape
    if method == "transport":
        if nr == 1 or nc == 1:
            gamma = q.reshape(1, nc) if nr == 1 else p.reshape(nr, 1)
            u = np.zeros(1) if nr == 1 else cost[:, 0] - cost[0, 0]
            return float(np.sum(gamma * cost)), gamma, u
        cap = 200 * (nr + nc) + 2000
        status, gamma, u, _, pivots = _kernels.transport_loop(cost, p, q, 1e-11 * cmax, cap)
        if status != _kernels.STATUS_OPTIMAL:
            raise NumericalFailure(
                f"transport kernel stopped short of the optimum on a {nr}x{nc} block"
                f" after {pivots} of {cap} pivots"
            )
        return float(np.sum(gamma * cost)), gamma, u

    # generic route: minimize <cost, gamma> over the coupling polytope
    cscale = cmax or 1.0
    mass = float(p.sum())
    a_eq = np.zeros((nr + nc, nr * nc))
    for r in range(nr):
        a_eq[r, r * nc : (r + 1) * nc] = 1.0
    for s in range(nc):
        a_eq[nr + s, s::nc] = 1.0
    sol = solve(-cost.ravel() / cscale, a_eq, np.concatenate([p, q]) / mass)
    gamma = sol.x.reshape(nr, nc) * mass
    return float(np.sum(gamma * cost)), gamma, -sol.duals[:nr] * cscale


def _potential_from_row_duals(u: np.ndarray, metric: Metric) -> np.ndarray:
    """Double c-transform of row duals; 1-Lipschitz with minimum exactly 0."""
    d = metric.dist
    vbar = np.min(d - u[:, None], axis=0)
    f = np.min(d - vbar[None, :], axis=1)
    return f - f.min()


class _SignedPlan(NamedTuple):
    """Optimal plan of a zero-sum vector on its two supports, with the row
    duals whose c-transform certifies its value."""

    value: float
    rows: np.ndarray  # supp(v+), 0-based
    cols: np.ndarray  # supp(v-), 0-based
    gamma: np.ndarray  # (rows.size, cols.size) plan
    u: np.ndarray  # row duals
    slack: float  # the primal/dual gap the value is certified to


def _signed_ot(v: np.ndarray, cost, method: str = "transport") -> _SignedPlan:
    """Optimal transport of a zero-sum vector's positive part onto its negative part.

    Only the supports are solved: ``cost(rows, cols)`` returns the cost block
    for the 0-based state indices ``rows = supp(v+)`` and ``cols = supp(v-)``.
    Every nonzero entry counts, however small.  The plan must be feasible:
    flows at least ``-MARGINAL_TOL * mass`` and row and column sums within
    ``MARGINAL_TOL * mass`` of the two parts; both margins are checked as one
    residual vector, by its maximum and its minimum, so a NaN fails.  The
    value is certified by a feasible dual (the c-transform of the row
    duals); a value or primal/dual gap that is not finite, a gap above
    ``SIGNED_GAP_REL * max|cost| * mass`` or an infeasible plan raises
    :class:`NumericalFailure`.
    """
    rows = (v > 0).nonzero()[0]
    cols = (v < 0).nonzero()[0]
    if rows.size == 0 or cols.size == 0:
        # the vector is zero up to rounding
        return _SignedPlan(
            0.0, rows, cols, np.zeros((rows.size, cols.size)), np.zeros(rows.size), 0.0
        )
    pos = v[rows]
    vneg = v[cols]
    mass = float(pos.sum())
    # rebalance the rounding mismatch so the kernel sees equal masses; the
    # signs of vneg's sum and of the quotient cancel exactly
    neg = vneg * (mass / float(vneg.sum()))
    c = np.ascontiguousarray(cost(rows, cols), dtype=float)
    cmax = float(np.abs(c).max())
    value, gamma, u = _ot(pos, neg, c, cmax, method)
    if not math.isfinite(value):  # an overflow
        raise NumericalFailure(f"signed transport plan has cost {value!r} on mass {mass:.3g}")
    slack = MARGINAL_TOL * mass
    miss = np.concatenate((gamma.sum(axis=1) - pos, gamma.sum(axis=0) - neg))
    if not (gamma.min() >= -slack and miss.max() <= slack and miss.min() >= -slack):
        raise NumericalFailure(f"signed transport plan misses its margins on mass {mass:.3g}")
    dual = float(pos @ u + neg @ np.min(c - u[:, None], axis=0))
    gap = value - dual
    allowed = SIGNED_GAP_REL * cmax * mass
    if not (abs(gap) <= allowed and math.isfinite(gap)):
        raise NumericalFailure(f"signed transport primal/dual gap {gap:.3g} on mass {mass:.3g}")
    return _SignedPlan(value, rows, cols, gamma, u, allowed)


def wasserstein(
    p: ProbVec, q: ProbVec, metric: Metric, method: str = "transport", value_only: bool = False
) -> WassersteinResult:
    """Exact W1 between two distributions, with optimal coupling and potential.

    The shared mass ``min(p, q)`` stays in place (the triangle inequality
    makes that optimal), so only ``(p - q)+`` is moved onto ``(p - q)-``, on
    ``supp(p - q)+ x supp(p - q)-``.  The coupling is ``diag(min(p, q))``
    plus that plan; no state both sends and receives.  The potential is the
    double c-transform of the plan's row duals, padded with ``-inf`` off
    ``supp(p - q)+``.  The value is the primal transport cost; the potential
    achieves the same value in the dual (checked to ``GAP_TOL * d_max``).  A
    gap beyond that, or a coupling or potential that fails its own
    validation, raises :class:`NumericalFailure`.

    With ``value_only=True`` the coupling and potential are ``None``: the
    value is certified by the block plan's margins and dual gap alone
    (:func:`_signed_ot`), and no n x n array is built.
    """
    if p.n != q.n or p.n != metric.n:
        raise DimensionMismatch(
            f"distributions on {p.n} and {q.n} states with a {metric.n}-state metric"
        )
    if method not in ("transport", "lp"):
        raise ValueError(f"unknown method {method!r}; expected 'transport' or 'lp'")
    d = metric.dist
    plan = _signed_ot(p.p - q.p, lambda rows, cols: d[rows[:, None], cols], method)
    if value_only:
        return WassersteinResult(plan.value, None, None)
    gamma = np.diag(np.minimum(p.p, q.p))
    gamma[np.ix_(plan.rows, plan.cols)] += plan.gamma
    if plan.gamma.size:
        u = np.full(metric.n, -np.inf)
        u[plan.rows] = plan.u
        f = _potential_from_row_duals(u, metric)
    else:
        f = np.zeros(metric.n)
    gap = abs(float((p.p - q.p) @ f) - plan.value)
    tol = GAP_TOL * metric.d_max
    if gap > tol:
        raise NumericalFailure(f"primal/dual gap {gap:.3g} exceeds {tol:.3g}")
    try:
        coupling = Coupling(gamma, p.p, q.p)
        potential = Potential(f, metric)
    except ValueError as err:
        raise NumericalFailure(f"solver output failed validation: {err}") from err
    return WassersteinResult(plan.value, coupling, potential)


def wasserstein_signed(row: SignedRow | np.ndarray, metric: Metric) -> float:
    """W of a zero-sum signed vector: the cost of moving its positive part
    onto its negative part, solved on the two supports only."""
    if not isinstance(row, SignedRow):
        row = SignedRow(np.asarray(row, dtype=float))
    v = row.v
    if v.size != metric.n:
        raise DimensionMismatch(f"row has {v.size} entries for a {metric.n}-state metric")
    d = metric.dist
    return _signed_ot(v, lambda rows, cols: d[rows[:, None], cols]).value


def _row_bytes(a: np.ndarray) -> np.ndarray:
    """The exact bytes of each row of the 2-d array ``a``, one void scalar per row."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()


def _distinct_rows(a: np.ndarray) -> bool:
    """Whether no two rows of ``a`` have the same bytes.  A repeat among the
    first 64 rows, as where distances repeat on a lattice, answers without
    hashing the rest."""
    rows = _row_bytes(a)
    head = rows[:64].tolist()
    return len(set(head)) == len(head) and len(set(rows.tolist())) == rows.size


def _signed_classes(count: int, width: int, support, cost, extra: np.ndarray | None = None):
    """Classes of ``count`` signed transport problems with bit-identical inputs.

    Problem ``p`` moves ``v+`` onto ``v-`` under a cost, as :func:`_signed_ot`
    solves it.  For the problems ``idx`` (an index array), ``support(idx)``
    gives ``(m, width)`` candidate columns that cover each ``supp(v)`` and
    ``v`` on them, each nonzero entry in a slot of its own, and ``cost(idx,
    a, b)`` the cost from the columns ``a`` (``(m, s, 1)``) to the columns
    ``b`` (``(m, 1, s)``); ``extra``, ``(count, e)``, holds further numbers
    per problem that its answer depends on.

    A problem's key is the exact bytes of ``v``'s nonzero entries in column
    order, of the cost block on ``supp(v+) x supp(v-)`` (zero elsewhere) and
    of its ``extra``.  :func:`_signed_ot` reads ``v+`` and ``v-`` in column
    order and solves that block, so problems with equal keys pose
    bit-identical kernel inputs.  Keys are built in blocks of problems, in two
    passes.  The first hashes the multiset of ``v``'s nonzero entries and
    ``extra`` (the wrapping sum of their bit patterns, so slot order does
    not matter), which equal keys share.  Only problems whose hash repeats
    get a key, in the second, with the cost block padded to the largest
    support among them; a hash collision costs a key, never a wrong class.
    So problems that never repeat, as on random chains, cost ``O(width)``
    each.  When no two rows of ``extra`` have the same bytes, no two keys
    can be equal, and neither pass runs (as for pairs whose distances
    ``d(r, s)`` all differ).

    Returns ``(cls, first)``: the class of each problem, numbered in the
    order the classes first appear, and the first problem of each class.
    """
    alone = np.arange(count), np.arange(count)  # every problem in a class of its own
    if count < 2 or width == 0:  # no two problems, or every v is zero
        return alone
    if extra is not None and _distinct_rows(extra):
        return alone
    hashes = np.empty(count, dtype=np.uint64)
    sizes = np.empty(count, dtype=np.intp)
    step = max(1, _CHUNK // width)
    for lo in range(0, count, step):
        idx = np.arange(lo, min(lo + step, count))
        v = support(idx)[1]
        sizes[idx] = np.count_nonzero(v, axis=1)
        hashes[idx] = np.where(v != 0, v, 0.0).view(np.uint64).sum(axis=1)  # +0.0 adds 0
        if extra is not None:
            hashes[idx] += extra[idx].view(np.uint64).sum(axis=1)
    hash_list = hashes.tolist()
    counts = Counter(hash_list)
    if len(counts) == count:
        return alone
    shared = np.flatnonzero([counts[h] > 1 for h in hash_list])
    size = max(1, int(sizes[shared].max()))
    label = np.arange(count)  # the first problem of each one's class
    first_of: dict[bytes, int] = {}
    step = max(1, _CHUNK // (size * size + size))
    for lo in range(0, shared.size, step):
        idx = shared[lo : lo + step]
        cols, v = support(idx)
        # supp(v) first, in column order, then +0.0
        zero = v == 0
        order = np.argsort(cols + zero * (int(cols.max()) + 1), axis=1, kind="stable")
        at = np.arange(idx.size)[:, None], order[:, :size]
        cols, v = cols[at], np.where(zero[at], 0.0, v[at])
        pos_neg = (v > 0)[:, :, None] & (v < 0)[:, None, :]
        block = np.where(pos_neg, cost(idx, cols[:, :, None], cols[:, None, :]), 0.0)
        parts = [v, block.reshape(idx.size, -1)] + ([] if extra is None else [extra[idx]])
        rows = _row_bytes(np.concatenate(parts, axis=1))
        label[idx] = [first_of.setdefault(key, p) for p, key in zip(idx.tolist(), rows.tolist())]
    first, cls = np.unique(label, return_inverse=True)
    return cls.ravel(), first


def row_wasserstein_vector(mat: np.ndarray, metric: Metric) -> np.ndarray:
    """Per-row signed Wasserstein of a matrix whose rows each sum to zero.

    Rows that pose the same problem, the same nonzero entries in column
    order on supports with the same distance block, are solved once
    (:func:`_signed_classes`) and get bit-identical values.  Raises
    :class:`RowSumNotZero` naming the (1-based) offending row.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != metric.n:
        raise DimensionMismatch(
            f"matrix shape {mat.shape} does not match a {metric.n}-state metric"
        )
    rows = [SignedRow(mat[i], index=i + 1) for i in range(mat.shape[0])]
    d = metric.dist
    cols, vals = _row_supports(mat)
    cls, first = _signed_classes(
        mat.shape[0], cols.shape[1], lambda idx: (cols[idx], vals[idx]),
        lambda idx, a, b: d[a, b],
    )
    values = [wasserstein_signed(rows[p], metric) for p in first.tolist()]
    return np.array(values, dtype=float)[cls]
