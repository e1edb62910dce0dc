"""Coarse Ricci curvature of finite Markov chains.

For a CTMC with generator ``Q`` and metric ``d``, the curvature of a pair
``(r, s)`` is ``kappa(r,s) = -V(r,s) / d(r,s)`` where

    V(r,s) = max (Q_r - Q_s) . f   over 1-Lipschitz f with f(r) - f(s) = d(r,s),

the one-sided derivative at ``t=0`` of ``t -> W1(delta_r e^{tQ}, delta_s e^{tQ})``.
For a DTMC, ``kappa(r,s) = 1 - W1(P_r, P_s)/d(r,s)``.

Both are solved as small transport problems on supports, in the local form
of Ollivier (JFA 2009) and Muench & Wojciechowski (Adv. Math. 2019).  The
pin ``f(r) - f(s) = d(r,s)`` acts as one extra arc ``s -> r`` of cost
``-d(r,s)``; closing ``d`` under it gives

    c'(a, b) = min(d(a, b), d(a, s) - d(r, s) + d(r, b)),

and ``V(r,s)`` is the cost of transporting ``(Q_r - Q_s)+`` onto
``(Q_r - Q_s)-`` under ``c'``, on the two supports, which lie in the
neighbourhoods of ``r`` and ``s``.  The DTMC curvature transports
``(P_r - P_s)+`` onto ``(P_r - P_s)-`` under ``d``.

A lattice walk of :func:`wdbounds.models.translation_invariant_ctmc`,
under the metric that function returned with it, has its minimum in
closed form: the paper's theorem gives ``kappa >= root_rate`` (0 without a
root) on every pair, less an allowance for rounded rate sums, and one
solved pair of interior neighbours certifies it from above
(:func:`_walk_kappa_min`).  Every other chain, and a walk that no pair
certifies, goes through the scan below.

The minimum curvature is reached through exact metric structure.  If a
third state ``z`` lies on a geodesic, ``d(r,z) + d(z,s) = d(r,s)``, then
``W1`` is subadditive along ``r -> z -> s`` with equality at ``t = 0``, so
``kappa(r,s) >= (d(r,z) kappa(r,z) + d(z,s) kappa(z,s)) / d(r,s)``, the
``d``-weighted mean of two pairs at smaller distance (Ollivier, JFA 2009,
Prop. 19).  By induction on ``d(r,s)`` the minimum over all pairs equals the
minimum over the *irreducible* pairs, those with no state in between
(:func:`wdbounds.metric.irreducible_pairs`, an exact test).  The same one-step
argument holds for the DTMC curvature.

:func:`k_matrix` returns the closed-form lower bound ``k(r,s) <= kappa(r,s)``
of every pair at once, obtained from the feasible potentials
``min(d(x,r), d(x,s))``-shaped candidates; it needs one product ``Q d``.
A DTMC has no ``k``.  For a CTMC, :func:`kappa_min` visits the irreducible
pairs in increasing ``k`` with the running minimum ``tau`` (``+inf`` before
the first solve) and cuts every pair with ``k >= tau``: since ``kappa >= k``
pairwise, such a pair cannot go below ``tau``.  A pair is also cut when
``k'' - margin >= tau``, where ``k''`` is the bound of the coupling that
keeps the jump rate ``r`` and ``s`` share together
(:func:`_shared_jump_bounds`, after Ollivier's coupling view of ``kappa``),
``k <= k'' <= kappa``, and the margin covers its rounding.  Every other
pair's local problem is solved to optimality, its value certified by a
feasible dual, and may lower ``tau``.  The returned minimum is exact.  No
cut has a parameter: each scales with the rates and the unit of ``d``.  On
random chains ``k''`` cuts nearly every pair that ``k`` does not; on box
walks, where ``kappa`` is about 0 almost everywhere, neither cuts much, and
the classes below keep the solves few.

Pairs whose local problems are the same bits, ``(Q_r - Q_s)+-`` on their
supports in column order, the ``c'`` block on them and ``d(r,s)``
(:func:`_pair_classes`), form a class: the kernel sees identical inputs,
so they share one ``kappa`` to the last bit.
Translation-invariant walks, the chains for which the paper proves
``kappa >= 0``, pose a few classes many times over.  :func:`kappa_min`
therefore skips a pair whose class it has visited and, for a CTMC, cuts a
class when the largest ``k`` or ``k'' - margin`` among its members is
``>= tau``; a DTMC's pairs are visited in row-major order.  Every class is
solved once, for a CTMC under ``c'`` and for a DTMC under ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import Aggregation
from .errors import DimensionMismatch, NumericalFailure, SamePair, SingleState
from .markov import Generator, TransitionMatrix
from .metric import _CHUNK, Metric, irreducible_pairs
from .transport import _signed_classes, _SignedPlan, _signed_ot

__all__ = [
    "kappa",
    "k_matrix",
    "kappa_min",
    "kappa_all_pairs",
    "KappaMinStrategy",
    "CurvatureReport",
    "curvature_report",
]


def _check_pair(n: int, r: int, s: int) -> None:
    for idx in (r, s):
        if not (1 <= idx <= n):
            raise DimensionMismatch(f"state index {idx} out of range 1..{n}")
    if r == s:
        raise SamePair(r)


#: The refusal of an aggregation whose chain is not of the given kind.
_NO_AGGREGATED_CHAIN = {
    Generator: "aggregation carries no CTMC generator",
    TransitionMatrix: "aggregation carries no DTMC transition matrix",
}


def _check_chain(
    chain: Generator | TransitionMatrix,
    metric: Metric,
    agg: Aggregation | None = None,
    ctmc: bool = False,
) -> None:
    """Refuse a chain of one state or on another number of states than
    ``metric``; with ``ctmc``, a chain that is not a :class:`Generator` (``k``
    and the bounds are CTMC quantities); with ``agg``, an aggregation that
    does not fit the chain.  The one gate of curvature and the bound pipeline."""
    if ctmc and not isinstance(chain, Generator):
        raise ValueError(f"k and the bounds need a CTMC generator, got {type(chain).__name__}")
    if chain.n < 2:
        raise SingleState()
    if chain.n != metric.n:
        raise DimensionMismatch(f"chain on {chain.n} states, metric on {metric.n}")
    if agg is not None:
        _check_aggregation(agg, type(chain), chain.n)


def _check_aggregation(agg: Aggregation, kind: type, n: int | None) -> None:
    """Refuse an aggregation over another number of states than ``n`` (not
    checked for ``None``), or whose aggregated chain is not a ``kind``."""
    if n is not None and agg.n != n:
        raise DimensionMismatch(f"aggregation over {agg.n} states, chain on {n}")
    if not isinstance(agg.chain, kind):
        raise ValueError(_NO_AGGREGATED_CHAIN[kind])


def kappa(chain: Generator | TransitionMatrix, metric: Metric, r: int, s: int) -> float:
    """Exact coarse Ricci curvature of the 1-based pair ``(r, s)``: ``-V/d``
    of a CTMC :class:`Generator`, ``1 - W1(P_r, P_s)/d`` of a DTMC
    :class:`TransitionMatrix`."""
    _check_chain(chain, metric)
    _check_pair(chain.n, r, s)
    return _pair_kappa(chain, metric, r - 1, s - 1)


def _closed_cost(d: np.ndarray, i, j, a, b) -> np.ndarray:
    """``c'(a, b) = min(d(a, b), d(a, j) - d(i, j) + d(i, b))`` of the 0-based
    pair ``(i, j)``, broadcast over the index arrays ``i``, ``j``, ``a``, ``b``:
    one formula, so a solve and a class key read the same bits."""
    return np.minimum(d[a, b], d[a, j] - d[i, j] + d[i, b])


def _local_form(chain: Generator | TransitionMatrix):
    """The matrix whose row differences the pairs of ``chain`` transport, and
    the cost they are transported under, in the form of :func:`_closed_cost`:
    ``(Q, c')`` of a CTMC, ``(P, d)`` of a DTMC."""
    if isinstance(chain, Generator):
        return chain.q, _closed_cost
    return chain.p, lambda d, i, j, a, b: d[a, b]


def _pair_plan(chain: Generator | TransitionMatrix, metric: Metric, i: int, j: int) -> _SignedPlan:
    """The local transport problem of the 0-based pair ``(i, j)``, solved by
    :func:`wdbounds.transport._signed_ot`."""
    mat, cost = _local_form(chain)
    d = metric.dist
    return _signed_ot(
        mat[i] - mat[j], lambda rows, cols: cost(d, i, j, rows[:, None], cols[None, :])
    )


def _pair_kappa(chain: Generator | TransitionMatrix, metric: Metric, i: int, j: int) -> float:
    """Curvature of the 0-based pair ``(i, j)``: ``-V/d`` of a CTMC, ``1 - V/d`` of a DTMC."""
    ratio = _pair_plan(chain, metric, i, j).value / float(metric.dist[i, j])
    return -ratio if isinstance(chain, Generator) else 1.0 - ratio


def _pair_classes(
    mat: np.ndarray,
    supports: tuple[np.ndarray, np.ndarray],
    d: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    cost,
) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the 0-based pairs ``(ii, jj)`` whose local problems pose
    bit-identical inputs: the transport of ``(mat_i - mat_j)+`` onto
    ``(mat_i - mat_j)-`` under ``cost(d, i, j, a, b)`` (broadcast over
    index arrays) on the two supports, with ``d(i, j)``.  ``supports`` is
    :func:`wdbounds.markov._row_supports` of ``mat``.  Returns the
    ``(cls, first)`` of :func:`wdbounds.transport._signed_classes`; ``first``
    lists the first pair of each class in the given order.
    """
    cols, _ = supports

    def support(idx):  # supp(mat_i), then the part of supp(mat_j) outside it
        i, j = ii[idx], jj[idx]
        both = np.concatenate([cols[i], cols[j]], axis=1)
        row_i = mat[i[:, None], both]
        own = row_i != 0
        own[:, cols.shape[1] :] ^= True
        return both, np.where(own, row_i - mat[j[:, None], both], 0.0)

    def block_cost(idx, a, b):
        return cost(d, ii[idx, None, None], jj[idx, None, None], a, b)

    return _signed_classes(ii.size, 2 * cols.shape[1], support, block_cost, d[ii, jj][:, None])


def _class_kappas(
    chain: Generator | TransitionMatrix, metric: Metric, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """:func:`_pair_kappa` of the 0-based pairs ``(ii, jj)``, one solve per
    class of identical local problems (:func:`_pair_classes`), so it equals
    the per-pair values bit for bit."""
    mat, cost = _local_form(chain)
    cls, first = _pair_classes(mat, chain.row_supports, metric.dist, ii, jj, cost)
    values = [_pair_kappa(chain, metric, int(ii[p]), int(jj[p])) for p in first.tolist()]
    return np.array(values, dtype=float)[cls]


def _q_times_d(gen: Generator, d: np.ndarray) -> np.ndarray:
    """``Q @ d`` summed over each row's nonzeros in column order.

    A BLAS product may split its sums differently with the thread count, so
    its last bits would change with the machine.  Here row ``a`` lists its
    nonzero columns (``gen.row_supports``), and ``g[a] = sum_j Q[a, c_j]
    d[c_j]`` is summed over those slots in order, in blocks of rows: the same
    bits everywhere, in ``O(rows * slots * n)``.
    """
    cols, vals = gen.row_supports
    n, width = cols.shape
    g = np.empty((n, d.shape[1]))
    step = max(1, _CHUNK // max(1, width * d.shape[1]))
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        np.sum(vals[block, :, None] * d[cols[block]], axis=1, out=g[block])
    return g


def k_matrix(gen: Generator, metric: Metric) -> np.ndarray:
    """All pairwise ``k(r,s)`` values at once (``nan`` on the diagonal).

    An off-diagonal ``k`` that is not finite, which means that ``Q d``
    overflowed, raises :class:`NumericalFailure`.  A DTMC has no ``k``: a
    chain that is not a :class:`Generator` raises ``ValueError``.
    """
    _check_chain(gen, metric, ctmc=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = _q_times_d(gen, metric.dist)  # g[a, b] = Q_a . d(., b)
        own = np.minimum(np.diagonal(g)[:, None], g)  # own[r, s] = min(g_rr, g_rs)
        kmat = -(own + own.T) / metric.dist
    np.fill_diagonal(kmat, 0.0)
    if not np.isfinite(kmat).all():
        r, s = np.argwhere(~np.isfinite(kmat))[0]
        raise NumericalFailure(
            f"k({r + 1},{s + 1}) = {float(kmat[r, s])!r} is not finite: Q d overflows"
        )
    np.fill_diagonal(kmat, np.nan)
    return kmat


def _k_constants(kmat: np.ndarray, metric: Metric) -> tuple[float, float, np.ndarray]:
    """``(k_min, K, K_loc)`` of one :func:`k_matrix`, the one producer of the
    constants that the bounds and the curvature report read: the least ``k``,
    ``K_loc(r) = max(0, max_{s != r} -d(r,s) k(r,s))`` for every state, and
    the defect constant ``K``, their maximum."""
    kloc = np.maximum(0.0, np.nanmax(-metric.dist * kmat, axis=1))
    return float(np.nanmin(kmat)), float(kloc.max()), kloc


def _shared_jump_bounds(
    q: np.ndarray,
    supports: tuple[np.ndarray, np.ndarray],
    d: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
) -> np.ndarray:
    """Certified lower bounds on ``kappa`` of the 0-based pairs ``(ii, jj)``
    from the coupling that keeps the jump mass two states share together.

    For ``r, s`` with ``a = Q_r``, ``b = Q_s`` and ``m_x = min(a_x, b_x)``,
    ``x`` outside ``{r, s}``, every 1-Lipschitz ``f`` with ``f(r) - f(s) = d``
    has ``(Q_r - Q_s) . f <= A''``, where

        A'' = -d (a_s + b_r + sum m_x) + sum (a_x - m_x) min(d(x,r), d(x,s) - d)
                                       + sum (b_x - m_x) min(d(x,s), d(x,r) - d),

    term by term: the shared mass ``m_x`` moves ``f(s) - f(r) = -d``, and the
    excess of ``a`` (of ``b``) gains at most the two Lipschitz limits of
    ``f(x) - f(r)`` (of ``f(s) - f(x)``).  So ``k'' = -A''/d <= kappa``, and
    ``k <= k''`` by the triangle inequality.  Each term is summed over the
    padded row supports ``supports`` of ``q`` (``Generator.row_supports``), so a
    pair costs ``O(width)``.

    The computed ``k''`` is lowered by ``gamma_N * sum |terms| / d`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §3.1): the
    first term passes at most ``width + 2`` roundings, the others three, the
    sum ``2 width`` more, and ``N = 3 width + 6`` also covers the division,
    the subtraction and the second-order terms.  The bound scales exactly
    with the rates and the unit of ``d``.  A bound that is not finite is
    returned as ``-inf``, which cuts nothing.
    """
    cols, vals = supports
    width = cols.shape[1]
    nu = (3 * width + 6) * np.finfo(float).eps / 2
    gamma = nu / (1.0 - nu)
    lower = np.empty(ii.size)
    step = max(1, _CHUNK // (2 * width + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, ii.size, step):
            r, s = ii[lo : lo + step, None], jj[lo : lo + step, None]
            drs = d[r, s]
            x, y = cols[r[:, 0]], cols[s[:, 0]]  # the jumps of r and of s
            keep_x = (x != r) & (x != s)
            keep_y = (y != r) & (y != s)
            a_x = np.where(keep_x, vals[r[:, 0]], 0.0)
            b_x = np.where(keep_x, q[s, x], 0.0)
            b_y = np.where(keep_y, vals[s[:, 0]], 0.0)
            a_y = np.where(keep_y, q[r, y], 0.0)
            shared = np.minimum(a_x, b_x)
            terms = np.concatenate(
                [
                    -drs * (q[r, s] + q[s, r] + shared.sum(axis=1, keepdims=True)),
                    (a_x - shared) * np.minimum(d[x, r], d[x, s] - drs),
                    (b_y - np.minimum(a_y, b_y)) * np.minimum(d[y, s], d[y, r] - drs),
                ],
                axis=1,
            )
            low = (-terms.sum(axis=1) - gamma * np.abs(terms).sum(axis=1)) / drs[:, 0]
            lower[lo : lo + step] = np.where(np.isfinite(low), low, -np.inf)
    return lower


@dataclass(frozen=True)
class KappaMinStrategy:
    """How :func:`kappa_min` reached its answer, and by which ``route``.

    ``route = "closed-form"``: the chain is a lattice walk of
    :func:`wdbounds.models.translation_invariant_ctmc` under the metric that
    function returned with it.  The minimum is the theorem's ``kappa >=
    root_rate`` (0 without a root), lowered by the walk's allowance for
    rounded rate sums, and ``pairs_solved`` is the one pair of interior
    neighbours whose exact ``kappa`` (``kappa_solved``) certifies it from
    above.  Nothing is prefiltered, cut or skipped: ``pairs_irreducible``,
    ``pairs_cut`` and ``pairs_skipped`` are 0.

    ``route = "scan"``: every other chain, and a walk with no such pair or
    whose pair's ``kappa`` lies further from the root rate than the
    allowance and the solve's certified gap.  The irreducible pairs are visited in
    increasing ``k`` (ties in row-major order) with the running minimum
    ``tau``.  A pair with ``k >= tau`` is
    cut.  Pairs whose local problems pose bit-identical inputs form a class
    and share one ``kappa``; a pair whose class was visited before is
    skipped (``pairs_skipped``).  A class is cut when the largest ``k`` or
    shared-jump bound ``k'' - margin`` of its members is ``>= tau``
    (``pairs_cut``); otherwise its pair is solved exactly.
    ``pairs_solved`` lists the exact solves in that order, the first being
    the pair with the smallest ``k``, and ``kappa_solved`` their
    curvatures; the pairs cut by ``k`` are the irreducible ones neither
    solved, cut nor skipped.  A DTMC has no ``k`` and no cut: ``pairs_cut = 0``.
    """

    pairs_solved: tuple[tuple[int, int], ...]
    kappa_solved: tuple[float, ...]  # exact kappa of each pair in pairs_solved
    pairs_cut: int  # pairs with k < tau whose class bound is >= tau: kappa >= tau
    pairs_skipped: int  # pairs with k < tau whose class was visited: kappa >= tau
    pairs_irreducible: int  # pairs with no state in between, the ones prefiltered
    pairs_total: int  # all pairs r < s
    route: str  # "closed-form" or "scan"


def kappa_min(
    chain: Generator | TransitionMatrix, metric: Metric
) -> tuple[float, KappaMinStrategy]:
    """Exact minimum curvature over all pairs of a CTMC or a DTMC, via the
    irreducible pairs, classes of identical local problems and, for a CTMC,
    the k-prefilter and the shared-jump bound.

    The minimum over all pairs is the minimum over the irreducible pairs
    (see the module docstring).  Among those, a pair whose class was visited
    before cannot have curvature below the running minimum ``tau``, nor, for
    a CTMC, can a pair with ``k(r,s) >= tau`` (kappa dominates k) or a class
    whose members' largest ``k`` or shared-jump bound is ``>= tau``, so only
    the remaining classes are solved exactly, once each.  A lattice walk
    under its own metric takes the closed form instead (:func:`_walk_kappa_min`)
    and builds no ``k``.
    """
    _check_chain(chain, metric)
    return _kappa_min(chain, metric)


def _kappa_min(
    chain: Generator | TransitionMatrix, metric: Metric, kmat: np.ndarray | None = None
) -> tuple[float, KappaMinStrategy]:
    """:func:`kappa_min` of a checked ``chain`` and ``metric``.  A lattice walk
    under its own metric takes the closed form (:func:`_walk_kappa_min`),
    every other chain the scan (:func:`_scan_kappa_min`) on the pairwise
    ``k`` values ``kmat`` of a CTMC, built here when the scan runs and none
    were passed; a DTMC has no ``k``."""
    if isinstance(chain, Generator):
        found = _walk_kappa_min(chain, metric)  # the closed form needs no k
        if found is not None:
            return found
        if kmat is None:
            kmat = k_matrix(chain, metric)
    return _scan_kappa_min(chain, metric, kmat)


def _walk_kappa_min(gen: Generator, metric: Metric) -> tuple[float, KappaMinStrategy] | None:
    """The closed-form minimum of the lattice walk ``gen`` records, under the
    metric it was built with: ``walk.floor``, a lower bound on every pair,
    certified from above by one solve of ``walk.pair``, whose ``kappa``
    equals the root rate in exact arithmetic.  ``None`` for a generator with
    no walk or another metric, with no such pair, or when the pair's
    computed ``kappa`` lies, on either side, further from the root rate than
    ``walk.allowance`` plus the gap its solve is certified to: the bracket
    did not close."""
    walk = gen._walk
    if walk is None or metric is not walk.metric or walk.pair is None:
        return None
    i, j = walk.pair
    plan = _pair_plan(gen, metric, i, j)
    dist = float(metric.dist[i, j])
    kap = -(plan.value / dist)
    if not abs(kap - walk.root_rate) <= walk.allowance + plan.slack / dist:
        return None
    strategy = KappaMinStrategy(
        pairs_solved=((i + 1, j + 1),),
        kappa_solved=(kap,),
        pairs_cut=0,
        pairs_skipped=0,
        pairs_irreducible=0,
        pairs_total=gen.n * (gen.n - 1) // 2,
        route="closed-form",
    )
    return walk.floor, strategy


def _scan_kappa_min(
    chain: Generator | TransitionMatrix, metric: Metric, kmat: np.ndarray | None
) -> tuple[float, KappaMinStrategy]:
    """:func:`kappa_min` by visiting the irreducible pairs in increasing ``k``."""
    iu = np.triu_indices(chain.n, k=1)
    # k_matrix is bitwise symmetric; a DTMC's -inf keeps row-major order and cuts nothing
    kvals = np.full(iu[0].size, -np.inf) if kmat is None else kmat[iu]
    reduced = np.flatnonzero(irreducible_pairs(metric))  # row-major
    order = reduced[np.argsort(kvals[reduced], kind="stable")]  # increasing k
    d = metric.dist
    ii, jj, korder = iu[0][order], iu[1][order], kvals[order]
    mat, cost = _local_form(chain)
    supports = chain.row_supports
    cls, first = _pair_classes(mat, supports, d, ii, jj, cost)
    # the members of a class share one kappa, and each member's k and k'' - margin bound it
    floor = np.full(first.size, -np.inf)
    if kmat is not None:
        np.maximum.at(floor, cls, np.maximum(korder, _shared_jump_bounds(mat, supports, d, ii, jj)))
    solved: list[tuple[int, int]] = []
    values: list[float] = []
    cut = skipped = 0
    tau = np.inf
    for at, (k, c) in enumerate(zip(korder.tolist(), cls.tolist())):
        if k >= tau:  # the k cut at the running tau, for this pair and every later one
            break
        if first[c] != at:  # its class was visited: kappa >= tau already
            skipped += 1
            continue
        if floor[c] >= tau:  # the class cut: kappa >= floor >= tau
            cut += 1
            continue
        i, j = int(ii[at]), int(jj[at])
        kap = _pair_kappa(chain, metric, i, j)
        solved.append((i + 1, j + 1))
        values.append(kap)
        tau = min(tau, kap)
    strategy = KappaMinStrategy(
        pairs_solved=tuple(solved),
        kappa_solved=tuple(values),
        pairs_cut=cut,
        pairs_skipped=skipped,
        pairs_irreducible=reduced.size,
        pairs_total=kvals.size,
        route="scan",
    )
    return tau, strategy


def kappa_all_pairs(chain: Generator | TransitionMatrix, metric: Metric) -> np.ndarray:
    """Exact curvature of a CTMC or a DTMC for every pair (``nan`` diagonal),
    one solve per class of pairs with identical local problems."""
    _check_chain(chain, metric)
    n = chain.n
    ii, jj = np.triu_indices(n, k=1)
    out = np.full((n, n), np.nan)
    out[ii, jj] = out[jj, ii] = _class_kappas(chain, metric, ii, jj)
    return out


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Pairwise curvature data plus the summary constants.

    Pair ``i`` is ``(r[i], s[i])``, 1-based with ``r < s``, in row-major
    order; ``k[i]`` is its lower bound ``k(r,s)`` and ``kappa[i]`` its exact
    curvature, ``nan`` where that was not solved.  A DTMC has no ``k``: its
    ``k``, ``k_min`` and ``K_global`` are ``None``; ``strategy`` is ``pairs="min"``'s.
    """

    r: np.ndarray
    s: np.ndarray
    k: np.ndarray | None
    kappa: np.ndarray
    k_min: float | None
    K_global: float | None
    kappa_min: float | None
    strategy: KappaMinStrategy | None


def curvature_report(
    chain: Generator | TransitionMatrix,
    metric: Metric,
    pairs: str | tuple[int, int] = "min",
    k_only: bool = False,
) -> CurvatureReport:
    """Assemble pairwise and summary curvature data (used by the CLI).

    ``chain`` is a CTMC :class:`Generator` or a DTMC :class:`TransitionMatrix`.
    ``pairs`` is ``"all"`` (exact kappa everywhere), ``"min"`` (exact kappa
    only where the minimum needs it: the pairs :func:`kappa_min` solves) or
    a single 1-based pair, which gets no ``kappa_min``.  A CTMC's ``k``
    values and constants come from one :func:`k_matrix`; a DTMC has none,
    and ``k_only`` raises :func:`k_matrix`'s ``ValueError``.
    """
    _check_chain(chain, metric)
    n = chain.n
    kmat = k_matrix(chain, metric) if k_only or isinstance(chain, Generator) else None
    k_lo, k_glob, _ = (None, None, None) if kmat is None else _k_constants(kmat, metric)
    kap_min: float | None = None
    strategy: KappaMinStrategy | None = None
    if isinstance(pairs, tuple):
        _check_pair(n, pairs[0], pairs[1])
        r, s = (np.array([v]) for v in sorted(pairs))
    elif pairs in ("all", "min"):
        r, s = (idx + 1 for idx in np.triu_indices(n, k=1))
    else:
        raise ValueError(f"pairs must be 'all', 'min' or an (r, s) tuple, got {pairs!r}")
    kappa = np.full(r.size, np.nan)  # exact curvature where solved
    if not k_only:
        if isinstance(pairs, tuple):
            kappa[0] = _pair_kappa(chain, metric, int(r[0]) - 1, int(s[0]) - 1)
        elif pairs == "all":
            kappa = _class_kappas(chain, metric, r - 1, s - 1)
            kap_min = float(kappa.min())
        else:
            kap_min, strategy = _kappa_min(chain, metric, kmat)
            i, j = np.transpose(strategy.pairs_solved) - 1
            kappa[i * (2 * n - i - 1) // 2 + j - i - 1] = strategy.kappa_solved  # row-major r < s
    return CurvatureReport(
        r=r,
        s=s,
        k=None if kmat is None else kmat[r - 1, s - 1],
        kappa=kappa,
        k_min=k_lo,
        K_global=k_glob,
        kappa_min=kap_min,
        strategy=strategy,
    )
