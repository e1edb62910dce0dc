"""Independent oracles the tests check the package against.

Each oracle avoids the code paths of the implementation it verifies:

* :func:`taylor_expm` / :func:`transient_series` - matrix exponential by a
  plain Taylor series with scaling-and-squaring (the package uses
  uniformization);
* :func:`transport_vertex_minimum` - exact rational Wasserstein value by
  enumerating every vertex of the transportation polytope with
  :class:`fractions.Fraction` arithmetic (the package uses simplex methods
  in floating point);
* :func:`all_paths_shortest` - shortest path by exhaustive simple-path
  enumeration (the package uses Floyd-Warshall);
* :func:`kappa_finite_difference` - coarse Ricci curvature from its
  definition as a derivative of the Wasserstein distance, via Richardson
  extrapolation (the package solves a small transport problem that never
  evaluates the distance itself);
* :func:`wasserstein_derivative` - the Danskin derivative of ``W1`` at
  ``t = 0``, whose value at two point masses is ``-kappa(r,s) d(r,s)``: a
  dense linear program over all 1-Lipschitz potentials, solved by the
  package's LP (:func:`wdbounds.lp.solve`), not by the transport kernel that
  the package's curvature runs on (only the stage-1 distance comes from
  :func:`wdbounds.transport.wasserstein`);
* :func:`lp_vertex_maximum` - linear-program optimum over a box-bounded
  polytope by enumerating candidate active sets (the package runs a
  two-phase simplex over equality rows and ``x >= 0``);
* :func:`curvature_bounds_exact` - the closed-form curvature lower bounds
  ``k`` and ``k''`` of one pair in :class:`fractions.Fraction` arithmetic,
  from their definitions over every state (the package sums floats over
  padded row supports);
* :func:`frozen_signed_ot` - not an independent oracle but a frozen copy of
  the signed solve :func:`wdbounds.transport._signed_ot` as it stood before
  its supports, rebalancing and margin check were rewritten with fewer
  numpy calls; the two must agree bit for bit;
* :func:`frozen_walk_bound` - not an independent oracle but a frozen copy of
  the replay that computed a lattice walk's ``kappa`` floor, rounding
  allowance and certifying pair after its generator was built, before
  :func:`wdbounds.models.translation_invariant_ctmc` built all three in one
  pass; the two must agree bit for bit;
* :func:`verify_optimal_pair` / :class:`OptimalPairReport` - the structural
  optimality conditions of a (coupling, potential) pair re-checked on the
  dense ``n x n`` arrays: marginals, one-sidedness, Lipschitz bounds,
  complementary slackness and zero duality gap (the package certifies its
  plans on the solved block only).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from wdbounds import _kernels
from wdbounds.errors import DimensionMismatch, NumericalFailure
from wdbounds.lp import solve
from wdbounds.markov import Generator, ProbVec
from wdbounds.metric import Metric, _two_sum_error
from wdbounds.models import Box, JumpDistribution
from wdbounds.transport import (
    GAP_TOL,
    LIPSCHITZ_TOL,
    MARGINAL_TOL,
    MIN_TOL,
    SIGNED_GAP_REL,
    SUPPORT_TOL,
    Coupling,
    Potential,
    _ot,
    _SignedPlan,
    wasserstein,
)

__all__ = [
    "taylor_expm",
    "transient_series",
    "transport_vertex_minimum",
    "all_paths_shortest",
    "kappa_finite_difference",
    "lp_vertex_maximum",
    "curvature_bounds_exact",
    "DERIVATIVE_PIN_SLACK",
    "wasserstein_derivative",
    "frozen_signed_ot",
    "frozen_walk_bound",
    "OptimalPairReport",
    "verify_optimal_pair",
]


def taylor_expm(mat: np.ndarray, terms: int = 60) -> np.ndarray:
    """``expm(mat)`` by Taylor series with scaling-and-squaring."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    norm = float(np.abs(mat).sum(axis=1).max())
    squarings = 0
    while norm / (2**squarings) > 0.5:
        squarings += 1
    a = mat / (2**squarings)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def transient_series(p0: np.ndarray, q: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """``p0 @ expm(t q)`` via :func:`taylor_expm`."""
    return np.asarray(p0, dtype=float) @ taylor_expm(t * np.asarray(q, dtype=float), terms)


def _spanning_tree_flows(
    combo: tuple[tuple[int, int], ...], p: list[Fraction], q: list[Fraction]
) -> list[Fraction] | None:
    """Exact flows on a candidate basis tree, or ``None`` if not a tree."""
    n, m = len(p), len(q)
    parent = list(range(n + m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in combo:
        a, b = find(i), find(n + j)
        if a == b:
            return None
        parent[a] = b

    # peel leaves; each leaf's single incident edge has a forced flow
    incident: list[list[int]] = [[] for _ in range(n + m)]
    for idx, (i, j) in enumerate(combo):
        incident[i].append(idx)
        incident[n + j].append(idx)
    residual = [Fraction(v) for v in p] + [Fraction(v) for v in q]
    alive = [True] * len(combo)
    deg = [len(e) for e in incident]
    stack = [v for v in range(n + m) if deg[v] == 1]
    flows: list[Fraction | None] = [None] * len(combo)
    while stack:
        v = stack.pop()
        if deg[v] == 0:
            continue
        idx = next(e for e in incident[v] if alive[e])
        i, j = combo[idx]
        u = n + j if v == i else i
        flows[idx] = residual[v]
        residual[u] -= residual[v]
        residual[v] = Fraction(0)
        alive[idx] = False
        deg[v] -= 1
        deg[u] -= 1
        if deg[u] == 1:
            stack.append(u)
    return [f if f is not None else Fraction(0) for f in flows]


def transport_vertex_minimum(
    p: list[Fraction], q: list[Fraction], cost: list[list[Fraction]]
) -> Fraction:
    """Exact transportation optimum over all basis-tree vertices."""
    n, m = len(p), len(q)
    assert sum(p) == sum(q), "marginals must carry equal mass"
    edges = [(i, j) for i in range(n) for j in range(m)]
    best: Fraction | None = None
    for combo in itertools.combinations(edges, n + m - 1):
        flows = _spanning_tree_flows(combo, p, q)
        if flows is None or any(f < 0 for f in flows):
            continue
        val = sum(f * cost[i][j] for f, (i, j) in zip(flows, combo))
        if best is None or val < best:
            best = val
    assert best is not None, "transportation polytope should never be empty"
    return best


def all_paths_shortest(n: int, edges: list[tuple[int, int, float]], r: int, s: int) -> float:
    """Shortest-path distance by exhaustive simple-path enumeration (1-based)."""
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in range(1, n + 1)}
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = float("inf")

    def dfs(v: int, seen: frozenset[int], acc: float) -> None:
        nonlocal best
        if acc >= best:
            return
        if v == s:
            best = acc
            return
        for u, w in adj[v]:
            if u not in seen:
                dfs(u, seen | {u}, acc + w)

    dfs(r, frozenset([r]), 0.0)
    return best


def kappa_finite_difference(w1, gen_q: np.ndarray, dist: np.ndarray, r: int, s: int,
                            h: float = 1e-4) -> float:
    """Curvature from its definition, Richardson-extrapolated.

    ``kappa(r,s) = -(d/dt) W1(delta_r e^{tQ}, delta_s e^{tQ}) / d(r,s)`` at
    ``t = 0``; ``w1(p, q)`` evaluates the distance between raw arrays.  The
    transient laws come from the Taylor oracle, not from the package.
    """
    n = gen_q.shape[0]
    drs = dist[r - 1, s - 1]

    def rate(step: float) -> float:
        er = np.zeros(n)
        er[r - 1] = 1.0
        es = np.zeros(n)
        es[s - 1] = 1.0
        w = w1(transient_series(er, gen_q, step), transient_series(es, gen_q, step))
        return (drs - w) / (step * drs)

    k1 = rate(h)
    k2 = rate(h / 2)
    return 2.0 * k2 - k1


def lp_vertex_maximum(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    tol: float = 1e-9,
) -> float | None:
    """Maximum of ``c . x`` over a box-bounded polytope by vertex enumeration.

    Every bound must be finite, so the feasible set is a polytope and, when
    nonempty, attains its maximum at a basic point: a point where ``n``
    linearly independent constraints (equality rows, tight inequality rows,
    or tight bounds) hold with equality.  All such candidate active sets are
    enumerated directly.  Returns ``None`` when no candidate is feasible,
    which for a polytope means the program is infeasible.
    """
    n = c.size
    k_eq = b_eq.shape[0]
    if k_eq > n:
        # more equalities than variables: any consistent solution is unique
        x, res, rank, _ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        cands = [x] if rank == n else []
    else:
        rows = [(a_ub[i], b_ub[i]) for i in range(b_ub.shape[0])]
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, lower[j]))
            rows.append((e, upper[j]))
        cands = []
        for combo in itertools.combinations(range(len(rows)), n - k_eq):
            mat = np.vstack([a_eq] + [rows[i][0] for i in combo]) if k_eq else (
                np.vstack([rows[i][0] for i in combo]) if combo else np.zeros((0, n))
            )
            rhs = np.concatenate([b_eq, [rows[i][1] for i in combo]])
            if mat.shape[0] != n:
                continue
            try:
                x = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.isfinite(x).all():
                continue
            cands.append(x)
    best = None
    for x in cands:
        if b_ub.shape[0] and (a_ub @ x - b_ub).max() > tol:
            continue
        if k_eq and np.abs(a_eq @ x - b_eq).max() > tol:
            continue
        if (x < lower - tol).any() or (x > upper + tol).any():
            continue
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


#: Two-sided slack used when pinning the stage-1 optimum in the two-stage
#: derivative LP (the argmax set is taken up to this tolerance), per unit of
#: ``d_max * |p - q|_1``.  The stage-1 value is vertex-exact, so the slack
#: only needs to absorb float rounding; any looseness here biases the
#: stage-2 maximum proportionally.
DERIVATIVE_PIN_SLACK = 1e-11


def curvature_bounds_exact(
    q: np.ndarray, dist: np.ndarray, r: int, s: int
) -> tuple[Fraction, Fraction, Fraction]:
    """``(k(r,s), k''(r,s), residue)`` of the 0-based pair, exact in rationals.

    All three read only the off-diagonal rates, so each row sums to exactly
    zero.  ``k`` bounds ``(Q_r - Q_s) . f`` by ``Q_r . f <= min(Q_r . d(., r),
    Q_r . (d(., s) - d))`` and the same for ``-Q_s . f``; ``k''`` moves the
    rate that ``r`` and ``s`` share towards each ``x`` by ``-d`` and bounds
    each excess by its own two Lipschitz limits.  ``k <= k'' + residue``,
    where the residue ``sum_x m_x max(0, d - d(x,r) - d(x,s)) / d`` is 0 when
    ``dist`` meets the triangle inequality exactly.
    """
    n = q.shape[0]
    d = [[Fraction(float(v)) for v in row] for row in dist]
    drs = d[r][s]
    a = [Fraction(float(q[r, x])) if x != r else Fraction(0) for x in range(n)]
    b = [Fraction(float(q[s, x])) if x != s else Fraction(0) for x in range(n)]
    own_r = min(
        sum(a[x] * d[x][r] for x in range(n)), sum(a[x] * (d[x][s] - drs) for x in range(n))
    )
    own_s = min(
        sum(b[x] * d[x][s] for x in range(n)), sum(b[x] * (d[x][r] - drs) for x in range(n))
    )
    bound = -drs * (a[s] + b[r])
    residue = Fraction(0)
    for x in range(n):
        if x in (r, s):
            continue
        m = min(a[x], b[x])
        bound += -drs * m
        bound += (a[x] - m) * min(d[x][r], d[x][s] - drs)
        bound += (b[x] - m) * min(d[x][s], d[x][r] - drs)
        residue += m * max(Fraction(0), drs - d[x][r] - d[x][s])
    return -(own_r + own_s) / drs, -bound / drs, residue / drs


def _lipschitz_value(
    obj: np.ndarray, metric: Metric, pin: np.ndarray, lo: float, hi: float
) -> float:
    """``max obj . f`` over ``{0 <= f <= d_max, 1-Lipschitz, lo <= pin.f <= hi}``.

    The feasible set always contains ``f = min(d(., x) ...)``-type potentials,
    and is compact, so the value is finite.  Solved as the LP dual, with one
    row per state and one variable per ordered pair, in units where
    ``d_max = 1`` and ``max|obj| = 1``, so the LP's tolerances meet the same
    numbers whatever the units of the metric and the rates; the value is
    rescaled on return.
    """
    n = metric.n
    oscale = float(np.abs(obj).max())
    if oscale == 0.0:
        return 0.0
    fscale = metric.d_max
    d = metric.dist / fscale
    obj = obj / oscale
    lo = lo / fscale
    hi = hi / fscale
    # Dual variables: gamma_ab >= 0 per ordered pair (a != b), mu+ >= 0 for
    # the row pin.f <= hi, mu- >= 0 for -pin.f <= -lo, beta_a >= 0 for the
    # upper box f <= 1 (d_max).  One >=-constraint per state a:
    #   sum_b gamma_ab - sum_b gamma_ba + pin_a (mu+ - mu-) + beta_a >= obj_a
    # minimizing  sum d_ab gamma_ab + hi mu+ - lo mu- + sum beta.
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    npair = len(pairs)
    ncols = npair + 2 + n
    rows = np.zeros((n, ncols))
    cost = np.empty(ncols)
    for col, (a, b) in enumerate(pairs):
        rows[a, col] += 1.0
        rows[b, col] -= 1.0
        cost[col] = d[a, b]
    rows[:, npair] = pin
    rows[:, npair + 1] = -pin
    cost[npair] = hi
    cost[npair + 1] = -lo
    for a in range(n):
        rows[a, npair + 2 + a] = 1.0
        cost[npair + 2 + a] = 1.0
    # pose the minimization as:  maximize -cost . z  s.t.  rows z - s = obj,
    # with one surplus column s_a >= 0 per state
    sol = solve(np.concatenate([-cost, np.zeros(n)]), np.hstack([rows, -np.eye(n)]), obj)
    return -float(sol.value) * fscale * oscale


def wasserstein_derivative(p: ProbVec, q: ProbVec, gen: Generator, metric: Metric) -> float:
    """Right derivative at ``t=0`` of ``t -> W1(p e^{tQ}, q e^{tQ})``.

    Danskin's rule: the derivative is ``max (p - q) . (Q f)`` over the set of
    *optimal* Kantorovich potentials for ``W1(p, q)``.  Stage 1 computes the
    distance, stage 2 maximizes over feasible potentials whose objective is
    pinned to the stage-1 optimum (within ``DERIVATIVE_PIN_SLACK * d_max *
    |p - q|_1``, so the pin means the same in any unit).
    """
    if p.n != q.n or p.n != gen.n or gen.n != metric.n:
        raise DimensionMismatch("p, q, generator and metric must share the state space")
    w, _, _ = wasserstein(p, q, metric)
    diff = p.p - q.p
    obj = diff @ gen.q
    slack = DERIVATIVE_PIN_SLACK * metric.d_max * float(np.abs(diff).sum())
    return _lipschitz_value(obj, metric, diff, w - slack, w + slack)


@dataclass(frozen=True)
class OptimalPairReport:
    """Check results for the four structural properties of an optimal pair.

    * ``coupling_ok`` - marginals match within ``1e-8``;
    * ``one_sided_ok`` - no state both sends and receives off-diagonal mass;
    * ``potential_ok`` - ``0 <= f <= d_max`` and 1-Lipschitz (slacks as in
      :class:`Potential`);
    * ``slackness_ok`` - mass only flows where the potential drops by the
      full distance (``gamma > 1e-10`` implies ``f(r)-f(s) = d(r,s)`` within
      ``1e-7 * d_max``);
    * ``duality_ok`` - primal cost equals the potential's objective within
      ``1e-7 * d_max * mass``.
    """

    coupling_ok: bool
    one_sided_ok: bool
    potential_ok: bool
    slackness_ok: bool
    duality_ok: bool
    primal_cost: float
    dual_value: float

    @property
    def all_ok(self) -> bool:
        return (
            self.coupling_ok
            and self.one_sided_ok
            and self.potential_ok
            and self.slackness_ok
            and self.duality_ok
        )


def verify_optimal_pair(
    coupling: Coupling, potential: Potential, metric: Metric
) -> OptimalPairReport:
    """Independently re-check a (coupling, potential) pair for optimality."""
    g = coupling.gamma
    f = potential.f
    n = metric.n
    d = metric.dist
    coupling_ok = (
        np.abs(g.sum(axis=1) - coupling.p).max() <= MARGINAL_TOL
        and np.abs(g.sum(axis=0) - coupling.q).max() <= MARGINAL_TOL
    )
    off = ~np.eye(n, dtype=bool)
    outflow = np.where(off, g, 0.0).sum(axis=1)
    inflow = np.where(off, g, 0.0).sum(axis=0)
    one_sided_ok = bool((np.minimum(outflow, inflow) <= SUPPORT_TOL).all())
    dmax = metric.d_max
    lip = f[:, None] - f[None, :] - d
    potential_ok = (
        f.min() >= -MIN_TOL * dmax
        and f.max() <= dmax * (1.0 + LIPSCHITZ_TOL)
        and lip.max() <= LIPSCHITZ_TOL * dmax
    )
    support = g > SUPPORT_TOL
    slackness_ok = (
        bool((np.abs(lip[support]) <= GAP_TOL * dmax).all()) if support.any() else True
    )
    primal = float(np.sum(g * d))
    dual = float((coupling.p - coupling.q) @ f)
    duality_ok = abs(primal - dual) <= GAP_TOL * dmax * float(coupling.p.sum())
    return OptimalPairReport(
        coupling_ok=bool(coupling_ok),
        one_sided_ok=one_sided_ok,
        potential_ok=bool(potential_ok),
        slackness_ok=slackness_ok,
        duality_ok=duality_ok,
        primal_cost=primal,
        dual_value=dual,
    )


def frozen_signed_ot(v: np.ndarray, cost, method: str = "transport") -> _SignedPlan:
    """:func:`wdbounds.transport._signed_ot` as it stood before the rewrite:
    supports by ``np.flatnonzero``, the negative part negated before it is
    rebalanced, each margin checked by its own absolute maximum, and the
    kernel handed contiguous copies of both parts (the kernel call of
    :func:`wdbounds.transport._ot`, inlined).  Forced plans and the LP route
    are the package's :func:`wdbounds.transport._ot`."""
    rows = np.flatnonzero(v > 0)
    cols = np.flatnonzero(v < 0)
    if rows.size == 0 or cols.size == 0:
        return _SignedPlan(
            0.0, rows, cols, np.zeros((rows.size, cols.size)), np.zeros(rows.size), 0.0
        )
    pos = v[rows]
    neg = -v[cols]
    mass = float(pos.sum())
    neg = neg * (mass / float(neg.sum()))
    c = np.ascontiguousarray(cost(rows, cols), dtype=float)
    cmax = float(np.abs(c).max())
    nr, nc = c.shape
    if method == "transport" and nr > 1 and nc > 1:
        cap = 200 * (nr + nc) + 2000
        status, gamma, u, _, pivots = _kernels.transport_loop(
            c, np.ascontiguousarray(pos), np.ascontiguousarray(neg), 1e-11 * cmax, cap
        )
        if status != _kernels.STATUS_OPTIMAL:
            raise NumericalFailure(
                f"transport kernel stopped short of the optimum on a {nr}x{nc} block"
                f" after {pivots} of {cap} pivots"
            )
        value = float(np.sum(gamma * c))
    else:
        value, gamma, u = _ot(pos, neg, c, cmax, method)
    if not math.isfinite(value):
        raise NumericalFailure(f"signed transport plan has cost {value!r} on mass {mass:.3g}")
    slack = MARGINAL_TOL * mass
    if not (
        gamma.min() >= -slack
        and np.abs(gamma.sum(axis=1) - pos).max() <= slack
        and np.abs(gamma.sum(axis=0) - neg).max() <= slack
    ):
        raise NumericalFailure(f"signed transport plan misses its margins on mass {mass:.3g}")
    dual = float(pos @ u + neg @ np.min(c - u[:, None], axis=0))
    gap = value - dual
    allowed = SIGNED_GAP_REL * cmax * mass
    if not (abs(gap) <= allowed and math.isfinite(gap)):
        raise NumericalFailure(f"signed transport primal/dual gap {gap:.3g} on mass {mass:.3g}")
    return _SignedPlan(value, rows, cols, gamma, u, allowed)


def frozen_walk_bound(
    box: Box, rate: float, jumps: JumpDistribution, root: int | None, root_rate: float,
    metric: Metric,
) -> tuple[float, float, tuple[int, int] | None]:
    """``(floor, allowance, pair)`` of the walk that
    :func:`wdbounds.models.translation_invariant_ctmc` builds from these
    arguments, with the ``metric`` it returns, as the replay computed them:
    the jump targets clipped one offset at a time, the stored rates summed
    again slot by slot for their TwoSum errors, and the jump ends of the
    certifying pair built anew."""
    pts = box.points()
    lo = np.asarray(box.lo, dtype=np.int64)
    hi = np.asarray(box.hi, dtype=np.int64)
    strides = np.ones(box.dim, dtype=np.int64)
    for k in range(box.dim - 2, -1, -1):
        strides[k] = strides[k + 1] * box.shape[k + 1]
    kept = [(offset, prob) for offset, prob in jumps.support if prob != 0.0]
    targets = np.empty((pts.shape[0], len(kept)), dtype=np.int64)
    for j, (offset, _) in enumerate(kept):
        end = np.clip(pts + np.asarray(offset, dtype=np.int64), lo, hi)
        targets[:, j] = (end - lo) @ strides
    rates = tuple(rate * prob for _, prob in kept)

    def moved_error(e, dist):
        tiny = np.finfo(float).smallest_subnormal
        return np.abs(e) * dist + np.where(e != 0.0, tiny, 0.0)

    n, count = targets.shape
    rows = np.arange(n)
    d = metric.dist
    # every jump of a row adds into the slot of its row's first jump with that target
    slot = (targets[:, :, None] == targets[:, None, :]).argmax(axis=2)
    stored = np.zeros((n, count))
    spread = np.zeros(n)
    for j, w in enumerate(rates):
        moved = targets[:, j] != rows
        old = stored[rows, slot[:, j]]
        new = old + w
        error = moved_error(_two_sum_error(old, w, new), d[rows, targets[:, j]])
        spread += np.where(moved, error, 0.0)
        stored[rows, slot[:, j]] = np.where(moved, new, old)
    floor = 0.0
    if root is not None:
        col = root - 1
        hit = targets == col
        old = np.where(hit.any(axis=1), stored[rows, hit.argmax(axis=1)], 0.0)
        error = moved_error(_two_sum_error(old, root_rate, old + root_rate), d[rows, col])
        spread += np.where(rows != col, error, 0.0)
        floor = float(root_rate)
    nu = (count + 3) * np.finfo(float).eps / 2
    allowance = 2.0 * float(spread.max()) * (1.0 + nu / (1.0 - nu))
    if allowance == 0.0:
        allowance = 0.0
    else:
        floor = float(np.nextafter(floor - allowance, -np.inf))

    offsets = np.array([off for off, _ in kept])
    ends = pts[:, None, :] + offsets[None, :, :]
    inside = ((ends >= box.lo) & (ends <= box.hi)).all(axis=(1, 2))
    if root is not None:
        inside[root - 1] = False
    for axis in reversed(range(box.dim)):
        step = int(strides[axis])
        below = inside[:-step] & inside[step:] & (pts[:-step, axis] < box.hi[axis])
        if below.any():
            i = int(np.argmax(below))
            return floor, allowance, (i, i + step)
    return floor, allowance, None
