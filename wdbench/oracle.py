"""Reference computations made without ``wdbounds``.

Every check in the benchmark compares an output of ``wdbounds`` with a value
computed here: transient laws from ``scipy.linalg.expm``, Wasserstein
distances and curvature from ``scipy.optimize.linprog`` (HiGHS), and the
closed-form ``k`` constants from plain numpy.  Models are rebuilt here from
their definitions, so a fault in the package's model constructors shows up
as a failed check too.  scipy is not a dependency of ``wdbounds``; only the
benchmark uses it, and only outside the timed region.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog

#: HiGHS at its tightest feasibility tolerances.  At the defaults (1e-7) a
#: transport value can be off by 1e-7, and presolve has declared a feasible
#: transport problem with a single sink infeasible.
HIGHS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

__all__ = [
    "box_walk",
    "membership",
    "uniform_disaggregation",
    "transient",
    "w1",
    "w1_signed",
    "k_matrix",
    "k_min",
    "K_global",
    "kappa_pair",
    "kappa_all",
]


def box_walk(shape, rate, jumps, root=None, root_rate=0.0):
    """Generator and Euclidean metric of a projected walk on an integer box.

    From every point the walk jumps at ``rate`` to ``clip(x + offset)`` with
    the offset drawn from ``jumps`` (a list of ``(offset, probability)``);
    jumps that land back on ``x`` are dropped.  Points are ordered with the
    last coordinate fastest.  ``root`` (1-based) receives an extra jump at
    ``root_rate`` from every other point.
    """
    pts = np.array(list(itertools.product(*(range(k) for k in shape))), dtype=float)
    n = len(pts)
    index = {tuple(int(v) for v in p): i for i, p in enumerate(pts)}
    hi = np.array(shape) - 1
    q = np.zeros((n, n))
    for i, p in enumerate(pts):
        for offset, prob in jumps:
            target = tuple(int(v) for v in np.clip(p + np.array(offset), 0, hi))
            j = index[target]
            if j != i:
                q[i, j] += rate * prob
    if root is not None:
        for i in range(n):
            if i != root - 1:
                q[i, root - 1] += root_rate
    q[np.diag_indices(n)] = -q.sum(axis=1)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return q, dist


def membership(blocks, n):
    """The 0/1 matrix with entry ``(i, b)`` set when state ``i+1`` is in block ``b``."""
    lam = np.zeros((n, len(blocks)))
    for b, blk in enumerate(blocks):
        lam[[i - 1 for i in blk], b] = 1.0
    return lam


def uniform_disaggregation(blocks, n):
    """Rows spreading each block's mass uniformly over its states."""
    a = membership(blocks, n).T
    return a / a.sum(axis=1, keepdims=True)


def transient(p0, q, t):
    """``p0 expm(t Q)``, clamped at zero and renormalized."""
    p = np.asarray(p0, dtype=float) @ expm(t * np.asarray(q, dtype=float))
    p = np.where(p < 0, 0.0, p)
    return p / p.sum()


def w1(p, q, dist):
    """W1 between two distributions: only their difference matters.

    By Kantorovich-Rubinstein duality ``W1(p, q) = max (p - q) . f`` over
    1-Lipschitz ``f``, so mass common to ``p`` and ``q`` stays in place at no
    cost and ``W1(p, q) = W(p - q)``.
    """
    return w1_signed(np.asarray(p, dtype=float) - np.asarray(q, dtype=float), dist)


def w1_signed(v, dist):
    """W of a zero-sum vector: the cost of moving its positive part onto its
    negative part, by HiGHS on the coupling of the two supports.

    Entries below ``1e-15`` of the largest are dropped first (they change the
    value by less than ``n * 1e-15 * d_max``); tiny right-hand sides otherwise
    make HiGHS declare the program infeasible.
    """
    v = np.asarray(v, dtype=float)
    v = np.where(np.abs(v) > 1e-15 * np.abs(v).max(initial=0.0), v, 0.0)
    rows = np.flatnonzero(v > 0)
    cols = np.flatnonzero(v < 0)
    if rows.size == 0 or cols.size == 0:
        return 0.0
    pr = v[rows]
    qc = -v[cols] * (pr.sum() / -v[cols].sum())
    nr, nc = rows.size, cols.size
    a_eq = np.zeros((nr + nc, nr * nc))
    for i in range(nr):
        a_eq[i, i * nc : (i + 1) * nc] = 1.0
    for j in range(nc):
        a_eq[nr + j, j::nc] = 1.0
    cost = np.asarray(dist)[np.ix_(rows, cols)].ravel()
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([pr, qc]), method="highs", options=HIGHS)
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def k_matrix(q, dist):
    """``k(r,s) = -(min(Q_r.d_r, Q_r.d_s) + min(Q_s.d_s, Q_s.d_r)) / d(r,s)``, nan diagonal."""
    g = q @ dist
    diag = np.diagonal(g)
    own = np.minimum(diag[:, None], g)
    with np.errstate(invalid="ignore", divide="ignore"):
        kmat = -(own + own.T) / dist
    kmat[np.diag_indices(len(q))] = np.nan
    return kmat


def k_min(q, dist):
    return float(np.nanmin(k_matrix(q, dist)))


def K_global(q, dist):
    """``max(0, max_{r != s} -d(r,s) k(r,s))``."""
    return max(0.0, float(np.nanmax(-dist * k_matrix(q, dist))))


def kappa_pair(q, dist, r, s):
    """Coarse Ricci curvature of the 0-based pair ``(r, s)`` of a CTMC, by HiGHS.

    ``kappa = -V / d(r,s)`` with ``V = max (Q_r - Q_s) . f`` over 1-Lipschitz
    ``f`` with ``0 <= f <= d_max`` and ``f(r) - f(s) = d(r,s)``.
    """
    n = len(q)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    a_ub = np.zeros((len(pairs), n))
    for row, (a, b) in enumerate(pairs):
        a_ub[row, a] = 1.0
        a_ub[row, b] = -1.0
    b_ub = np.array([dist[a, b] for a, b in pairs])
    a_eq = np.zeros((1, n))
    a_eq[0, r] = 1.0
    a_eq[0, s] = -1.0
    res = linprog(
        -(q[r] - q[s]),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[dist[r, s]],
        bounds=[(0.0, float(dist.max()))] * n,
        method="highs",
        options=HIGHS,
    )
    if res.status != 0:
        raise RuntimeError(f"reference Lipschitz LP failed: {res.message}")
    return float(res.fun) / dist[r, s]


def kappa_all(q, dist):
    """``{(r, s): kappa}`` for every pair ``r < s``, with 1-based keys."""
    n = len(q)
    return {
        (r + 1, s + 1): kappa_pair(q, dist, r, s) for r in range(n) for s in range(r + 1, n)
    }
