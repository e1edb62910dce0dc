"""Dense linear programming in equality form.

The one problem shape is

    maximize    c . x
    subject to  a_eq @ x == b_eq
                x >= 0

solved by a two-phase primal simplex on a dense tableau
(:func:`wdbounds._kernels.simplex_loop`).  Phase 1 starts from one
artificial column per row and drives their sum to zero; phase 2 optimizes
``c`` from the feasible basis it leaves.  An optimal solve returns the
point, the value and the row duals ``y``: ``a_eq^T y >= c`` and the value
equals ``y . b_eq``.  An infeasible or unbounded program, an exhausted
iteration limit or a point that fails the independent feasibility re-check
raises :class:`NumericalFailure`.

The tolerances are absolute, so callers pose the program in units where
``max|c|`` and ``max|b_eq|`` are about 1 (:func:`wdbounds.transport._ot`
normalizes its cost block and masses).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import NumericalFailure

__all__ = ["LpSolution", "solve"]

#: Pricing and pivot threshold on tableau entries.
PIVOT_TOL = 1e-9
#: Allowed infeasibility of the answer, per unit of ``max(1, max|b_eq|)``.
FEAS_TOL = 1e-8
#: Simplex pivots allowed in each phase.
MAX_ITER = 100_000


class LpSolution(NamedTuple):
    """An optimal point of :func:`solve`, its value and its row duals."""

    x: np.ndarray
    value: float
    duals: np.ndarray
    iterations: int


def solve(c, a_eq, b_eq) -> LpSolution:
    """Maximize ``c . x`` subject to ``a_eq @ x == b_eq`` and ``x >= 0``.

    Raises
    ------
    ValueError
        If the shapes of ``c``, ``a_eq`` and ``b_eq`` do not match.
    NumericalFailure
        If the program is infeasible or unbounded, if a phase hits
        ``MAX_ITER`` pivots, or if the final point fails the independent
        feasibility re-check against the original data.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    n = c.size
    m = b_eq.size
    if a_eq.shape != (m, n):
        raise ValueError("constraint matrix shape does not match c and b_eq")

    # rows signed so that b >= 0, then one artificial unit column per row:
    # columns 0..n-1 are x, n..n+m-1 the artificials, the last one b
    row_sign = np.where(b_eq < 0, -1.0, 1.0)
    ncols = n + m
    full = np.zeros((m + 1, ncols + 1))
    full[1:, :n] = a_eq * row_sign[:, None]
    full[1:, n:ncols] = np.eye(m)
    full[1:, ncols] = b_eq * row_sign
    basis = np.arange(n, ncols, dtype=np.int64)
    can_enter = np.arange(ncols) < n
    scale = float(np.abs(b_eq).max(initial=1.0))

    # --- phase 1: maximize -(sum of artificials) ------------------------
    full[0, :n] = full[1:, :n].sum(axis=0)
    full[0, ncols] = full[1:, ncols].sum()
    status, it1 = _kernels.simplex_loop(full, basis, can_enter, MAX_ITER, PIVOT_TOL)
    if status == _kernels.STATUS_ITER_LIMIT:
        raise NumericalFailure(f"phase-1 simplex hit the iteration limit ({MAX_ITER})")
    if full[0, ncols] > FEAS_TOL * scale:
        raise NumericalFailure("linear program is infeasible")
    # an artificial still basic is zero within tolerance: set it to zero and
    # pivot it out on the largest entry of its row (a degenerate pivot); a
    # row with no entry above the pivot tolerance is redundant, and the
    # ratio test never picks it
    for i in range(m):
        if basis[i] >= n:
            full[i + 1, ncols] = 0.0
            row = np.abs(full[i + 1, :n])
            if row.max(initial=0.0) > PIVOT_TOL:
                j = int(np.argmax(row))
                _kernels.pivot(full, i + 1, j)
                basis[i] = j

    # --- phase 2: maximize c . x from the feasible basis -----------------
    full[0, :] = 0.0
    full[0, :n] = c
    full[0, :] -= full[0, basis] @ full[1:, :]
    status, it2 = _kernels.simplex_loop(full, basis, can_enter, MAX_ITER, PIVOT_TOL)
    if status == _kernels.STATUS_ITER_LIMIT:
        raise NumericalFailure(f"phase-2 simplex hit the iteration limit ({MAX_ITER})")
    if status == _kernels.STATUS_UNBOUNDED:
        raise NumericalFailure("linear program is unbounded")

    x_all = np.zeros(ncols)
    x_all[basis] = full[1:, ncols]
    x = x_all[:n]
    # an artificial column has cost 0 and unit coefficient in its signed
    # row, so its reduced cost is -y_i there
    duals = -row_sign * full[0, n:ncols]

    # independent feasibility re-check against the original data
    if np.abs(a_eq @ x - b_eq).max(initial=0.0) > FEAS_TOL * scale:
        raise NumericalFailure("solution violates an equality row beyond tolerance")
    if (x < -FEAS_TOL * scale).any():
        raise NumericalFailure("solution violates x >= 0 beyond tolerance")
    return LpSolution(x, float(-full[0, ncols]), duals, it1 + it2)
