"""Dense linear programming with exact status reporting.

The problem shape is

    maximize    c . x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                lower <= x <= upper      (default 0 <= x)

solved by a two-phase bounded-variable primal simplex on a dense tableau
(:func:`wdbounds._kernels.simplex_loop`).  The solver always terminates with
one of three statuses and, for the two degenerate ones, a certificate:

* ``OPTIMAL`` - primal solution, objective value and row duals,
* ``INFEASIBLE`` - a Farkas vector proving no feasible point exists,
* ``UNBOUNDED`` - a feasible ray along which the objective grows.

Row duals follow the convention of the maximization above: inequality duals
are nonnegative and for problems without finite upper bounds the optimal
value equals ``duals . b`` (with finite upper bounds the bound multipliers
``max(0, c - A^T y)`` enter as well).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .errors import NumericalFailure

__all__ = ["LinearProgram", "LpSolution", "LpStatus", "solve"]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """A linear program in the package-wide canonical shape (see module docs)."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | float = 0.0
    upper: np.ndarray | float = np.inf

    def __post_init__(self) -> None:
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.size
        if self.a_ub is None or np.size(self.a_ub) == 0:
            self.a_ub = np.zeros((0, n))
            self.b_ub = np.zeros(0)
        else:
            self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
            self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        if self.a_eq is None or np.size(self.a_eq) == 0:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        self.lower = np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy()
        self.upper = np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy()
        if self.a_ub.shape != (self.b_ub.size, n) or self.a_eq.shape != (self.b_eq.size, n):
            raise ValueError("constraint matrix shapes do not match c and right-hand sides")
        if (self.lower > self.upper).any():
            raise ValueError("lower bound exceeds upper bound")


@dataclass
class LpSolution:
    """Outcome of :func:`solve`.

    ``duals`` concatenates the inequality-row multipliers (first) and the
    equality-row multipliers.  ``certificate`` is a Farkas vector over the
    rows for an infeasible program, and a primal ray for an unbounded one.
    """

    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    duals: np.ndarray | None = None
    certificate: np.ndarray | None = None
    iterations: int = 0

    @property
    def duals_ub(self) -> np.ndarray | None:
        return None if self.duals is None else self.duals[: self._n_ub]

    @property
    def duals_eq(self) -> np.ndarray | None:
        return None if self.duals is None else self.duals[self._n_ub :]

    _n_ub: int = field(default=0, repr=False)


def solve(lp: LinearProgram, tol: float = _PIVOT_TOL, max_iter: int | None = None) -> LpSolution:
    """Solve ``lp``; never raises for infeasible/unbounded inputs.

    Raises
    ------
    NumericalFailure
        If the simplex iteration limit is exhausted or the final solution
        fails the independent feasibility re-check against the original data.
    """
    n = lp.c.size
    k_ub = lp.b_ub.size
    k_eq = lp.b_eq.size
    m = k_ub + k_eq

    a_rows = np.vstack([lp.a_ub, lp.a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([lp.b_ub, lp.b_eq])

    # --- variable transformation to 0 <= x' <= u' ------------------------
    # kinds: ("shift", col, lo) x = lo + x'; ("mirror", col, up) x = up - x';
    #        ("split", col_pos, col_neg) x = x'+ - x'-
    kinds: list[tuple] = []
    cols: list[np.ndarray] = []
    costs: list[float] = []
    ubs: list[float] = []
    b_std = b.copy()
    obj_const = 0.0
    for j in range(n):
        lo, up = lp.lower[j], lp.upper[j]
        col = a_rows[:, j]
        if np.isfinite(lo):
            kinds.append(("shift", len(cols), lo))
            cols.append(col)
            costs.append(lp.c[j])
            ubs.append(up - lo)
            if lo != 0.0:
                b_std = b_std - col * lo
                obj_const += lp.c[j] * lo
        elif np.isfinite(up):
            kinds.append(("mirror", len(cols), up))
            cols.append(-col)
            costs.append(-lp.c[j])
            ubs.append(np.inf)
            b_std = b_std - col * up
            obj_const += lp.c[j] * up
        else:
            kinds.append(("split", len(cols), len(cols) + 1))
            cols.append(col)
            costs.append(lp.c[j])
            ubs.append(np.inf)
            cols.append(-col)
            costs.append(-lp.c[j])
            ubs.append(np.inf)

    n_struct = len(cols)
    a_std = np.column_stack(cols) if n_struct else np.zeros((m, 0))

    # --- rows: normalize signs, add slacks and artificials ----------------
    row_sign = np.ones(m)
    neg = b_std < 0
    row_sign[neg] = -1.0
    a_std = a_std * row_sign[:, None]
    b_std = b_std * row_sign

    slack_of_row = np.full(m, -1, dtype=np.int64)
    art_of_row = np.full(m, -1, dtype=np.int64)
    unit_col = np.full(m, -1, dtype=np.int64)  # zero-cost +1 unit column per row
    extra_cols: list[np.ndarray] = []
    next_col = n_struct
    for i in range(k_ub):
        e = np.zeros(m)
        e[i] = row_sign[i]  # slack enters the *normalized* row with this sign
        extra_cols.append(e)
        slack_of_row[i] = next_col
        if row_sign[i] > 0:
            unit_col[i] = next_col
        next_col += 1
    art_rows = [i for i in range(m) if not (i < k_ub and row_sign[i] > 0)]
    for i in art_rows:
        e = np.zeros(m)
        e[i] = 1.0
        extra_cols.append(e)
        art_of_row[i] = next_col
        unit_col[i] = next_col
        next_col += 1

    ncols = next_col
    n_art = len(art_rows)
    full = np.zeros((m + 1, ncols + 1))
    if m:
        full[1:, :n_struct] = a_std
        for idx, e in enumerate(extra_cols):
            full[1:, n_struct + idx] = e
        full[1:, ncols] = b_std

    ub_vec = np.concatenate([np.asarray(ubs, dtype=float), np.full(ncols - n_struct, np.inf)])
    cost_vec = np.concatenate([np.asarray(costs, dtype=float), np.zeros(ncols - n_struct)])
    is_art = np.zeros(ncols, dtype=bool)
    for i in art_rows:
        is_art[art_of_row[i]] = True
    can_enter = ~is_art

    basis = np.empty(m, dtype=np.int64)
    for i in range(m):
        basis[i] = art_of_row[i] if art_of_row[i] >= 0 else slack_of_row[i]
    at_upper = np.zeros(ncols, dtype=bool)

    if max_iter is None:
        max_iter = 50 * (m + ncols) + 10_000
    dantzig_cap = 20 * (m + ncols) + 200
    total_iters = 0
    scale = max(1.0, float(np.abs(b).max()) if m else 1.0)

    # --- phase 1 ----------------------------------------------------------
    if n_art:
        for i in art_rows:
            full[0, :] += full[i + 1, :]
        full[0, is_art.nonzero()[0]] = 0.0
        status, iters, _ = _kernels.simplex_loop(
            full, basis, at_upper, ub_vec, can_enter, dantzig_cap, max_iter, tol
        )
        total_iters += iters
        if status == _kernels.STATUS_ITER_LIMIT:
            raise NumericalFailure(f"phase-1 simplex hit the iteration limit ({max_iter})")
        infeas = full[0, ncols]  # = sum of artificial values at optimum
        if infeas > _FEAS_TOL * scale:
            # phase-1 unit columns that are artificial carry objective -1
            unit_cost = np.where(
                np.array([art_of_row[i] == unit_col[i] for i in range(m)]), -1.0, 0.0
            )
            y = _recover_duals(full, unit_col, at_upper, row_sign, ncols, unit_cost)
            sol = LpSolution(
                status=LpStatus.INFEASIBLE, certificate=y, iterations=total_iters
            )
            sol._n_ub = k_ub
            return sol
        # drive remaining basic artificials out of the basis where possible
        for i in range(m):
            if is_art[basis[i]]:
                row = full[i + 1, :ncols]
                cand = np.where(~is_art & (np.abs(row) > 1e-7))[0]
                if cand.size:
                    _kernels.pivot(full, i + 1, int(cand[0]))
                    basis[i] = int(cand[0])
                else:
                    full[i + 1, ncols] = 0.0  # redundant row
        ub_vec[is_art] = 0.0

    # --- phase 2 ----------------------------------------------------------
    red = np.where(at_upper[:ncols], -cost_vec, cost_vec)
    red[is_art] = 0.0
    full[0, :ncols] = red
    full[0, ncols] = 0.0
    # columns sitting at their upper bound contribute c_j * ub_j that the
    # flipped tableau cannot see; later in-loop flips fold their own constant
    # into the right-hand side, so only the rebuild-time set matters here
    flip0 = at_upper & np.isfinite(ub_vec)
    obj_flip = float(cost_vec[flip0] @ ub_vec[flip0])
    for i in range(m):
        coef = full[0, basis[i]]
        if coef != 0.0:
            full[0, :] -= coef * full[i + 1, :]

    status, iters, jcol = _kernels.simplex_loop(
        full, basis, at_upper, ub_vec, can_enter, dantzig_cap, max_iter, tol
    )
    total_iters += iters
    if status == _kernels.STATUS_ITER_LIMIT:
        raise NumericalFailure(f"phase-2 simplex hit the iteration limit ({max_iter})")

    if status == _kernels.STATUS_UNBOUNDED:
        ray_std = np.zeros(ncols)
        ray_std[jcol] = 1.0
        for i in range(m):
            ray_std[basis[i]] = -full[i + 1, jcol]
        ray = np.zeros(n)
        for j, kind in enumerate(kinds):
            if kind[0] == "shift":
                ray[j] = ray_std[kind[1]]
            elif kind[0] == "mirror":
                ray[j] = -ray_std[kind[1]]
            else:
                ray[j] = ray_std[kind[1]] - ray_std[kind[2]]
        sol = LpSolution(status=LpStatus.UNBOUNDED, certificate=ray, iterations=total_iters)
        sol._n_ub = k_ub
        return sol

    # --- recover the point, value and duals -------------------------------
    x_std = np.zeros(ncols)
    for i in range(m):
        x_std[basis[i]] = full[i + 1, ncols]
    flip = at_upper & np.isfinite(ub_vec)
    x_std[flip] = ub_vec[flip] - x_std[flip]
    x = np.zeros(n)
    for j, kind in enumerate(kinds):
        if kind[0] == "shift":
            x[j] = kind[2] + x_std[kind[1]]
        elif kind[0] == "mirror":
            x[j] = kind[2] - x_std[kind[1]]
        else:
            x[j] = x_std[kind[1]] - x_std[kind[2]]

    value = obj_const + obj_flip - full[0, ncols]
    duals = _recover_duals(full, unit_col, at_upper, row_sign, ncols, np.zeros(m))

    # independent feasibility re-check against the original data
    if k_ub and (lp.a_ub @ x - lp.b_ub).max() > _FEAS_TOL * scale:
        raise NumericalFailure("solution violates an inequality row beyond tolerance")
    if k_eq and np.abs(lp.a_eq @ x - lp.b_eq).max() > _FEAS_TOL * scale:
        raise NumericalFailure("solution violates an equality row beyond tolerance")
    if ((x - lp.lower) < -_FEAS_TOL * scale).any() or ((lp.upper - x) < -_FEAS_TOL * scale).any():
        raise NumericalFailure("solution violates a variable bound beyond tolerance")

    sol = LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        value=float(value),
        duals=duals,
        iterations=total_iters,
    )
    sol._n_ub = k_ub
    return sol


def _recover_duals(
    full: np.ndarray,
    unit_col: np.ndarray,
    at_upper: np.ndarray,
    row_sign: np.ndarray,
    ncols: int,
    unit_cost: np.ndarray,
) -> np.ndarray:
    """Row multipliers read off the reduced costs of each row's unit column.

    The unit column of row ``i`` entered the standard form with coefficient
    ``+1`` and objective ``unit_cost[i]``, so its reduced cost is
    ``unit_cost[i] - y_i`` and ``y_i = unit_cost[i] - red``.
    """
    m = unit_col.size
    y = np.zeros(m)
    for i in range(m):
        j = unit_col[i]
        red = full[0, j]
        if at_upper[j]:
            red = -red
        y[i] = row_sign[i] * (unit_cost[i] - red)
    return y
