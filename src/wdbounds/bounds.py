"""Certified error bounds for aggregated Markov chains.

Let ``p_t`` be the true transient distribution and ``p~_t = pi_t^T A`` the
aggregation's approximation.  With the per-aggregate defect vector
``v = |Theta A - A Q|_W`` (row-wise signed Wasserstein), its norm
``B = max(v)``, the curvature constants ``k_min <= kappa_min`` and the
defect constant ``K``, the error ``W(t) = W1(p~_t, p_t)`` satisfies

    dW/dt <= pi_t . v + K           and       dW/dt <= pi_t . v - rate * W

(``rate`` is ``k_min`` or ``kappa_min``).  Integrating yields the bound
family implemented here:

* ``bound_linear_K``            - ``W0 + t (B + K)``;
* ``bound_linear_K_timevarying``- ``W0 + integral(pi_s . v) + t K`` and its
  per-state refinement ``W0 + integral(pi_s . v + p~_s . K_loc)`` (variants
  ``timevarying`` and ``local``), both from one forward sweep of occupation
  times (below);
* ``bound_exponential``         - ``(W0 - B/rate) e^{-rate t} + B/rate``
  (``W0 + B t`` when the rate is zero);
* ``bound_hybrid``              - exact integration of the pointwise best
  derivative ``min(B + K, B - rate W)``: exponential early, linear once the
  exponential's slope would exceed ``B + K``.

The integrals have nonnegative rewards ``w`` (``v`` and ``v + A K_loc``),
and ``integral_0^t pi_s . w ds = o_t . w`` with ``o_t`` the aggregated chain's
expected occupation times.  Cumulative-reward uniformization (de Souza e
Silva & Gail, J. ACM 1989) gives, over each grid interval of length ``h``
started from ``pi``,

    o = lam^{-1} sum_{k<=K} P(N > k) pi P^k,      N ~ Poisson(lam h),

whose dropped tail has mass at most ``h P(N > K)`` (Fox & Glynn, CACM 1988).
The sweep goes grid point to grid point with one
:func:`~wdbounds.markov.transient_ctmc` call per interval, which returns the
law at the next point and the occupation from the same operators (cached
step operators ``sum_k P(N = k) P^k`` and ``sum_k P(N > k) P^k`` for a
chain of at most 16 states, the powers ``pi P^k`` for a larger one).
The law carries a total-variation error ``eps`` that costs at most
``max(w) h eps`` on the next interval.  The reported integral is the
truncated sum plus ``max(w)`` times the Poisson tails and the carried error,
so it is an upper bound by construction, not an estimate.  The exact curve
steps the full chain's law in the same sweep, once per grid interval.

All bounds are valid for every ``t`` in the requested grid; "clipped"
variants additionally cap values at the metric diameter, which is always a
valid upper bound for a Wasserstein distance between distributions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .aggregation import Aggregation, aggregate_initial, disaggregate
from .curvature import _check_aggregation, _check_chain, _k_constants, _kappa_min, k_matrix
from .errors import DimensionMismatch, NegativeTime, RateUnavailable
from .markov import (
    Generator,
    ProbVec,
    TransitionMatrix,
    transient_ctmc,
    transient_tv_budget,
    uniformize,
)
from .metric import Metric
from .transport import row_wasserstein_vector, wasserstein

__all__ = [
    "BoundInputs",
    "BoundCurve",
    "defect",
    "prepare_bound_inputs",
    "bound_linear_K",
    "bound_linear_K_timevarying",
    "bound_exponential",
    "bound_hybrid",
    "exact_error_curve",
    "time_grid",
    "compute_bound_curve",
]

#: Default number of grid points for bound curves.
GRID_POINTS = 200

def time_grid(horizon: float, points: int = GRID_POINTS) -> np.ndarray:
    """Uniform grid ``0..horizon`` with ``points`` entries."""
    if horizon < 0:
        raise NegativeTime(horizon)
    if not math.isfinite(horizon):
        raise ValueError(f"time horizon must be finite, got {horizon!r}")
    if isinstance(points, bool) or not isinstance(points, numbers.Integral):
        raise ValueError(f"grid points must be an integer, got {points!r}")
    if points < 2:
        raise ValueError(f"need at least two grid points, got {points}")
    return np.linspace(0.0, horizon, points)


def _check_grid(t_grid: np.ndarray) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.size == 0:
        raise ValueError("time grid is empty")
    if t[0] < 0:
        raise NegativeTime(float(t[0]))
    if not np.isfinite(t).all():
        raise ValueError("time grid contains non-finite entries")
    if (np.diff(t) < 0).any():
        raise ValueError("time grid must be nondecreasing")
    return t


def defect(
    chain: Generator | TransitionMatrix, metric: Metric, agg: Aggregation
) -> tuple[np.ndarray, float]:
    """Per-aggregate defect ``v`` and its max ``B``: ``|Theta A - A Q|_W`` of a
    CTMC :class:`Generator`, ``|Pi A - A P|_W`` of a DTMC :class:`TransitionMatrix`.

    ``agg`` must aggregate ``chain``'s states into a chain of its kind.  Rows
    of the difference sum to zero by construction, so each row has a finite
    signed Wasserstein value.
    """
    _check_aggregation(agg, type(chain), chain.n)
    attr = "q" if isinstance(chain, Generator) else "p"
    mat = getattr(agg.chain, attr) @ agg.a - agg.a @ getattr(chain, attr)
    v = row_wasserstein_vector(mat, metric)
    return v, float(v.max())


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound formulas need, computed once."""

    w0: float
    defect_vector: np.ndarray
    defect_norm: float
    k_min: float
    K: float
    d_max: float
    kappa_min: float | None = None
    K_local: np.ndarray | None = None

    def rate(self, which: str) -> float:
        """Contraction rate by name (``"k_min"`` or ``"kappa_min"``)."""
        if which == "k_min":
            return self.k_min
        if which == "kappa_min":
            if self.kappa_min is None:
                raise RateUnavailable(
                    "kappa_min was not computed; prepare inputs with with_kappa=True"
                )
            return self.kappa_min
        raise ValueError(f"unknown rate {which!r}; expected 'k_min' or 'kappa_min'")


def prepare_bound_inputs(
    gen: Generator,
    metric: Metric,
    agg: Aggregation,
    p0: ProbVec,
    with_kappa: bool = False,
) -> BoundInputs:
    """Assemble :class:`BoundInputs` for a partition-based CTMC aggregation.

    ``k_min``, ``K``, ``K_local`` and, with ``with_kappa``, the prefilter of
    ``kappa_min`` all come from one :func:`k_matrix`.
    """
    _check_chain(gen, metric, agg, ctmc=True)
    v, b = defect(gen, metric, agg)
    pi0 = aggregate_initial(p0, agg)
    w0 = wasserstein(disaggregate(pi0, agg), p0, metric, value_only=True).value
    kmat = k_matrix(gen, metric)
    kap = _kappa_min(gen, metric, kmat)[0] if with_kappa else None
    k_lo, k_glob, kloc = _k_constants(kmat, metric)
    return BoundInputs(
        w0=w0,
        defect_vector=v,
        defect_norm=b,
        k_min=k_lo,
        K=k_glob,
        d_max=metric.d_max,
        kappa_min=kap,
        K_local=kloc,
    )


def bound_linear_K(inputs: BoundInputs, t_grid: np.ndarray) -> np.ndarray:
    """Linear bound ``W0 + t (B + K)``."""
    return _linear(inputs, _check_grid(t_grid))


def _linear(inputs: BoundInputs, t: np.ndarray, rate: None = None) -> np.ndarray:
    return inputs.w0 + t * (inputs.defect_norm + inputs.K)


def bound_exponential(
    inputs: BoundInputs, t_grid: np.ndarray, rate: str = "k_min"
) -> np.ndarray:
    """Exponential bound from ``dW/dt <= B - rate * W``.

    Written as ``W0 e^{-rate t} + B (1 - e^{-rate t}) / rate`` with ``expm1``,
    so a rate at rounding level (``|rate| ~ 1e-16`` on a flat chain) gives the
    linear limit instead of cancelling ``B / rate`` against itself.  A term
    with a zero coefficient is zero even where ``e^{-rate t}`` overflows, so
    the result is ``+inf`` there, never ``0 * inf = nan``.
    """
    return _exponential(inputs, _check_grid(t_grid), rate)


def _exponential(inputs: BoundInputs, t: np.ndarray, rate: str) -> np.ndarray:
    kap = inputs.rate(rate)
    b = inputs.defect_norm
    w0 = inputs.w0
    if kap == 0.0:
        return w0 + b * t
    with np.errstate(over="ignore"):
        decay = w0 * np.exp(-kap * t) if w0 else np.zeros_like(t)
        growth = -b * np.expm1(-kap * t) / kap if b else np.zeros_like(t)
    return decay + growth


def bound_linear_K_timevarying(
    inputs: BoundInputs, agg: Aggregation, pi0: ProbVec, t_grid: np.ndarray
) -> dict[str, np.ndarray]:
    """Time-varying linear bounds from one forward sweep of occupation times.

    Returns ``{"timevarying": W0 + integral_0^t pi_s . v ds + t K}`` and, when
    ``inputs`` carries ``K_local`` (:func:`prepare_bound_inputs` always sets
    it), also ``{"local": W0 + integral_0^t pi_s . (v + A K_loc) ds}``
    (``p~_s . K_loc`` with ``p~_s = pi_s A``), where ``pi_s`` is the aggregated chain's law
    started from ``pi0``.  Both integrate against the same occupation curve:
    per grid interval of length ``h`` the truncated occupation series of
    :func:`~wdbounds.markov.transient_ctmc` plus ``max(w) * (tail + h eps)``,
    ``eps`` the total-variation budget carried by the forward-stepped
    ``pi``.  Each value is therefore an upper bound on the exact integral.
    ``inputs`` must be prepared for ``agg``: one defect entry per aggregate
    and, when given, one ``K_local`` entry per state that ``agg`` aggregates.
    """
    _check_aggregation(agg, Generator, None if inputs.K_local is None else inputs.K_local.size)
    if (size := inputs.defect_vector.size) != agg.m:
        raise DimensionMismatch(f"defect vector has {size} entries for {agg.m} aggregates")
    return _sweep(_check_grid(t_grid), agg, pi0, inputs)[0]


def _sweep(
    t: np.ndarray,
    agg: Aggregation,
    pi0: ProbVec,
    inputs: BoundInputs | None,
    exact: tuple[ProbVec, Generator, Metric, float | None] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """The bound pipeline's one forward sweep over a checked grid ``t``.

    Each grid point steps the aggregated law ``pi`` (from ``pi0``) with one
    :func:`transient_ctmc` call, which with ``inputs`` also returns the
    interval's occupation for the integral columns of
    :func:`bound_linear_K_timevarying` (else ``{}``).  With ``exact = (p0,
    gen, metric, w0)`` each point also steps the full chain's law ``p`` once
    and records ``W1(pi A, p)``.  A point equal to the one before it repeats
    that value, and ``t_0 = 0`` takes ``w0`` unless it is ``None``: the same
    solve on the same two laws.
    """
    theta, lam = agg.chain, uniformize(agg.chain)[1]
    occ = np.zeros((t.size, agg.m))  # cumulative truncated occupation at each t_i
    slack = np.zeros(t.size)  # its budget in time units: missing mass times duration
    curve = np.empty(t.size) if exact else None
    p, gen, metric, value = exact or (None, None, None, None)
    pi, acc, budget, tv, prev = pi0, np.zeros(agg.m), 0.0, 0.0, 0.0
    for i, ti in enumerate(t):
        h, prev = float(ti) - prev, float(ti)
        if inputs is None:
            pi = transient_ctmc(pi, theta, h)
        else:
            pi, part, tail = transient_ctmc(pi, theta, h, occupation=True)
            acc = acc + part
            budget += tail + h * tv
            tv += transient_tv_budget(lam * h)
            occ[i], slack[i] = acc, budget
        if exact:
            p = transient_ctmc(p, gen, h)
            if h > 0 or value is None:
                value = wasserstein(disaggregate(pi, agg), p, metric, value_only=True).value
            curve[i] = value
    if inputs is None:
        return {}, curve

    def integral(w: np.ndarray) -> np.ndarray:
        return occ @ w + float(w.max()) * slack

    v = inputs.defect_vector
    curves = [inputs.w0 + integral(v) + t * inputs.K]
    if inputs.K_local is not None:
        curves.append(inputs.w0 + integral(v + agg.a @ inputs.K_local))
    return dict(zip(_INTEGRALS, curves)), curve


def bound_hybrid(
    inputs: BoundInputs, t_grid: np.ndarray, rate: str = "k_min"
) -> np.ndarray:
    """Exact integral of the pointwise best derivative ``min(B + K, B - rate W)``.

    For a negative rate the exponential branch is steeper once ``W`` exceeds
    ``K / (-rate)``, so the curve follows the exponential until that level and
    a line of slope ``B + K`` afterwards; for a nonnegative rate the
    exponential branch is never worse.  The first part is :func:`bound_exponential`
    at ``min(t, t*)``, so ``t = 0`` gives ``W0`` exactly.  Dominated by both
    pure bounds.
    """
    return _hybrid(inputs, _check_grid(t_grid), rate)


def _hybrid(inputs: BoundInputs, t: np.ndarray, rate: str) -> np.ndarray:
    kap = inputs.rate(rate)
    b = inputs.defect_norm
    big_k = inputs.K
    w0 = inputs.w0
    if kap >= 0:
        return _exponential(inputs, t, rate)
    w_switch = big_k / (-kap)
    if w0 >= w_switch:
        return w0 + (b + big_k) * t
    amp = w0 - b / kap  # 0 only for B = W0 = 0, where the error stays at zero
    t_star = math.log((w_switch - b / kap) / amp) / (-kap) if amp > 0 else math.inf
    exp_part = _exponential(inputs, np.minimum(t, t_star), rate)
    lin_part = np.where(t > t_star, (t - t_star) * (b + big_k), 0.0)
    return exp_part + lin_part


#: Every bound variant: name -> (its closed form ``formula(inputs, t, rate)``, or ``None``
#: for a column of the one :func:`bound_linear_K_timevarying` sweep, the rate it reads,
#: whether it runs when none are named).  The sweep returns its columns in this order.
VARIANTS = {
    "linear": (_linear, None, True),
    "timevarying": (None, None, False),
    "exp-k": (_exponential, "k_min", True),
    "exp-kappa": (_exponential, "kappa_min", False),
    "local": (None, None, False),
    "hybrid": (_hybrid, "k_min", True),
    "hybrid-kappa": (_hybrid, "kappa_min", False),
}
DEFAULT_VARIANTS = tuple(name for name, (_, _, default) in VARIANTS.items() if default)
_INTEGRALS = tuple(name for name, (formula, _, _) in VARIANTS.items() if formula is None)


def exact_error_curve(
    p0: ProbVec,
    gen: Generator,
    metric: Metric,
    agg: Aggregation,
    t_grid: np.ndarray,
) -> np.ndarray:
    """The true aggregation error ``W1(p~_t, p_t)`` on a grid (reference curve).

    The aggregated chain starts from ``Lambda^T p_0``.  Both chains step
    forward from one grid point to the next in the bound pipeline's one sweep,
    so it never restarts at ``t = 0`` and holds only the two current laws.
    Each point is ``wasserstein(..., value_only=True)``: the solve on the
    supports of ``p~_t - p_t``, certified by the plan's margins and the dual
    gap, without the n x n coupling and potential.
    """
    _check_chain(gen, metric, agg, ctmc=True)
    t = _check_grid(t_grid)
    return _sweep(t, agg, aggregate_initial(p0, agg), None, (p0, gen, metric, None))[1]


@dataclass
class BoundCurve:
    """A family of bound curves on a common grid (plus the exact error, if computed)."""

    t: np.ndarray
    columns: dict[str, np.ndarray]
    d_max: float
    exact: np.ndarray | None = None

    def clipped(self) -> dict[str, np.ndarray]:
        """The same columns capped at the metric diameter (always a valid bound)."""
        return {name: np.minimum(vals, self.d_max) for name, vals in self.columns.items()}


def compute_bound_curve(
    gen: Generator,
    metric: Metric,
    agg: Aggregation,
    p0: ProbVec,
    t_grid: np.ndarray,
    variants: tuple[str, ...] = DEFAULT_VARIANTS,
    with_exact: bool = False,
) -> BoundCurve:
    """Evaluate the requested bound variants on a grid.

    Variant names are the keys of :data:`VARIANTS`; each at most once, and
    at least one, else ``ValueError``.  With ``with_exact``, one sweep steps
    both chains for the integral variants and the exact curve, whose value
    at ``t = 0`` is the inputs' ``W0``.
    """
    _check_chain(gen, metric, agg, ctmc=True)
    t = _check_grid(t_grid)
    bad = set(variants) - set(VARIANTS)
    if bad:
        raise ValueError(f"unknown bound variants: {sorted(bad)}")
    if not variants or len(set(variants)) < len(variants):
        raise ValueError(f"expected one or more distinct bound variants, got {list(variants)}")
    need_kappa = any(VARIANTS[name][1] == "kappa_min" for name in variants)
    inputs = prepare_bound_inputs(gen, metric, agg, p0, with_kappa=need_kappa)
    pi0 = aggregate_initial(p0, agg)
    wanted = inputs if set(_INTEGRALS) & set(variants) else None
    if with_exact:
        integrals, exact = _sweep(t, agg, pi0, wanted, (p0, gen, metric, inputs.w0))
    else:
        integrals = bound_linear_K_timevarying(inputs, agg, pi0, t) if wanted else {}
        exact = None
    columns: dict[str, np.ndarray] = {}
    for name in variants:
        formula, rate, _ = VARIANTS[name]
        columns[name] = integrals[name] if formula is None else formula(inputs, t, rate)
    return BoundCurve(t=t, columns=columns, d_max=metric.d_max, exact=exact)
