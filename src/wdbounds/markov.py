"""Finite Markov chains: validated vectors/matrices and transient solutions.

Continuous-time chains are given by a generator matrix ``Q`` (nonnegative
off-diagonal rates, zero row sums); discrete-time chains by a row-stochastic
matrix ``P``.  Transient distributions of a CTMC are computed by
uniformization, which reduces matrix exponentials to a Poisson-weighted sum
of powers of a stochastic matrix and allows an explicit truncation-error
budget (total-variation error at most ``1e-12`` per chunk here).  The same
series, with Poisson tail probabilities as weights, gives the expected
occupation times over the same interval from the same powers, from below
and with an explicit budget for the dropped tail (``occupation=True``).
A chain of at most 16 states sums the powers of ``P`` itself instead
(formed by doubling), into step operators that are cached per step length
and applied as one vector product each (Moler & Van Loan, SIAM Review 2003,
on series methods); a larger chain sums the powers of its start law.  Either way the truncated
sums and their budgets are the same (:func:`transient_ctmc`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NegativeTime

__all__ = [
    "ProbVec",
    "Generator",
    "TransitionMatrix",
    "dirac",
    "uniformize",
    "transient_ctmc",
]

#: Largest negative entry that is treated as a rounding artefact and clamped.
CLAMP_TOL = 1e-12
#: Allowed deviation of a probability mass (or generator row sum) from its target.
SUM_TOL = 1e-9
#: Total-variation budget of a transient CTMC solution, per chunk.
TRANSIENT_TOL = 1e-12
#: The Poisson series of a chunk stops once its remaining mass is below this.
POISSON_TAIL = 1e-13
#: Largest ``lam * t`` of one uniformization chunk (``exp(-500)`` is a normal double).
CHUNK_LT = 500.0
#: Chains with at most this many states step through cached step operators.
OPERATOR_STATES = 16
#: Step operators kept per generator, keyed by ``lam * h``; the least recently
#: used is dropped first.
OPERATOR_CACHE = 16


def _clean_distribution(p: np.ndarray, what: str) -> np.ndarray:
    """The package's one probability gate: ``p`` is a distribution, or one per
    row (``<what> row <r>`` in messages).  Entries below ``-CLAMP_TOL`` are
    refused and other negatives set to 0; a row whose mass is not within
    ``SUM_TOL`` of 1, NaN and infinite entries included, is refused; each row
    is then divided by its mass.

    One minimum decides both refusal and clamping, so a clean law costs a
    minimum, a sum and a division.  The tests are written ``not ... >=`` so
    that a NaN minimum takes both paths: a NaN beside an entry below
    ``-CLAMP_TOL`` is refused for that entry, and a NaN alone by the mass test."""
    lowest = float(p.min(initial=np.inf))  # inf on an empty row: its mass is 0
    if not lowest >= -CLAMP_TOL:
        low = p < -CLAMP_TOL
        if low.any():
            *row, i = np.argwhere(low)[0]
            name = f"{what} row {row[0] + 1}" if row else what
            raise ValueError(
                f"{name} has negative entry {float(p[(*row, i)])!r} at position {i + 1}"
            )
    if not lowest >= 0:
        p = np.where(p < 0, 0.0, p)
    if p.ndim == 1:  # in Python floats: a ProbVec is built at every transient step
        total = float(p.sum())
        if abs(total - 1.0) <= SUM_TOL:
            return p / total
        raise ValueError(f"{what} sums to {total!r}, expected 1")
    totals = p.sum(axis=1)
    ok = np.abs(totals - 1.0) <= SUM_TOL
    if ok.all():
        return p / totals[:, None]
    r = int(np.argmin(ok))
    raise ValueError(f"{what} row {r + 1} sums to {float(totals[r])!r}, expected 1")


def _row_supports(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nonzero columns first, in column order (a stable sort), and
    their entries, padded with zero entries up to the longest row: two
    ``(rows, width)`` arrays ``cols`` and ``vals = mat[row, cols]``."""
    rows, n = mat.shape
    zero = mat == 0
    width = n - int(zero.sum(axis=1).min(initial=n))
    cols = np.argsort(zero, axis=1, kind="stable")[:, :width]
    return cols, mat[np.arange(rows)[:, None], cols]


@dataclass(frozen=True)
class ProbVec:
    """A probability distribution over states ``1..n``, passed by :func:`_clean_distribution`."""

    p: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability vector must be a nonempty 1-d array")
        p = _clean_distribution(p, "probability vector")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", p.size)


@dataclass(frozen=True)
class Generator:
    """A CTMC generator: finite entries, nonnegative off-diagonal rates, zero row sums.

    The diagonal is recomputed as minus the off-diagonal row sum, so row
    sums are exactly zero; the input diagonal must agree within ``1e-9``.
    """

    q: np.ndarray
    n: int = field(init=False)
    #: The record of the lattice walk :func:`wdbounds.models.translation_invariant_ctmc`
    #: built this generator from (private, set by that function only); a
    #: generator built from a matrix has none.
    _walk: object = field(default=None, init=False, repr=False, compare=False)
    #: The step operators of :func:`transient_ctmc` by ``lam * h``
    #: (:func:`_step_operators`), at most ``OPERATOR_CACHE`` of them.
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = np.ascontiguousarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
            raise ValueError(f"generator must be square and nonempty, got shape {q.shape}")
        if not np.isfinite(q).all():
            r, s = np.argwhere(~np.isfinite(q))[0]
            raise ValueError(
                f"generator entry Q({r + 1},{s + 1})={float(q[r, s])!r} is not finite"
            )
        n = q.shape[0]
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if (off < -CLAMP_TOL).any():
            r, s = np.argwhere(off < -CLAMP_TOL)[0]
            raise ValueError(
                f"off-diagonal rate Q({r + 1},{s + 1})={q[r, s]!r} is negative"
            )
        off = np.where(off < 0, 0.0, off)
        rowsum = off.sum(axis=1)
        if (np.abs(np.diagonal(q) + rowsum) > SUM_TOL * np.maximum(1.0, rowsum)).any():
            r = int(np.argmax(np.abs(np.diagonal(q) + rowsum)))
            raise ValueError(
                f"row {r + 1} of the generator sums to {q[r].sum()!r}, expected 0"
            )
        q = off
        q[np.diag_indices(n)] = -rowsum
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)

    def row(self, r: int) -> np.ndarray:
        """Row of 1-based state ``r``."""
        return self.q[r - 1]

    @cached_property
    def uniformized(self) -> tuple[TransitionMatrix, float]:
        """``(P, lam)`` of :func:`uniformize`, built and validated once per generator."""
        lam = float(np.max(-np.diagonal(self.q)))
        if lam <= 0.0:
            lam = 1.0
        return TransitionMatrix(np.eye(self.n) + self.q / lam), lam

    @cached_property
    def row_supports(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_row_supports` of ``q``, built once per generator."""
        return _row_supports(self.q)


@dataclass(frozen=True)
class TransitionMatrix:
    """A row-stochastic matrix; all rows pass :func:`_clean_distribution` at once."""

    p: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
            raise ValueError(f"transition matrix must be square and nonempty, got shape {p.shape}")
        p = _clean_distribution(p, "transition matrix")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", p.shape[0])

    def row(self, r: int) -> np.ndarray:
        """Row of 1-based state ``r``."""
        return self.p[r - 1]

    @cached_property
    def row_supports(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_row_supports` of ``p``, built once per matrix."""
        return _row_supports(self.p)


def dirac(n: int, r: int) -> ProbVec:
    """Point mass on 1-based state ``r`` of an ``n``-state space."""
    if not (1 <= r <= n):
        raise IndexOutOfRange(r, n)
    p = np.zeros(n)
    p[r - 1] = 1.0
    return ProbVec(p)


def uniformize(gen: Generator) -> tuple[TransitionMatrix, float]:
    """Uniformization ``P = I + Q/lam`` with ``lam`` the largest exit rate.

    For the zero generator ``lam = 1`` (any positive rate works; the choice
    is fixed for determinism) and ``P`` is the identity.  The pair is cached
    on the (immutable) generator, so a time sweep builds and validates ``P``
    once.
    """
    return gen.uniformized


def _poisson_step_count(lt: float) -> int:
    """Truncation point for the Poisson(lt) series with tail below 1e-13."""
    return int(math.ceil(lt + 40.0 * math.sqrt(lt + 1.0) + 50.0))


def _transient_chunk(
    p: np.ndarray, pmat: np.ndarray, lt: float, occupation: bool = False
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """One uniformization chunk of ``lt = lam * h`` (small enough that
    ``exp(-lt)`` is comfortably inside double range).

    With ``N ~ Poisson(lt)`` it returns the truncated sums
    ``sum_{k<=K} P(N = k) p P^k`` (the law at ``h``) and, if ``occupation``,
    ``sum_{k<=K} P(N > k) p P^k`` (``lam`` times the occupation of ``[0, h]``),
    plus the dropped Poisson mass ``1 - sum_{k<=K} P(N = k)``.  Every dropped
    term is nonnegative, so both sums are entrywise below the series.

    The weights come first (:func:`_poisson_weights`) and fix ``K``.  The
    powers ``p P^k`` then fill one ``(K + 1, n)`` block, one product each,
    and the block is summed by :func:`_series_sums`.
    """
    weights, tails, dropped = _poisson_weights(lt)
    powers = np.empty((weights.size, p.size))
    powers[0] = p
    for k in range(1, weights.size):
        np.dot(powers[k - 1], pmat, out=powers[k])
    return (*_series_sums(powers, weights, tails, occupation), dropped)


def _series_sums(
    powers: np.ndarray, weights: np.ndarray, tails: np.ndarray, occupation: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``sum_k weights[k] powers[k]`` and, if ``occupation``, ``sum_k tails[k]
    powers[k]``, each one sum over the block's rows in the order ``k = 0, 1,
    ..., K`` (:func:`_row_ordered_sum`): term for term the sums of a loop
    that adds one power at a time.  A term is a vector or a matrix."""
    flat = powers.reshape(weights.size, -1)
    law = _row_ordered_sum(weights * flat).reshape(powers.shape[1:])
    occ = _row_ordered_sum(tails * flat).reshape(powers.shape[1:]) if occupation else None
    return law, occ


def _chunk_operators(pmat: np.ndarray, lt: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The step operators of one chunk ``lt``: ``M = sum_{k<=K} P(N = k)
    P^k`` and ``O = sum_{k<=K} P(N > k) P^k``, as read-only ``(n, n)``
    arrays, with the dropped mass, all from the same weights as
    :func:`_transient_chunk` and summed by :func:`_series_sums`.

    The powers fill one ``(K + 1, n, n)`` block by doubling: once ``P^0 ..
    P^{m-1}`` are known, one batched product ``P^{m-1} P^j``, ``j = 1 ..
    min(m - 1, K + 1 - m)``, gives the next ones.  So ``P^k``, ``k >= 2``,
    is ``P^a P^{k-a}`` with ``a`` the largest power of two below ``k``, and
    ``K`` powers take ``ceil(log2 K) + 1`` calls instead of ``K``.
    """
    weights, tails, dropped = _poisson_weights(lt)
    n = pmat.shape[0]
    powers = np.empty((weights.size, n, n))
    powers[0] = np.eye(n)
    powers[1:2] = pmat
    m = 2
    while m < weights.size:
        c = min(m - 1, weights.size - m)
        np.matmul(powers[m - 1], powers[1 : c + 1], out=powers[m : m + c])
        m += c
    law, occ = _series_sums(powers, weights, tails, True)
    law.setflags(write=False)
    occ.setflags(write=False)
    return law, occ, dropped


def _step_operators(gen: Generator, lt: float) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_chunk_operators` of ``gen``'s uniformized matrix, cached on
    ``gen`` by ``lt``.  A build depends on ``P`` and ``lt`` alone, so a hit,
    a miss and a rebuild after eviction return the same bits."""
    cache = gen._operators
    ops = cache.pop(lt, None)  # reinserted below: the most recently used is last
    if ops is None:
        ops = _chunk_operators(uniformize(gen)[0].p, lt)
    cache[lt] = ops
    if len(cache) > OPERATOR_CACHE:
        del cache[next(iter(cache))]
    return ops


@lru_cache(maxsize=256)
def _poisson_weights(lt: float) -> tuple[np.ndarray, np.ndarray, float]:
    """``P(N = k)`` and ``P(N > k)`` for ``N ~ Poisson(lt)``, ``k = 0..K``, as
    read-only ``(K + 1, 1)`` columns, and the dropped mass ``1 - sum_{k<=K}
    P(N = k)``.

    They are summed as Python floats, and the series stops once the
    remaining Poisson mass is below ``POISSON_TAIL``.  They depend on ``lt``
    alone, and a time grid steps by the same ``lam * h`` again and again, so
    they are cached.
    """
    w = math.exp(-lt)
    cum = w
    weights = [w]  # P(N = k)
    tails = [1.0 - cum]  # P(N > k)
    for k in range(1, _poisson_step_count(lt) + 1):
        w *= lt / k
        cum += w
        weights.append(w)
        tails.append(1.0 - cum)
        if 1.0 - cum < POISSON_TAIL:
            break
    weight_col = np.array(weights)[:, None]
    tail_col = np.array(tails)[:, None]
    weight_col.setflags(write=False)
    tail_col.setflags(write=False)
    return weight_col, tail_col, max(0.0, 1.0 - cum)


def _row_ordered_sum(terms: np.ndarray) -> np.ndarray:
    """``terms[0] + terms[1] + ...`` added in row order.

    numpy reduces a C-contiguous block over its rows one row at a time, but
    a block of one column is a contiguous vector, which it sums pairwise;
    that one is accumulated in order instead.
    """
    if terms.shape[1] == 1:
        return np.cumsum(terms, axis=0)[-1]
    return terms.sum(axis=0)


def _check_start(p0: ProbVec, gen: Generator, t: float) -> None:
    if t < 0:
        raise NegativeTime(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if p0.n != gen.n:
        raise DimensionMismatch(
            f"initial distribution has {p0.n} states but generator has {gen.n}"
        )


def _chunks(lt: float):
    """Split ``lam * t`` into pieces of at most ``CHUNK_LT``.  An ``lt``
    whose :func:`transient_tv_budget` is 1 or more is refused before any
    piece: a total-variation error is at most 1, so that budget certifies
    nothing."""
    if not math.isfinite(lt):  # a finite t can overflow lam * t
        raise ValueError(f"lam * t must be finite, got {lt!r}")
    if lt > CHUNK_LT and transient_tv_budget(lt) >= 1.0:  # one chunk's budget is far below 1
        raise ValueError(
            f"lam * t = {lt:.6g} is too long: its total-variation budget"
            f" {transient_tv_budget(lt):.3g} is not below 1"
        )
    while lt > 0:
        piece = min(lt, CHUNK_LT)
        yield piece
        lt -= piece


def transient_tv_budget(lt: float) -> float:
    """Total-variation budget of :func:`transient_ctmc` over ``lam * t = lt``."""
    return TRANSIENT_TOL * math.ceil(lt / CHUNK_LT)


def transient_ctmc(
    p0: ProbVec, gen: Generator, t: float, occupation: bool = False
) -> ProbVec | tuple[ProbVec, np.ndarray, float]:
    """Distribution at time ``t`` of the CTMC started from ``p0``, and with
    ``occupation`` also the expected time spent in each state during ``[0, t]``.

    Uniformization with the Poisson series truncated once its tail is below
    ``1e-13``; horizons with ``lam * t`` beyond 500 are split into chunks so
    the leading Poisson weight stays representable.  The result, a sum of
    nonnegative terms, is renormalized, keeping the total-variation error within ``1e-12`` per
    chunk (:func:`transient_tv_budget`).  A ``lam * t`` whose budget reaches
    1, from about ``5e14`` on, raises ``ValueError`` before any chunk runs.

    With ``occupation`` it returns ``(law, occ, budget)``.  The occupation is
    cumulative-reward uniformization (de Souza e Silva & Gail, J. ACM 1989):
    with ``P = I + Q/lam`` and ``N ~ Poisson(lam t)``,

        integral_0^t p0 e^{sQ} ds = lam^{-1} sum_k P(N > k) p0 P^k,

    summed over the same powers as the law, so the law is bit for bit the one
    of a plain call.  The dropped terms are nonnegative and their total mass
    is at most ``t P(N > K)`` per chunk (Fox & Glynn, CACM 1988), since
    ``sum_{k>K} P(N > k) <= E[N; N > K + 1] = lam t P(N > K)``; a later chunk
    also starts from a law that lacks the earlier chunks' tails.  So for
    every reward ``w >= 0``

        occ . w  <=  integral_0^t (p0 e^{sQ}) . w ds  <=  occ . w + max(w) * budget.

    How a chunk is applied depends on ``n`` alone, never on what is cached.
    A chain of more than ``OPERATOR_STATES`` (16) states sums the powers
    ``p P^k`` of its start law (:func:`_transient_chunk`).  A smaller chain
    applies the chunk's step operators ``M = sum_k P(N = k) P^k`` and, with
    ``occupation``, ``O = sum_k P(N > k) P^k`` (:func:`_chunk_operators`):
    one vector product each.  They are the same truncated sums with the same
    dropped mass, so every budget above holds unchanged.  Both operators are
    built together and cached on the generator by ``lam * h``
    (:func:`_step_operators`, at most ``OPERATOR_CACHE`` per chain, ``2 n^2``
    floats each), so a grid that repeats its step, or a long horizon of many
    500-chunks, builds each once.  The threshold is a cost model.  A build
    forms the ``K`` powers ``P^k`` by doubling, in about ``log2 K`` batched
    products (:func:`_chunk_operators`), where the vector block makes ``K``
    vector products; its arithmetic is ``K`` products of ``n x n`` matrices.
    Measured with one BLAS thread on a 2-core x86-64 host (``np.dot`` into
    a block row), one such product costs 1.0 vector products at ``n = 3``,
    1.1 at 10, 1.2 at 16, 2.2 at 24, 9 at 64 and 84 at 324.  A build (both
    operators) costs, in vector blocks of the same chunk, 0.8
    at ``n = 3``, 0.9 at 10, 1.0-1.4 at 16, 1.8-2.4 at 24 and 26-38 at 64
    for ``lam h = 4`` (``K = 26``), 0.16, 0.4, 2.4 and 7 at 3, 10, 16 and
    24 for ``lam h = 500``, and 1 to 1.5 up to 16 states for ``lam h =
    0.25`` (``K = 10``).  So up to 16 states a step pays for its build once
    it repeats one to three times, while the build's ``n^3`` arithmetic
    soon outgrows any repeats above.
    """
    _check_start(p0, gen, t)
    occ, budget = (np.zeros(gen.n), 0.0) if occupation else (None, None)
    if t == 0:
        return (p0, occ, budget) if occupation else p0
    pmat, lam = uniformize(gen)
    v = p0.p
    missing = 0.0  # mass the chunk's start law lacks
    for lt in _chunks(lam * t):
        if gen.n <= OPERATOR_STATES:
            law_op, occ_op, tail = _step_operators(gen, lt)
            v, part = v @ law_op, (v @ occ_op if occupation else None)
        else:
            v, part, tail = _transient_chunk(v, pmat.p, lt, occupation)
        if occupation:
            occ += part / lam
            budget += (lt / lam) * (missing + tail)
            missing += tail
    law = ProbVec(v / v.sum())
    return (law, occ, budget) if occupation else law

