"""Validated chain objects, uniformization, and transient solutions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdbounds import markov
from wdbounds.errors import DimensionMismatch, IndexOutOfRange, NegativeTime
from wdbounds.markov import (
    Generator,
    ProbVec,
    TransitionMatrix,
    dirac,
    transient_ctmc,
    transient_dtmc,
    transient_tv_budget,
    uniformize,
)

from .oracles import transient_series

TOY_Q = np.array([[-1.0, 0.0, 1.0], [1.0, -4.0, 3.0], [0.0, 2.0, -2.0]])
TWO_STATE = np.array([[-2.0, 2.0], [2.0, -2.0]])

# Frozen from the arbitrary-precision Taylor-series oracle in oracles.py:
# transient of TOY_Q started from state 1, evaluated at t = 0.1.
TOY_T01_FROM_STATE1 = np.array(
    [0.90511153177009351, 0.0079731478060452079, 0.086915320423861159]
)


def test_probvec_validation():
    v = ProbVec(np.array([0.2, 0.3, 0.5]))
    assert v.n == 3 and v.p.sum() == 1.0
    with pytest.raises(ValueError):
        ProbVec(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ValueError):
        ProbVec(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ProbVec(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        ProbVec(np.array([]))
    # a rounding-level negative is clamped and the mass renormalized exactly
    v2 = ProbVec(np.array([0.5, 0.5 + 5e-13, -5e-13]))
    assert v2.p[2] == 0.0 and v2.p.sum() == 1.0
    with pytest.raises(ValueError):
        v.p[0] = 0.9  # stored array is read-only


def test_generator_validation_and_diagonal():
    g = Generator(TOY_Q)
    assert g.n == 3
    assert (g.q.sum(axis=1) == 0.0).all()  # diagonal recomputed exactly
    assert np.array_equal(g.row(2), [1.0, -4.0, 3.0])
    with pytest.raises(ValueError):
        Generator(np.array([[-1.0, 1.0], [-0.5, 0.5]]))  # negative rate
    with pytest.raises(ValueError):
        Generator(np.array([[-1.0, 2.0], [1.0, -1.0]]))  # row sum nonzero
    with pytest.raises(ValueError):
        Generator(np.zeros((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            Generator(np.array([[-bad, bad], [1.0, -1.0]]))
    with pytest.raises(ValueError):
        v = Generator(TOY_Q)
        v.q[0, 1] = 7.0  # stored array is read-only


def test_transition_matrix_validation():
    m = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert m.n == 2 and np.array_equal(m.row(1), [0.0, 1.0])
    with pytest.raises(ValueError, match="row 2"):
        TransitionMatrix(np.array([[0.5, 0.5], [0.7, 0.7]]))
    with pytest.raises(ValueError):
        TransitionMatrix(np.array([[1.5, -0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        TransitionMatrix(np.eye(3)[:2])


def test_dirac():
    v = dirac(3, 2)
    assert np.array_equal(v.p, [0.0, 1.0, 0.0])
    with pytest.raises(IndexOutOfRange):
        dirac(3, 0)
    with pytest.raises(IndexOutOfRange):
        dirac(3, 4)


def test_uniformize_toy():
    pmat, lam = uniformize(Generator(TOY_Q))
    assert isinstance(pmat, TransitionMatrix)
    assert lam == 4.0
    assert np.allclose(pmat.p, np.eye(3) + TOY_Q / 4.0, atol=1e-15)
    assert np.array_equal(pmat.row(2), [0.25, 0.0, 0.75])


def test_uniformize_two_state_and_zero_generator():
    pmat, lam = uniformize(Generator(TWO_STATE))
    assert lam == 2.0
    assert np.array_equal(pmat.p, [[0.0, 1.0], [1.0, 0.0]])
    pmat0, lam0 = uniformize(Generator(np.zeros((3, 3))))
    assert lam0 == 1.0
    assert np.array_equal(pmat0.p, np.eye(3))


def test_uniformize_builds_once_per_generator(monkeypatch):
    """A sweep of plain and occupation steps validates ``P`` once."""
    built = []

    class Counting(TransitionMatrix):
        def __post_init__(self) -> None:
            built.append(1)
            super().__post_init__()

    monkeypatch.setattr(markov, "TransitionMatrix", Counting)
    gen = Generator(TOY_Q)
    pi = dirac(3, 1)
    for _ in range(5):
        transient_ctmc(pi, gen, 0.3, occupation=True)
        pi = transient_ctmc(pi, gen, 0.3)
    assert len(built) == 1
    assert uniformize(gen) is uniformize(gen)
    assert len(built) == 1
    assert np.allclose(pi.p, transient_ctmc(dirac(3, 1), Generator(TOY_Q), 1.5).p, atol=1e-12)
    assert len(built) == 2  # a new generator is uniformized anew


def test_transient_two_state_closed_form():
    """Symmetric two-state chain: p_t(1) = 1/2 + (p_0(1) - 1/2) e^{-4t}."""
    gen = Generator(TWO_STATE)
    for a in (1.0, 0.3):
        p0 = ProbVec(np.array([a, 1.0 - a]))
        for t in (0.0, 0.05, 0.25, 0.51, 1.0, 3.0):
            got = transient_ctmc(p0, gen, t).p
            want1 = 0.5 + (a - 0.5) * math.exp(-4.0 * t)
            assert got[0] == pytest.approx(want1, abs=1e-9)
            assert got[1] == pytest.approx(1.0 - want1, abs=1e-9)


def test_transient_toy_frozen_oracle_value():
    got = transient_ctmc(dirac(3, 1), Generator(TOY_Q), 0.1).p
    assert np.allclose(got, TOY_T01_FROM_STATE1, atol=1e-11)
    # and the oracle reproduces its own frozen output
    fresh = transient_series(np.array([1.0, 0.0, 0.0]), TOY_Q, 0.1)
    assert np.allclose(fresh, TOY_T01_FROM_STATE1, atol=1e-13)


def test_transient_zero_time_and_errors():
    p0 = ProbVec(np.array([0.7, 0.2, 0.1]))
    gen = Generator(TOY_Q)
    assert np.array_equal(transient_ctmc(p0, gen, 0.0).p, p0.p)
    with pytest.raises(NegativeTime):
        transient_ctmc(p0, gen, -0.1)
    with pytest.raises(DimensionMismatch):
        transient_ctmc(ProbVec(np.array([0.5, 0.5])), gen, 1.0)


def test_transient_long_horizon_chunked():
    """lam * t = 600 exceeds one uniformization chunk; the chain is
    irreducible, so the result must sit at the stationary law (1,1,2)/4."""
    got = transient_ctmc(dirac(3, 1), Generator(TOY_Q), 150.0).p
    assert np.allclose(got, [0.25, 0.25, 0.5], atol=1e-10)
    # composing two half-horizons crosses the chunk boundary consistently
    gen = Generator(TOY_Q)
    p0 = ProbVec(np.array([0.1, 0.2, 0.7]))
    direct = transient_ctmc(p0, gen, 252.0).p
    halves = transient_ctmc(transient_ctmc(p0, gen, 126.0), gen, 126.0).p
    assert np.allclose(direct, halves, atol=1e-9)


def test_transient_poisson_mixture_identity():
    """Uniformization in closed form: p_t = sum_k Pois(lam t)(k) p_0 P^k."""
    gen = Generator(TOY_Q)
    p0 = ProbVec(np.array([0.3, 0.3, 0.4]))
    t = 0.7
    pmat, lam = uniformize(gen)
    lt = lam * t
    w = math.exp(-lt)
    acc = w * p0.p
    v = p0.p
    for k in range(1, 200):
        v = v @ pmat.p
        w *= lt / k
        acc = acc + w * v
    got = transient_ctmc(p0, gen, t).p
    assert np.allclose(got, acc, atol=1e-10)


def _two_state_occupation(h: float) -> np.ndarray:
    """Occupation of [0, h] for TWO_STATE from state 1: h/2 +- (1 - e^{-4h})/8."""
    swing = (1.0 - math.exp(-4.0 * h)) / 8.0
    return np.array([h / 2.0 + swing, h / 2.0 - swing])


@pytest.mark.parametrize("h", [0.05, 1.0, 40.0, 300.0])
def test_occupation_brackets_closed_form(h):
    """The truncated occupation lies below the closed form, and adding the
    tail budget to its total mass reaches the interval length; h = 300 is
    lam * h = 600, past one uniformization chunk.  The law comes from the
    same powers, so it is a plain call's law bit for bit."""
    law, occ, budget = transient_ctmc(dirac(2, 1), Generator(TWO_STATE), h, occupation=True)
    assert np.array_equal(law.p, transient_ctmc(dirac(2, 1), Generator(TWO_STATE), h).p)
    exact = _two_state_occupation(h)
    assert np.all(occ <= exact + 1e-12 * h)
    assert np.all(exact - occ <= budget + 1e-12 * h)
    assert occ.sum() + budget >= h * (1.0 - 1e-15)
    assert 0.0 <= budget <= 1e-12 * h


def test_occupation_matches_poisson_tail_series():
    """lam^{-1} sum_k P(N > k) p_0 P^k with the tail summed far past the cut."""
    gen = Generator(TOY_Q)
    p0 = ProbVec(np.array([0.3, 0.3, 0.4]))
    h = 0.7
    pmat, lam = uniformize(gen)
    lt = lam * h
    w = math.exp(-lt)
    cum = w
    acc = (1.0 - cum) * p0.p
    v = p0.p
    for k in range(1, 200):
        v = v @ pmat.p
        w *= lt / k
        cum += w
        acc = acc + (1.0 - cum) * v
    law, occ, _ = transient_ctmc(p0, gen, h, occupation=True)
    assert np.allclose(occ, acc / lam, atol=1e-12)
    assert np.array_equal(law.p, transient_ctmc(p0, gen, h).p)


def test_occupation_zero_length_and_errors():
    gen = Generator(TOY_Q)
    p0 = ProbVec(np.array([0.7, 0.2, 0.1]))
    law, occ, budget = transient_ctmc(p0, gen, 0.0, occupation=True)
    assert law is p0
    assert np.array_equal(occ, np.zeros(3)) and budget == 0.0
    with pytest.raises(NegativeTime):
        transient_ctmc(p0, gen, -1.0, occupation=True)
    with pytest.raises(DimensionMismatch):
        transient_ctmc(ProbVec(np.array([0.5, 0.5])), gen, 1.0, occupation=True)


@pytest.mark.parametrize("t", [math.inf, math.nan, 1e308])
def test_non_finite_time_is_rejected(t):
    """``inf - 500 = inf`` would chunk forever, ``nan`` yields no chunk, and
    ``lam * 1e308`` overflows to ``inf`` (``lam = 4``)."""
    gen = Generator(TOY_Q)
    p0 = ProbVec(np.array([0.7, 0.2, 0.1]))
    with pytest.raises(ValueError, match="finite"):
        transient_ctmc(p0, gen, t)
    with pytest.raises(ValueError, match="finite"):
        transient_ctmc(p0, gen, t, occupation=True)


def test_transient_tv_budget_counts_chunks():
    assert transient_tv_budget(0.0) == 0.0
    assert transient_tv_budget(1.0) == transient_tv_budget(500.0) == 1e-12
    assert transient_tv_budget(600.0) == 2e-12


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_transient_semigroup(n, seed):
    """p_{s+t} equals the t-transient started from p_s."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    gen = Generator(q)
    p0 = ProbVec(rng.dirichlet(np.ones(n)))
    s, t = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 1.5))
    lhs = transient_ctmc(p0, gen, s + t).p
    rhs = transient_ctmc(transient_ctmc(p0, gen, s), gen, t).p
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_transient_dtmc_parity_and_validation():
    flip = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    p0 = dirac(2, 1)
    assert np.array_equal(transient_dtmc(p0, flip, 0).p, [1.0, 0.0])
    assert np.array_equal(transient_dtmc(p0, flip, 7).p, [0.0, 1.0])
    assert np.array_equal(transient_dtmc(p0, flip, 8).p, [1.0, 0.0])
    assert np.array_equal(transient_dtmc(p0, flip, np.int64(3)).p, [0.0, 1.0])
    with pytest.raises(ValueError):
        transient_dtmc(p0, flip, True)
    with pytest.raises(ValueError):
        transient_dtmc(p0, flip, 1.5)
    with pytest.raises(NegativeTime):
        transient_dtmc(p0, flip, -1)
    with pytest.raises(DimensionMismatch):
        transient_dtmc(dirac(3, 1), flip, 1)


def test_transient_dtmc_matches_matrix_power():
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(4), size=4)
    pmat = TransitionMatrix(p)
    p0 = ProbVec(rng.dirichlet(np.ones(4)))
    got = transient_dtmc(p0, pmat, 7).p
    want = p0.p @ np.linalg.matrix_power(pmat.p, 7)
    assert np.allclose(got, want, atol=1e-12)


def _reference_transient_chunk(p, pmat, lt, occupation=False):
    """The uniformization chunk as it was before the Krylov block.

    Frozen reference: one product ``v @ P`` per term, each term added to
    the running sums as soon as its Poisson weight is known.
    """
    w = math.exp(-lt)
    acc = w * p
    cum = w
    occ = (1.0 - cum) * p if occupation else None
    v = p
    for k in range(1, markov._poisson_step_count(lt) + 1):
        v = v @ pmat
        w *= lt / k
        acc = acc + w * v
        cum += w
        if occupation:
            occ = occ + (1.0 - cum) * v
        if 1.0 - cum < markov.POISSON_TAIL:
            break
    return acc, occ, max(0.0, 1.0 - cum)


@given(
    st.integers(1, 12),
    st.floats(math.log(1e-3), math.log(500.0)),
    st.booleans(),
    st.integers(0, 10_000),
)
@settings(max_examples=300, deadline=None)
def test_transient_chunk_matches_the_term_by_term_loop_bit_for_bit(n, log_lt, occupation, seed):
    """The Krylov block sums the same terms in the same order as the frozen
    loop, so the law, the occupation and the dropped mass are equal bit for
    bit, also on one state, whose one-column block numpy would sum pairwise,
    and also when the Poisson weights come from the cache (read-only, so
    no caller can change them for the next)."""
    rng = np.random.default_rng(seed)
    pmat = rng.random((n, n)) * (rng.random((n, n)) < 0.6) + np.eye(n) * 1e-3
    pmat /= pmat.sum(axis=1, keepdims=True)
    p = rng.dirichlet(np.ones(n))
    lt = math.exp(log_lt)
    ref = _reference_transient_chunk(p, pmat, lt, occupation)
    for _ in range(2):
        got = markov._transient_chunk(p, pmat, lt, occupation)
        assert np.array_equal(got[0], ref[0])
        assert got[2] == ref[2]
        if occupation:
            assert np.array_equal(got[1], ref[1])
        else:
            assert got[1] is None
    weights, tails, _ = markov._poisson_weights(lt)
    assert not weights.flags.writeable and not tails.flags.writeable
