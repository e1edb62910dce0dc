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


def _reference_chunk_operators(pmat, lt, occupation=False):
    """The step operators of one chunk, summed term by term.

    Frozen reference: one product ``P^a @ P^{k-a}`` per term, with ``a`` the
    largest power of two below ``k``, each term added to the running sums as
    soon as its Poisson weight is known.
    """
    w = math.exp(-lt)
    powers = [np.eye(pmat.shape[0]), pmat]
    law = w * powers[0]
    cum = w
    occ = (1.0 - cum) * powers[0] if occupation else None
    for k in range(1, markov._poisson_step_count(lt) + 1):
        if k >= 2:
            a = 1 << ((k - 1).bit_length() - 1)
            powers.append(powers[a] @ powers[k - a])
        w *= lt / k
        law = law + w * powers[k]
        cum += w
        if occupation:
            occ = occ + (1.0 - cum) * powers[k]
        if 1.0 - cum < markov.POISSON_TAIL:
            break
    return law, occ, max(0.0, 1.0 - cum)


def _random_stochastic(rng, n):
    pmat = rng.random((n, n)) * (rng.random((n, n)) < 0.6) + np.eye(n) * 1e-3
    return pmat / pmat.sum(axis=1, keepdims=True)


def _random_generator(rng, n):
    q = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return Generator(q)


@given(
    st.integers(1, markov.OPERATOR_STATES),
    st.floats(math.log(1e-3), math.log(500.0)),
    st.booleans(),
    st.integers(0, 10_000),
)
@settings(max_examples=150, deadline=None)
def test_chunk_operators_match_the_term_by_term_loop_bit_for_bit(n, log_lt, occupation, seed):
    """The doubling block forms each power by the same product as the frozen
    loop and sums the terms in the same order, so both operators and the
    dropped mass are equal bit for bit, also on one state, and the
    operators are read-only."""
    pmat = _random_stochastic(np.random.default_rng(seed), n)
    lt = math.exp(log_lt)
    law, occ, dropped = markov._chunk_operators(pmat, lt, occupation)
    ref = _reference_chunk_operators(pmat, lt, occupation)
    assert np.array_equal(law, ref[0])
    assert dropped == ref[2] == markov._poisson_weights(lt)[2]
    assert not law.flags.writeable
    if occupation:
        assert np.array_equal(occ, ref[1])
        assert not occ.flags.writeable
    else:
        assert occ is None


@given(
    st.integers(1, markov.OPERATOR_STATES),
    st.floats(math.log(1e-3), math.log(500.0)),
    st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_chunk_operators_agree_with_the_krylov_block(n, log_lt, seed):
    """``p M`` and ``p O`` are the Krylov block's sums in another order.

    Every term is nonnegative, and each route forms a term with at most
    ``k n + 1`` roundings (a power of ``P`` or of ``p P``, then its weight)
    and adds ``K + 1`` terms, then ``p M`` adds ``n`` more.  Each result
    is therefore within a factor ``1 +- gamma_N``, ``N = (K + 1)(n + 1)``,
    of the exact sum of the same terms, and two results differ by at most
    ``2.01 N u`` of the larger, ``u = 2^-53``, plus ``N`` least subnormals
    for terms that underflow.
    """
    rng = np.random.default_rng(seed)
    pmat = _random_stochastic(rng, n)
    p = rng.dirichlet(np.ones(n))
    lt = math.exp(log_lt)
    law, occ, dropped = markov._chunk_operators(pmat, lt, occupation=True)
    ref = markov._transient_chunk(p, pmat, lt, occupation=True)
    big_n = markov._poisson_weights(lt)[0].size * (n + 1)
    for got, want in ((p @ law, ref[0]), (p @ occ, ref[1])):
        bound = 2.01 * big_n * 2.0**-53 * np.maximum(got, want) + big_n * 5e-324
        assert np.all(np.abs(got - want) <= bound)
    assert dropped == ref[2]


def test_operator_path_does_not_depend_on_the_cache():
    """A call returns the same bits on a fresh generator, on a warm one, after
    a plain call cached the step without its occupation operator, and after
    the step was evicted by ``OPERATOR_CACHE`` other steps."""
    rng = np.random.default_rng(7)
    q = _random_generator(rng, 6).q
    p0 = ProbVec(rng.dirichlet(np.ones(6)))
    lam = uniformize(Generator(q))[1]

    def calls(gen):
        law = transient_ctmc(p0, gen, 0.3)
        law_occ, occ, budget = transient_ctmc(p0, gen, 0.3, occupation=True)
        long = transient_ctmc(p0, gen, 700.0 / lam, occupation=True)  # a 500-chunk and 200
        return [law.p, law_occ.p, occ, np.array([budget]), long[0].p, long[1], np.array([long[2]])]

    fresh = calls(Generator(q))
    gen = Generator(q)
    assert not gen._operators
    first = calls(gen)
    assert len(gen._operators) == 3
    warm = calls(gen)
    for k in range(markov.OPERATOR_CACHE):
        transient_ctmc(p0, gen, 0.001 * (k + 1), occupation=True)
    assert lam * 0.3 not in gen._operators and len(gen._operators) == markov.OPERATOR_CACHE
    evicted = calls(gen)
    np.testing.assert_array_equal(fresh[0], fresh[1])  # the occupation leaves the law alone
    for run in (first, warm, evicted):
        for got, want in zip(run, fresh):
            np.testing.assert_array_equal(got, want)


def test_chains_above_the_threshold_keep_the_krylov_block_bit_for_bit():
    """A chain of ``OPERATOR_STATES + 1`` states steps every chunk through
    :func:`_transient_chunk`, as before step operators, and caches none."""
    n = markov.OPERATOR_STATES + 1
    rng = np.random.default_rng(3)
    gen = _random_generator(rng, n)
    p0 = ProbVec(rng.dirichlet(np.ones(n)))
    pmat, lam = uniformize(gen)
    t = 650.0 / lam  # a 500-chunk and 150
    v, occ, budget, missing = p0.p, np.zeros(n), 0.0, 0.0
    for lt in (500.0, lam * t - 500.0):
        v, part, tail = markov._transient_chunk(v, pmat.p, lt, occupation=True)
        occ += part / lam
        budget += (lt / lam) * (missing + tail)
        missing += tail
    law, got_occ, got_budget = transient_ctmc(p0, gen, t, occupation=True)
    np.testing.assert_array_equal(law.p, v / v.sum())
    np.testing.assert_array_equal(transient_ctmc(p0, gen, t).p, law.p)
    np.testing.assert_array_equal(got_occ, occ)
    assert got_budget == budget
    assert not gen._operators


def test_long_horizon_reaches_the_stationary_law_with_one_build_per_step(monkeypatch):
    """At t = 1e6 the toy chain (lam = 4) runs 8,000 chunks of lam t = 500,
    all from one operator; a horizon with a remainder builds one more.  Its
    law is the stationary (1, 1, 2)/4 within the truncation budget plus
    rounding: each chunk is one vector product of ``n`` terms."""
    builds = []
    build = markov._chunk_operators

    def counting(pmat, lt, occupation=False):
        builds.append(lt)
        return build(pmat, lt, occupation)

    monkeypatch.setattr(markov, "_chunk_operators", counting)
    gen = Generator(TOY_Q)
    stationary = np.array([0.25, 0.25, 0.5])
    for t, steps in ((1e6, [500.0]), (1e6 + 0.1, [500.0, 4 * (1e6 + 0.1) - 8000 * 500.0])):
        law = transient_ctmc(dirac(3, 1), gen, t).p
        assert builds == steps
        lt = 4 * t
        chunks = math.ceil(lt / markov.CHUNK_LT)
        rounding = chunks * (3 + 2) * 2.0**-52
        assert 0.5 * np.abs(law - stationary).sum() <= transient_tv_budget(lt) + rounding
