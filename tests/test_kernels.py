"""The transport kernel against a frozen copy of an earlier version."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdbounds import _kernels


def _reference_transport_loop(cost, p, q, tol, max_iter):
    """The transportation simplex as it was before the one-walk rewrite.

    Frozen reference: the north-west-corner start, potentials by repeated
    sweeps over the basis edges, and the entering cycle by a breadth-first
    search over an adjacency array rebuilt each pivot.  Same pricing and
    ratio test as :func:`wdbounds._kernels.transport_loop`, which starts
    from the matrix minimum instead.
    """
    n = p.shape[0]
    m = q.shape[0]
    nb = n + m - 1
    gamma = np.zeros((n, m))
    bi = np.empty(nb, dtype=np.int64)
    bj = np.empty(nb, dtype=np.int64)

    # north-west-corner initial basis (a staircase spanning tree)
    a = p.copy()
    b = q.copy()
    i = 0
    j = 0
    for k in range(nb):
        bi[k] = i
        bj[k] = j
        ai = a[i]
        bjv = b[j]
        x = ai if ai < bjv else bjv
        gamma[i, j] = x
        a[i] -= x
        b[j] -= x
        if k == nb - 1:
            break
        if ai <= bjv and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1

    u = np.zeros(n)
    v = np.zeros(m)
    uk = np.zeros(n, dtype=np.bool_)
    vk = np.zeros(m, dtype=np.bool_)

    it = 0
    while True:
        # --- potentials from the basis tree ----------------------------
        uk[:] = False
        vk[:] = False
        uk[0] = True
        u[0] = 0.0
        done = 1
        for _ in range(n + m):
            if done == n + m:
                break
            progressed = False
            for k in range(nb):
                r = bi[k]
                s = bj[k]
                if uk[r] and not vk[s]:
                    v[s] = cost[r, s] - u[r]
                    vk[s] = True
                    done += 1
                    progressed = True
                elif vk[s] and not uk[r]:
                    u[r] = cost[r, s] - v[s]
                    uk[r] = True
                    done += 1
                    progressed = True
            if not progressed:
                break
        if done != n + m:
            return _kernels.STATUS_ITER_LIMIT, gamma, u, v, it  # basis lost connectivity

        # --- pricing: most negative reduced cost ------------------------
        red = cost - u.reshape(n, 1) - v.reshape(1, m)
        for k in range(nb):
            red[bi[k], bj[k]] = 0.0
        flat = int(np.argmin(red))
        ei = flat // m
        ej = flat - ei * m
        if red[ei, ej] >= -tol:
            return _kernels.STATUS_OPTIMAL, gamma, u, v, it
        if it >= max_iter:
            return _kernels.STATUS_ITER_LIMIT, gamma, u, v, it

        # --- find the tree path from row-node ei to column-node n+ej ---
        deg = np.zeros(n + m, dtype=np.int64)
        for k in range(nb):
            deg[bi[k]] += 1
            deg[n + bj[k]] += 1
        offs = np.zeros(n + m + 1, dtype=np.int64)
        for t in range(n + m):
            offs[t + 1] = offs[t] + deg[t]
        fill = offs[:-1].copy()
        adj = np.empty(2 * nb, dtype=np.int64)
        for k in range(nb):
            adj[fill[bi[k]]] = k
            fill[bi[k]] += 1
            adj[fill[n + bj[k]]] = k
            fill[n + bj[k]] += 1

        parent_edge = np.full(n + m, -1, dtype=np.int64)
        visited = np.zeros(n + m, dtype=np.bool_)
        queue = np.empty(n + m, dtype=np.int64)
        queue[0] = ei
        visited[ei] = True
        head = 0
        tail = 1
        target = n + ej
        while head < tail and not visited[target]:
            node = queue[head]
            head += 1
            for a_idx in range(offs[node], offs[node + 1]):
                k = adj[a_idx]
                other = n + bj[k] if node < n else bi[k]
                if not visited[other]:
                    visited[other] = True
                    parent_edge[other] = k
                    queue[tail] = other
                    tail += 1
        if not visited[target]:
            return _kernels.STATUS_ITER_LIMIT, gamma, u, v, it

        path = np.empty(n + m, dtype=np.int64)
        plen = 0
        node = target
        while node != ei:
            k = parent_edge[node]
            path[plen] = k
            plen += 1
            node = bi[k] if node >= n else n + bj[k]

        # signs alternate around the cycle; the edge at the entering cell's
        # column gets -theta, so odd positions in `path` get +theta
        theta = np.inf
        leave_pos = -1
        for t in range(0, plen, 2):
            k = path[t]
            g = gamma[bi[k], bj[k]]
            if g < theta:
                theta = g
                leave_pos = t
        gamma[ei, ej] += theta
        for t in range(plen):
            k = path[t]
            if t % 2 == 0:
                gamma[bi[k], bj[k]] -= theta
            else:
                gamma[bi[k], bj[k]] += theta
        kleave = path[leave_pos]
        gamma[bi[kleave], bj[kleave]] = 0.0
        bi[kleave] = ei
        bj[kleave] = ej
        it += 1


def _problems(kind: str, count: int):
    rng = np.random.default_rng({"dense": 1, "negative": 2, "degenerate": 3}[kind])
    for _ in range(count):
        n, m = (int(x) for x in rng.integers(1, 25, size=2))
        if kind == "dense":
            cost = rng.random((n, m))
            p, q = rng.random(n), rng.random(m)
        elif kind == "negative":
            cost = rng.normal(size=(n, m))
            p, q = rng.random(n), rng.random(m)
        else:  # integer costs and uniform masses: many ties, many degenerate pivots
            cost = rng.integers(-2, 3, size=(n, m)).astype(float)
            p, q = np.ones(n) / n, np.ones(m) / m
        yield cost, p, q * (p.sum() / q.sum())


def _check_plan(gamma, p, q):
    """Nonnegative flows whose row and column sums are p and q, to rounding."""
    slack = 1e-12 * float(p.sum())
    assert np.all(gamma >= 0.0)
    assert np.allclose(gamma.sum(axis=1), p, rtol=0.0, atol=slack)
    assert np.allclose(gamma.sum(axis=0), q, rtol=0.0, atol=slack)


def _check_optimal(got, ref, cost, p, q, tol):
    """``got`` is optimal: the reference's objective and dual-feasible potentials."""
    status, gamma, u, v, _ = got
    assert status == ref[0] == _kernels.STATUS_OPTIMAL
    _check_plan(gamma, p, q)
    scale = float(np.abs(cost).max()) * float(p.sum())
    assert abs(float(np.sum(gamma * cost)) - float(np.sum(ref[1] * cost))) <= 1e-12 * scale
    red = cost - u.reshape(-1, 1) - v.reshape(1, -1)
    assert red.min() >= -tol
    # complementary slackness: flow only on cells of zero reduced cost
    assert np.all(np.abs(red[gamma > 0.0]) <= 1e-12 * float(np.abs(cost).max()))


@pytest.mark.parametrize("kind", ["dense", "negative", "degenerate"])
def test_transport_loop_matches_frozen_reference(kind):
    """Same optimum as the frozen north-west loop, in no more pivots.

    The starts differ, so plans may differ where the optimum is not unique;
    the objective, the plan's margins and the potentials' dual feasibility
    must not.
    """
    pivots = 0
    ref_pivots = 0
    for cost, p, q in _problems(kind, 60):
        tol = 1e-11 * float(np.abs(cost).max())
        max_iter = 200 * sum(cost.shape) + 2000
        ref = _reference_transport_loop(cost, p, q, tol, max_iter)
        got = _kernels.transport_loop(cost, p, q, tol, max_iter)
        _check_optimal(got, ref, cost, p, q, tol)
        pivots += got[4]
        ref_pivots += ref[4]
    assert ref_pivots > 100  # the battery exercises the pivoting, not just the start
    assert 0 < pivots <= ref_pivots


def test_transport_loop_iteration_limit():
    """With ``max_iter=0`` a non-optimal start ends at the limit.

    The matrix-minimum start is greedy: here it takes the zero-cost cell
    (0, 0) first, which forces the costly cell (1, 1) and a plan of cost 3,
    while the optimum ships along the anti-diagonal for 2.
    """
    cost = np.array([[0.0, 1.0], [1.0, 3.0]])
    p = np.ones(2)
    q = np.ones(2)
    tol = 1e-11 * float(np.abs(cost).max())
    status, gamma, _, _, it = _kernels.transport_loop(cost, p, q, tol, 0)
    assert status == _kernels.STATUS_ITER_LIMIT
    assert it == 0
    assert np.array_equal(gamma, np.eye(2))
    status, gamma, _, _, it = _kernels.transport_loop(cost, p, q, tol, 10)
    assert status == _kernels.STATUS_OPTIMAL
    assert it == 1
    assert np.array_equal(gamma, np.array([[0.0, 1.0], [1.0, 0.0]]))


@st.composite
def _blocks(draw):
    """Cost blocks of 1x1 to 8x8, tied or negative costs, exactly tied masses."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        entries = st.integers(-3, 3).map(float)  # many ties, as on lattice metrics
    else:
        entries = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    cost = np.array(draw(st.lists(entries, min_size=n * m, max_size=n * m))).reshape(n, m)
    # small integer masses with equal totals: a_i == b_j happens often
    p = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
    total = int(p.sum())
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m - 1, max_size=m - 1)))
    q = np.diff([0, *cuts, total]).astype(float)
    # dividing by the total leaves ties exact but the two totals may differ
    # in the last bit, as they do for the normalized masses W1 solves
    unit = draw(st.sampled_from([1.0, 3.0, 10.0, float(total)]))
    return cost, p / unit, q / unit


@settings(max_examples=300, deadline=None)
@given(_blocks())
def test_matrix_minimum_start_is_a_spanning_tree(block):
    """The start is a feasible spanning-tree basis, and the kernel ends optimal from it.

    A start that is not a spanning tree makes the kernel report
    ``STATUS_ITER_LIMIT``, and ``transport._ot`` then falls back to the LP
    without a word, so this is checked on every shape from 1x1 up.
    """
    cost, p, q = block
    n, m = cost.shape
    bi, bj, flow = _kernels.matrix_minimum_start(cost, p, q)
    assert len(bi) == len(bj) == len(flow) == n + m - 1
    # n+m-1 edges on n+m nodes and no cycle: a spanning tree
    root = list(range(n + m))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j in zip(bi, bj):
        a, b = find(i), find(n + j)
        assert a != b, "the start's cells close a cycle"
        root[a] = b
    start = np.zeros((n, m))
    start[bi, bj] = flow
    _check_plan(start, p, q)

    tol = 1e-11 * float(np.abs(cost).max())
    status, gamma, _, _, it = _kernels.transport_loop(cost, p, q, tol, 0)
    assert it == 0
    assert status in (_kernels.STATUS_OPTIMAL, _kernels.STATUS_ITER_LIMIT)
    assert np.array_equal(gamma, start)

    max_iter = 200 * (n + m) + 2000
    got = _kernels.transport_loop(cost, p, q, tol, max_iter)
    ref = _reference_transport_loop(cost, p, q, tol, max_iter)
    _check_optimal(got, ref, cost, p, q, tol)
