"""The transport kernel against frozen copies of earlier versions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wdbounds import _kernels


def _reference_transport_loop(cost, p, q, tol, max_iter):
    """The transportation simplex as it was before the one-walk rewrite.

    Frozen reference: the north-west-corner start, potentials by repeated
    sweeps over the basis edges, and the entering cycle by a breadth-first
    search over an adjacency array rebuilt each pivot.  Same pricing and
    ratio test as :func:`wdbounds._kernels.transport_loop`, which starts
    from Russell's basis instead.
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


def _one_walk_transport_loop(cost, p, q, tol, max_iter):
    """The transportation simplex as it was before the subtree re-hang.

    Frozen reference: Russell's start, then one depth-first walk
    of the whole basis tree per pivot for parents, depths and potentials.
    Its pricing, cycle and ratio test are those of
    :func:`wdbounds._kernels.transport_loop`, which walks the tree once and
    then re-walks only the subtree that each pivot cuts off; the two must
    agree bit for bit.
    """
    n = p.shape[0]
    m = q.shape[0]
    nn = n + m
    nb = nn - 1
    bi, bj, flow = _kernels.russell_start(cost, p, q)

    cl = cost.tolist()
    adj = [[] for _ in range(nn)]
    for k in range(nb):
        adj[bi[k]].append(k)
        adj[n + bj[k]].append(k)
    bi_arr = np.array(bi, dtype=np.int64)
    bj_arr = np.array(bj, dtype=np.int64)
    pot = [0.0] * nn
    parent = [0] * nn
    pedge = [0] * nn
    depth = [0] * nn

    def plan():
        gamma = np.zeros((n, m))
        gamma[bi_arr, bj_arr] = flow
        return gamma

    it = 0
    while True:
        # --- one depth-first walk: parents, depths and potentials -------
        seen = [False] * nn
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            node = stack.pop()
            pn = pot[node]
            dn = depth[node] + 1
            for k in adj[node]:
                r = bi[k]
                s = bj[k]
                other = r + n + s - node
                if not seen[other]:
                    seen[other] = True
                    pot[other] = cl[r][s] - pn
                    parent[other] = node
                    pedge[other] = k
                    depth[other] = dn
                    stack.append(other)
                    reached += 1
        u = np.array(pot[:n])
        v = np.array(pot[n:])
        if reached != nn:
            return _kernels.STATUS_ITER_LIMIT, plan(), u, v, it  # basis lost connectivity

        # --- pricing: most negative reduced cost ------------------------
        red = cost - u.reshape(n, 1) - v.reshape(1, m)
        red[bi_arr, bj_arr] = 0.0
        flat = int(np.argmin(red))
        ei = flat // m
        ej = flat - ei * m
        if red[ei, ej] >= -tol:
            return _kernels.STATUS_OPTIMAL, plan(), u, v, it
        if it >= max_iter:
            return _kernels.STATUS_ITER_LIMIT, plan(), u, v, it

        # --- the cycle: climb from both ends to the common ancestor -----
        x = ei
        y = n + ej
        up_row = []
        up_col = []
        while depth[x] > depth[y]:
            up_row.append(pedge[x])
            x = parent[x]
        while depth[y] > depth[x]:
            up_col.append(pedge[y])
            y = parent[y]
        while x != y:
            up_row.append(pedge[x])
            x = parent[x]
            up_col.append(pedge[y])
            y = parent[y]
        # the path from column node n+ej to row node ei; signs alternate
        # around the cycle, the edge at the entering cell's column gets -theta
        path = up_col + up_row[::-1]

        theta = np.inf
        leave_pos = -1
        for t in range(0, len(path), 2):
            g = flow[path[t]]
            if g < theta:
                theta = g
                leave_pos = t
        for t, k in enumerate(path):
            if t % 2 == 0:
                flow[k] -= theta
            else:
                flow[k] += theta
        kleave = path[leave_pos]
        adj[bi[kleave]].remove(kleave)
        adj[n + bj[kleave]].remove(kleave)
        bi[kleave] = ei
        bj[kleave] = ej
        bi_arr[kleave] = ei
        bj_arr[kleave] = ej
        flow[kleave] = theta
        adj[ei].append(kleave)
        adj[n + ej].append(kleave)
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


def _check_bit_identical(got, ref):
    """Same status and pivot count, and the same plan and potentials bit for bit."""
    assert got[0] == ref[0]
    assert got[4] == ref[4]
    for a, b in zip(got[1:4], ref[1:4]):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["dense", "negative", "degenerate"])
def test_transport_loop_matches_frozen_reference(kind):
    """Same optimum as the frozen north-west loop, in no more pivots.

    The starts differ, so plans may differ where the optimum is not unique;
    the objective, the plan's margins and the potentials' dual feasibility
    must not.  Against the frozen one-walk loop, which has the same start,
    every output is equal bit for bit.
    """
    pivots = 0
    ref_pivots = 0
    for cost, p, q in _problems(kind, 60):
        tol = 1e-11 * float(np.abs(cost).max())
        max_iter = 200 * sum(cost.shape) + 2000
        ref = _reference_transport_loop(cost, p, q, tol, max_iter)
        got = _kernels.transport_loop(cost, p, q, tol, max_iter)
        _check_optimal(got, ref, cost, p, q, tol)
        _check_bit_identical(got, _one_walk_transport_loop(cost, p, q, tol, max_iter))
        pivots += got[4]
        ref_pivots += ref[4]
    assert ref_pivots > 100  # the battery exercises the pivoting, not just the start
    assert 0 < pivots <= ref_pivots


def test_transport_loop_iteration_limit():
    """With ``max_iter=0`` a non-optimal start ends at the limit.

    Russell's penalties are ``[[-1, -1], [-1, 0]]``: the three tied cells go
    in row-major order, so the start takes the costly cell (0, 0) first,
    which forces (1, 1) and a plan of cost 1, while the optimum ships along
    the anti-diagonal for 0.
    """
    cost = np.array([[1.0, 0.0], [0.0, 0.0]])
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
def _blocks(draw, side=8):
    """Cost blocks of 1x1 to ``side`` x ``side``, tied or negative costs, exactly tied masses."""
    n = draw(st.integers(1, side))
    m = draw(st.integers(1, side))
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
def test_russell_start_is_a_spanning_tree(block):
    """The start is a feasible spanning-tree basis, and the kernel ends optimal from it.

    A start that is not a spanning tree makes the kernel report
    ``STATUS_ITER_LIMIT``, and ``transport._ot`` then raises
    :class:`NumericalFailure` on a valid block, so this is checked on every
    shape from 1x1 up.
    """
    cost, p, q = block
    n, m = cost.shape
    bi, bj, flow = _kernels.russell_start(cost, p, q)
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


@settings(max_examples=300, deadline=None)
@given(_blocks(), st.integers(-30, 30))
def test_power_of_two_cost_scaling_changes_no_pivot(block, power):
    """Costs scaled by ``2**power`` give the same status, pivots and plan, bit for bit.

    Scaling by a power of two is exact in every sum and difference the
    kernel forms, so the start's order, the pricing and every tie are the
    same, and the potentials come out scaled exactly.  The tolerance is
    ``1e-11 * max|cost|``, as :func:`wdbounds.transport._ot` passes it.
    Costs near the underflow range are left out: there scaling down rounds.
    """
    cost, p, q = block
    assume(not np.any((cost != 0.0) & (np.abs(cost) < 1e-250)))
    n, m = cost.shape
    factor = 2.0**power
    max_iter = 200 * (n + m) + 2000
    ref = _kernels.transport_loop(cost, p, q, 1e-11 * float(np.abs(cost).max()), max_iter)
    scaled = cost * factor
    got = _kernels.transport_loop(scaled, p, q, 1e-11 * float(np.abs(scaled).max()), max_iter)
    assert got[0] == ref[0]
    assert got[4] == ref[4]
    assert np.array_equal(got[1], ref[1])
    assert np.array_equal(got[2], ref[2] * factor)
    assert np.array_equal(got[3], ref[3] * factor)


@settings(max_examples=300, deadline=None)
@given(_blocks(side=10), st.sampled_from(["zero", "one", "normal"]))
def test_transport_loop_matches_the_one_walk_loop_bit_for_bit(block, limit):
    """Re-walking only the cut-off subtree changes no bit of the result.

    Every potential is the same path sum from row node 0 as in a full walk,
    so status, plan, potentials and pivot count equal the frozen one-walk
    loop's exactly, also when the iteration limit stops both early.
    """
    cost, p, q = block
    n, m = cost.shape
    tol = 1e-11 * float(np.abs(cost).max())
    max_iter = {"zero": 0, "one": 1, "normal": 200 * (n + m) + 2000}[limit]
    got = _kernels.transport_loop(cost, p, q, tol, max_iter)
    _check_bit_identical(got, _one_walk_transport_loop(cost, p, q, tol, max_iter))


def test_transport_loop_stops_on_a_start_with_a_cycle(monkeypatch):
    """A start that is not a spanning tree ends at the limit, not in an endless walk.

    On 2 rows and 3 columns the cells (0,0), (0,1), (1,1), (1,0) are 4 = n+m-1
    edges that close a cycle and leave column 2 unreached.
    """
    monkeypatch.setattr(
        _kernels,
        "russell_start",
        lambda cost, p, q: ([0, 0, 1, 1], [0, 1, 1, 0], [0.5, 0.5, 0.5, 0.5]),
    )
    cost = np.arange(6.0).reshape(2, 3)
    out = _kernels.transport_loop(cost, np.ones(2), np.array([1.0, 1.0, 0.0]), 1e-11, 100)
    assert out[0] == _kernels.STATUS_ITER_LIMIT
    assert out[4] == 0
