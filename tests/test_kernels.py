"""The transport kernel against a frozen copy of its previous version."""

from __future__ import annotations

import numpy as np
import pytest

from wdbounds import _kernels


def _reference_transport_loop(cost, p, q, tol, max_iter):
    """The transportation simplex as it was before the one-walk rewrite.

    Frozen reference: potentials by repeated sweeps over the basis edges,
    and the entering cycle by a breadth-first search over an adjacency
    array rebuilt each pivot.  Same start, pricing and ratio test as
    :func:`wdbounds._kernels.transport_loop`.
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


@pytest.mark.parametrize("kind", ["dense", "negative", "degenerate"])
def test_transport_loop_matches_frozen_reference(kind):
    """Same pivots, same plan, same potentials, bit for bit."""
    pivots = 0
    for cost, p, q in _problems(kind, 60):
        tol = 1e-11 * float(np.abs(cost).max())
        max_iter = 200 * sum(cost.shape) + 2000
        ref = _reference_transport_loop(cost, p, q, tol, max_iter)
        got = _kernels.transport_loop(cost, p, q, tol, max_iter)
        assert got[0] == ref[0] == _kernels.STATUS_OPTIMAL
        assert got[4] == ref[4]
        for a, b in zip(got[1:4], ref[1:4]):
            assert np.array_equal(a, b)
        assert float(np.sum(got[1] * cost)) == float(np.sum(ref[1] * cost))
        pivots += got[4]
    assert pivots > 100  # the battery exercises the pivoting, not just the start


def test_transport_loop_iteration_limit():
    """With ``max_iter=0`` a non-optimal start ends at the limit, as before."""
    cost, p, q = next(_problems("dense", 1))
    tol = 1e-11 * float(np.abs(cost).max())
    ref = _reference_transport_loop(cost, p, q, tol, 0)
    got = _kernels.transport_loop(cost, p, q, tol, 0)
    assert got[0] == ref[0] == _kernels.STATUS_ITER_LIMIT
    assert got[4] == ref[4] == 0
    assert np.array_equal(got[1], ref[1])
