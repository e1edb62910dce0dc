"""Hot numerical kernels: the dense simplex and the transportation simplex.

The loops over tableau *rows* stay explicit (row counts are small), while
everything proportional to the column count is vectorized.

Status codes shared by both kernels:

* ``0`` - optimal,
* ``1`` - unbounded (simplex only),
* ``2`` - iteration limit hit (caller decides how to recover).
"""

from __future__ import annotations

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2


def pivot(T, row, col):
    """Gauss-Jordan pivot of the tableau ``T`` on entry ``(row, col)``, in place."""
    T[row, :] /= T[row, col]
    c = T[:, col].copy()
    c[row] = 0.0
    T -= np.outer(c, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0


def simplex_loop(T, basis, at_upper, ub, can_enter, dantzig_cap, max_iter, tol):
    """Bounded-variable primal simplex iterations on a dense tableau.

    ``T`` is ``(m+1, n+1)``: row 0 holds reduced costs (maximization, so the
    basis is optimal when all eligible entries are ``<= tol``) with ``-value``
    in its last entry; rows ``1..m`` hold the constraint system with the
    right-hand side in the last column.  ``basis[i]`` is the column basic in
    row ``i+1``.  Columns currently substituted by ``x = ub - x'`` are marked
    in ``at_upper``.  Pricing is Dantzig for the first ``dantzig_cap``
    iterations, then Bland's rule (with lowest-basic-index tie-breaking in
    the ratio test) to guarantee termination.

    Returns ``(status, iterations, column)`` where ``column`` is the entering
    column that proved unboundedness (else ``-1``).
    """
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1
    in_basis = np.zeros(ncols, dtype=np.bool_)
    for i in range(m):
        in_basis[basis[i]] = True

    it = 0
    while True:
        # --- pricing ---------------------------------------------------
        eligible = can_enter & ~in_basis
        red = T[0, :ncols]
        if it < dantzig_cap:
            masked = np.where(eligible, red, -np.inf)
            jstar = int(np.argmax(masked))
            if not (masked[jstar] > tol):
                return STATUS_OPTIMAL, it, -1
        else:
            jstar = -1
            for j in range(ncols):
                if eligible[j] and red[j] > tol:
                    jstar = j
                    break
            if jstar == -1:
                return STATUS_OPTIMAL, it, -1
        if it >= max_iter:
            return STATUS_ITER_LIMIT, it, jstar

        # --- ratio test ------------------------------------------------
        theta = ub[jstar]
        leave_row = -1
        leave_kind = 0  # 0: entering flips to its own bound
        for i in range(1, m + 1):
            a = T[i, jstar]
            if a > tol:
                cand = T[i, ncols] / a
                ckind = 1  # basic variable drops to zero
            elif a < -tol:
                u_b = ub[basis[i - 1]]
                if u_b == np.inf:
                    continue
                cand = (u_b - T[i, ncols]) / (-a)
                ckind = 2  # basic variable reaches its upper bound
            else:
                continue
            if cand < 0.0:
                cand = 0.0  # numerical residue from degenerate rows
            if cand < theta - 1e-12:
                theta = cand
                leave_row = i
                leave_kind = ckind
            elif cand < theta + 1e-12 and leave_kind != 0:
                if leave_row == -1 or basis[i - 1] < basis[leave_row - 1]:
                    leave_row = i
                    leave_kind = ckind
        if theta == np.inf:
            return STATUS_UNBOUNDED, it, jstar

        # --- update ----------------------------------------------------
        if leave_kind == 0:
            # entering variable jumps to its upper bound: substitute x = ub - x'
            T[:, ncols] -= ub[jstar] * T[:, jstar]
            T[:, jstar] = -T[:, jstar]
            at_upper[jstar] = not at_upper[jstar]
        else:
            if leave_kind == 2:
                # leaving basic variable exits at its upper bound: flip its
                # column first, then restore the +1 unit coefficient
                jb = basis[leave_row - 1]
                T[:, ncols] -= ub[jb] * T[:, jb]
                T[:, jb] = -T[:, jb]
                T[leave_row, :] = -T[leave_row, :]
                at_upper[jb] = not at_upper[jb]
            pivot(T, leave_row, jstar)
            in_basis[basis[leave_row - 1]] = False
            in_basis[jstar] = True
            basis[leave_row - 1] = jstar
        it += 1


def transport_loop(cost, p, q, tol, max_iter):
    """Transportation simplex: north-west-corner start plus MODI pivoting.

    ``p`` and ``q`` are nonnegative with equal totals (not necessarily 1).
    Returns ``(status, gamma, u, v, iterations)`` with ``gamma`` the optimal
    plan and ``(u, v)`` the row/column potentials, normalized by ``u[0]=0``,
    satisfying ``u_i + v_j = cost_ij`` on basic cells and
    ``u_i + v_j <= cost_ij + tol`` everywhere at optimality.
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
            return STATUS_ITER_LIMIT, gamma, u, v, it  # basis lost connectivity

        # --- pricing: most negative reduced cost ------------------------
        red = cost - u.reshape(n, 1) - v.reshape(1, m)
        for k in range(nb):
            red[bi[k], bj[k]] = 0.0
        flat = int(np.argmin(red))
        ei = flat // m
        ej = flat - ei * m
        if red[ei, ej] >= -tol:
            return STATUS_OPTIMAL, gamma, u, v, it
        if it >= max_iter:
            return STATUS_ITER_LIMIT, gamma, u, v, it

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
            return STATUS_ITER_LIMIT, gamma, u, v, it

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
