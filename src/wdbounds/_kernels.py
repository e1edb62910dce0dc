"""Hot numerical kernels: the dense simplex and the transportation simplex.

The dense simplex works on an equality-form tableau over ``x >= 0``
(:mod:`wdbounds.lp`).  Its loops over tableau *rows* stay explicit (row
counts are small), while everything proportional to the column count is
vectorized.

Status codes shared by both kernels:

* ``0`` - optimal,
* ``1`` - unbounded (simplex only),
* ``2`` - iteration limit hit (the caller raises).
"""

from __future__ import annotations

from itertools import islice

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


def simplex_loop(T, basis, can_enter, max_iter, tol):
    """Primal simplex iterations on a dense tableau over ``x >= 0``.

    ``T`` is ``(m+1, n+1)``: row 0 holds reduced costs (maximization, so the
    basis is optimal when all eligible entries are ``<= tol``) with ``-value``
    in its last entry; rows ``1..m`` hold the constraint system with the
    right-hand side in the last column.  ``basis[i]`` is the column basic in
    row ``i+1``, and only columns marked in ``can_enter`` may enter.  Pricing
    is Dantzig for the first ``20 (m + n) + 200`` iterations, then Bland's
    rule (with lowest-basic-index tie-breaking in the ratio test) to
    guarantee termination.

    Returns ``(status, iterations)``: optimal, unbounded (an entering column
    with no positive entry) or the iteration limit.
    """
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1
    dantzig_cap = 20 * (m + ncols) + 200
    in_basis = np.zeros(ncols, dtype=np.bool_)
    in_basis[basis] = True

    it = 0
    while True:
        # --- pricing ---------------------------------------------------
        eligible = can_enter & ~in_basis
        red = T[0, :ncols]
        if it < dantzig_cap:
            masked = np.where(eligible, red, -np.inf)
            jstar = int(np.argmax(masked))
            if not (masked[jstar] > tol):
                return STATUS_OPTIMAL, it
        else:
            candidates = np.flatnonzero(eligible & (red > tol))
            if candidates.size == 0:
                return STATUS_OPTIMAL, it
            jstar = int(candidates[0])
        if it >= max_iter:
            return STATUS_ITER_LIMIT, it

        # --- ratio test: the basic variable that drops to zero first ----
        theta = np.inf
        leave_row = -1
        for i in range(1, m + 1):
            a = T[i, jstar]
            if a > tol:
                cand = max(T[i, ncols] / a, 0.0)  # clamp degenerate-row residue
                if cand < theta - 1e-12:
                    theta = cand
                    leave_row = i
                elif cand < theta + 1e-12 and basis[i - 1] < basis[leave_row - 1]:
                    leave_row = i
        if leave_row == -1:
            return STATUS_UNBOUNDED, it

        pivot(T, leave_row, jstar)
        in_basis[basis[leave_row - 1]] = False
        in_basis[jstar] = True
        basis[leave_row - 1] = jstar
        it += 1


def russell_start(cost, p, q):
    """Russell's initial basis of the transportation simplex.

    Ranks the cells once by Russell's (1969) penalty
    ``delta_ij = c_ij - max_k c_ik - max_k c_kj``, the cost less its row's
    and its column's largest cost, computed once from the whole block and
    not updated as lines close.  The cells are scanned by increasing
    ``delta`` (a stable sort, so ties go in row-major order).  A cell whose
    row and column are both still open ships ``min(a_i, b_j)`` of the
    remaining masses and closes one of its two lines: the row if
    ``a_i <= b_j`` and another row is open, or if it is in the last open
    column; otherwise the column.  Every step closes exactly one line and
    never the last open row or column, so the ``n+m-1`` cells form a
    spanning tree, whatever the order.  Returns the lists ``(bi, bj, flow)``
    of the basic cells' rows, columns and flows.
    """
    n = p.shape[0]
    m = q.shape[0]
    nb = n + m - 1
    bi = [0] * nb
    bj = [0] * nb
    flow = [0.0] * nb
    a = p.tolist()
    b = q.tolist()
    row_open = [True] * n
    col_open = [True] * m
    rows_left = n
    cols_left = m
    delta = cost - cost.max(axis=1, keepdims=True)
    delta -= cost.max(axis=0)
    oi, oj = np.divmod(np.argsort(delta, axis=None, kind="stable"), m)
    k = 0
    for i, j in zip(oi.tolist(), oj.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        ai = a[i]
        bjv = b[j]
        x = ai if ai < bjv else bjv
        bi[k] = i
        bj[k] = j
        flow[k] = x
        a[i] -= x
        b[j] -= x
        k += 1
        if k == nb:
            break
        if (ai <= bjv and rows_left > 1) or cols_left == 1:
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return bi, bj, flow


def transport_loop(cost, p, q, tol, max_iter):
    """Transportation simplex: Russell's start plus MODI pivoting.

    ``p`` and ``q`` are nonnegative with equal totals (not necessarily 1).
    Returns ``(status, gamma, u, v, iterations)`` with ``gamma`` the optimal
    plan and ``(u, v)`` the row/column potentials, normalized by ``u[0]=0``,
    satisfying ``u_i + v_j = cost_ij`` on basic cells and
    ``u_i + v_j <= cost_ij + tol`` everywhere at optimality.

    The basis starts from :func:`russell_start` and stays a spanning
    tree on row nodes ``0..n-1`` and column nodes ``n..n+m-1``; basic edge
    ``k`` joins row ``bi[k]`` to column ``bj[k]`` and carries ``flow[k]``.
    One walk from row node 0 gives every node its parent, depth and
    potential, and checks that the start is a spanning tree.  The entering
    cell's cycle is the two climbs from its row and column nodes to their
    common ancestor.  The leaving edge cuts off the subtree holding one of
    the two endpoints (the column node if the edge lies on the column's
    climb, else the row node); that endpoint is hung under the other one
    and only its subtree is walked again, and only its entries of the
    potential arrays ``u`` and ``v`` are rewritten.  Each potential is still
    the sum along its path from row node 0 that a full walk computes, so
    pricing and pivots are those of a full walk per pivot, bit for bit.
    The walks and the climbs index Python lists; only the sort of the
    start and the pricing over all cells are vectorized.
    """
    n = p.shape[0]
    m = q.shape[0]
    nn = n + m
    nb = nn - 1
    bi, bj, flow = russell_start(cost, p, q)
    cell = np.array([i * m + j for i, j in zip(bi, bj)], dtype=np.int64)

    def plan():
        gamma = np.zeros(n * m)
        gamma[cell] = flow
        return gamma.reshape(n, m)

    cl = cost.tolist()
    adj = [[] for _ in range(nn)]
    for k in range(nb):
        adj[bi[k]].append(k)
        adj[n + bj[k]].append(k)
    pot = [0.0] * nn
    parent = [-1] * nn
    pedge = [-1] * nn
    depth = [0] * nn

    def hang(root):
        """Walk the subtree below ``root``, whose own entries are set; return its nodes.

        At most ``nn`` nodes are expanded, so on a start with a cycle the
        walk ends, with more than ``nn`` entries, instead of going round it.
        """
        nodes = [root]
        for node in islice(nodes, nn):
            pn = pot[node]
            dn = depth[node] + 1
            up = pedge[node]
            for k in adj[node]:
                if k != up:
                    r = bi[k]
                    s = bj[k]
                    other = r + n + s - node
                    pot[other] = cl[r][s] - pn
                    parent[other] = node
                    pedge[other] = k
                    depth[other] = dn
                    nodes.append(other)
        return nodes

    it = 0
    connected = len(hang(0)) == nn
    uv = np.array(pot)
    u = uv[:n]
    v = uv[n:]
    if not connected:
        return STATUS_ITER_LIMIT, plan(), u, v, it
    while True:
        # --- pricing: most negative reduced cost ------------------------
        red = np.subtract(cost, u[:, None], order="C")
        red -= v
        red.ravel()[cell] = 0.0
        flat = int(red.argmin())
        ei = flat // m
        ej = flat - ei * m
        entering = float(red[ei, ej])
        if entering >= -tol:
            return STATUS_OPTIMAL, plan(), u, v, it
        if it >= max_iter:
            return STATUS_ITER_LIMIT, plan(), u, v, it

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
        cell[kleave] = flat
        flow[kleave] = theta
        adj[ei].append(kleave)
        adj[n + ej].append(kleave)
        it += 1

        # --- re-hang the cut-off endpoint under the other one -----------
        if leave_pos < len(up_col):
            child, top = n + ej, ei
        else:
            child, top = ei, n + ej
        pot[child] = cl[ei][ej] - pot[top]
        parent[child] = top
        pedge[child] = kleave
        depth[child] = depth[top] + 1
        moved = hang(child)
        uv[moved] = [pot[x] for x in moved]
