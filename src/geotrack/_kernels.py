"""Loop-heavy numeric kernels: the rectangular assignment solver and the
pairwise box-IoU matrix, the two inner loops that dominate tracking and
evaluation runtime. Each has one implementation: the solver is a
shortest-augmenting-path loop over ndarrays, the IoU matrix one broadcast.
"""

import numpy as np

# The kernels are never JIT-compiled; the benchmark's environment record
# (``numba_enabled``) still reads this flag.
NUMBA_ENABLED = False


def _lap_core(cost, u, v, col4row, row4col):
    """Shortest-augmenting-path solver for the rectangular assignment problem.

    Minimizes over complete row assignments of ``cost`` (shape m x n, m <= n).
    Forbidden edges carry +inf. Fills the dual vectors ``u``/``v`` and the
    assignment arrays in place; returns 0 on success, -1 if infeasible.
    """
    m, n = cost.shape
    shortest = np.empty(n, dtype=np.float64)
    path = np.empty(n, dtype=np.int64)
    remaining = np.empty(n, dtype=np.int64)

    for cur_row in range(m):
        for j in range(n):
            shortest[j] = np.inf
            path[j] = -1
            remaining[j] = n - j - 1
        num_remaining = n
        scanned_rows = np.zeros(m, dtype=np.bool_)
        scanned_cols = np.zeros(n, dtype=np.bool_)

        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = np.inf
            scanned_rows[i] = True
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + cost[i, j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (
                    shortest[j] == lowest and row4col[j] == -1
                ):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            if min_val == np.inf:
                return -1
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned_cols[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        u[cur_row] += min_val
        for k in range(m):
            if scanned_rows[k] and k != cur_row:
                u[k] += min_val - shortest[col4row[k]]
        for j in range(n):
            if scanned_cols[j]:
                v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return 0


def solve_lap_min(cost):
    """Solve min-cost complete row assignment for an m x n cost matrix, m <= n.

    Returns (col4row, u, v) or raises ValueError on infeasibility / bad input.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    m, n = cost.shape
    if m > n:
        raise ValueError("cost matrix needs at least as many columns as rows")
    if np.isnan(cost).any():
        raise ValueError("cost matrix contains NaN")
    if (cost == -np.inf).any():
        raise ValueError("cost matrix contains -inf")
    u = np.zeros(m, dtype=np.float64)
    v = np.zeros(n, dtype=np.float64)
    col4row = np.full(m, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    if m == 0:
        return col4row, u, v
    if _lap_core(cost, u, v, col4row, row4col) != 0:
        raise ValueError("no feasible complete assignment")
    return col4row, u, v


def iou_matrix(boxes_a, boxes_b):
    """IoU between every pair of (left, top, width, height) boxes.

    A pair scores 0 unless its overlap has positive width and height and
    its union is positive.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(1, -1, 4)
    al, at, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bl, bt, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.minimum(al + aw, bl + bw) - np.maximum(al, bl)
    ih = np.minimum(at + ah, bt + bh) - np.maximum(at, bt)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    hit = (iw > 0.0) & (ih > 0.0) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros(inter.shape), where=hit)
