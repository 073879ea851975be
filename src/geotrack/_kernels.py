"""The numeric kernels that dominate tracking and evaluation runtime: the
one assignment solver, a shortest-augmenting-path loop over ndarrays, and
the pairwise box-IoU matrix in one broadcast.
"""

import numpy as np

# The kernels are never JIT-compiled; the benchmark's environment record
# (``numba_enabled``) still reads this flag.
NUMBA_ENABLED = False


def solve_lap_min(cost):
    """Min-cost complete row assignment of an m x n ``cost``: (col4row, u, v)
    with the duals u and v, or ValueError if every complete one takes +inf.
    ``cost`` must be float64 with m <= n and no NaN or -inf. Nothing here
    checks that: ``assignment.solve_max`` passes the matrix it has checked,
    or sub-matrices of it.

    Each scan relaxes every unscanned column in one numpy pass. Among the
    columns tied at the lowest distance it picks the last still-free one in
    ``remaining`` order, else the first; a picked column leaves
    ``remaining`` by swapping in the last entry. These two rules decide
    every tie, and the test suite pins them.
    """
    m, n = cost.shape
    u = np.zeros(m, dtype=np.float64)
    v = np.zeros(n, dtype=np.float64)
    col4row = np.full(m, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    shortest = np.empty(n, dtype=np.float64)
    path = np.empty(n, dtype=np.int64)

    for cur_row in range(m):
        shortest.fill(np.inf)
        path.fill(-1)
        remaining = np.arange(n - 1, -1, -1, dtype=np.int64)
        num_remaining = n
        scanned_rows = np.zeros(m, dtype=np.bool_)
        scanned_cols = np.zeros(n, dtype=np.bool_)

        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            scanned_rows[i] = True
            cols = remaining[:num_remaining]
            r = min_val + cost[i, cols] - u[i] - v[cols]
            closer = r < shortest[cols]
            path[cols[closer]] = i
            shortest[cols[closer]] = r[closer]
            dist = shortest[cols]
            tied = np.flatnonzero(dist == dist.min())
            free = tied[row4col[cols[tied]] == -1]
            index = int(free[-1] if free.size else tied[0])
            # the picked column's own value, so a signed zero carries over
            min_val = dist[index]
            if min_val == np.inf:
                raise ValueError("no feasible complete assignment")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned_cols[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        u[cur_row] += min_val
        others = scanned_rows.copy()
        others[cur_row] = False
        u[others] += min_val - shortest[col4row[others]]
        v[scanned_cols] -= min_val - shortest[scanned_cols]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
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
