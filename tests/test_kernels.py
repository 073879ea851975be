import warnings
from itertools import permutations

import numpy as np
import pytest

from geotrack import _kernels


def brute_force_min(cost):
    m, n = cost.shape
    best = None
    for perm in permutations(range(n), m):
        total = float(sum(cost[i, perm[i]] for i in range(m)))
        if best is None or total < best:
            best = total
    return best


def reference_lap_core(cost, u, v, col4row, row4col):
    """The per-column scan that ``_kernels.solve_lap_min``'s one-pass numpy
    scan replaced, after the same greedy start; fills ``u``/``v``/
    ``col4row``/``row4col`` in place and returns 0, or -1 if infeasible."""
    m, n = cost.shape
    lowest_col = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        lowest, count = np.inf, 0
        for j in range(n):
            if cost[i, j] < lowest:
                lowest, count, lowest_col[i] = cost[i, j], 1, j
            elif cost[i, j] == lowest:
                count += 1
        if lowest == np.inf or count > 1:
            lowest_col[i] = -1
    for i in range(m):
        j = lowest_col[i]
        if j != -1 and sum(lowest_col[k] == j for k in range(m)) == 1:
            col4row[i], row4col[j], u[i] = j, i, cost[i, j]

    shortest = np.empty(n, dtype=np.float64)
    path = np.empty(n, dtype=np.int64)
    remaining = np.empty(n, dtype=np.int64)

    for cur_row in range(m):
        if col4row[cur_row] != -1:
            continue
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


def run_core(core, cost):
    m, n = cost.shape
    state = (np.zeros(m), np.zeros(n), np.full(m, -1, dtype=np.int64),
             np.full(n, -1, dtype=np.int64))
    status = core(cost, *state)
    return status, state


def reference_iou_matrix(boxes_a, boxes_b):
    """The per-pair IoU loop that ``_kernels.iou_matrix`` replaced."""
    boxes_a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    out = np.empty((boxes_a.shape[0], boxes_b.shape[0]), dtype=np.float64)
    for i in range(boxes_a.shape[0]):
        al, at, aw, ah = boxes_a[i, 0], boxes_a[i, 1], boxes_a[i, 2], boxes_a[i, 3]
        ar = al + aw
        ab = at + ah
        area_a = aw * ah
        for j in range(boxes_b.shape[0]):
            bl, bt, bw, bh = boxes_b[j, 0], boxes_b[j, 1], boxes_b[j, 2], boxes_b[j, 3]
            iw = min(ar, bl + bw) - max(al, bl)
            if iw <= 0.0:
                out[i, j] = 0.0
                continue
            ih = min(ab, bt + bh) - max(at, bt)
            if ih <= 0.0:
                out[i, j] = 0.0
                continue
            inter = iw * ih
            union = area_a + bw * bh - inter
            out[i, j] = inter / union if union > 0.0 else 0.0
    return out


class TestLapKernel:
    def test_matches_brute_force(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 8))
            cost = rng.normal(size=(m, n))
            col4row, _, _ = _kernels.solve_lap_min(cost)
            total = float(cost[np.arange(m), col4row].sum())
            assert total == pytest.approx(brute_force_min(cost), abs=1e-12)

    def test_duals_certify_optimality(self, rng):
        cost = rng.normal(size=(4, 6))
        col4row, u, v = _kernels.solve_lap_min(cost)
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() > -1e-9  # dual feasibility
        slack = reduced[np.arange(4), col4row]
        np.testing.assert_allclose(slack, 0.0, atol=1e-9)

    def test_infeasible_detected(self):
        cost = np.full((2, 2), np.inf)
        with pytest.raises(ValueError):
            _kernels.solve_lap_min(cost)

    def test_scan_matches_reference(self, rng):
        # The vectorized scan must reproduce the per-column loop it replaced
        # bit for bit, greedy start, ties and infeasibility included: normal
        # costs rarely tie, small integer costs tie heavily, and +inf entries
        # forbid edges.
        for k in range(3000):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 8))
            if k % 3 == 0:
                cost = rng.normal(size=(m, n))
            else:
                cost = rng.integers(0, 3, size=(m, n)).astype(np.float64)
            if k % 3 == 2:
                cost[rng.random((m, n)) < rng.uniform(0.0, 0.6)] = np.inf
            ref_status, (ru, rv, rcol4row, _) = run_core(reference_lap_core, cost)
            if ref_status != 0:
                with pytest.raises(ValueError):
                    _kernels.solve_lap_min(cost)
                continue
            col4row, u, v = _kernels.solve_lap_min(cost)
            assert np.array_equal(col4row, rcol4row)
            for got, expected in ((u, ru), (v, rv)):
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestIouKernel:
    def test_known_values(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[5.0, 5.0, 10.0, 10.0],
                      [0.0, 0.0, 10.0, 10.0],
                      [20.0, 20.0, 5.0, 5.0]])
        out = _kernels.iou_matrix(a, b)
        np.testing.assert_allclose(out, [[25.0 / 175.0, 1.0, 0.0]])

    def test_paths_agree(self, rng):
        # The broadcast kernel must equal the per-pair loop it replaced bit
        # for bit, on overlapping, touching, zero-size and inverted boxes.
        def rounded(k):
            return np.round(rng.uniform(-5, 15, size=(k, 4)))

        cases = [(np.zeros((0, 4)), rng.uniform(0, 10, size=(3, 4))),
                 (rng.uniform(0, 10, size=(4, 4)), np.zeros((0, 4)))]
        for _ in range(300):
            m, n = (int(k) for k in rng.integers(0, 12, size=2))
            a = rng.uniform(0, 100, size=(m, 4))
            b = rng.uniform(0, 100, size=(n, 4))
            a[:, 2:] += 1.0
            b[:, 2:] += 1.0
            cases.append((a, b))
            cases.append((rounded(m), rounded(n)))
            a, b = rounded(m), rounded(n)
            a[:, 2 + int(rng.integers(2))] = 0.0  # zero-size boxes
            cases.append((a, b))
        for a, b in cases:
            expected = reference_iou_matrix(a, b)
            got = _kernels.iou_matrix(a, b)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_far_apart_boxes_score_zero_without_overflow(self):
        # the gaps between these boxes leave the float range; only
        # overlapping pairs are measured, so no step overflows
        boxes = np.array([[0.0, 0.0, 1.0, 1.0],
                          [1e155, 1e155, 5e153, 5e153],
                          [-1e308, 0.0, 1e307, 1.0],
                          [1e308, 0.0, 1e307, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _kernels.iou_matrix(boxes, boxes)
        np.testing.assert_allclose(out, np.eye(4), rtol=1e-15, atol=0.0)

    def test_empty_inputs(self):
        out = _kernels.iou_matrix(np.zeros((0, 4)), np.zeros((3, 4)))
        assert out.shape == (0, 3)

    def test_symmetry(self, rng):
        a = rng.uniform(0, 50, size=(5, 4))
        a[:, 2:] += 1.0
        out = _kernels.iou_matrix(a, a)
        np.testing.assert_allclose(out, out.T)
        np.testing.assert_allclose(np.diag(out), 1.0)
