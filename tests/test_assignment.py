import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack import assignment
from geotrack.assignment import hungarian, solve_max
from geotrack.errors import GeotrackError
from helpers import raises_internal


def reference_lap_min(cost):
    """The cold-started scan that ``_kernels.solve_lap_min`` ran before its
    greedy start: every row is augmented, in ascending order."""
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


def _reference_total(score, assign):
    m = assign.shape[0]
    if m == 0:
        return 0.0
    return float(np.sum(score[np.arange(m), assign]))


def reference_lex_refine(score, cost, assign, u, v):
    """The tie refinement before its certificate: it re-solves the rows
    below for every zero-reduced-cost entry left of a row's column."""
    m, n_cols = cost.shape
    best_total = _reference_total(score, assign)
    assign = assign.copy()
    fixed = set()
    for i in range(m):
        for j in range(int(assign[i])):
            if j in fixed:
                continue
            if cost[i, j] - u[i] - v[j] != 0.0:
                continue
            rest_rows = list(range(i + 1, m))
            sub_cols = [c for c in range(n_cols) if c != j and c not in fixed]
            candidate = assign.copy()
            candidate[i] = j
            if rest_rows:
                try:
                    sub_assign, _, _ = reference_lap_min(cost[np.ix_(rest_rows, sub_cols)])
                except ValueError:
                    continue
                for r, c_idx in zip(rest_rows, sub_assign):
                    candidate[r] = sub_cols[c_idx]
            if _reference_total(score, candidate) == best_total:
                assign = candidate
                break
        fixed.add(int(assign[i]))
    return assign


def reference_solve_max(score):
    """``solve_max`` as it was before the greedy start and the tie
    certificate: a cold scan, then a re-solve for every tight entry."""
    score = np.asarray(score, dtype=np.float64)
    if score.ndim != 2:
        raise GeotrackError("score matrix must be 2-D")
    m, n_cols = score.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    if m > n_cols:
        raise GeotrackError(
            f"{m} rows cannot all be assigned among {n_cols} columns"
        )
    if np.isnan(score).any() or (score == np.inf).any():
        raise GeotrackError("scores must be finite or -inf")
    cost = -score
    try:
        col4row, u, v = reference_lap_min(cost)
    except ValueError as exc:
        raise GeotrackError(str(exc)) from exc
    if not np.isfinite(score[np.arange(m), col4row]).all():
        raise GeotrackError("only forbidden entries available")
    col4row = reference_lex_refine(score, cost, col4row, u, v)
    return col4row, _reference_total(score, col4row)


def brute_force_max(score):
    """Exhaustive-search oracle over complete row assignments."""
    m, n = score.shape
    best = None
    for perm in permutations(range(n), m):
        if any(score[i, perm[i]] == -np.inf for i in range(m)):
            continue
        total = float(np.sum(score[np.arange(m), list(perm)]))
        if best is None or total > best:
            best = total
    return best


def tracker_matrix(rng, m, n):
    """Random score matrix in the tracker layout: m x (n + m) with nulls."""
    score = np.full((m, n + m), -np.inf)
    if n:
        score[:, :n] = rng.random((m, n))
    for i in range(m):
        score[i, n + i] = rng.random() * 0.5
    return score


class TestSolveMax:
    def test_simple_2x2(self):
        score = np.array([[1.0, 2.0], [2.0, 1.0]])
        assign, total = solve_max(score)
        assert list(assign) == [1, 0]
        assert total == 4.0

    def test_matches_brute_force_rectangular(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 8))
            score = rng.normal(size=(m, n))
            _, total = solve_max(score)
            assert total == pytest.approx(brute_force_max(score), abs=1e-12)

    def test_respects_forbidden_entries(self):
        score = np.array([[-np.inf, 1.0], [2.0, -np.inf]])
        assign, total = solve_max(score)
        assert list(assign) == [1, 0]
        assert total == 3.0

    def test_infeasible_shapes(self):
        with raises_internal("3 rows cannot all be assigned among 2 columns"):
            solve_max(np.zeros((3, 2)))
        with raises_internal("scores must be finite or -inf"):
            solve_max(np.array([[np.nan, 1.0]]))
        with raises_internal("scores must be finite or -inf"):
            solve_max(np.array([[np.inf, 1.0]]))

    def test_all_forbidden_infeasible(self):
        with raises_internal("no feasible complete assignment"):
            solve_max(np.full((1, 2), -np.inf))

    def test_lexicographic_tie_break_all_equal(self):
        assign, _ = solve_max(np.ones((3, 3)))
        assert list(assign) == [0, 1, 2]

    def test_lexicographic_tie_break_constructed(self):
        # both diagonals total 2; (0,0),(1,1) is lexicographically smaller
        score = np.array([[2.0, 1.0], [1.0, 0.0]])
        assign, total = solve_max(score)
        assert total == 2.0
        assert list(assign) == [0, 1]

    def test_empty(self):
        assign, total = solve_max(np.zeros((0, 4)))
        assert assign.size == 0 and total == 0.0

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_tracker_layout_optimal(self, seed, m, n):
        rng = np.random.default_rng(seed)
        score = tracker_matrix(rng, m, n)
        _, total = solve_max(score)
        assert total == pytest.approx(brute_force_max(score), abs=1e-12)


def oracle_draw(rng, k):
    """A score matrix for the reference comparison: normal scores (ties are
    rare), integers 0-2 (ties everywhere), either with -inf forbidden entries
    and an occasional +inf, or the tracker layout whose nulls often tie
    their row's best detection."""
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m, 8))
    kind = k % 4
    if kind == 3:
        n_det = n - m
        score = np.full((m, n), -np.inf)
        score[:, :n_det] = (rng.integers(0, 3, size=(m, n_det)) if k % 8 == 3
                            else np.round(rng.normal(size=(m, n_det)), 1))
        for i in range(m):
            best = score[i, :n_det].max(initial=-np.inf)
            tie = best > -np.inf and rng.random() < 0.5
            score[i, n_det + i] = best if tie else rng.integers(0, 3)
        return score
    score = (rng.normal(size=(m, n)) if kind == 0
             else rng.integers(0, 3, size=(m, n)).astype(np.float64))
    if kind == 2:
        score[rng.random((m, n)) < rng.uniform(0.0, 0.6)] = -np.inf
        if rng.random() < 0.05:
            score[rng.integers(m), rng.integers(n)] = np.inf
    return score


def outcome(solve, score):
    try:
        col4row, total = solve(score)
    except GeotrackError as exc:
        return type(exc), str(exc)
    return col4row.tolist(), total


@pytest.fixture
def lap_calls(monkeypatch):
    """The shapes of the kernel calls ``solve_max`` makes, in order."""
    calls = []
    solve_lap_min = assignment.solve_lap_min

    def counted(cost):
        calls.append(cost.shape)
        return solve_lap_min(cost)

    monkeypatch.setattr(assignment, "solve_lap_min", counted)
    return calls


class TestAgainstReference:
    def test_solve_max_matches_reference(self, rng):
        # The greedy start and the tie certificate only skip work: the same
        # assignment, total and error as the cold scan plus a re-solve for
        # every tight entry.
        for k in range(3200):
            score = oracle_draw(rng, k)
            assert outcome(solve_max, score) == outcome(reference_solve_max, score), score

    def test_one_solver_call_on_random_scores(self, rng, lap_calls):
        for _ in range(40):
            lap_calls.clear()
            solve_max(rng.normal(size=(30, 35)))
            assert lap_calls == [(30, 35)]

    def test_tie_through_two_rows_is_resolved(self, lap_calls):
        # The greedy start gives row 1 column 0 and the scan ends at
        # [2, 0, 1], which ties [0, 1, 2]. Row 0 can take column 0 only if
        # row 1 moves to column 1 and row 2 to column 2, the one row 0
        # gives up: an alternating path two rows long.
        score = np.array([[2.0, 1.0, 2.0],
                          [2.0, 1.0, 0.0],
                          [2.0, 1.0, 2.0]])
        assert assignment.solve_lap_min(-score)[0].tolist() == [2, 0, 1]
        lap_calls.clear()
        assign, total = solve_max(score)
        assert assign.tolist() == [0, 1, 2] and total == 5.0
        assert lap_calls == [(3, 3), (2, 2)]


def partition_from_solve_max(score):
    """What ``hungarian`` must return: ``solve_max`` on the whole matrix."""
    m = score.shape[0]
    n = score.shape[1] - m
    col4row, _ = solve_max(score)
    matches = [(i, int(j)) for i, j in enumerate(col4row) if j < n]
    taken = {j for _, j in matches}
    unmatched = [i for i, j in enumerate(col4row) if j >= n]
    return matches, unmatched, [j for j in range(n) if j not in taken]


class TestHungarian:
    def test_prefers_detection_over_weak_null(self):
        score = np.array([[0.9, 0.1]])
        result = hungarian(score)
        assert result.matches == [(0, 0)]
        assert not result.unmatched_tracks
        assert not result.unmatched_detections

    def test_takes_null_when_better(self):
        score = np.array([[0.1, 0.9]])
        result = hungarian(score)
        assert result.matches == []
        assert result.unmatched_tracks == [0]
        assert result.unmatched_detections == [0]

    def test_two_track_cross_assignment(self):
        score = np.full((2, 4), -np.inf)
        score[:, :2] = [[1.0, 2.0], [2.0, 1.0]]
        score[0, 2] = score[1, 3] = 0.01
        result = hungarian(score)
        assert sorted(result.matches) == [(0, 1), (1, 0)]

    def test_null_only_matrix(self):
        score = np.full((2, 2), -np.inf)
        score[0, 0] = 0.3
        score[1, 1] = 0.6
        result = hungarian(score)  # n = 0: columns are all null options
        assert result.matches == []
        assert result.unmatched_tracks == [0, 1]

    def test_partition_complete(self, rng):
        for _ in range(100):
            m = int(rng.integers(0, 5))
            n = int(rng.integers(0, 5))
            result = hungarian(tracker_matrix(rng, m, n))
            matched_tracks = {i for i, _ in result.matches}
            matched_dets = {j for _, j in result.matches}
            assert matched_tracks | set(result.unmatched_tracks) == set(range(m))
            assert matched_dets | set(result.unmatched_detections) == set(range(n))
            assert len(matched_dets) == len(result.matches)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_row_reduction_matches_full_solve(self, seed, m, n):
        # Small integers force exact ties; some rows lose to their null on
        # every detection, some tie with it, some have a forbidden null.
        rng = np.random.default_rng(seed)
        score = np.full((m, n + m), -np.inf)
        score[:, :n] = rng.integers(0, 3, size=(m, n))
        score[:, :n][rng.random((m, n)) < 0.3] = -np.inf
        for i in range(m):
            best = score[i, :n].max(initial=-np.inf)
            kind = rng.integers(4)
            if kind == 0 and best > -np.inf:
                score[i, n + i] = best + rng.integers(1, 3)  # loses everywhere
            elif kind == 1 and best > -np.inf:
                score[i, n + i] = best  # ties its best detection
            elif kind == 2 and best > -np.inf:
                score[i, n + i] = -np.inf  # must take a detection
            else:
                score[i, n + i] = rng.integers(0, 3)
        try:
            expected = partition_from_solve_max(score)
        except GeotrackError as exc:
            with raises_internal(re.escape(str(exc))):
                hungarian(score)
            return
        result = hungarian(score)
        got = (result.matches, result.unmatched_tracks, result.unmatched_detections)
        assert got == expected

    def test_bad_entry_in_a_null_row_still_raises(self):
        # no comparison puts row 1 above its null, so no solve would see it
        for bad_row in ([np.nan, 0.1, -np.inf, 0.9], [0.2, 0.1, -np.inf, np.inf]):
            score = np.array([[0.5, 0.1, 0.2, -np.inf], bad_row])
            with raises_internal("scores must be finite or -inf"):
                hungarian(score)

    def test_finite_null_of_another_row_raises(self):
        score = np.array([[0.5, 0.1, 0.2],
                          [0.3, -np.inf, 0.9]])
        with raises_internal("null column n \\+ i must be -inf outside row i"):
            hungarian(score)
