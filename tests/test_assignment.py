import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack.assignment import hungarian, solve_max
from geotrack.errors import GeotrackError
from helpers import raises_internal


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
