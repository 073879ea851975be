"""Optimal assignment on score matrices (maximization form).

Wraps the shortest-augmenting-path kernel from ``_kernels`` and adds the
tie rule used throughout the package: among assignments with exactly equal
total score, the lexicographically smallest (row, column) pairing wins.
Tie resolution only ever triggers on exact score ties (certified through
zero reduced costs), so the common case stays a single O(k^3) solve.

``hungarian`` solves the tracking layout, where column n + i is row i's
null option and -inf in every other row. A row whose detection scores all
lie strictly below its null takes that null in every optimal assignment:
moving it from a detection to its null, which no other row can hold,
would raise the total. So only the other rows are solved, on their own
submatrix (every detection column plus their null columns). The submatrix
keeps the columns' order and the set-aside rows are fixed, so the
lexicographic tie rule picks the same assignment as a solve of the full
matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import solve_lap_min
from .errors import GeotrackError

__all__ = ["AssignmentResult", "solve_max", "hungarian"]


@dataclass
class AssignmentResult:
    """Partition of tracks and detections produced by one assignment."""

    matches: list = field(default_factory=list)  # (track_index, detection_index)
    unmatched_tracks: list = field(default_factory=list)
    unmatched_detections: list = field(default_factory=list)


def _total(score, assign):
    m = assign.shape[0]
    if m == 0:
        return 0.0
    return float(np.sum(score[np.arange(m), assign]))


def _lex_refine(score, cost, assign, u, v):
    """Swap toward the lexicographically smallest exactly-tied assignment."""
    m, n_cols = cost.shape
    best_total = _total(score, assign)
    assign = assign.copy()
    fixed = set()
    for i in range(m):
        for j in range(int(assign[i])):
            if j in fixed:
                continue
            # a forbidden entry (cost +inf) never has a zero reduced cost
            if cost[i, j] - u[i] - v[j] != 0.0:
                continue
            rest_rows = list(range(i + 1, m))
            sub_cols = [c for c in range(n_cols) if c != j and c not in fixed]
            candidate = assign.copy()
            candidate[i] = j
            if rest_rows:
                try:
                    sub_assign, _, _ = solve_lap_min(cost[np.ix_(rest_rows, sub_cols)])
                except ValueError:
                    continue
                for r, c_idx in zip(rest_rows, sub_assign):
                    candidate[r] = sub_cols[c_idx]
            if _total(score, candidate) == best_total:
                assign = candidate
                break
        fixed.add(int(assign[i]))
    return assign


def solve_max(score):
    """Maximize the total score of a complete row assignment.

    ``score`` is (m, n_cols) with m <= n_cols; -inf marks forbidden pairs.
    Returns (col4row, total_score).
    """
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
        col4row, u, v = solve_lap_min(cost)
    except ValueError as exc:
        raise GeotrackError(str(exc)) from exc
    if not np.isfinite(score[np.arange(m), col4row]).all():
        raise GeotrackError("only forbidden entries available")
    col4row = _lex_refine(score, cost, col4row, u, v)
    return col4row, _total(score, col4row)


def hungarian(score):
    """Assignment over a tracking score matrix of shape (m, n + m).

    Columns 0..n-1 are detections, column n+i is the null option of track
    i, -inf in every other row. Rows matched to a null column become
    unmatched tracks; detection columns that no row takes become unmatched
    detections.
    """
    score = np.asarray(score, dtype=np.float64)
    m = score.shape[0] if score.ndim == 2 else 0
    if score.ndim != 2 or score.shape[1] < m:
        raise GeotrackError(
            f"tracking score matrix must be (m, n + m); got {score.shape}"
        )
    n = score.shape[1] - m
    if np.isnan(score).any() or (score == np.inf).any():
        raise GeotrackError("scores must be finite or -inf")
    nulls = score[:, n:]
    null = nulls.diagonal()
    if (nulls[~np.eye(m, dtype=bool)] != -np.inf).any():
        raise GeotrackError("null column n + i must be -inf outside row i")
    # only rows with a detection scoring at least their null need a solve;
    # the rest keep the null (module docstring). A row without a null
    # always needs one.
    rows = np.flatnonzero((score[:, :n] >= null[:, None]).any(axis=1) | (null == -np.inf))
    col4row = np.arange(n, n + m)
    if rows.size:
        cols = np.concatenate([np.arange(n), n + rows])
        sub_col4row, _ = solve_max(score[np.ix_(rows, cols)])
        col4row[rows] = cols[sub_col4row]
    result = AssignmentResult()
    taken = set()
    for i in range(m):
        j = int(col4row[i])
        if j < n:
            result.matches.append((i, j))
            taken.add(j)
        else:
            result.unmatched_tracks.append(i)
    result.unmatched_detections = [j for j in range(n) if j not in taken]
    return result
