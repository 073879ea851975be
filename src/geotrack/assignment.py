"""Optimal assignment on score matrices (maximization form).

Wraps the shortest-augmenting-path kernel from ``_kernels`` and adds the
tie rule used throughout the package: among assignments with exactly equal
total score, the lexicographically smallest (row, column) pairing wins.
A tie that exists only through float rounding, with totals equal as floats
but not as exact sums of the scores, may resolve to another float-equal
assignment (110 of 3,000 random draws from {0.1, 0.2, 0.3, 0.7}), because
only entries whose reduced cost under the float duals is exactly zero are
tried.
``_lex_refine`` re-solves for an entry left of a row's column only when
its reduced cost is exactly zero and an alternating path of near-tight
entries could carry the rest of the solution around it; a solve without
such an entry is one kernel call.

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

# A reduced cost at most this share of the largest finite |cost| counts as
# tight when ``_lex_refine`` looks for an alternating path, so rounding in
# the duals cannot hide a tie from it; a wider net only skips fewer
# re-solves.
TIE_TOLERANCE = 1e-9


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


def _alternating_path(near, assign, fixed, i, j):
    """Whether row ``i`` can take column ``j`` over near-tight entries: a
    chain from ``j``'s holder, through rows below ``i``, each moving to a
    near-tight column, ends at ``assign[i]`` or at a column no row holds."""
    m, n_cols = near.shape
    holder = np.full(n_cols, -1)
    holder[assign[i:]] = np.arange(i, m)
    row = holder[j]
    if row == -1:
        return True
    open_cols = ~fixed
    open_cols[j] = False
    ends = open_cols & (holder == -1)
    ends[assign[i]] = True
    seen = np.zeros(m, dtype=bool)
    seen[row] = True
    frontier = [row]
    while len(frontier):
        reach = near[frontier].any(axis=0) & open_cols
        if (reach & ends).any():
            return True
        frontier = holder[reach]
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
    return False


def _lex_refine(score, cost, assign, u, v):
    """Swap toward the lexicographically smallest exactly-tied assignment.

    Row by row, every column left of the row's own whose reduced cost is
    exactly zero is tried in turn: the rows below are re-solved without it
    and the swap is kept when the total is exactly unchanged. An optimal
    assignment that gives row ``i`` column ``j`` differs from ``assign`` by
    an alternating path of tight entries, so the re-solve runs only when
    ``_alternating_path`` finds one among the near-tight entries.
    """
    m, n_cols = cost.shape
    # a forbidden entry (cost +inf) never has a zero reduced cost
    reduced = cost - u[:, None] - v
    tight = reduced == 0.0
    first_tight = np.where(tight.any(axis=1), tight.argmax(axis=1), n_cols)
    if not (first_tight < assign).any():
        return assign
    near = reduced <= TIE_TOLERANCE * np.abs(cost[cost < np.inf]).max()
    best_total = _total(score, assign)
    assign = assign.copy()
    fixed = np.zeros(n_cols, dtype=bool)
    for i in range(m):
        tried = np.flatnonzero(tight[i, :assign[i]]) if first_tight[i] < assign[i] else ()
        for j in tried:
            if fixed[j] or not _alternating_path(near, assign, fixed, i, j):
                continue
            rest_rows = list(range(i + 1, m))
            sub_cols = [c for c in range(n_cols) if c != j and not fixed[c]]
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
        fixed[assign[i]] = True
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
    col4row = _solve(score)
    return col4row, _total(score, col4row)


def _solve(score):
    """``solve_max``'s assignment of a float64 (m, n_cols) ``score`` with
    1 <= m <= n_cols and no NaN or +inf, which the caller has checked."""
    cost = -score
    try:
        col4row, u, v = solve_lap_min(cost)
    except ValueError as exc:
        raise GeotrackError(str(exc)) from exc
    if not np.isfinite(score[np.arange(score.shape[0]), col4row]).all():
        raise GeotrackError("only forbidden entries available")
    return _lex_refine(score, cost, col4row, u, v)


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
        sub_col4row = _solve(score[np.ix_(rows, cols)])
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
