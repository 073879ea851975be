import warnings

import numpy as np
import pytest

from geotrack.errors import ConfigError, DataError
from geotrack.evaluation import (
    GeoCriterion,
    greedy_match,
    mahalanobis_distance,
    mot_metrics,
    pr_curve,
    pr_curve_svg,
    translation_error_stats,
)
from geotrack.geometry import WORLD, Pose5D
from geotrack.scene import MotEntry
from helpers import raises_internal

BOX_A = np.array([10.0, 10.0, 20.0, 40.0])
BOX_B = np.array([200.0, 50.0, 20.0, 40.0])


def entries_for(track_rows):
    """track_rows: {track_id: [(frame, bbox), ...]}"""
    out = []
    for tid, rows in track_rows.items():
        for frame, bbox in rows:
            out.append(MotEntry(frame=frame, track_id=tid, bbox=bbox))
    return out


def two_object_gt(n_frames=10):
    return entries_for({
        1: [(f, BOX_A) for f in range(n_frames)],
        2: [(f, BOX_B) for f in range(n_frames)],
    })


def pose(x, y, z, r=(0.0, -1.0)):
    return Pose5D((x, y, z), r, WORLD)


class TestMotMetrics:
    def test_perfect_hypotheses(self):
        gt = two_object_gt()
        report = mot_metrics(gt, gt)
        assert report.mota == 1.0
        assert report.motp == 1.0
        assert report.ids == 0
        assert report.mt == 2 and report.ml == 0

    def test_hand_constructed_clear_scenario(self):
        # 2 GT x 10 frames = 20 boxes; one miss, one identity switch, no FP
        gt = two_object_gt()
        hyp = entries_for({
            1: [(f, BOX_A) for f in range(10) if f != 4],  # 1 FN
            2: [(f, BOX_B) for f in range(5)],
            3: [(f, BOX_B) for f in range(5, 10)],  # 1 IDS
        })
        report = mot_metrics(gt, hyp)
        assert report.fn == 1 and report.fp == 0 and report.ids == 1
        assert report.mota == pytest.approx(0.9)
        assert report.gt_total == 20
        assert report.mt == 2 and report.ml == 0

    def test_all_hypotheses_dropped(self):
        gt = two_object_gt()
        report = mot_metrics(gt, [])
        assert report.mota == 0.0
        assert report.fn == 20
        assert report.ml == 2 and report.mt == 0

    def test_false_positive_counted(self):
        gt = two_object_gt(2)
        hyp = two_object_gt(2) + entries_for({9: [(0, np.array([500.0, 500, 10, 10]))]})
        report = mot_metrics(gt, hyp)
        assert report.fp == 1
        assert report.mota == pytest.approx(1.0 - 1.0 / 4.0)

    def test_miss_then_resume_same_id_is_not_a_switch(self):
        gt = entries_for({1: [(f, BOX_A) for f in range(6)]})
        hyp = entries_for({7: [(f, BOX_A) for f in range(6) if f != 3]})
        report = mot_metrics(gt, hyp)
        assert report.ids == 0
        assert report.fn == 1

    def test_low_iou_not_matched(self):
        gt = entries_for({1: [(0, BOX_A)]})
        shifted = BOX_A + np.array([15.0, 0, 0, 0])  # IoU well under 0.5
        hyp = entries_for({1: [(0, shifted)]})
        report = mot_metrics(gt, hyp)
        assert report.fn == 1 and report.fp == 1

    def test_correspondence_continuity_beats_greedy_iou(self):
        # a second hypothesis slightly closer must not steal a live match
        gt = entries_for({1: [(0, BOX_A), (1, BOX_A)]})
        near = BOX_A + np.array([1.0, 0, 0, 0])
        hyp = [MotEntry(frame=0, track_id=5, bbox=BOX_A),
               MotEntry(frame=1, track_id=5, bbox=near),
               MotEntry(frame=1, track_id=6, bbox=BOX_A)]
        report = mot_metrics(gt, hyp)
        assert report.ids == 0
        assert report.fp == 1  # track 6 is surplus in frame 1

    def test_requires_ground_truth(self):
        with pytest.raises(DataError, match="no ground-truth boxes to evaluate against"):
            mot_metrics([], two_object_gt())

    def test_permutation_invariance(self, rng):
        gt = two_object_gt()
        hyp = two_object_gt()
        r1 = mot_metrics(gt, hyp)
        order = rng.permutation(len(hyp))
        r2 = mot_metrics([gt[i] for i in rng.permutation(len(gt))],
                         [hyp[i] for i in order])
        assert r1.as_dict() == r2.as_dict()


class TestMahalanobis:
    SEMI = (0.4, 0.39, 3.84)

    def test_on_axis_point_returns_limit(self):
        assert mahalanobis_distance((0.4, 0.0, 0.0), self.SEMI, 3.0) == 3.0

    def test_zero_displacement(self):
        assert mahalanobis_distance((0.0, 0.0, 0.0), self.SEMI, 3.0) == 0.0

    def test_scaled_ellipsoid_point(self):
        delta = np.array(self.SEMI) / np.sqrt(3.0)
        assert mahalanobis_distance(delta, self.SEMI, 3.0) == pytest.approx(3.0)

    def test_equal_semi_axes_reduce_to_euclidean(self, rng):
        s, limit = 2.5, 3.0
        for _ in range(50):
            delta = rng.normal(size=3)
            expected = limit / s * np.linalg.norm(delta)
            assert mahalanobis_distance(delta, (s, s, s), limit) == pytest.approx(
                expected, abs=1e-12
            )

    @pytest.mark.parametrize("limit", [1e200, 1e300])
    def test_huge_limit_keeps_the_ellipsoid(self, limit):
        """A limit whose squares overflow still gates by the ellipsoid, and
        numpy prints no RuntimeWarning on the way."""
        stack = np.array([[0.2, 0.0, 0.0], [0.0, 0.39, 0.0], [0.8, 0.0, 0.0],
                          [1e300, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = mahalanobis_distance(stack, self.SEMI, limit)
            single = mahalanobis_distance(stack[0], self.SEMI, limit)
        assert dist[0] == pytest.approx(limit / 2) and dist[0] <= limit
        assert dist[1] == limit
        assert dist[2] > limit and dist[3] > limit
        assert isinstance(single, np.floating) and single == dist[0]

    def test_rejects_bad_semi_axes(self):
        with pytest.raises(ConfigError):
            mahalanobis_distance((1, 1, 1), (0.0, 1.0, 1.0))

    def test_stack_equals_row_at_a_time(self, rng):
        stack = rng.normal(scale=3.0, size=(7, 5, 3))
        dist = mahalanobis_distance(stack, self.SEMI, 3.0)
        assert dist.shape == (7, 5)
        rows = np.array([[mahalanobis_distance(d, self.SEMI, 3.0) for d in row]
                         for row in stack])
        assert dist.tobytes() == rows.tobytes()
        assert isinstance(mahalanobis_distance(stack[0, 0], self.SEMI), np.floating)


class TestGeoCriterion:
    """A finite ``distances`` entry accepts the pair, ``inf`` rejects it."""

    def test_euclidean_gate(self):
        crit = GeoCriterion(kind="euclidean", radius=2.0)
        d = crit.distances([pose(0, 0, 0)], [pose(0, 0, 1.9), pose(0, 0, 2.1)])
        assert d.shape == (1, 2)
        assert d[0, 0] == pytest.approx(1.9)
        assert d[0, 1] == np.inf

    def test_mahalanobis_gate_depth_tolerant(self):
        crit = GeoCriterion(kind="mahalanobis", limit=3.0,
                            semi_axes=(0.4, 0.39, 3.84))
        d = crit.distances([pose(0, 0, 0), pose(0.5, 0, 0)], [pose(0, 0, 3.0),
                                                             pose(0, 0, 0)])
        assert np.isfinite(d[0, 0])  # deep miss ok
        assert d[1, 1] == np.inf  # lateral not

    def test_rotation_gate(self):
        crit = GeoCriterion(kind="euclidean", radius=2.0, rotation_gate_deg=20.0)
        aligned = pose(0, 0, 0, r=(0.0, -1.0))
        slightly = pose(0, 0, 0.5, r=(np.sin(np.radians(10)),
                                      -np.cos(np.radians(10))))
        crooked = pose(0, 0, 0.5, r=(np.sin(np.radians(40)),
                                     -np.cos(np.radians(40))))
        d = crit.distances([slightly, crooked], [aligned])
        assert d[0, 0] == pytest.approx(0.5)
        assert d[1, 0] == np.inf

    @pytest.mark.parametrize("kind", ["euclidean", "mahalanobis"])
    def test_huge_poses_rejected_without_warnings(self, kind):
        """Distances that overflow are infinite, so the gate rejects them,
        and numpy prints no RuntimeWarning on the way."""
        crit = GeoCriterion(kind=kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = crit.distances([pose(1e308, 0, 0), pose(1e300, 1e300, 0), pose(0, 0, 0.1)],
                               [pose(-1e308, 0, 0), pose(0, 0, 0)])
        assert (d[:2] == np.inf).all() and d[2, 0] == np.inf
        assert np.isfinite(d[2, 1])

    def test_empty_sides(self):
        crit = GeoCriterion(rotation_gate_deg=10.0)
        assert crit.distances([], []).shape == (0, 0)
        assert crit.distances([], [pose(0, 0, 0)]).shape == (0, 1)
        assert crit.distances([pose(0, 0, 0)], []).shape == (1, 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GeoCriterion(kind="cityblock")
        with pytest.raises(ConfigError):
            GeoCriterion(radius=0.0)
        with pytest.raises(ConfigError):
            GeoCriterion(semi_axes=(1.0, -1.0, 1.0))


class TestPrCurve:
    CRIT = GeoCriterion(kind="euclidean", radius=2.0)

    def test_exact_predictions(self):
        gts = [pose(0, 0, 10), pose(5, 0, 20)]
        preds = [(gts[0], 2.0), (gts[1], 1.0)]
        points = pr_curve(preds, gts, self.CRIT)
        assert all(p == 1.0 and r == (k + 1) / 2 for k, (p, r, _) in
                   enumerate(points))

    def test_single_miss(self):
        points = pr_curve([(pose(0, 0, 3.0), 1.0)], [pose(0, 0, 0)], self.CRIT)
        assert points == [(0.0, 0.0, 1.0)]

    def test_hand_fixture_three_predictions(self):
        gts = [pose(0, 0, 0), pose(10, 0, 0)]
        preds = [
            (pose(0, 0, 0.5), 3.0),   # hits gt 0
            (pose(50, 0, 0), 2.0),    # hits nothing
            (pose(10, 0, 1.0), 1.0),  # hits gt 1
        ]
        points = pr_curve(preds, gts, self.CRIT)
        assert points[0] == (1.0, pytest.approx(0.5), 3.0)
        assert points[1] == (pytest.approx(0.5), pytest.approx(0.5), 2.0)
        assert points[2] == (pytest.approx(2 / 3), pytest.approx(1.0), 1.0)

    def test_each_gt_used_once(self):
        gt = [pose(0, 0, 0)]
        preds = [(pose(0, 0, 0.1), 2.0), (pose(0, 0, 0.2), 1.0)]
        points = pr_curve(preds, gt, self.CRIT)
        assert points[-1] == (pytest.approx(0.5), pytest.approx(1.0), 1.0)

    def test_recall_monotone(self, rng):
        gts = [pose(*rng.uniform(-20, 20, 3)) for _ in range(10)]
        preds = [(pose(*rng.uniform(-20, 20, 3)), float(rng.random()))
                 for _ in range(25)]
        points = pr_curve(preds, gts, self.CRIT)
        recalls = [r for _, r, _ in points]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    def test_scene_isolation(self):
        gt = [(pose(0, 0, 0), "a")]
        preds = [(pose(0, 0, 0.1), 1.0, "b")]  # right place, wrong scene
        points = pr_curve(preds, gt, self.CRIT)
        assert points[-1][1] == 0.0

    def test_greedy_match_prefers_nearest(self):
        gts = [pose(0, 0, 0), pose(0, 0, 1.0)]
        preds = [(pose(0, 0, 0.9), 1.0)]
        _, pairs, _ = greedy_match(preds, gts, self.CRIT)
        assert pairs == [(0, 1)]

    def test_permutation_invariant_under_tied_scores(self, rng):
        gts = [pose(*rng.uniform(-20, 20, 3)) for _ in range(8)]
        preds = [(pose(*rng.uniform(-20, 20, 3)), float(rng.integers(1, 4)))
                 for _ in range(15)]  # few distinct scores -> many ties
        base = pr_curve(preds, gts, self.CRIT)
        for _ in range(5):
            perm = rng.permutation(len(preds))
            shuffled = [preds[i] for i in perm]
            assert pr_curve(shuffled, gts, self.CRIT) == base


def reference_distance(criterion, a, b):
    """The per-pair gate distance: scalar norm or scalar Mahalanobis."""
    delta = a.T - b.T
    if criterion.kind == "euclidean":
        return float(np.linalg.norm(delta))
    semi = np.asarray(criterion.semi_axes, dtype=np.float64)
    return float(np.sqrt(np.sum((criterion.limit * (delta / semi)) ** 2)))


def reference_accepts(criterion, a, b):
    """The per-pair gate, with the scalar angle for the rotation gate."""
    bound = criterion.radius if criterion.kind == "euclidean" else criterion.limit
    if reference_distance(criterion, a, b) > bound:
        return False
    if criterion.rotation_gate_deg is None:
        return True
    cross = a.R[0] * b.R[1] - a.R[1] * b.R[0]
    dot = a.R[0] * b.R[0] + a.R[1] * b.R[1]
    return not float(np.degrees(np.arctan2(abs(cross), dot))) > criterion.rotation_gate_deg


def reference_greedy_match(predictions, ground_truth, criterion):
    """The per-pair greedy matcher the gate matrix replaced: each prediction
    scans the free objects of its scene and keeps the first strictly nearer
    accepted one."""
    preds = [(p, float(s), (*rest, "")[0]) for p, s, *rest in predictions]
    gts = [(*g, "")[:2] if isinstance(g, tuple) else (g, "") for g in ground_truth]
    order = sorted(range(len(preds)), key=lambda i: (
        -preds[i][1], preds[i][2], tuple(preds[i][0].T), tuple(preds[i][0].R)))
    taken, tp_flags, pairs = set(), [], []
    for i in order:
        pred, _, scene = preds[i]
        best = None
        for j, (gt, gt_scene) in enumerate(gts):
            if j in taken or gt_scene != scene or not reference_accepts(criterion, pred, gt):
                continue
            d = reference_distance(criterion, pred, gt)
            if best is None or d < best[0]:
                best = (d, j)
        tp_flags.append(best is not None)
        if best is not None:
            taken.add(best[1])
            pairs.append((i, best[1]))
    return tp_flags, pairs, order


def reference_pr_curve(predictions, ground_truth, criterion):
    tp_flags, _, order = reference_greedy_match(predictions, ground_truth, criterion)
    n_gt = len(ground_truth)
    points, tp = [], 0
    for k, (flag, idx) in enumerate(zip(tp_flags, order), start=1):
        tp += flag
        points.append((tp / k, tp / n_gt if n_gt else 0.0, float(predictions[idx][1])))
    return points


# facing directions whose pairwise angles come out as exactly 0, 45, ..., 180
_D = np.sqrt(0.5)
_COMPASS = [(1.0, 0.0), (_D, _D), (0.0, 1.0), (-_D, _D),
            (-1.0, 0.0), (-_D, -_D), (0.0, -1.0), (_D, -_D)]


def random_case(rng):
    """A small geo-matching problem on a half-meter grid, so exact ties, exact
    hits and points exactly on the gate boundary are common."""
    kind = ("euclidean", "mahalanobis")[rng.integers(2)]
    crit = GeoCriterion(
        kind=kind, radius=float(rng.choice([0.5, 1.0, 1.5, 2.0])),
        limit=float(rng.choice([1.0, 2.0, 3.0])),
        semi_axes=tuple(float(x) for x in rng.choice([0.5, 1.0, 2.0], 3)),
        rotation_gate_deg=[None, 0.0, 45.0, 90.0][rng.integers(4)],
    )
    scenes = ["", "a"] if rng.random() < 0.3 else [""]

    def grid_pose():
        return pose(*(0.5 * rng.integers(-3, 4, 3)), r=_COMPASS[rng.integers(8)])

    gts = [grid_pose() for _ in range(rng.integers(0, 7))]
    ground_truth = ([(g, str(rng.choice(scenes))) for g in gts]
                    if len(scenes) > 1 else gts)
    predictions = []
    for _ in range(rng.integers(0, 9)):
        on_object = gts and rng.random() < 0.3
        pred = gts[rng.integers(len(gts))] if on_object else grid_pose()
        item = (pred, float(rng.integers(1, 4)))  # few scores: many ties
        predictions.append(item + (str(rng.choice(scenes)),)
                           if len(scenes) > 1 else item)
    return predictions, ground_truth, crit


class TestAgainstPerPairReference:
    def test_matches_reference_exactly(self):
        rng = np.random.default_rng(7)
        hits = boundary = 0
        for _ in range(600):
            preds, gts, crit = random_case(rng)
            flags, pairs, order = greedy_match(preds, gts, crit)
            assert (flags, pairs, order) == reference_greedy_match(preds, gts, crit)
            assert all(type(f) is bool for f in flags)
            assert pr_curve(preds, gts, crit) == reference_pr_curve(preds, gts, crit)
            gt_poses = [g[0] if isinstance(g, tuple) else g for g in gts]
            dist = crit.distances([p[0] for p in preds], gt_poses)
            bound = crit.radius if crit.kind == "euclidean" else crit.limit
            for i, (pred, *_) in enumerate(preds):
                for j, gt in enumerate(gt_poses):
                    expected = (reference_distance(crit, pred, gt)
                                if reference_accepts(crit, pred, gt) else np.inf)
                    assert dist[i, j] == expected
                    boundary += expected == bound
            hits += len(pairs)
        assert hits > 300 and boundary > 30  # the cases exercise the gate

    def test_tie_takes_lowest_index(self):
        crit = GeoCriterion(kind="euclidean", radius=2.0)
        gts = [pose(1, 0, 0), pose(-1, 0, 0), pose(1, 0, 0)]
        preds = [(pose(0, 0, 0), 3.0), (pose(0, 0, 0), 2.0), (pose(0, 0, 0), 1.0)]
        _, pairs, _ = greedy_match(preds, gts, crit)
        assert pairs == [(0, 0), (1, 1), (2, 2)]
        assert pairs == reference_greedy_match(preds, gts, crit)[1]

    def test_gate_boundary_accepts(self):
        for crit, offset in ((GeoCriterion(kind="euclidean", radius=2.0), (0, 0, 2.0)),
                             (GeoCriterion(kind="mahalanobis", limit=3.0,
                                           semi_axes=(0.5, 1.0, 2.0)), (0.5, 0, 0))):
            tp_flags, _, _ = greedy_match([(pose(*offset), 1.0)], [pose(0, 0, 0)], crit)
            assert tp_flags == [True]


class TestTranslationErrors:
    def test_identical_poses(self):
        pairs = [(pose(1, 2, 3), pose(1, 2, 3))]
        stats = translation_error_stats(pairs)
        np.testing.assert_array_equal(stats.mean, [0, 0, 0])

    def test_hand_values(self):
        pairs = [
            (pose(0.1, 0, 0), pose(0, 0, 0)),
            (pose(-0.3, 0, 0), pose(0, 0, 0)),
        ]
        stats = translation_error_stats(pairs)
        assert stats.mean[0] == pytest.approx(0.2)
        assert stats.median[0] == pytest.approx(0.2)
        assert stats.count == 2

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="need at least one matched pair"):
            translation_error_stats([])

    def test_frame_mismatch_rejected(self):
        with raises_internal("poses in frames 'world' and 'reference' do not compare"):
            translation_error_stats([
                (pose(0, 0, 0), Pose5D((0, 0, 0), (0, -1), "reference"))
            ])


class TestSvg:
    def test_marker_per_point(self):
        points = [(1.0, 0.3, 3.0), (0.9, 0.6, 2.0), (0.8, 1.0, 1.0)]
        svg = pr_curve_svg(points)
        assert svg.count("<circle") == 3
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")

    def test_empty_curve_is_valid_svg(self):
        svg = pr_curve_svg([])
        assert svg.count("<circle") == 0
        assert "<svg" in svg
