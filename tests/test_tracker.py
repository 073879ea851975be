import numpy as np
import pytest

from geotrack.errors import EmptyTrackError, OutOfOrderFrameError
from geotrack.geometry import REFERENCE, Pose5D
from geotrack.matching import Matcher, augment_normalize
from geotrack.simulator import SimConfig, generate_scene, world_objects
from geotrack.tracker import (
    Track,
    TrackerState,
    TrackInstance,
    aggregate_pose,
    finalize,
    geolocation_report,
    score_matrix,
    step,
    track_scene,
)


def instance(frame, t=(0.0, 0.0, 10.0), r=(0.0, 1.0), depth=None, desc=None):
    pose = Pose5D(t, r, REFERENCE)
    return TrackInstance(
        frame_index=frame,
        descriptor=desc if desc is not None else np.zeros(4),
        pose_ref=pose,
        depth=float(t[2]) if depth is None else depth,
    )


class StubMatcher:
    """Fixed per-instance scores: descriptor[0] indexes a score table."""

    def __init__(self, table, null=0.2, delta=8.0):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.null = null
        self.delta = delta

    def bundle(self, desc_rows, desc_cols):
        n1, n2 = len(desc_rows), len(desc_cols)
        bundle = augment_normalize(np.zeros((n1, n2)), self.delta)
        for r, desc in enumerate(desc_rows):
            row = self.table[int(desc[0])]
            bundle.fused[r, :n2] = row[:n2]
            bundle.S1n[r, -1] = self.null
        return bundle


class TestScoreMatrix:
    def test_max_rule_over_instances(self):
        # two instances of one track score 0.3 and 0.7 against detection 0
        track = Track(track_id=1, instances=[
            instance(0, desc=np.array([0.0])),
            instance(1, desc=np.array([1.0])),
        ])
        matcher = StubMatcher({0: [0.3], 1: [0.7]}, null=0.25)
        scores = score_matrix([track], [np.zeros(1)], matcher)
        assert scores.shape == (1, 2)
        assert scores[0, 0] == pytest.approx(0.7)
        assert scores[0, 1] == pytest.approx(0.25)  # mean null over instances

    def test_null_mean_over_instances(self):
        track = Track(track_id=1, instances=[
            instance(0, desc=np.array([0.0])),
            instance(1, desc=np.array([1.0])),
        ])

        class VaryingNull(StubMatcher):
            def bundle(self, rows, cols):
                b = super().bundle(rows, cols)
                for r, desc in enumerate(rows):
                    b.S1n[r, -1] = 0.1 if int(desc[0]) == 0 else 0.5
                return b

        matcher = VaryingNull({0: [0.0], 1: [0.0]})
        scores = score_matrix([track], [np.zeros(1)], matcher)
        assert scores[0, 1] == pytest.approx(0.3)

    def test_no_detections_gives_null_only(self):
        track = Track(track_id=1, instances=[instance(0, desc=np.array([0.0]))])
        scores = score_matrix([track], [], StubMatcher({0: []}, null=0.4))
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(0.4)

    def test_forbidden_structure(self):
        tracks = [
            Track(track_id=1, instances=[instance(0, desc=np.array([0.0]))]),
            Track(track_id=2, instances=[instance(0, desc=np.array([1.0]))]),
        ]
        matcher = StubMatcher({0: [0.5], 1: [0.5]})
        scores = score_matrix(tracks, [np.zeros(1)], matcher)
        assert scores.shape == (2, 3)
        assert scores[0, 2] == -np.inf  # track 0 cannot take track 1's null
        assert scores[1, 1] == -np.inf
        assert np.isfinite(scores[0, 1]) and np.isfinite(scores[1, 2])

    def test_empty_tracks(self):
        scores = score_matrix([], [np.zeros(1)], StubMatcher({}))
        assert scores.shape == (0, 1)


class TestAggregatePose:
    def test_single_instance_identity(self):
        track = Track(track_id=1, instances=[instance(0, (1.0, 2.0, 3.0))])
        pose = aggregate_pose(track)
        np.testing.assert_allclose(pose.T, [1, 2, 3])
        assert pose.frame_id == REFERENCE

    def test_median_midpoint(self):
        track = Track(track_id=1, instances=[
            instance(0, (0.0, 0.0, 10.0)), instance(1, (0.0, 0.0, 12.0)),
        ])
        np.testing.assert_allclose(aggregate_pose(track, "median").T,
                                   [0, 0, 11])

    def test_median_robust_to_outlier(self):
        track = Track(track_id=1, instances=[
            instance(0, (0.0, 0.0, 10.0)),
            instance(1, (0.0, 0.0, 10.2)),
            instance(2, (0.0, 0.0, 55.0)),
        ])
        assert aggregate_pose(track, "median").T[2] == pytest.approx(10.2)
        assert aggregate_pose(track, "mean").T[2] == pytest.approx(25.0667,
                                                                   abs=1e-3)

    def test_inverse_depth_weighting(self):
        track = Track(track_id=1, instances=[
            instance(0, (0.0, 0.0, 10.0), depth=10.0),
            instance(1, (0.0, 0.0, 40.0), depth=40.0),
        ])
        # weights 1/10 and 1/40 -> (10*4 + 40*1)/5 = 16
        assert aggregate_pose(track, "idw").T[2] == pytest.approx(16.0)

    def test_rotation_renormalized(self):
        track = Track(track_id=1, instances=[
            instance(0, r=(1.0, 0.0)), instance(1, r=(0.0, 1.0)),
        ])
        pose = aggregate_pose(track, "mean")
        assert np.linalg.norm(pose.R) == pytest.approx(1.0)

    def test_empty_track_raises(self):
        with pytest.raises(EmptyTrackError):
            aggregate_pose(Track(track_id=1))


class TestStepLifecycle:
    def scene(self, **kw):
        base = dict(seed=21, n_frames=12, n_objects=3, appearance_dim=16)
        base.update(kw)
        return generate_scene(SimConfig(**base))

    def test_first_frame_spawns_tracks(self, trained_matcher):
        scene = self.scene()
        state = TrackerState(Matcher(trained_matcher.params),
                             scene.reference_ego)
        assignment, entries = step(state, scene.frames[0])
        k = len(scene.frames[0].detections)
        assert len(state.tracks) == k
        assert len(assignment.unmatched_detections) == k
        assert len(entries) == k

    def test_out_of_order_frame_rejected(self, trained_matcher):
        scene = self.scene()
        state = TrackerState(Matcher(trained_matcher.params),
                             scene.reference_ego)
        step(state, scene.frames[1])
        with pytest.raises(OutOfOrderFrameError):
            step(state, scene.frames[0])

    def test_deterministic(self, trained_matcher):
        scene = self.scene()
        runs = []
        for _ in range(2):
            state, entries = track_scene(scene, Matcher(trained_matcher.params))
            runs.append([(e.frame, e.track_id, tuple(e.bbox)) for e in entries])
        assert runs[0] == runs[1]

    def test_zero_noise_track_count_and_identities(self, trained_matcher):
        scene = self.scene(seed=22, n_frames=30, n_objects=4)
        state, entries = track_scene(scene, Matcher(trained_matcher.params))
        gt = world_objects(scene)
        assert len(finalize(state)) == len(gt)
        # per frame each track id maps to one gt id, never two
        mapping = {}
        frame_gt = {
            (fr.frame_index, tuple(np.round(g.bbox, 6))): g.object_id
            for fr in scene.frames for g in fr.gt_objects
        }
        for e in entries:
            gid = frame_gt[(e.frame, tuple(np.round(e.bbox, 6)))]
            assert mapping.setdefault(e.track_id, gid) == gid

    def test_occlusion_gap_resumes_same_identity(self, trained_matcher):
        # object 2 sits far to the side so the camera passes it mid-scene
        scene = generate_scene(SimConfig(
            seed=33, n_frames=26, n_objects=2, appearance_dim=16,
            lateral_range=(-6, 6), depth_range=(20, 45),
        ))
        visible = {
            fr.frame_index: {d.gt_id for d in fr.detections}
            for fr in scene.frames
        }
        target = None
        for gid in world_objects(scene):
            present = [f for f, ids in visible.items() if gid in ids]
            if present and present[-1] - present[0] + 1 > len(present):
                target = gid  # has a visibility gap
        state, entries = track_scene(scene, Matcher(trained_matcher.params))
        gt = world_objects(scene)
        assert len([t for t in state.tracks if t.observation_count >= 2]) == len(gt)
        if target is not None:
            frame_gt = {
                (fr.frame_index, tuple(np.round(g.bbox, 6))): g.object_id
                for fr in scene.frames for g in fr.gt_objects
            }
            ids_used = {
                e.track_id for e in entries
                if frame_gt.get((e.frame, tuple(np.round(e.bbox, 6)))) == target
            }
            assert len(ids_used) == 1

    def test_instance_buffer_capped(self, trained_matcher):
        scene = self.scene(seed=24, n_frames=30)
        state, _ = track_scene(scene, Matcher(trained_matcher.params),
                               buffer_size=5)
        for track in state.tracks:
            assert len(track.instances) <= 5
            assert track.observation_count >= len(track.instances)


class TestFinalize:
    def test_empty_state(self, trained_matcher):
        state = TrackerState(Matcher(trained_matcher.params), None)
        assert finalize(state) == []

    def test_min_instances_filter(self, trained_matcher):
        scene = generate_scene(SimConfig(seed=25, n_frames=20, n_objects=3,
                                         appearance_dim=16))
        state, _ = track_scene(scene, Matcher(trained_matcher.params))
        high = finalize(state, min_instances=5)
        low = finalize(state, min_instances=1)
        assert len(high) <= len(low)
        assert all(o.instance_count >= 5 for o in high)

    def test_zero_noise_world_poses_match_gt(self, trained_matcher):
        scene = generate_scene(SimConfig(seed=26, n_frames=30, n_objects=4,
                                         appearance_dim=16))
        state, _ = track_scene(scene, Matcher(trained_matcher.params))
        objs = finalize(state)
        gt = world_objects(scene)
        assert len(objs) == len(gt)
        for obj in objs:
            err = min(np.linalg.norm(obj.pose.T - g.T) for g in gt.values())
            assert err < 1e-6

    def test_report_shape(self, trained_matcher):
        scene = generate_scene(SimConfig(seed=27, n_frames=10, n_objects=2,
                                         appearance_dim=16))
        state, _ = track_scene(scene, Matcher(trained_matcher.params))
        report = geolocation_report(state)
        assert {"objects", "min_instances", "total_tracks"} <= set(report)
        for obj in report["objects"]:
            assert {"track_id", "translation", "rotation", "instances"} <= set(obj)

    def test_appearance_dim_mismatch_is_a_schema_error(self, trained_matcher):
        from geotrack.errors import SchemaError

        scene = generate_scene(SimConfig(seed=28, n_frames=4, n_objects=2,
                                         appearance_dim=8))  # checkpoint wants 16
        with pytest.raises(SchemaError):
            track_scene(scene, Matcher(trained_matcher.params))


class TestRobustness:
    def test_false_positive_tracks_suppressed_by_min_instances(self, trained_matcher):
        scene = generate_scene(SimConfig(seed=29, n_frames=30, n_objects=3,
                                         appearance_dim=16, fp_rate=0.5))
        state, _ = track_scene(scene, Matcher(trained_matcher.params))
        gt = world_objects(scene)
        kept = finalize(state, min_instances=2)
        # false positives carry fresh identities, so they stay one-shot
        # tracks and the instance filter removes them
        assert len(kept) == len(gt)
        assert len(state.tracks) > len(gt)

    def test_score_threshold_forces_null(self, trained_matcher):
        scene = generate_scene(SimConfig(seed=30, n_frames=6, n_objects=3,
                                         appearance_dim=16))
        state, _ = track_scene(scene, Matcher(trained_matcher.params),
                               score_threshold=2.0)  # above any probability
        # nothing can match, so every sighting spawns a fresh track
        total_detections = sum(len(f.detections) for f in scene.frames)
        assert len(state.tracks) == total_detections


class TestAggregationUnderNoise:
    def test_median_beats_single_instance_depth(self, trained_matcher):
        # aggregated depth error should not exceed the median single-shot error
        depth_errors_single = []
        depth_errors_aggregated = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            true_depth = 40.0
            depths = true_depth * (1.0 + rng.normal(0, 0.05, size=8))
            track = Track(track_id=1, instances=[
                instance(i, (0.0, 0.0, float(d))) for i, d in enumerate(depths)
            ])
            depth_errors_single.extend(np.abs(depths - true_depth))
            depth_errors_aggregated.append(
                abs(aggregate_pose(track, "median").T[2] - true_depth)
            )
        assert np.median(depth_errors_aggregated) <= np.median(depth_errors_single)
