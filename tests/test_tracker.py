import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from geotrack.assignment import AssignmentResult, hungarian
from geotrack.errors import ConfigError, DataError, ZeroVectorError
from geotrack.geometry import (
    REFERENCE,
    WORLD,
    CameraIntrinsics,
    EgoPose,
    PixelObservation,
    Pose5D,
    camera_to_world,
    normalize_rotation,
    project,
    world_to_camera,
)
from geotrack.matching import Matcher, MatcherConfig, augment_normalize
from geotrack.scene import Detection, FrameRecord, MotEntry, SceneSequence
from geotrack.simulator import SimConfig, generate_scene, object_appearance, world_objects
from geotrack.tracker import (
    VIEW_MARGIN,
    Track,
    TrackerState,
    TrackInstance,
    aggregate_pose,
    finalize,
    geolocation_report,
    score_matrix,
    step,
    track_scene,
    view_gate,
)
from helpers import raises_internal


def instance(frame, t=(0.0, 0.0, 10.0), r=(0.0, 1.0), desc=None):
    """A buffered instance whose descriptor's geometry prefix is (t, r)."""
    return TrackInstance(
        frame_index=frame,
        descriptor=desc if desc is not None else np.array([*t, *r], dtype=np.float64),
    )


class StubMatcher:
    """Fixed per-instance scores: descriptor[0] indexes a score table."""

    def __init__(self, table, null=0.2, delta=8.0):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.null = null
        self.delta = delta

    def bundle(self, desc_rows, desc_cols, sizes=None):
        n1, n2 = len(desc_rows), len(desc_cols)
        bundle = augment_normalize(np.zeros((n1, n2)), self.delta, sizes)
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
            def bundle(self, rows, cols, sizes=None):
                b = super().bundle(rows, cols, sizes)
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
        np.testing.assert_allclose(aggregate_pose(track).T, [0, 0, 11])

    def test_median_robust_to_outlier(self):
        track = Track(track_id=1, instances=[
            instance(0, (0.0, 0.0, 10.0)),
            instance(1, (0.0, 0.0, 10.2)),
            instance(2, (0.0, 0.0, 55.0)),
        ])
        # the outlier would pull a mean to 25.07
        assert aggregate_pose(track).T[2] == pytest.approx(10.2)

    def test_rotation_renormalized(self):
        track = Track(track_id=1, instances=[
            instance(0, r=(1.0, 0.0)), instance(1, r=(0.0, 1.0)),
        ])
        pose = aggregate_pose(track)
        assert np.linalg.norm(pose.R) == pytest.approx(1.0)

    def test_instance_rotation_read_normalized(self):
        # each instance's facing is normalized before the median: (1, 0) and
        # (0, 1) have the diagonal as their median, where the raw (3, 0)
        # would tilt it
        track = Track(track_id=1, instances=[
            instance(0, r=(3.0, 0.0)), instance(1, r=(0.0, 1.0)),
        ])
        np.testing.assert_allclose(aggregate_pose(track).R,
                                   [np.sqrt(0.5), np.sqrt(0.5)])

    def test_zero_mean_direction_takes_newest_instance(self):
        # the normalized facings are opposite, so their median is zero; the
        # fallback is the newest one, normalized like every instance's
        track = Track(track_id=1, instances=[
            instance(0, r=(1.0, 0.0)), instance(1, r=(-2.0, 0.0)),
        ])
        assert aggregate_pose(track).R.tolist() == [-1.0, 0.0]

    def test_empty_track_raises(self):
        with raises_internal("track 1 has no instances"):
            aggregate_pose(Track(track_id=1))


class TestTrackerState:
    @pytest.mark.parametrize("buffer_size", [0, -1])
    def test_rejects_buffer_below_one(self, buffer_size):
        # instances[-0:] would keep every instance, and -1 would empty each
        # buffer right after its update
        with pytest.raises(ConfigError, match="buffer_size"):
            TrackerState(StubMatcher({}), EgoPose.identity(), buffer_size=buffer_size)

    @pytest.mark.parametrize("buffer_size", [2.5, 3.0, math.inf, math.nan, True, "3", None],
                             ids=repr)
    def test_rejects_non_integer_buffer(self, buffer_size):
        # 2.5 broke the buffer trim's slice, and inf or True went unnoticed
        with pytest.raises(ConfigError, match="buffer_size must be an integer >= 1"):
            TrackerState(StubMatcher({}), EgoPose.identity(), buffer_size=buffer_size)

    @pytest.mark.parametrize("buffer_size", [1, np.int64(3), 10**6])
    def test_accepts_integer_buffer(self, buffer_size):
        state = TrackerState(StubMatcher({}), EgoPose.identity(), buffer_size=buffer_size)
        assert state.buffer_size == buffer_size


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
        with raises_internal("frame 0 after 1"):
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


class TestEmptyFrame:
    class NoScoring(StubMatcher):
        """Fails on any scoring call, so a test shows none was made."""

        config = MatcherConfig(capacity=2)

        def descriptors(self, *args):
            raise AssertionError("built descriptors for a frame without detections")

        def bundle(self, desc_rows, desc_cols, sizes=None):
            raise AssertionError("scored a frame without detections")

    def tracked_state(self):
        frame = generate_scene(SimConfig(seed=21, n_frames=2, n_objects=3,
                                         appearance_dim=16)).frames[0]
        state = TrackerState(self.NoScoring({}), frame.ego)
        state.tracks = [
            Track(track_id=k + 1, instances=[instance(0), instance(1)],
                  observation_count=2)
            for k in range(2)
        ]
        state.last_frame_index = 1
        return state, frame

    def test_all_null_partition_without_scoring(self):
        state, frame = self.tracked_state()
        buffers = [list(t.instances) for t in state.tracks]
        assignment, entries = step(state, replace(frame, frame_index=4, detections=[]))
        assert assignment.matches == [] and assignment.unmatched_detections == []
        assert assignment.unmatched_tracks == [0, 1]
        assert entries == []
        assert [t.instances for t in state.tracks] == buffers
        assert [t.observation_count for t in state.tracks] == [2, 2]
        assert state.last_frame_index == 4

    def test_order_and_capacity_checks_come_first(self):
        state, frame = self.tracked_state()
        with raises_internal("frame 1 after 1"):
            step(state, replace(frame, frame_index=1, detections=[]))
        crowded = replace(frame, frame_index=2, detections=[frame.detections[0]] * 3)
        with raises_internal("3 detections exceed capacity"):
            step(state, crowded)
        assert state.last_frame_index == 1


def track_at(t):
    """A one-instance track whose newest translation is ``t``."""
    return Track(track_id=1, instances=[instance(0, t)], observation_count=1)


class TestViewGate:
    # 100 x 80 image, principal point (50, 40), f = 100: the margin is 25 px
    # across and 20 px down, and these positions project onto it exactly
    SMALL = CameraIntrinsics(f_x=100.0, f_y=100.0, p_x=50.0, p_y=40.0,
                             width=100, height=80)
    ON_MARGIN = [(-3.0, 0.0, 4.0), (3.0, 0.0, 4.0), (0.0, -3.0, 5.0), (0.0, 3.0, 5.0),
                 (15.0, 12.0, 20.0)]  # the last one on a corner

    def expected(self, tracks, ego_ref, ego, intrinsics):
        return [reference_in_view(t, ego_ref, ego, intrinsics) for t in tracks]

    def test_margin_is_inclusive_and_behind_is_out(self):
        identity = EgoPose.identity()
        beyond = [(math.nextafter(x, x * 2), y, z) if x else (x, math.nextafter(y, y * 2), z)
                  for x, y, z in self.ON_MARGIN[:4]]
        behind = [(0.0, 0.0, 0.0), (0.0, 0.0, -4.0), (-3.0, 0.0, -4.0), (0.0, 0.0, -1e-300)]
        tracks = [track_at(t) for t in self.ON_MARGIN + beyond + behind]
        got = view_gate(tracks, identity, identity, self.SMALL)
        assert got.dtype == bool
        assert got.tolist() == [True] * 5 + [False] * 8
        assert got.tolist() == self.expected(tracks, identity, identity, self.SMALL)

    def test_equals_scalar_reference(self):
        rng = np.random.default_rng(5)
        tracks = [track_at(t) for t in rng.uniform([-60, -20, -30], [60, 20, 90], (200, 3))]
        seen = set()
        for k in range(12):
            yaw, pitch = rng.uniform(-1.0, 1.0), rng.normal(0.0, 0.05)
            q = np.array([math.cos(yaw / 2), pitch, math.sin(yaw / 2), -pitch / 2])
            ego_ref = EgoPose.from_yaw(rng.uniform(-0.5, 0.5), rng.normal(0.0, 3.0, 3))
            ego = EgoPose(q / np.linalg.norm(q), rng.normal(0.0, 10.0, 3))
            # every frame brings its own intrinsics
            w, h = int(rng.integers(200, 2000)), int(rng.integers(200, 1200))
            intrinsics = CameraIntrinsics(
                f_x=float(rng.uniform(200, 1500)), f_y=float(rng.uniform(200, 1500)),
                p_x=float(rng.uniform(0, w)), p_y=float(rng.uniform(0, h)),
                width=w, height=h)
            got = view_gate(tracks, ego_ref, ego, intrinsics).tolist()
            assert got == self.expected(tracks, ego_ref, ego, intrinsics), k
            seen.update(got)
        assert seen == {True, False}

    def test_reads_the_newest_instance(self):
        identity = EgoPose.identity()
        track = Track(track_id=1, instances=[instance(0, (0.0, 0.0, 10.0)),
                                             instance(1, (0.0, 0.0, -10.0))])
        assert view_gate([track], identity, identity, self.SMALL).tolist() == [False]
        assert view_gate([], identity, identity, self.SMALL).shape == (0,)

    def test_no_runtime_warning(self):
        identity = EgoPose.identity()
        huge = [(1e308, 1e308, 1e308), (-1e308, 0.0, 1e308), (1e308, 0.0, 1e-300),
                (0.0, 0.0, 0.0), (0.0, 0.0, -5.0)]
        ego = EgoPose(np.array([0.5, 0.5, 0.5, 0.5]), np.array([-1e308, 1e308, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in (identity, ego):
                got = view_gate([track_at(t) for t in huge], identity, e, self.SMALL)
                assert got.tolist() == [False] * len(huge)

    class RecordingMatcher(StubMatcher):
        """Scores every buffered instance 0.9 against every detection, null
        0.2; records each descriptor row it scored."""

        config = MatcherConfig(capacity=4)

        def __init__(self, descriptors):
            super().__init__({}, null=0.2)
            self.rows = descriptors
            self.scored = []

        def descriptors(self, *args):
            return self.rows

        def bundle(self, desc_rows, desc_cols, sizes=None):
            self.scored += [tuple(d) for d in desc_rows]
            bundle = augment_normalize(np.zeros((len(desc_rows), len(desc_cols))), self.delta,
                                       sizes)
            bundle.fused[:, :len(desc_cols)] = 0.9
            bundle.S1n[:, -1] = self.null
            return bundle

    def test_gated_tracks_keep_buffers_and_are_reported(self):
        identity = EgoPose.identity()
        det = Detection(bbox=[10.0, 10.0, 5.0, 5.0])
        frame = FrameRecord(frame_index=2, timestamp=1.0, intrinsics=self.SMALL, ego=identity,
                            detections=[det, det])
        # track 1 and 3 are in front, track 2 behind the camera
        matcher = self.RecordingMatcher(np.array([[0.0, 0.0, 9.0, 0.0, 1.0]] * 2))
        state = TrackerState(matcher, identity)
        state.tracks = [
            Track(track_id=k + 1, observation_count=2,
                  instances=[instance(0, (0.0, 0.0, z)), instance(1, (0.0, 0.0, z))])
            for k, z in enumerate([10.0, -10.0, 12.0])
        ]
        state.last_frame_index, state.next_track_id = 1, 4
        before = _buffer_bits(state, _descriptor_pose)[1]
        assignment, entries = step(state, frame)
        assert assignment.matches == [(0, 0), (2, 1)]
        assert assignment.unmatched_tracks == [1]
        assert assignment.unmatched_detections == []
        assert (0.0, 0.0, -10.0, 0.0, 1.0) not in matcher.scored
        assert len(matcher.scored) == 4  # two in-view tracks, two instances each
        assert _buffer_bits(state, _descriptor_pose)[1] == before
        assert [e.track_id for e in entries] == [1, 3]
        assert [o.track_id for o in finalize(state)] == [1, 2, 3]

    def test_track_re_enters_with_its_old_identity(self, trained_matcher):
        # the camera looks 40 degrees right for frames 4-6: object 2 (left)
        # leaves the view, so its track is gated, and comes back at frame 7
        intrinsics = CameraIntrinsics(f_x=1000.0, f_y=1000.0, p_x=800.0, p_y=450.0,
                                      width=1600, height=900)
        objects = {1: np.array([12.0, -4.0, 40.0]), 2: np.array([-15.0, -4.0, 40.0])}
        frames = []
        for k in range(10):
            yaw = math.radians(40.0) if 4 <= k <= 6 else 0.0
            ego = EgoPose.from_yaw(yaw, (0.0, -1.6, 2.0 * k))
            detections = []
            for gid, position in objects.items():
                cam = world_to_camera(Pose5D(position, (0.0, -1.0), WORLD), ego)
                c = project(cam.T, intrinsics)
                if cam.T[2] > 0 and 0 <= c[0] <= 1600:
                    detections.append(Detection(
                        bbox=[c[0] - 5, c[1] - 10, 10, 20], center=c,
                        observation=PixelObservation(c=c, T_z=cam.T[2], R=cam.R),
                        appearance=object_appearance(7, gid, 16), gt_id=gid))
            frames.append(FrameRecord(frame_index=k, timestamp=k / 2, intrinsics=intrinsics,
                                      ego=ego, detections=detections))
        assert [len(f.detections) for f in frames] == [2] * 4 + [1] * 3 + [2] * 3
        state = TrackerState(Matcher(trained_matcher.params), frames[0].ego)
        ids = {}
        for frame in frames:
            gate = view_gate(state.tracks, state.ego_ref, frame.ego, frame.intrinsics)
            if 4 <= frame.frame_index <= 6:
                assert gate.tolist() == [True, False]
            _, entries = step(state, frame)
            for det, entry in zip(frame.detections, entries):
                ids.setdefault(det.gt_id, set()).add(entry.track_id)
        assert ids == {1: {1}, 2: {2}}
        assert [t.observation_count for t in state.tracks] == [10, 7]


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
        scene = generate_scene(SimConfig(seed=28, n_frames=4, n_objects=2,
                                         appearance_dim=8))  # checkpoint wants 16
        with pytest.raises(DataError, match="appearance vector has 8 dims"):
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
                abs(aggregate_pose(track).T[2] - true_depth)
            )
        assert np.median(depth_errors_aggregated) <= np.median(depth_errors_single)


# --- reference: the per-row score loop and per-detection bookkeeping ---------------


def reference_score_matrix(tracks, detection_descriptors, matcher):
    """score_matrix as it was: one Python update per buffered instance."""
    m, n = len(tracks), len(detection_descriptors)
    scores = np.full((m, n + m), -np.inf)
    if m == 0:
        return scores
    null_sums = np.zeros(m)
    null_counts = np.zeros(m)
    det_scores = np.full((m, n), -np.inf)

    by_frame = {}
    for t_idx, track in enumerate(tracks):
        for inst in track.instances:
            by_frame.setdefault(inst.frame_index, []).append((t_idx, inst))
    for frame_index in sorted(by_frame):
        group = by_frame[frame_index]
        bundle = matcher.bundle([inst.descriptor for _, inst in group],
                                detection_descriptors)
        for row, (t_idx, _) in enumerate(group):
            if n:
                det_scores[t_idx] = np.maximum(det_scores[t_idx],
                                               bundle.fused[row, :n])
            null_sums[t_idx] += bundle.S1n[row, -1]
            null_counts[t_idx] += 1

    if n:
        scores[:, :n] = det_scores
    for i in range(m):
        scores[i, n + i] = null_sums[i] / null_counts[i] if null_counts[i] else 1.0
    return scores


@dataclass
class ReferenceInstance:
    """TrackInstance as it was: it also stored the reference pose built from
    its descriptor."""

    frame_index: int
    descriptor: np.ndarray
    pose_ref: Pose5D


def reference_aggregate_pose(track):
    """aggregate_pose as it was, over the stored reference poses."""
    ts = np.array([inst.pose_ref.T for inst in track.instances])
    rs = np.array([inst.pose_ref.R for inst in track.instances])
    t = np.median(ts, axis=0)
    r = np.median(rs, axis=0)
    try:
        r = normalize_rotation(r)
    except ZeroVectorError:
        r = track.instances[-1].pose_ref.R
    return Pose5D(t, r, REFERENCE)


def reference_in_view(track, ego_ref, ego, intrinsics):
    """view_gate for one track, through the scalar pose transforms: its
    newest instance's translation as a camera pose of ``ego_ref``, moved to
    the world and into the camera at ``ego``, and ``project``ed."""
    desc = track.instances[-1].descriptor
    pose = Pose5D(desc[:3], normalize_rotation(desc[3:5]))
    t_cam = world_to_camera(camera_to_world(pose, ego_ref), ego).T
    if not t_cam[2] > 0:
        return False
    u, v = project(t_cam, intrinsics)
    mx, my = VIEW_MARGIN * intrinsics.width, VIEW_MARGIN * intrinsics.height
    return -mx <= u <= intrinsics.width + mx and -my <= v <= intrinsics.height + my


def reference_step(state, frame, gated=None, in_view=reference_in_view):
    """step as it was: matches, then spawns, one detection at a time, each
    building its reference pose and mapping a camera-frame copy to the world
    (the per-update pose aggregate it also stored was never read, so it is
    left out here). The view gate is applied the long way: a track that
    ``reference_in_view`` rejects keeps a row in the full score matrix that
    holds only its null, and the full matrix is solved. ``gated`` collects
    the number of such rows per non-empty frame. ``in_view`` is the gate."""
    if not frame.detections:
        state.last_frame_index = frame.frame_index
        return AssignmentResult(unmatched_tracks=list(range(len(state.tracks)))), []
    descriptors = state.matcher.descriptors(
        frame.detections, frame.ego, state.ego_ref, frame.intrinsics
    )
    visible = [i for i, track in enumerate(state.tracks)
               if in_view(track, state.ego_ref, frame.ego, frame.intrinsics)]
    scored = reference_score_matrix([state.tracks[i] for i in visible], descriptors,
                                    state.matcher)
    m, n = len(state.tracks), len(descriptors)
    scores = np.full((m, n + m), -np.inf)
    scores[np.arange(m), n + np.arange(m)] = 1.0
    for row, i in enumerate(visible):
        scores[i, :n] = scored[row, :n]
        scores[i, n + i] = scored[row, n + row]
    assignment = hungarian(scores)
    if gated is not None:
        gated.append(m - len(visible))

    entries = []

    def _instance(det_idx):
        desc = descriptors[det_idx]
        pose_ref = Pose5D(desc[:3], normalize_rotation(desc[3:5]), REFERENCE)
        return ReferenceInstance(frame_index=frame.frame_index, descriptor=desc,
                                 pose_ref=pose_ref), frame.detections[det_idx]

    def _emit(track, det, pose_ref):
        world = camera_to_world(pose_ref.with_frame("camera"), state.ego_ref)
        entries.append(MotEntry(frame=frame.frame_index, track_id=track.track_id,
                                bbox=det.bbox, confidence=det.confidence,
                                world_xyz=world.T))

    for track_idx, det_idx in assignment.matches:
        track = state.tracks[track_idx]
        inst, det = _instance(det_idx)
        track.instances.append(inst)
        if len(track.instances) > state.buffer_size:
            track.instances = track.instances[-state.buffer_size:]
        track.observation_count += 1
        _emit(track, det, inst.pose_ref)

    for det_idx in assignment.unmatched_detections:
        inst, det = _instance(det_idx)
        track = Track(track_id=state.next_track_id, instances=[inst],
                      observation_count=1)
        state.next_track_id += 1
        state.tracks.append(track)
        _emit(track, det, inst.pose_ref)

    state.last_frame_index = frame.frame_index
    return assignment, entries


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _entry_bits(entry):
    return (entry.frame, entry.track_id, _bits(entry.bbox), _bits(entry.confidence),
            _bits(entry.world_xyz))


def _buffer_bits(state, pose_of):
    """Every track's buffer; ``pose_of`` gives an instance's (T, R)."""
    return [
        (track.track_id, track.observation_count, [
            (inst.frame_index, _bits(inst.descriptor), *map(_bits, pose_of(inst)))
            for inst in track.instances
        ])
        for track in state.tracks
    ]


def _descriptor_pose(inst):
    """An instance's pose as aggregate_pose reads it from the descriptor."""
    return inst.descriptor[:3], normalize_rotation(inst.descriptor[3:5])


def _stored_pose(inst):
    return inst.pose_ref.T, inst.pose_ref.R


def _moved_world(scene, rotation=(0.93, 0.05, 0.36, -0.04), offset=(12.5, -0.3, -40.0)):
    """The scene in a world turned by the unit quaternion ``rotation`` (mostly
    yaw, with a little pitch and roll) and shifted by ``offset``: every camera
    sees what it saw, but the reference ego pose now mixes all three axes, so
    the order in which the world mapping sums its terms shows in the bits."""
    moved = EgoPose(np.array(rotation), np.array(offset)).matrix()
    frames = [replace(frame, ego=EgoPose.from_matrix(moved @ frame.ego.matrix()))
              for frame in scene.frames]
    return SceneSequence(scene.scene_id, frames)


class TestBookkeepingOracle:
    """step and score_matrix bit for bit against the per-detection
    bookkeeping and the per-row score loop they replaced, with the view gate
    applied track by track on a full score matrix, and aggregate_pose
    against the stored per-instance poses it no longer needs."""

    @staticmethod
    def scene(seed, turn_rate_deg=3.0):
        return _moved_world(generate_scene(SimConfig(
            seed=seed, n_frames=30, n_objects=5, appearance_dim=16, fp_rate=0.3,
            miss_rate=0.1, center_sigma_px=2.0, depth_rel_sigma=0.03,
            appearance_sigma=0.1, trajectory="turn", turn_rate_deg=turn_rate_deg,
        )))

    @staticmethod
    def check(matcher, scene):
        """Runs step and reference_step side by side over ``scene``, asserting
        bit equality all along; returns the gated rows per non-empty frame."""
        new, ref = (TrackerState(matcher, scene.reference_ego, buffer_size=3)
                    for _ in range(2))
        matched, gated = 0, []
        for frame in scene.frames:
            if frame.detections:
                descriptors = matcher.descriptors(
                    frame.detections, frame.ego, scene.reference_ego, frame.intrinsics)
                assert score_matrix(new.tracks, descriptors, matcher).tobytes() \
                    == reference_score_matrix(ref.tracks, descriptors, matcher).tobytes()
            assignment, entries = step(new, frame)
            ref_assignment, ref_entries = reference_step(ref, frame, gated)
            assert assignment == ref_assignment
            assert [_entry_bits(e) for e in entries] == [_entry_bits(e) for e in ref_entries]
            matched += len(assignment.matches)
        assert _buffer_bits(new, _descriptor_pose) == _buffer_bits(ref, _stored_pose)
        for track, ref_track in zip(new.tracks, ref.tracks):
            got, expected = aggregate_pose(track), reference_aggregate_pose(ref_track)
            assert (_bits(got.T), _bits(got.R)) == (_bits(expected.T), _bits(expected.R))
        assert new.next_track_id == ref.next_track_id
        assert new.last_frame_index == ref.last_frame_index
        # the run exercised matches, spawns and buffer trimming
        assert matched > 0 and len(new.tracks) > 5
        assert any(t.observation_count > len(t.instances) for t in new.tracks)
        return gated

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_bit_identical_to_per_detection_bookkeeping(self, trained_matcher, seed):
        gated = self.check(Matcher(trained_matcher.params), self.scene(seed))
        assert sum(gated) > 0

    def test_gate_decides_outcomes(self, trained_matcher):
        """A sharper turn, where the gate changes what is matched: without
        it, the reference would give other MOT entries."""
        matcher, scene = Matcher(trained_matcher.params), self.scene(61, turn_rate_deg=8.0)
        assert sum(self.check(matcher, scene)) > 0
        runs = []
        for in_view in (reference_in_view, lambda *_: True):
            state = TrackerState(matcher, scene.reference_ego, buffer_size=3)
            runs.append([[_entry_bits(e) for e in reference_step(state, frame,
                                                                   in_view=in_view)[1]]
                         for frame in scene.frames])
        assert runs[0] != runs[1]
