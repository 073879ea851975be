import math
import warnings
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

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
)
from geotrack import matching
from geotrack.matching import Matcher, augment_normalize, load_checkpoint
from geotrack.scene import Detection, FrameRecord, MotEntry, SceneSequence
from geotrack.simulator import SimConfig, generate_scene, object_appearance, world_objects
from geotrack.tracker import (
    VIEW_MARGIN,
    TrackerState,
    aggregate_pose,
    finalize,
    geolocation_report,
    score_matrix,
    step,
    track_scene,
    view_gate,
)
from helpers import (
    STORED_CHECKPOINT,
    raises_internal,
    reference_logits64,
    reference_project,
    world_to_camera,
)


def pose_desc(t=(0.0, 0.0, 10.0), r=(0.0, 1.0)):
    """A descriptor whose geometry prefix is (t, r)."""
    return np.array([*t, *r], dtype=np.float64)


def make_state(matcher, rows, ego_ref=None):
    """A TrackerState whose table holds ``rows`` of (track index, frame,
    descriptor), given in (frame, track) order; each track's observation
    count is its number of rows."""
    state = TrackerState(matcher, ego_ref or EgoPose.identity())
    tracks = [t for t, _, _ in rows]
    state.tracks = np.bincount(tracks).astype(np.int64)
    table = np.zeros(len(rows), state.instances.dtype)
    table["track"], table["frame"] = tracks, [f for _, f, _ in rows]
    table["descriptor"] = [d for _, _, d in rows]
    table["count"] = [tracks[:r + 1].count(t) for r, t in enumerate(tracks)]
    state.instances = table
    return state


def buffers(state):
    """Each track's (frame, count, descriptor) rows, oldest first, in track
    order."""
    out = [[] for _ in state.tracks]
    for row in state.instances:
        out[row["track"]].append((int(row["frame"]), int(row["count"]), row["descriptor"]))
    return out


class StubMatcher:
    """Fixed per-instance scores: descriptor[0] indexes a score table."""

    config = SimpleNamespace(descriptor_dim=5, capacity=4)

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


def keyed(key):
    """A descriptor that ``StubMatcher`` scores by the row ``key``."""
    return pose_desc((float(key), 0.0, 10.0))


class TestScoreMatrix:
    def test_max_rule_over_instances(self):
        # two instances of one track score 0.3 and 0.7 against detection 0
        matcher = StubMatcher({0: [0.3], 1: [0.7]}, null=0.25)
        state = make_state(matcher, [(0, 0, keyed(0)), (0, 1, keyed(1))])
        scores = score_matrix([0], state, [np.zeros(5)])
        assert scores.shape == (1, 2)
        assert scores[0, 0] == pytest.approx(0.7)
        assert scores[0, 1] == pytest.approx(0.25)  # mean null over instances

    def test_null_mean_over_instances(self):
        class VaryingNull(StubMatcher):
            def bundle(self, rows, cols, sizes=None):
                b = super().bundle(rows, cols, sizes)
                for r, desc in enumerate(rows):
                    b.S1n[r, -1] = 0.1 if int(desc[0]) == 0 else 0.5
                return b

        matcher = VaryingNull({0: [0.0], 1: [0.0]})
        state = make_state(matcher, [(0, 0, keyed(0)), (0, 1, keyed(1))])
        scores = score_matrix([0], state, [np.zeros(5)])
        assert scores[0, 1] == pytest.approx(0.3)

    def test_no_detections_gives_null_only(self):
        matcher = StubMatcher({0: []}, null=0.4)
        scores = score_matrix([0], make_state(matcher, [(0, 0, keyed(0))]), [])
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(0.4)

    def test_forbidden_structure(self):
        matcher = StubMatcher({0: [0.5], 1: [0.5]})
        state = make_state(matcher, [(0, 0, keyed(0)), (1, 0, keyed(1))])
        scores = score_matrix([0, 1], state, [np.zeros(5)])
        assert scores.shape == (2, 3)
        assert scores[0, 2] == -np.inf  # track 0 cannot take track 1's null
        assert scores[1, 1] == -np.inf
        assert np.isfinite(scores[0, 1]) and np.isfinite(scores[1, 2])

    def test_empty_tracks(self):
        matcher = StubMatcher({})
        scores = score_matrix([], TrackerState(matcher, EgoPose.identity()), [np.zeros(5)])
        assert scores.shape == (0, 1)

    def test_scores_only_the_given_tracks_grouped_by_frame(self):
        """Row i is track ``tracks[i]``; the other tracks' rows are not
        scored, and the scored rows come in one group per past frame."""
        calls = []

        class Recording(StubMatcher):
            def bundle(self, rows, cols, sizes=None):
                calls.append(([int(d[0]) for d in rows], [int(k) for k in sizes]))
                return super().bundle(rows, cols, sizes)

        matcher = Recording({k: [0.1 * k] for k in range(6)})
        state = make_state(matcher, [(0, 0, keyed(0)), (1, 0, keyed(1)), (2, 0, keyed(2)),
                                     (0, 1, keyed(3)), (2, 1, keyed(4)), (1, 2, keyed(5))])
        scores = score_matrix([0, 2], state, [np.zeros(5)])
        assert calls == [([0, 2, 3, 4], [2, 2])]
        assert scores[:, 0] == pytest.approx([0.3, 0.4])


class TestAggregatePose:
    def test_single_instance_identity(self):
        pose = aggregate_pose(np.array([pose_desc((1.0, 2.0, 3.0))]))
        np.testing.assert_allclose(pose.T, [1, 2, 3])
        assert pose.frame_id == REFERENCE

    def test_median_midpoint(self):
        rows = np.array([pose_desc((0.0, 0.0, 10.0)), pose_desc((0.0, 0.0, 12.0))])
        np.testing.assert_allclose(aggregate_pose(rows).T, [0, 0, 11])

    def test_median_robust_to_outlier(self):
        rows = np.array([pose_desc((0.0, 0.0, z)) for z in (10.0, 10.2, 55.0)])
        # the outlier would pull a mean to 25.07
        assert aggregate_pose(rows).T[2] == pytest.approx(10.2)

    def test_rotation_renormalized(self):
        pose = aggregate_pose(np.array([pose_desc(r=(1.0, 0.0)), pose_desc(r=(0.0, 1.0))]))
        assert np.linalg.norm(pose.R) == pytest.approx(1.0)

    def test_instance_rotation_read_normalized(self):
        # each instance's facing is normalized before the median: (1, 0) and
        # (0, 1) have the diagonal as their median, where the raw (3, 0)
        # would tilt it
        rows = np.array([pose_desc(r=(3.0, 0.0)), pose_desc(r=(0.0, 1.0))])
        np.testing.assert_allclose(aggregate_pose(rows).R, [np.sqrt(0.5), np.sqrt(0.5)])

    def test_zero_mean_direction_takes_newest_instance(self):
        # the normalized facings are opposite, so their median is zero; the
        # fallback is the newest one, normalized like every instance's
        rows = np.array([pose_desc(r=(1.0, 0.0)), pose_desc(r=(-2.0, 0.0))])
        assert aggregate_pose(rows).R.tolist() == [-1.0, 0.0]

    def test_empty_track_raises(self):
        with raises_internal("at least one descriptor row"):
            aggregate_pose(np.zeros((0, 5)))


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
        assert (state.tracks >= 2).sum() == len(gt)
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
        held = np.bincount(state.instances["track"], minlength=len(state.tracks))
        assert held.max() == 5
        assert (state.tracks >= held).all()


class TestEmptyFrame:
    class NoScoring(StubMatcher):
        """Fails on any scoring call, so a test shows none was made."""

        config = SimpleNamespace(descriptor_dim=5, capacity=2)

        def descriptors(self, *args):
            raise AssertionError("built descriptors for a frame without detections")

        def bundle(self, desc_rows, desc_cols, sizes=None):
            raise AssertionError("scored a frame without detections")

    def tracked_state(self):
        frame = generate_scene(SimConfig(seed=21, n_frames=2, n_objects=3,
                                         appearance_dim=16)).frames[0]
        state = make_state(self.NoScoring({}), [(t, f, pose_desc()) for f in range(2)
                                                for t in range(2)], ego_ref=frame.ego)
        state.last_frame_index = 1
        return state, frame

    def test_all_null_partition_without_scoring(self):
        state, frame = self.tracked_state()
        table = state.instances.copy()
        assignment, entries = step(state, replace(frame, frame_index=4, detections=[]))
        assert assignment.matches == [] and assignment.unmatched_detections == []
        assert assignment.unmatched_tracks == [0, 1]
        assert entries == []
        assert state.instances.tobytes() == table.tobytes()
        assert state.tracks.tolist() == [2, 2]
        assert state.last_frame_index == 4

    def test_order_and_capacity_checks_come_first(self):
        state, frame = self.tracked_state()
        with raises_internal("frame 1 after 1"):
            step(state, replace(frame, frame_index=1, detections=[]))
        crowded = replace(frame, frame_index=2, detections=[frame.detections[0]] * 3)
        with raises_internal("3 detections exceed capacity"):
            step(state, crowded)
        assert state.last_frame_index == 1


class TestViewGate:
    # 100 x 80 image, principal point (50, 40), f = 100: the margin is 25 px
    # across and 20 px down, and these positions project onto it exactly
    SMALL = CameraIntrinsics(f_x=100.0, f_y=100.0, p_x=50.0, p_y=40.0,
                             width=100, height=80)
    ON_MARGIN = [(-3.0, 0.0, 4.0), (3.0, 0.0, 4.0), (0.0, -3.0, 5.0), (0.0, 3.0, 5.0),
                 (15.0, 12.0, 20.0)]  # the last one on a corner

    def expected(self, T, ego_ref, ego, intrinsics):
        return [reference_in_view(t, ego_ref, ego, intrinsics) for t in T]

    def test_margin_is_inclusive_and_behind_is_out(self):
        identity = EgoPose.identity()
        beyond = [(math.nextafter(x, x * 2), y, z) if x else (x, math.nextafter(y, y * 2), z)
                  for x, y, z in self.ON_MARGIN[:4]]
        behind = [(0.0, 0.0, 0.0), (0.0, 0.0, -4.0), (-3.0, 0.0, -4.0), (0.0, 0.0, -1e-300)]
        T = np.array(self.ON_MARGIN + beyond + behind)
        got = view_gate(T, identity, identity, self.SMALL)
        assert got.dtype == bool
        assert got.tolist() == [True] * 5 + [False] * 8
        assert got.tolist() == self.expected(T, identity, identity, self.SMALL)

    def test_equals_scalar_reference(self):
        rng = np.random.default_rng(5)
        T = rng.uniform([-60, -20, -30], [60, 20, 90], (200, 3))
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
            got = view_gate(T, ego_ref, ego, intrinsics).tolist()
            assert got == self.expected(T, ego_ref, ego, intrinsics), k
            seen.update(got)
        assert seen == {True, False}

    def test_no_runtime_warning(self):
        identity = EgoPose.identity()
        huge = [(1e308, 1e308, 1e308), (-1e308, 0.0, 1e308), (1e308, 0.0, 1e-300),
                (0.0, 0.0, 0.0), (0.0, 0.0, -5.0)]
        ego = EgoPose(np.array([0.5, 0.5, 0.5, 0.5]), np.array([-1e308, 1e308, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in (identity, ego):
                got = view_gate(np.array(huge), identity, e, self.SMALL)
                assert got.tolist() == [False] * len(huge)

    class RecordingMatcher(StubMatcher):
        """Scores every buffered instance 0.9 against every detection, null
        0.2; records each descriptor row it scored."""

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
        state = make_state(matcher, [(t, f, pose_desc((0.0, 0.0, z))) for f in range(2)
                                     for t, z in enumerate([10.0, -10.0, 12.0])])
        state.last_frame_index = 1
        before = _buffer_bits(buffers(state))[1]
        assignment, entries = step(state, frame)
        assert assignment.matches == [(0, 0), (2, 1)]
        assert assignment.unmatched_tracks == [1]
        assert assignment.unmatched_detections == []
        assert (0.0, 0.0, -10.0, 0.0, 1.0) not in matcher.scored
        assert len(matcher.scored) == 4  # two in-view tracks, two instances each
        assert _buffer_bits(buffers(state))[1] == before
        assert [e.track_id for e in entries] == [1, 3]
        assert [o.track_id for o in finalize(state)] == [1, 2, 3]

    @pytest.mark.parametrize("depths, scored", [((10.0, -10.0), 0), ((-10.0, 10.0), 2)])
    def test_reads_the_newest_instance(self, depths, scored):
        """step gates a track on its newest row, not an older one."""
        identity = EgoPose.identity()
        matcher = self.RecordingMatcher(np.array([pose_desc((0.0, 0.0, 9.0))]))
        state = make_state(matcher, [(0, f, pose_desc((0.0, 0.0, z)))
                                     for f, z in enumerate(depths)])
        step(state, FrameRecord(frame_index=2, timestamp=1.0, intrinsics=self.SMALL, ego=identity,
                                detections=[Detection(bbox=[10.0, 10.0, 5.0, 5.0])]))
        assert len(matcher.scored) == scored
        assert view_gate(np.zeros((0, 3)), identity, identity, self.SMALL).shape == (0,)

    def test_frame_index_past_int64(self):
        """A frame index is any JSON integer; the table holds ordinals."""
        identity = EgoPose.identity()
        matcher = self.RecordingMatcher(np.array([pose_desc((0.0, 0.0, 9.0))]))
        state = TrackerState(matcher, identity)
        for k in (2**70, 2**70 + 1):
            frame = FrameRecord(frame_index=k, timestamp=0.0, intrinsics=self.SMALL, ego=identity,
                                detections=[Detection(bbox=[10.0, 10.0, 5.0, 5.0])])
            _, entries = step(state, frame)
            assert [(e.frame, e.track_id) for e in entries] == [(k, 1)]
        assert state.instances["frame"].tolist() == [0, 1]

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
                c = reference_project(cam.T, intrinsics)
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
            newest = np.array([rows[-1][2][:3] for rows in buffers(state)]).reshape(-1, 3)
            gate = view_gate(newest, state.ego_ref, frame.ego, frame.intrinsics)
            if 4 <= frame.frame_index <= 6:
                assert gate.tolist() == [True, False]
            _, entries = step(state, frame)
            for det, entry in zip(frame.detections, entries):
                ids.setdefault(det.gt_id, set()).add(entry.track_id)
        assert ids == {1: {1}, 2: {2}}
        assert state.tracks.tolist() == [10, 7]


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
            rows = np.array([pose_desc((0.0, 0.0, d)) for d in depths])
            depth_errors_single.extend(np.abs(depths - true_depth))
            depth_errors_aggregated.append(abs(aggregate_pose(rows).T[2] - true_depth))
        assert np.median(depth_errors_aggregated) <= np.median(depth_errors_single)


class TestInstanceTable:
    """The table's invariants hold after every step."""

    @staticmethod
    def check_invariants(state, last_id):
        table, n = state.instances, len(state.tracks)
        keys = list(zip(table["frame"].tolist(), table["track"].tolist()))
        assert keys == sorted(set(keys))  # (frame, track) order, one row per pair
        held = np.bincount(table["track"], minlength=n)
        assert held.tolist() == np.minimum(state.tracks, state.buffer_size).tolist()
        newest = np.zeros(n, dtype=np.int64)
        np.maximum.at(newest, table["track"], table["count"])
        assert newest.tolist() == state.tracks.tolist()
        assert n == last_id

    @pytest.mark.parametrize("buffer_size", [1, 3, 10])
    @pytest.mark.parametrize("seed, fp_rate", [(51, 0.0), (52, 0.4)])
    def test_after_every_step(self, trained_matcher, buffer_size, seed, fp_rate):
        scene = generate_scene(SimConfig(seed=seed, n_frames=30, n_objects=5,
                                         appearance_dim=16, fp_rate=fp_rate, miss_rate=0.2,
                                         trajectory="turn", turn_rate_deg=3.0))
        state = TrackerState(Matcher(trained_matcher.params), scene.reference_ego,
                             buffer_size=buffer_size)
        last_id = 0
        for frame in scene.frames:
            _, entries = step(state, frame)
            last_id = max([last_id] + [e.track_id for e in entries])
            self.check_invariants(state, last_id)
        assert (state.tracks > buffer_size).any()

    def test_one_row_per_observation_below_the_buffer(self, trained_matcher):
        # a ring buffer per track would hold buffer_size slots for each
        scene = generate_scene(SimConfig(seed=53, n_frames=8, n_objects=3,
                                         appearance_dim=16, fp_rate=0.5))
        state, entries = track_scene(scene, Matcher(trained_matcher.params), buffer_size=10**6)
        assert len(state.instances) == len(entries) == state.tracks.sum()


class TestFloat32Decisions:
    """The tracker's scorer runs in float32. On dense scenes with the stored
    checkpoint, every decision equals that of a float64 scorer: the same MOT
    entries and the same geolocation report."""

    @staticmethod
    def outputs(scene, matcher):
        state, entries = track_scene(scene, matcher)
        return ([(e.frame, e.track_id, e.bbox.tobytes(), e.confidence) for e in entries],
                geolocation_report(state))

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_same_outputs_as_float64_scorer(self, monkeypatch, seed):
        scene = generate_scene(SimConfig(
            seed=seed, n_frames=24, n_objects=60, appearance_dim=16,
            appearance_sigma=0.15, center_sigma_px=2.0, depth_rel_sigma=0.05,
            miss_rate=0.05, fp_rate=0.2, lateral_range=(-10.0, 10.0),
            depth_range=(12.0, 80.0)))
        matcher = Matcher(load_checkpoint(STORED_CHECKPOINT))
        got = self.outputs(scene, matcher)
        calls = []

        def float64_logits(_scorer, rows_a, rows_b, shapes):
            calls.append(sum(n_a * n_b for n_a, n_b in shapes))
            return reference_logits64(matcher.params, rows_a, rows_b, shapes)

        monkeypatch.setattr(matching, "_tapeless_logits", float64_logits)
        expected = self.outputs(scene, matcher)
        assert sum(calls) > 10_000  # dense: the float64 scorer saw many pairs
        assert got[0] == expected[0]
        assert got[1] == expected[1]


# --- reference: the per-row score loop and per-detection bookkeeping ---------------


@dataclass
class ReferenceInstance:
    """A buffered sighting as the tracker once held it, one object each: its
    frame, its descriptor and the reference pose built from it."""

    frame_index: int
    descriptor: np.ndarray
    pose_ref: Pose5D


@dataclass
class ReferenceTrack:
    """A track as the tracker once held it: its id and a list of instances."""

    track_id: int
    instances: list = field(default_factory=list)
    observation_count: int = 0


@dataclass
class ReferenceState:
    """The tracker state as it once was: a list of ``ReferenceTrack``s and
    the id the next spawned track takes."""

    matcher: object
    ego_ref: EgoPose
    buffer_size: int
    tracks: list = field(default_factory=list)
    last_frame_index: int = None
    next_track_id: int = 1


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


def reference_in_view(t, ego_ref, ego, intrinsics):
    """view_gate for one track, through the scalar pose transforms: its
    newest translation ``t`` as a camera pose of ``ego_ref``, moved to the
    world and into the camera at ``ego``, and ``project``ed."""
    pose = Pose5D(np.array(t, dtype=np.float64), (0.0, 1.0))
    t_cam = world_to_camera(camera_to_world(pose, ego_ref), ego).T
    if not t_cam[2] > 0:
        return False
    u, v = reference_project(t_cam, intrinsics)
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
               if in_view(track.instances[-1].descriptor[:3], state.ego_ref, frame.ego,
                          frame.intrinsics)]
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
        world = camera_to_world(pose_ref, state.ego_ref)
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
        track = ReferenceTrack(track_id=state.next_track_id, instances=[inst],
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


def _buffer_bits(buffers):
    """Bits of per-track (frame, count, descriptor) rows, as ``buffers``
    gives them."""
    return [[(f, c, _bits(d)) for f, c, d in rows] for rows in buffers]


def _table_buffers(state, frame_indices):
    """``buffers`` of a tracker state, each row with its frame's index (the
    ``frame_indices`` of the frames with detections, in order) and the pose
    that aggregate_pose reads from its descriptor."""
    return [[(frame_indices[f], c, _bits(d), _bits(d[:3]), _bits(normalize_rotation(d[3:5])))
             for f, c, d in rows] for rows in buffers(state)]


def _reference_buffers(state):
    """The same of a ``ReferenceState``, with its stored poses."""
    return [[(inst.frame_index, track.observation_count - len(track.instances) + k + 1,
              _bits(inst.descriptor), _bits(inst.pose_ref.T), _bits(inst.pose_ref.R))
             for k, inst in enumerate(track.instances)] for track in state.tracks]


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
    """step and score_matrix on the instance table bit for bit against the
    per-detection bookkeeping over lists of track and instance objects and
    the per-row score loop they replaced, with the view gate applied track
    by track on a full score matrix, and aggregate_pose against the stored
    per-instance poses it no longer needs."""

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
        new = TrackerState(matcher, scene.reference_ego, buffer_size=3)
        ref = ReferenceState(matcher, scene.reference_ego, buffer_size=3)
        matched, gated = 0, []
        for frame in scene.frames:
            if frame.detections:
                descriptors = matcher.descriptors(
                    frame.detections, frame.ego, scene.reference_ego, frame.intrinsics)
                for every in (1, 2):  # all tracks, then every other one
                    tracks = np.arange(0, len(new.tracks), every)
                    assert score_matrix(tracks, new, descriptors).tobytes() == \
                        reference_score_matrix(ref.tracks[::every], descriptors, matcher).tobytes()
            assignment, entries = step(new, frame)
            ref_assignment, ref_entries = reference_step(ref, frame, gated)
            assert assignment == ref_assignment
            assert [_entry_bits(e) for e in entries] == [_entry_bits(e) for e in ref_entries]
            matched += len(assignment.matches)
        scored = [frame.frame_index for frame in scene.frames if frame.detections]
        assert _table_buffers(new, scored) == _reference_buffers(ref)
        assert new.tracks.tolist() == [t.observation_count for t in ref.tracks]
        assert [t.track_id for t in ref.tracks] == list(range(1, len(new.tracks) + 1))
        for rows, ref_track in zip(buffers(new), ref.tracks):
            got = aggregate_pose(np.array([d for _, _, d in rows]))
            expected = reference_aggregate_pose(ref_track)
            assert (_bits(got.T), _bits(got.R)) == (_bits(expected.T), _bits(expected.R))
        assert len(new.tracks) + 1 == ref.next_track_id
        assert new.last_frame_index == ref.last_frame_index
        # the run exercised matches, spawns and buffer trimming
        assert matched > 0 and len(new.tracks) > 5
        assert (new.tracks > np.bincount(new.instances["track"])).any()
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
            state = ReferenceState(matcher, scene.reference_ego, buffer_size=3)
            runs.append([[_entry_bits(e) for e in reference_step(state, frame,
                                                                   in_view=in_view)[1]]
                         for frame in scene.frames])
        assert runs[0] != runs[1]
