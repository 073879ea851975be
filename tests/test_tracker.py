from dataclasses import dataclass, replace

import numpy as np
import pytest

from geotrack.assignment import AssignmentResult, hungarian
from geotrack.errors import (
    CapacityExceededError,
    ConfigError,
    EmptyTrackError,
    OutOfOrderFrameError,
    ZeroVectorError,
)
from geotrack.geometry import (
    REFERENCE,
    EgoPose,
    Pose5D,
    camera_to_world,
    normalize_rotation,
)
from geotrack.matching import Matcher, MatcherConfig, augment_normalize
from geotrack.scene import MotEntry, SceneSequence
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
        with pytest.raises(EmptyTrackError):
            aggregate_pose(Track(track_id=1))


class TestTrackerState:
    @pytest.mark.parametrize("buffer_size", [0, -1])
    def test_rejects_buffer_below_one(self, buffer_size):
        # instances[-0:] would keep every instance, and -1 would empty each
        # buffer right after its update
        with pytest.raises(ConfigError, match="buffer_size"):
            TrackerState(StubMatcher({}), EgoPose.identity(), buffer_size=buffer_size)


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


class TestEmptyFrame:
    class NoScoring(StubMatcher):
        """Fails on any scoring call, so a test shows none was made."""

        config = MatcherConfig(capacity=2)

        def descriptors(self, *args):
            raise AssertionError("built descriptors for a frame without detections")

        def bundle(self, desc_rows, desc_cols):
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
        with pytest.raises(OutOfOrderFrameError):
            step(state, replace(frame, frame_index=1, detections=[]))
        crowded = replace(frame, frame_index=2, detections=[frame.detections[0]] * 3)
        with pytest.raises(CapacityExceededError):
            step(state, crowded)
        assert state.last_frame_index == 1


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


def reference_step(state, frame):
    """step as it was: matches, then spawns, one detection at a time, each
    building its reference pose and mapping a camera-frame copy to the world
    (the per-update pose aggregate it also stored was never read, so it is
    left out here)."""
    if not frame.detections:
        state.last_frame_index = frame.frame_index
        return AssignmentResult(unmatched_tracks=list(range(len(state.tracks)))), []
    descriptors = state.matcher.descriptors(
        frame.detections, frame.ego, state.ego_ref, frame.intrinsics
    )
    scores = reference_score_matrix(state.tracks, descriptors, state.matcher)
    assignment = hungarian(scores)

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
    bookkeeping and the per-row score loop they replaced, and aggregate_pose
    against the stored per-instance poses it no longer needs."""

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_bit_identical_to_per_detection_bookkeeping(self, trained_matcher, seed):
        scene = _moved_world(generate_scene(SimConfig(
            seed=seed, n_frames=30, n_objects=5, appearance_dim=16, fp_rate=0.3,
            miss_rate=0.1, center_sigma_px=2.0, depth_rel_sigma=0.03,
            appearance_sigma=0.1, trajectory="turn",
        )))
        matcher = Matcher(trained_matcher.params)
        new, ref = (TrackerState(matcher, scene.reference_ego, buffer_size=3)
                    for _ in range(2))
        matched = 0
        for frame in scene.frames:
            if frame.detections:
                descriptors = matcher.descriptors(
                    frame.detections, frame.ego, scene.reference_ego, frame.intrinsics)
                assert score_matrix(new.tracks, descriptors, matcher).tobytes() \
                    == reference_score_matrix(ref.tracks, descriptors, matcher).tobytes()
            assignment, entries = step(new, frame)
            ref_assignment, ref_entries = reference_step(ref, frame)
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
