import math
import warnings

import numpy as np
import pytest
from helpers import (
    _reference_ego_at,
    _reference_objects,
    reference_generate_scene,
    reference_pose_target,
    scene_to_doc,
)

from geotrack.errors import ConfigError
from geotrack.geometry import WORLD, Pose5D, recover_translation, world_to_camera
from geotrack.scene import scene_from_doc, scene_to_json
from geotrack.simulator import (
    MIN_DEPTH_M,
    SimConfig,
    generate_scene,
    make_matching_dataset,
    object_appearance,
    world_objects,
)


class TestConfig:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigError):
            SimConfig(center_sigma_px=-1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            SimConfig(miss_rate=1.5)

    def test_rejects_single_frame(self):
        with pytest.raises(ConfigError):
            SimConfig(n_frames=1)

    @pytest.mark.parametrize("field, value", [
        ("frame_rate", 0.0), ("frame_rate", -2.0), ("frame_rate", float("nan")),
        ("focal", 0.0), ("focal", float("nan")),
        ("visibility_max_range", 0.0), ("visibility_max_range", float("nan")),
        ("image_width", -5), ("image_height", 0), ("capacity", 0),
    ])
    def test_rejects_out_of_range_camera_and_rate(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{field: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"sigma_center": 1.0})

    def test_dict_round_trip(self):
        cfg = SimConfig(seed=5, center_sigma_px=2.0, depth_range=(10, 50))
        again = SimConfig.from_dict(cfg.as_dict())
        assert again == cfg

    @pytest.mark.parametrize("field", ["lateral_range", "height_range", "depth_range"])
    @pytest.mark.parametrize("value", [(1e308, -1e308), (-1e308, 1e308)])
    def test_rejects_range_whose_width_overflows(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimConfig(**{field: value})

    def test_widest_finite_range_accepted(self):
        cfg = SimConfig(lateral_range=(-8e307, 8e307), n_frames=3, appearance_dim=2)
        generate_scene(cfg)

    @pytest.mark.parametrize("doc, named", [
        ({"speed": 1e308}, "speed"),
        ({"speed": -1e308}, "speed"),
        # turn radius speed / rate overflows, or stays finite and the path does not
        ({"trajectory": "turn", "speed": 1e308, "turn_rate_deg": 1e-9}, "speed"),
        ({"trajectory": "turn", "speed": 1e308, "turn_rate_deg": 57.0}, "speed"),
        ({"frame_rate": 1e-320}, "frame_rate"),
        ({"trajectory": "turn", "turn_rate_deg": 1e308, "frame_rate": 1e-5},
         "turn_rate_deg"),
        ({"speed": float("nan")}, "speed"),
        ({"camera_height": float("inf")}, "camera_height"),
        ({"trajectory": "turn", "turn_rate_deg": float("nan")}, "turn_rate_deg"),
    ])
    def test_rejects_camera_path_past_float_range(self, doc, named):
        with pytest.raises(ConfigError, match=named):
            SimConfig(**doc)

    @pytest.mark.parametrize("doc", [
        {"speed": 1e306},
        {"trajectory": "turn", "speed": 1e307, "turn_rate_deg": 57.0},
        # the radius overflows twice over, but 40 frames turn too little for it to matter
        {"trajectory": "turn", "speed": 1.5e308, "turn_rate_deg": 57.0, "n_frames": 3},
        {"trajectory": "turn", "speed": 5.0, "turn_rate_deg": 1e-11},
    ])
    def test_accepted_camera_path_generates(self, doc):
        """A path the check accepts is one every frame's EgoPose accepts."""
        cfg = SimConfig(n_objects=2, appearance_dim=2, **doc)
        assert len(generate_scene(cfg).frames) == cfg.n_frames


class TestGenerateScene:
    def test_deterministic_byte_identical(self):
        cfg = SimConfig(seed=8, n_frames=12, n_objects=4, appearance_dim=8,
                        center_sigma_px=1.5, depth_rel_sigma=0.05,
                        miss_rate=0.1, fp_rate=0.2)
        a = scene_to_json(generate_scene(cfg))
        b = scene_to_json(generate_scene(cfg))
        assert a == b

    def test_different_seeds_differ(self):
        a = scene_to_json(generate_scene(SimConfig(seed=1, appearance_dim=4)))
        b = scene_to_json(generate_scene(SimConfig(seed=2, appearance_dim=4)))
        assert a != b

    def test_zero_noise_observations_are_exact(self):
        scene = generate_scene(SimConfig(seed=3, n_frames=15, n_objects=4,
                                         appearance_dim=4))
        for frame in scene.frames:
            gt_by_id = {g.object_id: g for g in frame.gt_objects}
            for det in frame.detections:
                cam = world_to_camera(gt_by_id[det.gt_id].pose, frame.ego)
                recovered = recover_translation(det.observation,
                                                frame.intrinsics)
                np.testing.assert_allclose(recovered, cam.T, atol=1e-9)
                np.testing.assert_allclose(det.observation.R, cam.R, atol=1e-9)

    def test_range_filter(self):
        # single object far beyond the visibility range never appears
        cfg = SimConfig(seed=4, n_frames=5, n_objects=1, speed=0.0,
                        depth_range=(150.0, 160.0), appearance_dim=2,
                        visibility_max_range=100.0)
        scene = generate_scene(cfg)
        assert all(not f.detections and not f.gt_objects for f in scene.frames)

    def test_object_enters_range_as_camera_approaches(self):
        cfg = SimConfig(seed=4, n_frames=30, n_objects=1, speed=5.0,
                        depth_range=(120.0, 130.0), appearance_dim=2)
        scene = generate_scene(cfg)
        seen = [bool(f.detections) for f in scene.frames]
        assert not seen[0] and any(seen)

    def test_detection_centers_inside_image(self):
        cfg = SimConfig(seed=6, n_frames=20, n_objects=6, appearance_dim=2,
                        center_sigma_px=3.0, bbox_jitter_px=2.0,
                        miss_rate=0.1, fp_rate=0.5)
        scene = generate_scene(cfg)
        for frame in scene.frames:
            for det in frame.detections:
                c = det.observation.c
                assert 0 <= c[0] <= cfg.image_width
                assert 0 <= c[1] <= cfg.image_height

    def test_miss_rate_drops_detections(self):
        base = SimConfig(seed=7, n_frames=30, n_objects=5, appearance_dim=2)
        noisy = SimConfig(seed=7, n_frames=30, n_objects=5, appearance_dim=2,
                          miss_rate=0.5)
        full = sum(len(f.detections) for f in generate_scene(base).frames)
        dropped = sum(len(f.detections) for f in generate_scene(noisy).frames)
        assert dropped < full * 0.75

    def test_gt_ids_stable_across_frames(self):
        scene = generate_scene(SimConfig(seed=9, n_frames=20, n_objects=4,
                                         appearance_dim=2))
        gt = world_objects(scene)
        for frame in scene.frames:
            for g in frame.gt_objects:
                np.testing.assert_array_equal(g.pose.T, gt[g.object_id].T)

    def test_turn_trajectory_changes_heading(self):
        scene = generate_scene(SimConfig(seed=10, n_frames=20,
                                         trajectory="turn", turn_rate_deg=5.0,
                                         appearance_dim=2))
        first = scene.frames[0].ego.rotation
        last = scene.frames[-1].ego.rotation
        assert not np.allclose(first, last)


class TestOracleAppearance:
    def test_same_object_identical_without_noise(self):
        scene = generate_scene(SimConfig(seed=12, n_frames=10, n_objects=3,
                                         appearance_dim=16))
        by_id = {}
        for frame in scene.frames:
            for det in frame.detections:
                by_id.setdefault(det.gt_id, []).append(det.appearance)
        for vecs in by_id.values():
            for v in vecs[1:]:
                np.testing.assert_array_equal(v, vecs[0])

    def test_distinct_objects_distinct_vectors(self):
        vecs = [object_appearance(100, i, 64) for i in range(1, 9)]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert not np.array_equal(vecs[i], vecs[j])

    def test_cosine_margin_monte_carlo(self):
        # same-object vs cross-object cosine separation at sigma = 0.05
        rng = np.random.default_rng(0)
        dim, sigma = 64, 0.05
        same, cross = [], []
        for trial in range(1000):
            a = object_appearance(7, 2 * trial, dim)
            b = object_appearance(7, 2 * trial + 1, dim)
            a1 = a + rng.normal(0, sigma, dim)
            a2 = a + rng.normal(0, sigma, dim)
            b1 = b + rng.normal(0, sigma, dim)
            same.append(np.dot(a1, a2) / np.linalg.norm(a1) / np.linalg.norm(a2))
            cross.append(np.dot(a1, b1) / np.linalg.norm(a1) / np.linalg.norm(b1))
        assert min(same) - max(cross) > 0.5


class TestMatchingDataset:
    def test_single_object_scene_matrices(self):
        scene = generate_scene(SimConfig(seed=13, n_frames=12, n_objects=1,
                                         appearance_dim=4,
                                         lateral_range=(-1, 1),
                                         depth_range=(40, 45)))
        samples = make_matching_dataset([scene], n_max=6, pairs_per_scene=8,
                                        seed=0)
        for s in samples:
            n_a, n_b = len(s.frame_a.detections), len(s.frame_b.detections)
            assert s.match.shape == (n_a + 1, n_b + 1)
            if n_a == 1 and n_b == 1:
                np.testing.assert_array_equal(s.match, [[1, 0], [0, 0]])

    def test_reproducible(self):
        scene = generate_scene(SimConfig(seed=14, n_frames=12, n_objects=3,
                                         appearance_dim=4))
        a = make_matching_dataset([scene], 8, 10, seed=3)
        b = make_matching_dataset([scene], 8, 10, seed=3)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.match, sb.match)

    def test_average_separation(self):
        scene = generate_scene(SimConfig(seed=15, n_frames=100, n_objects=1,
                                         appearance_dim=2))
        from geotrack.scene import sample_training_pairs

        n_max, count = 35, 10000
        pairs = sample_training_pairs(scene, n_max, count, seed=1)
        seps = np.array([b - a for a, b in pairs])
        expected = (1 + n_max) / 2
        sigma = np.sqrt(((n_max ** 2 - 1) / 12) / count)
        assert abs(seps.mean() - expected) < 3 * sigma

    def test_pose_targets_attached(self):
        scene = generate_scene(SimConfig(seed=16, n_frames=10, n_objects=2,
                                         appearance_dim=4))
        samples = make_matching_dataset([scene], 5, 5, seed=0)
        for s in samples:
            for frame, targets in ((s.frame_a, s.targets_a), (s.frame_b, s.targets_b)):
                assert len(targets) == len(frame.detections)
                for target in targets:
                    assert target is not None
                    center, depth, facing = target
                    assert depth > 0
                    assert np.linalg.norm(facing) == pytest.approx(1.0)

    def test_pose_target_matches_observation_at_zero_noise(self):
        scene = generate_scene(SimConfig(seed=17, n_frames=8, n_objects=2,
                                         appearance_dim=4))
        samples = make_matching_dataset([scene], 5, 5, seed=0)
        for s in samples:
            for frame, targets in ((s.frame_a, s.targets_a), (s.frame_b, s.targets_b)):
                for det, (center, depth, facing) in zip(frame.detections, targets):
                    np.testing.assert_allclose(center, det.observation.c, atol=1e-9)
                    assert depth == pytest.approx(det.observation.T_z)
                    np.testing.assert_allclose(facing, det.observation.R, atol=1e-9)


# The sweep the per-frame generator must reproduce byte for byte: both
# trajectories (turns at negative, near-zero and sharp rates), feature maps on
# and off, every noise field, misses, false positives and capacity trimming,
# and objects behind the camera, beyond visibility_max_range and straddling
# the image edge.
_BASE = dict(n_frames=24, n_objects=12, appearance_dim=6)
ORACLE_CONFIGS = [
    dict(seed=1),
    dict(seed=2, n_objects=30, lateral_range=(-40.0, 40.0)),
    dict(seed=3, trajectory="turn", turn_rate_deg=-9.0),
    dict(seed=4, trajectory="turn", turn_rate_deg=1e-13),  # rounds to straight
    dict(seed=5, trajectory="turn", turn_rate_deg=1e-9),  # smallest real turn
    dict(seed=6, trajectory="turn", turn_rate_deg=45.0, speed=8.0),
    dict(seed=7, emit_feature_maps=True),
    dict(seed=8, emit_feature_maps=True, embed_dim=4, feature_sigma=0.0),
    dict(seed=9, emit_feature_maps=True, embed_dim=5, feature_map_size=(2, 4)),
    dict(seed=10, center_sigma_px=2.5),
    dict(seed=11, depth_rel_sigma=0.08),
    dict(seed=12, rotation_sigma_deg=4.0),
    dict(seed=13, appearance_sigma=0.2),
    dict(seed=14, bbox_jitter_px=1.5),
    dict(seed=15, emit_feature_maps=True, feature_sigma=0.05, center_sigma_px=1.0),
    dict(seed=16, miss_rate=0.3),
    dict(seed=17, fp_rate=0.6, emit_feature_maps=True),
    dict(seed=18, n_objects=40, fp_rate=1.0, capacity=4),
    dict(seed=19, depth_range=(-30.0, 120.0), visibility_max_range=60.0),
    dict(seed=20, lateral_range=(-60.0, 60.0), height_range=(-2.0, 12.0), focal=600.0),
    dict(seed=21, center_sigma_px=40.0, miss_rate=0.1, fp_rate=0.3, trajectory="turn",
         turn_rate_deg=-30.0),
    dict(seed=22, center_sigma_px=1.5, depth_rel_sigma=0.05, rotation_sigma_deg=2.0,
         appearance_sigma=0.1, bbox_jitter_px=1.0, miss_rate=0.1, fp_rate=0.4,
         emit_feature_maps=True, feature_sigma=0.02, capacity=6, n_objects=30,
         trajectory="turn", turn_rate_deg=6.0),
    dict(seed=23, speed=0.0, image_width=64, image_height=48, focal=50.0),
]


def _oracle_config(i):
    return SimConfig(**{**_BASE, **ORACLE_CONFIGS[i]})


class TestPerFrameOracle:
    """``generate_scene`` against the object-by-object generator it replaced."""

    @pytest.mark.parametrize("i", range(len(ORACLE_CONFIGS)))
    def test_byte_equal_to_reference(self, i):
        cfg = _oracle_config(i)
        assert scene_to_json(generate_scene(cfg)) == scene_to_json(reference_generate_scene(cfg))

    def test_sweep_covers_every_case(self):
        """Every case the sweep must cover occurs in it: an object ahead but
        behind the camera, one ahead beyond visibility_max_range, a box
        clipped at the image edge, a missed object, a false positive, a
        trimmed frame and a feature map."""
        seen = set()
        for i in range(len(ORACLE_CONFIGS)):
            cfg = _oracle_config(i)
            objects = _reference_objects(cfg, np.random.default_rng([cfg.seed, 1]))
            for k in range(cfg.n_frames):
                ego = _reference_ego_at(cfg, k / cfg.frame_rate)
                for _, position, facing in objects:
                    cam = world_to_camera(Pose5D(position, facing, WORLD), ego).T
                    if cam[2] < MIN_DEPTH_M:
                        seen.add("behind")
                    elif np.linalg.norm(cam) > cfg.visibility_max_range:
                        seen.add("beyond range")
            scene = generate_scene(cfg)
            for frame in scene.frames:
                gt_ids = {g.object_id for g in frame.gt_objects}
                det_ids = {d.gt_id for d in frame.detections}
                for g in frame.gt_objects:
                    left, top, w, h = g.bbox
                    if left == 0 or top == 0 or left + w == cfg.image_width \
                            or top + h == cfg.image_height:
                        seen.add("edge")
                if gt_ids - det_ids:
                    seen.add("missed")
                if None in det_ids:
                    seen.add("false positive")
                if len(frame.detections) == cfg.capacity:
                    seen.add("trimmed")
                if any(d.feature_map is not None for d in frame.detections):
                    seen.add("feature map")
        assert seen == {"behind", "beyond range", "edge", "missed", "false positive",
                        "trimmed", "feature map"}

    @pytest.mark.parametrize("i", [0, 6, 17, 21])
    def test_dataset_targets_bit_equal_to_reference(self, i):
        scene = generate_scene(_oracle_config(i))
        loaded = scene_from_doc(scene_to_doc(scene))
        for sc in (scene, loaded):
            samples = make_matching_dataset([sc], n_max=8, pairs_per_scene=20, seed=i)
            checked = 0
            for s in samples:
                for frame, targets in ((s.frame_a, s.targets_a), (s.frame_b, s.targets_b)):
                    assert len(targets) == len(frame.detections)
                    for det, got in zip(frame.detections, targets):
                        want = reference_pose_target(det, frame)
                        if want is None:
                            assert got is None
                            continue
                        np.testing.assert_array_equal(got[0], want[0])
                        assert got[1] == want[1]
                        np.testing.assert_array_equal(got[2], want[2])
                        checked += 1
            assert checked > 0

    def test_targets_of_unmatched_ids(self):
        """A detection whose gt id is missing from its frame has no target,
        like one without a gt id."""
        scene = generate_scene(_oracle_config(16))
        frame = next(f for f in scene.frames if f.detections)
        frame.detections[0].gt_id = 10 ** 6
        samples = make_matching_dataset([scene], n_max=30, pairs_per_scene=200, seed=0)
        targets = [t for s in samples for f, t in ((s.frame_a, s.targets_a),
                                                    (s.frame_b, s.targets_b)) if f is frame]
        assert targets and all(t[0] is None for t in targets)


class TestNoWarnings:
    """Configurations whose camera-frame norm or projection overflows: those
    objects are out of view, without a RuntimeWarning, as the reference
    generator decided (with one)."""

    @pytest.mark.parametrize("doc", [
        {"camera_height": 1e308},
        {"lateral_range": (1e300, 1e301)},
        {"focal": 1e308},
        {"focal": 1e308, "fp_rate": 1.0, "trajectory": "turn", "turn_rate_deg": 10.0},
    ])
    def test_overflow_is_out_of_view_without_warning(self, doc):
        cfg = SimConfig(n_frames=12, n_objects=6, appearance_dim=4, **doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scene_to_json(generate_scene(cfg))
            make_matching_dataset([generate_scene(cfg)], 4, 4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert got == scene_to_json(reference_generate_scene(cfg))
