import numpy as np
import pytest

from geotrack.errors import ConfigError
from geotrack.geometry import recover_translation, world_to_camera
from geotrack.scene import scene_to_json
from geotrack.simulator import (
    SimConfig,
    generate_scene,
    make_matching_dataset,
    object_appearance,
    pose_target,
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
        frame = scene.frames[3]
        for det in frame.detections:
            center, depth, facing = pose_target(det, frame)
            np.testing.assert_allclose(center, det.observation.c, atol=1e-9)
            assert depth == pytest.approx(det.observation.T_z)
