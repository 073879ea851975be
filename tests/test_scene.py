import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack.errors import (
    CapacityExceededError,
    FormatError,
    InvariantViolationError,
    ParseError,
    SceneTooShortError,
    SchemaError,
)
from geotrack.geometry import CameraIntrinsics, EgoPose
from geotrack.scene import (
    Detection,
    FrameRecord,
    MotEntry,
    SceneSequence,
    build_match_matrix,
    gt_mot_entries,
    load_scene,
    mot_from_csv,
    mot_to_csv,
    pad_bbox,
    sample_training_pairs,
    save_scene,
    scene_from_doc,
    scene_to_doc,
    scene_to_json,
)
from geotrack.simulator import SimConfig, generate_scene

K = CameraIntrinsics(f_x=1000.0, f_y=1000.0, p_x=800.0, p_y=450.0,
                     width=1600, height=900)


def frame_with(dets, index=0):
    return FrameRecord(frame_index=index, timestamp=index / 2.0, intrinsics=K,
                       ego=EgoPose.identity(), detections=dets)


def det(gt_id=None, bbox=(100, 100, 20, 40)):
    return Detection(bbox=np.array(bbox, dtype=float), gt_id=gt_id)


class TestPadBbox:
    def test_hand_example(self):
        # pad = clamp(round(0.15 * 80), 5, 25) = 12
        out = pad_bbox((100, 100, 40, 80), (1600, 900))
        np.testing.assert_allclose(out, [88, 88, 64, 104])

    def test_small_box_hits_floor(self):
        out = pad_bbox((10, 10, 4, 4), (1600, 900))
        np.testing.assert_allclose(out, [5, 5, 14, 14])

    def test_large_box_hits_ceiling(self):
        out = pad_bbox((500, 300, 400, 400), (1600, 900))
        np.testing.assert_allclose(out, [475, 275, 450, 450])

    def test_clips_at_origin(self):
        out = pad_bbox((0, 0, 40, 40), (1600, 900))
        assert out[0] == 0 and out[1] == 0
        np.testing.assert_allclose(out[2:], [46, 46])

    @given(st.floats(0, 1500), st.floats(0, 800), st.floats(1, 400),
           st.floats(1, 400))
    @settings(max_examples=200)
    def test_stays_inside_image_and_covers_original(self, left, top, w, h):
        out = pad_bbox((left, top, w, h), (1600, 900))
        assert out[0] >= 0 and out[1] >= 0
        assert out[0] + out[2] <= 1600 + 1e-9
        assert out[1] + out[3] <= 900 + 1e-9
        # padded box contains the visible part of the original box
        assert out[0] <= max(left, 0) + 1e-9
        assert out[1] <= max(top, 0) + 1e-9
        assert out[0] + out[2] >= min(left + w, 1600) - 1e-9
        assert out[1] + out[3] >= min(top + h, 900) - 1e-9


class TestMatchMatrix:
    def test_single_shared_object(self):
        m = build_match_matrix(frame_with([det(1)]), frame_with([det(1)], 1))
        np.testing.assert_array_equal(m, [[1, 0], [0, 0]])
        assert m.dtype == np.int64

    def test_leaver_sets_last_column(self):
        m = build_match_matrix(frame_with([det(1)]), frame_with([], 1))
        np.testing.assert_array_equal(m, [[1], [0]])

    def test_entrant_sets_last_row(self):
        m = build_match_matrix(frame_with([]), frame_with([det(2)], 1))
        np.testing.assert_array_equal(m, [[1, 0]])

    def test_permutation(self):
        a = frame_with([det(1), det(2), det(3)])
        b = frame_with([det(3), det(1), det(2)], 1)
        m = build_match_matrix(a, b)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 2] = expected[2, 0] = 1
        np.testing.assert_array_equal(m, expected)

    def test_false_positive_goes_to_null(self):
        m = build_match_matrix(frame_with([det(None)]), frame_with([det(1)], 1))
        np.testing.assert_array_equal(m, [[0, 1], [1, 0]])

    def test_capacity(self):
        # the matrix is sized by the detections; the matcher's capacity is
        # enforced where pairs are scored
        from geotrack.matching import MatcherConfig, forward_pair, init_matcher_params
        from geotrack.simulator import make_matching_dataset

        a = frame_with([det(i) for i in range(5)])
        m = build_match_matrix(a, frame_with([], 1))
        np.testing.assert_array_equal(m, [[1]] * 5 + [[0]])
        scene = generate_scene(SimConfig(seed=11, n_frames=4, n_objects=6,
                                         appearance_dim=4, lateral_range=(-3, 3),
                                         depth_range=(30, 40)))
        sample = make_matching_dataset([scene], 1, 1, seed=0)[0]
        params = init_matcher_params(MatcherConfig(appearance_dim=4, capacity=2))
        with pytest.raises(CapacityExceededError):
            forward_pair(sample, params)

    @pytest.mark.parametrize("duplicate_in", ["frame_a", "frame_b"])
    def test_duplicate_gt_id_rejected(self, duplicate_in):
        once = frame_with([det(1), det(2)])
        twice = frame_with([det(1), det(1)])
        a, b = (twice, once) if duplicate_in == "frame_a" else (once, twice)
        with pytest.raises(InvariantViolationError, match="duplicate ground-truth id 1"):
            build_match_matrix(a, b)

    def test_real_rows_and_columns_sum_to_one(self):
        scene = generate_scene(SimConfig(seed=11, n_frames=12, n_objects=5,
                                         miss_rate=0.2, fp_rate=0.3,
                                         appearance_dim=4))
        for a, b in sample_training_pairs(scene, 8, 25, seed=2):
            m = build_match_matrix(scene.frames[a], scene.frames[b])
            n1 = len(scene.frames[a].detections)
            n2 = len(scene.frames[b].detections)
            assert m.shape == (n1 + 1, n2 + 1)
            np.testing.assert_array_equal(m[:n1].sum(axis=1), 1)
            np.testing.assert_array_equal(m[:, :n2].sum(axis=0), 1)
            assert m[n1, n2] == 0


class TestSampleTrainingPairs:
    def test_two_frame_scene_always_separation_one(self):
        scene = generate_scene(SimConfig(seed=1, n_frames=2, appearance_dim=4))
        pairs = sample_training_pairs(scene, 35, 10, seed=0)
        assert pairs == [(0, 1)] * 10

    def test_deterministic_under_seed(self):
        scene = generate_scene(SimConfig(seed=1, n_frames=20, appearance_dim=4))
        a = sample_training_pairs(scene, 10, 50, seed=7)
        b = sample_training_pairs(scene, 10, 50, seed=7)
        assert a == b

    def test_too_short(self):
        scene = generate_scene(SimConfig(seed=1, n_frames=2, appearance_dim=4))
        scene = SceneSequence(scene.scene_id, scene.frames[:1])
        with pytest.raises(SceneTooShortError):
            sample_training_pairs(scene, 35, 1, seed=0)

    def test_separation_uniform(self):
        scene = generate_scene(SimConfig(seed=3, n_frames=100, n_objects=1,
                                         appearance_dim=2))
        n_max, count = 35, 10000
        pairs = sample_training_pairs(scene, n_max, count, seed=5)
        counts = np.bincount([b - a for a, b in pairs], minlength=n_max + 1)[1:]
        p = 1.0 / n_max
        sigma = np.sqrt(count * p * (1 - p))
        assert np.all(np.abs(counts - count * p) <= 3 * sigma + 1)


class TestSceneJson:
    def test_minimal_scene_round_trip(self):
        scene = SceneSequence("mini", [frame_with([det(1)])])
        doc = scene_to_doc(scene)
        back = scene_from_doc(json.loads(json.dumps(doc)))
        assert back.scene_id == "mini"
        assert len(back.frames) == 1

    def test_save_load_byte_stable(self, tmp_path):
        scene = generate_scene(SimConfig(seed=9, n_frames=8, n_objects=3,
                                         appearance_dim=8, center_sigma_px=1.0,
                                         emit_feature_maps=True, embed_dim=6))
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        text = path.read_text()
        again = load_scene(path)
        assert scene_to_json(again) == text

    def test_quaternion_renormalized_within_tolerance(self):
        scene = SceneSequence("q", [frame_with([])])
        doc = scene_to_doc(scene)
        doc["frames"][0]["ego"]["rotation"] = [1.0005, 0.0, 0.0, 0.0]
        out = scene_from_doc(doc)
        assert np.linalg.norm(out.frames[0].ego.rotation) == pytest.approx(1.0)

    def test_quaternion_rejected_outside_tolerance(self):
        scene = SceneSequence("q", [frame_with([])])
        doc = scene_to_doc(scene)
        doc["frames"][0]["ego"]["rotation"] = [1.01, 0.0, 0.0, 0.0]
        with pytest.raises(InvariantViolationError):
            scene_from_doc(doc)

    def test_ego_matrix_accepted(self):
        scene = SceneSequence("m", [frame_with([])])
        doc = scene_to_doc(scene)
        doc["frames"][0]["ego"] = {"matrix": np.eye(4).tolist()}
        out = scene_from_doc(doc)
        np.testing.assert_allclose(out.frames[0].ego.rotation, [1, 0, 0, 0])

    def test_non_finite_ego_matrix_rejected(self):
        scene = SceneSequence("m", [frame_with([])])
        doc = scene_to_doc(scene)
        matrix = np.eye(4).tolist()
        matrix[0][3] = float("nan")
        doc["frames"][0]["ego"] = {"matrix": matrix}
        with pytest.raises(SchemaError, match=re.escape("frames[0]: ego.matrix")):
            scene_from_doc(doc)

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(SchemaError):
            scene_from_doc({"schema": 99, "scene_id": "x", "frames": []})

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n  broken')
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert "line" in str(err.value)

    def test_decreasing_frame_index_rejected(self):
        scene = SceneSequence("d", [frame_with([], 0), frame_with([], 1)])
        doc = scene_to_doc(scene)
        doc["frames"][1]["frame_index"] = 0
        with pytest.raises(InvariantViolationError):
            scene_from_doc(doc)

    def test_capacity_policy_keeps_top_confidence(self):
        dets = [Detection(bbox=(10 + i, 10, 5, 5), confidence=0.1 * i)
                for i in range(5)]
        scene = SceneSequence("cap", [frame_with(dets)])
        doc = scene_to_doc(scene)
        with pytest.warns(UserWarning):
            out = scene_from_doc(doc, capacity=3)
        kept = [d.confidence for d in out.frames[0].detections]
        assert kept == [pytest.approx(0.2), pytest.approx(0.3), pytest.approx(0.4)]

    def test_bbox_outside_image_rejected(self):
        scene = SceneSequence("b", [frame_with([det(bbox=(2000, 100, 10, 10))])])
        doc = scene_to_doc(scene)
        with pytest.raises(InvariantViolationError):
            scene_from_doc(doc)

    @pytest.mark.parametrize("path, value, field", [
        (("detections", 0, "bbox", 0), float("nan"), "frames[1].detections[0]: bbox"),
        (("detections", 0, "confidence"), float("inf"), "detections[0]: confidence"),
        (("detections", 1, "appearance", 2), float("nan"), "detections[1]: appearance"),
        (("detections", 0, "observation", "depth"), float("inf"),
         "detections[0]: observation.depth"),
        (("detections", 0, "feature_map", "data", 3), float("nan"),
         "detections[0]: feature_map"),
        (("intrinsics", "fx"), float("nan"), "frames[1]: intrinsics.fx"),
        (("ego", "translation", 1), float("-inf"), "frames[1]: ego.translation"),
        (("timestamp",), float("nan"), "frames[1]: timestamp"),
        (("gt_objects", 0, "translation", 2), float("inf"),
         "frames[1].gt_objects[0]: translation"),
    ], ids=["bbox", "confidence", "appearance", "observation", "feature_map",
            "intrinsics", "ego", "timestamp", "gt_object"])
    def test_non_finite_value_rejected(self, path, value, field):
        scene = generate_scene(SimConfig(seed=9, n_frames=3, n_objects=3,
                                         appearance_dim=8, emit_feature_maps=True,
                                         embed_dim=6))
        doc = json.loads(scene_to_json(scene))
        target = doc["frames"][1]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SchemaError, match=re.escape(field)):
            scene_from_doc(json.loads(json.dumps(doc)))


class TestMotCsv:
    def test_empty_is_empty_file(self):
        assert mot_to_csv([]) == ""

    def test_single_line_has_ten_fields(self):
        line = mot_to_csv([MotEntry(0, 1, (1.0, 2.0, 3.0, 4.0), 0.5,
                                    (7.0, 8.0, 9.0))]).strip()
        assert len(line.split(",")) == 10
        assert line.startswith("1,1,")  # frames are 1-based on disk

    def test_absent_world_becomes_minus_one(self):
        line = mot_to_csv([MotEntry(0, 1, (1, 2, 3, 4))]).strip()
        assert line.endswith("-1,-1,-1")
        back = mot_from_csv(line + "\n")[0]
        assert back.world_xyz is None

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = [
            MotEntry(int(rng.integers(0, 40)), int(rng.integers(1, 9)),
                     rng.uniform(0, 500, 4), float(rng.uniform(0, 1)),
                     rng.normal(0, 30, 3))
            for _ in range(50)
        ]
        text = mot_to_csv(entries)
        again = mot_to_csv(mot_from_csv(text))
        assert text == again

    def test_bad_field_count_reports_line(self):
        with pytest.raises(FormatError) as err:
            mot_from_csv("1,2,3\n")
        assert "line 1" in str(err.value)

    def test_non_numeric_reports_line(self):
        good = mot_to_csv([MotEntry(0, 1, (1, 2, 3, 4))])
        with pytest.raises(FormatError) as err:
            mot_from_csv(good + "2,x,1,1,1,1,1,-1,-1,-1\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("field", [2, 6, 9])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reports_line(self, field, value):
        good = mot_to_csv([MotEntry(0, 1, (1, 2, 3, 4), 1.0, (5, 6, 7))])
        parts = good.strip().split(",")
        parts[field] = value
        with pytest.raises(FormatError, match="line 2: .*finite"):
            mot_from_csv(good + ",".join(parts) + "\n")

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(FormatError):
            mot_to_csv([MotEntry(0, 0, (1, 2, 3, 4))])

    def test_gt_entries_from_simulated_scene(self):
        scene = generate_scene(SimConfig(seed=4, n_frames=6, n_objects=3,
                                         appearance_dim=4))
        entries = gt_mot_entries(scene)
        assert entries
        assert all(e.world_xyz is not None for e in entries)
