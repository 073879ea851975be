import copy
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack._kernels import iou_matrix
from geotrack.errors import DataError, NonPositiveDepthError
from geotrack.geometry import WORLD, CameraIntrinsics, EgoPose, PixelObservation, Pose5D
from geotrack.scene import (
    DEFAULT_CAPACITY,
    SCENE_SCHEMA_VERSION,
    Detection,
    FrameRecord,
    GroundTruthObject,
    MotEntry,
    SceneSequence,
    build_match_matrix,
    gt_mot_entries,
    load_scene,
    mot_from_csv,
    mot_to_csv,
    sample_training_pairs,
    save_scene,
    scene_from_doc,
    scene_to_json,
)
from geotrack.simulator import SimConfig, generate_scene
from helpers import mutate_one_value, raises_internal, reference_scene_json, scene_to_doc

K = CameraIntrinsics(f_x=1000.0, f_y=1000.0, p_x=800.0, p_y=450.0,
                     width=1600, height=900)


def frame_with(dets, index=0):
    return FrameRecord(frame_index=index, timestamp=index / 2.0, intrinsics=K,
                       ego=EgoPose.identity(), detections=dets)


def det(gt_id=None, bbox=(100, 100, 20, 40)):
    return Detection(bbox=np.array(bbox, dtype=float), gt_id=gt_id)


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
        with raises_internal("detections; capacity is 2"):
            forward_pair(sample, params)

    @pytest.mark.parametrize("duplicate_in", ["frame_a", "frame_b"])
    def test_duplicate_gt_id_rejected(self, duplicate_in):
        once = frame_with([det(1), det(2)])
        twice = frame_with([det(1), det(1)])
        a, b = (twice, once) if duplicate_in == "frame_a" else (once, twice)
        with pytest.raises(DataError, match="duplicate ground-truth id 1"):
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
        with pytest.raises(DataError, match=re.escape("has 1 frame(s); need >= 2")):
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
        with pytest.raises(DataError, match="quaternion norm 1.010000 too far from 1"):
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
        with pytest.raises(DataError, match=re.escape("frames[0]: ego.matrix")):
            scene_from_doc(doc)

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(DataError, match="unsupported schema version 99"):
            scene_from_doc({"schema": 99, "scene_id": "x", "frames": []})

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n  broken')
        with pytest.raises(DataError, match=r"broken\.json: line 2: "):
            load_scene(path)

    def test_decreasing_frame_index_rejected(self):
        scene = SceneSequence("d", [frame_with([], 0), frame_with([], 1)])
        doc = scene_to_doc(scene)
        doc["frames"][1]["frame_index"] = 0
        with pytest.raises(DataError, match=re.escape("frames[1]: frame_index 0 not increasing")):
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
        with pytest.raises(DataError, match="does not intersect the image"):
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
        with pytest.raises(DataError, match=re.escape(field)):
            scene_from_doc(json.loads(json.dumps(doc)))


def _hand_built_scenes():
    """Scenes the simulator never writes: absent optional fields, edge floats
    and non-finite values, non-ASCII strings and numpy or huge integers."""
    odd = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, -1e-320])
    pose = Pose5D(np.array([-0.0, 1e308, 5e-324]), np.array([0.0, -1.0]), WORLD)
    twin = Pose5D(pose.T.copy(), pose.R.copy(), WORLD)  # equal values, another object
    bare = Detection(bbox=(10.0, 20.0, 30.0, 40.0))
    full = Detection(
        bbox=(np.nan, -0.0, np.inf, -np.inf), confidence=np.float32(0.25),
        center=(5e-324, -0.0),
        observation=PixelObservation(c=(1e308, -0.0), T_z=np.inf, R=(0.6, 0.8)),
        appearance=odd, feature_map=np.full((1, 2, 3), -np.inf),
        gt_id=np.int64(7),
    )
    empty_vectors = Detection(bbox=(1.0, 2.0, 3.0, 4.0), confidence=np.nan,
                              appearance=np.zeros(0), feature_map=np.zeros((2, 0, 1)),
                              gt_id=2**64 + 1)
    frames = [
        FrameRecord(frame_index=np.int64(3), timestamp=np.nan, intrinsics=K,
                    ego=EgoPose.identity(), detections=[bare, full]),
        FrameRecord(frame_index=2**63 + 5, timestamp=-0.0, intrinsics=K,
                    ego=EgoPose.from_yaw(0.3, (-0.0, 1e308, 5e-324)),
                    detections=[empty_vectors],
                    gt_objects=[GroundTruthObject(1, pose, kind="Verkehrszeichen-ä€"),
                                GroundTruthObject(np.int32(2), pose, bbox=odd[:4]),
                                GroundTruthObject(3, twin, kind="")]),
        FrameRecord(frame_index=np.uint64(2**64 - 1), timestamp=np.inf, intrinsics=K,
                    ego=EgoPose.identity(), detections=[], gt_objects=[]),
        FrameRecord(frame_index=2**70, timestamp=-np.inf, intrinsics=K,
                    ego=EgoPose.identity(),
                    detections=[bare, Detection(bbox=(1.0, 1.0, 1.0, 1.0), gt_id=0)],
                    gt_objects=[GroundTruthObject(2, pose, kind="日\n\"\\"),
                                GroundTruthObject(1, Pose5D(np.ones(3), (1.0, 0.0), WORLD))]),
    ]
    return [
        SceneSequence("Szene-ü-\U0001f600", frames),
        SceneSequence("no-frames", []),
        SceneSequence("one", [frames[0]]),
    ]


class TestSceneWriter:
    """``scene_to_json`` writes what ``json.dumps`` makes of the scene's
    document (``helpers.reference_scene_json``), byte for byte."""

    @pytest.mark.parametrize("config", [
        SimConfig(seed=1, n_frames=6, n_objects=5, appearance_dim=4),
        SimConfig(seed=2, n_frames=8, n_objects=6, appearance_dim=5, appearance_sigma=0.2,
                  center_sigma_px=2.0, depth_rel_sigma=0.05, rotation_sigma_deg=3.0,
                  bbox_jitter_px=1.5, miss_rate=0.3, fp_rate=0.5, trajectory="turn"),
        SimConfig(seed=3, n_frames=5, n_objects=4, appearance_dim=3, fp_rate=1.0,
                  emit_feature_maps=True, embed_dim=7, feature_map_size=(2, 3)),
        SimConfig(seed=4, n_frames=6, n_objects=3, appearance_dim=2, emit_feature_maps=True,
                  embed_dim=3, feature_sigma=0.0, capacity=2),
    ], ids=["zero-noise", "noisy-turn", "feature-maps-fp", "small-maps-capacity"])
    def test_simulated_scene_matches_json_dumps(self, config):
        scene = generate_scene(config)
        assert scene_to_json(scene) == reference_scene_json(scene)

    def test_frames_without_detections_match_json_dumps(self):
        scene = generate_scene(SimConfig(seed=5, n_frames=10, n_objects=2, appearance_dim=2,
                                         miss_rate=0.7))
        assert any(not fr.detections for fr in scene.frames)
        assert scene_to_json(scene) == reference_scene_json(scene)

    @pytest.mark.parametrize("index", range(3))
    def test_hand_built_scene_matches_json_dumps(self, index):
        scene = _hand_built_scenes()[index]
        assert scene_to_json(scene) == reference_scene_json(scene)

    def test_save_scene_writes_the_reference_bytes(self, tmp_path):
        scene = _hand_built_scenes()[0]
        save_scene(scene, tmp_path / "odd.json")
        assert (tmp_path / "odd.json").read_bytes() == reference_scene_json(scene).encode()


# --- loader oracle -----------------------------------------------------------------
# The scene loader as it was before it checked each detection's numbers in one
# pass and shared ground-truth poses, plus the later rule that a box's far
# edges and doubled area are finite: the reference for byte-equal output and
# for the first error on a broken document.


def _ref_bbox_intersects_image(bbox, intrinsics):
    left, top, w, h = bbox
    return w > 0 and h > 0 and left < intrinsics.width and top < intrinsics.height \
        and left + w > 0 and top + h > 0


_REF_BOX_RANGE = "bbox is out of range: left + width, top + height and " \
    "2 * width * height must be finite"


def _ref_check_box_range(where, bbox):
    left, top, w, h = (float(x) for x in bbox)
    if not (math.isfinite(left + w) and math.isfinite(top + h)
            and math.isfinite(2.0 * w * h)):
        raise DataError(f"{where}: {_REF_BOX_RANGE}")


def _ref_check_finite(where, fields):
    """Raise DataError naming the first of ``fields`` that holds NaN, inf
    or a JSON boolean.

    Each value is a JSON number or flat list of numbers; None (an absent
    optional field) passes. A non-number raises TypeError, an integer past
    the float range OverflowError.
    """
    for name, value in fields.items():
        numbers = value if isinstance(value, list) else [] if value is None else [value]
        if any(type(x) is bool for x in numbers):
            raise DataError(f"{where}: {name} must be numbers, not true or false")
        if not all(map(math.isfinite, numbers)):
            raise DataError(f"{where}: {name} must be finite")


# what reading a malformed value raises: a missing key, a value of the wrong
# type or shape, or an integer past the float range
_REF_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


def _ref_detection_from_doc(doc, where):
    try:
        _ref_check_finite(where, {"bbox": doc["bbox"], "confidence": doc["confidence"],
                              "center": doc.get("center")})
        det = Detection(
            bbox=doc["bbox"],
            confidence=float(doc["confidence"]),
            center=doc.get("center"),
            gt_id=doc.get("gt_id"),
        )
    except _REF_BAD_VALUE as exc:
        raise DataError(f"{where}: bad detection ({exc})") from exc
    obs = doc.get("observation")
    if obs is not None:
        try:
            _ref_check_finite(where, {f"observation.{k}": obs[k]
                                  for k in ("center", "depth", "rotation")})
            det.observation = PixelObservation(
                c=obs["center"], T_z=float(obs["depth"]), R=obs["rotation"]
            )
        except (*_REF_BAD_VALUE, NonPositiveDepthError) as exc:
            raise DataError(f"{where}: bad observation ({exc})") from exc
    if "appearance" in doc:
        if not isinstance(doc["appearance"], list):
            raise DataError(f"{where}: appearance must be a list of numbers")
        try:
            _ref_check_finite(where, {"appearance": doc["appearance"]})
            det.appearance = np.asarray(doc["appearance"], dtype=np.float64)
        except _REF_BAD_VALUE as exc:
            raise DataError(f"{where}: bad appearance ({exc})") from exc
    if "feature_map" in doc:
        fm = doc["feature_map"]
        try:
            _ref_check_finite(where, {"feature_map": fm["data"]})
            det.feature_map = np.asarray(fm["data"], dtype=np.float64).reshape(fm["shape"])
        except _REF_BAD_VALUE as exc:
            raise DataError(f"{where}: bad feature map ({exc})") from exc
    return det


def reference_scene_from_doc(doc, capacity=DEFAULT_CAPACITY):
    if not isinstance(doc, dict):
        raise DataError("scene document must be a JSON object")
    if doc.get("schema") != SCENE_SCHEMA_VERSION:
        raise DataError(f"unsupported schema version {doc.get('schema')!r}")
    try:
        scene_id = doc["scene_id"]
        frame_docs = doc["frames"]
    except KeyError as exc:
        raise DataError(f"missing top-level field {exc}") from exc
    if not isinstance(scene_id, str) or not isinstance(frame_docs, list):
        raise DataError("scene_id must be a string and frames a list")

    frames = []
    prev_index = None
    for k, fd in enumerate(frame_docs):
        where = f"frames[{k}]"
        try:
            intr, ego_doc = fd["intrinsics"], fd["ego"]
            _ref_check_finite(where, {
                "frame_index": fd["frame_index"],
                "timestamp": fd["timestamp"],
                **{f"intrinsics.{name}": intr[name]
                   for name in ("fx", "fy", "px", "py", "width", "height")},
                **{f"ego.{name}": ego_doc[name]
                   for name in ("rotation", "translation") if name in ego_doc},
                **({"ego.matrix": [x for row in ego_doc["matrix"] for x in row]}
                   if "matrix" in ego_doc else {}),
            })
            intrinsics = CameraIntrinsics(
                f_x=float(intr["fx"]),
                f_y=float(intr["fy"]),
                p_x=float(intr["px"]),
                p_y=float(intr["py"]),
                width=int(intr["width"]),
                height=int(intr["height"]),
            )
            if "matrix" in ego_doc:
                ego = EgoPose.from_matrix(ego_doc["matrix"])
            else:
                ego = EgoPose(
                    np.asarray(ego_doc["rotation"], dtype=np.float64),
                    np.asarray(ego_doc["translation"], dtype=np.float64),
                )
            frame = FrameRecord(
                frame_index=int(fd["frame_index"]),
                timestamp=float(fd["timestamp"]),
                intrinsics=intrinsics,
                ego=ego,
                detections=[
                    _ref_detection_from_doc(dd, f"{where}.detections[{j}]")
                    for j, dd in enumerate(fd["detections"])
                ],
            )
        except _REF_BAD_VALUE as exc:
            raise DataError(f"{where}: {exc}") from exc
        if "gt_objects" in fd:
            if not isinstance(fd["gt_objects"], list):
                raise DataError(f"{where}: gt_objects must be a list")
            gt = []
            for i, gd in enumerate(fd["gt_objects"]):
                try:
                    _ref_check_finite(f"{where}.gt_objects[{i}]", {
                        k: gd[k] for k in ("translation", "rotation", "bbox") if k in gd})
                    g = GroundTruthObject(
                        object_id=int(gd["object_id"]),
                        pose=Pose5D(
                            np.asarray(gd["translation"], dtype=np.float64),
                            np.asarray(gd["rotation"], dtype=np.float64),
                            WORLD,
                        ),
                        kind=gd.get("kind", "vertical"),
                        bbox=gd.get("bbox"),
                    )
                    if g.bbox is not None:
                        _ref_check_box_range(f"{where}.gt_objects[{i}]", g.bbox)
                    gt.append(g)
                except _REF_BAD_VALUE as exc:
                    raise DataError(f"{where}: bad gt object ({exc})") from exc
            frame.gt_objects = gt
        if prev_index is not None and frame.frame_index <= prev_index:
            raise DataError(
                f"{where}: frame_index {frame.frame_index} not increasing"
            )
        prev_index = frame.frame_index
        for j, det in enumerate(frame.detections):
            _ref_check_box_range(f"{where}.detections[{j}]", det.bbox)
            if not _ref_bbox_intersects_image(det.bbox, intrinsics):
                raise DataError(
                    f"{where}: bbox {det.bbox.tolist()} does not intersect the image"
                )
        if len(frame.detections) > capacity:
            warnings.warn(
                f"{where}: {len(frame.detections)} detections exceed capacity "
                f"{capacity}; keeping the top-{capacity} by confidence",
                stacklevel=2,
            )
            order = sorted(
                range(len(frame.detections)),
                key=lambda i: (-frame.detections[i].confidence, i),
            )[:capacity]
            frame.detections = [frame.detections[i] for i in sorted(order)]
        frames.append(frame)
    if not frames:
        raise DataError("scene has no frames")
    return SceneSequence(scene_id=scene_id, frames=frames)


def _outcome(load, doc, capacity=DEFAULT_CAPACITY):
    """What a loader makes of ``doc``: the re-saved scene JSON and the
    warnings raised, or the exception's type and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = scene_to_json(load(doc, capacity))
        except Exception as exc:  # the reference can also fail while saving
            return type(exc), str(exc)
    return text, [str(w.message) for w in caught]


def _oracle_doc(seed, **sim):
    """A simulated scene as a document, frame 0's ego pose as a matrix."""
    scene = generate_scene(SimConfig(seed=seed, **sim))
    doc = json.loads(scene_to_json(scene))
    doc["frames"][0]["ego"] = {"matrix": scene.frames[0].ego.matrix().tolist()}
    return doc


MAPS = dict(appearance_dim=4, fp_rate=0.3, emit_feature_maps=True, embed_dim=3,
            feature_map_size=(2, 2))


def _sightings(doc):
    """Object id -> [(frame position, gt object document)]."""
    out = {}
    for k, frame in enumerate(doc["frames"]):
        for g in frame["gt_objects"]:
            out.setdefault(g["object_id"], []).append((k, g))
    return out


def _signed_zero_doc():
    """A scene whose most-seen object has x = 0.0 in every sighting but one
    later one, which has -0.0. Returns (doc, object id, that frame's position)."""
    doc = _oracle_doc(43, n_frames=8, n_objects=3)
    object_id, seen = max(_sightings(doc).items(), key=lambda item: len(item[1]))
    assert len(seen) >= 3
    for _, g in seen:
        g["translation"][0] = 0.0
    k, g = seen[len(seen) // 2]
    g["translation"][0] = -0.0
    return doc, object_id, k


@pytest.fixture(scope="module")
def small_doc():
    return _oracle_doc(44, n_frames=5, n_objects=4, **MAPS)


class TestLoaderOracle:
    @pytest.mark.parametrize("capacity", [DEFAULT_CAPACITY, 2])
    @pytest.mark.parametrize("make", [
        lambda: _oracle_doc(41, n_frames=10, n_objects=8, **MAPS),
        lambda: _oracle_doc(42, n_frames=12, n_objects=6, center_sigma_px=1.0,
                            depth_rel_sigma=0.05, miss_rate=0.1, fp_rate=0.2),
        lambda: _signed_zero_doc()[0],
    ], ids=["feature-maps", "noisy", "signed-zero"])
    def test_same_scene_as_reference(self, make, capacity):
        doc = make()
        expected = _outcome(reference_scene_from_doc, doc, capacity)
        assert isinstance(expected[0], str), expected
        assert bool(expected[1]) == (capacity == 2)  # over-capacity frames warn
        assert _outcome(scene_from_doc, doc, capacity) == expected

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_first_error_as_reference(self, small_doc, data):
        doc = copy.deepcopy(small_doc)
        kind = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308",
                                          "wrong type", "missing", "unknown key"]))
        key = mutate_one_value(doc, data, kind)
        expected = _outcome(reference_scene_from_doc, doc)
        got = _outcome(scene_from_doc, doc)
        if key in ("gt_id", "object_id", "kind", "frame_index", "width", "height") \
                and got != expected:
            # the one rule the reference lacks: ids, frame indices and image
            # sizes are JSON integers and kind is a string
            assert got[0] is DataError and f"{key} must be" in got[1], (expected, got)
        else:
            assert got == expected

    @pytest.mark.parametrize("path", [
        ("detections", 0, "bbox"), ("detections", 0, "appearance"),
        ("gt_objects", 0, "translation"),
    ])
    def test_cancelling_huge_integers_rejected(self, small_doc, path):
        """Integers past the float range whose exact sum is small."""
        doc = copy.deepcopy(small_doc)
        target = doc["frames"][1]
        for key in path:
            target = target[key]
        target[:2] = [10 ** 400, -10 ** 400]
        got = _outcome(scene_from_doc, doc)
        assert got == _outcome(reference_scene_from_doc, doc)
        assert got[0] is DataError and "int too large" in got[1]

    def test_sightings_share_one_read_only_pose(self):
        doc, object_id, signed = _signed_zero_doc()
        scene = scene_from_doc(doc)
        poses = {}
        for k, frame in enumerate(scene.frames):
            for g in frame.gt_objects:
                assert not g.pose.T.flags.writeable and not g.pose.R.flags.writeable
                if not (g.object_id == object_id and k == signed):
                    assert poses.setdefault(g.object_id, g.pose) is g.pose
        odd = next(g.pose for g in scene.frames[signed].gt_objects
                   if g.object_id == object_id)
        assert odd is not poses[object_id]
        assert math.copysign(1.0, odd.T[0]) == -1.0
        assert math.copysign(1.0, poses[object_id].T[0]) == 1.0

    def test_boolean_in_a_repeated_pose_rejected(self):
        """``True == 1.0``, so a sighting whose rotation reads [true, false]
        equals a shared [1.0, 0.0] as a list; it must still fail the check."""
        doc = _oracle_doc(45, n_frames=6, n_objects=3)
        seen = max(_sightings(doc).values(), key=len)
        for _, g in seen:
            g["rotation"] = [1.0, 0.0]
        seen[-1][1]["rotation"] = [True, False]
        got = _outcome(scene_from_doc, doc)
        assert got == _outcome(reference_scene_from_doc, doc)
        assert got[0] is DataError and "rotation must be numbers, not true or false" in got[1]


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
        with pytest.raises(DataError, match="line 1: expected 10 fields, got 3"):
            mot_from_csv("1,2,3\n")

    def test_non_numeric_reports_line(self):
        good = mot_to_csv([MotEntry(0, 1, (1, 2, 3, 4))])
        with pytest.raises(DataError, match="line 2: invalid literal for int"):
            mot_from_csv(good + "2,x,1,1,1,1,1,-1,-1,-1\n")

    @pytest.mark.parametrize("field", [2, 6, 9])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_reports_line(self, field, value):
        good = mot_to_csv([MotEntry(0, 1, (1, 2, 3, 4), 1.0, (5, 6, 7))])
        parts = good.strip().split(",")
        parts[field] = value
        with pytest.raises(DataError, match="line 2: .*finite"):
            mot_from_csv(good + ",".join(parts) + "\n")

    @pytest.mark.parametrize("box", [
        ("1e308", "2", "1e308", "4"),  # left + width overflows
        ("1", "-1e308", "3", "-1e308"),  # top + height overflows
        ("1", "2", "1e200", "1e200"),  # width * height overflows
        ("1", "2", "1e154", "1e154"),  # only twice the area overflows
    ])
    def test_out_of_range_box_reports_line(self, box):
        good = mot_to_csv([MotEntry(0, 1, (1, 2, 3, 4), 1.0, (5, 6, 7))])
        parts = good.strip().split(",")
        parts[2:6] = box
        with pytest.raises(DataError, match="line 2: bbox is out of range"):
            mot_from_csv(good + ",".join(parts) + "\n")

    def test_largest_boxes_score_iou_one(self):
        # boxes just inside the rule keep every IoU finite: a box matches itself
        text = "1,1,0,0,7e153,7e153,1,-1,-1,-1\n1,2,1e308,0,7e307,1,1,-1,-1,-1\n"
        boxes = [e.bbox for e in mot_from_csv(text)]
        np.testing.assert_allclose(iou_matrix(boxes, boxes), np.eye(2), rtol=1e-15)

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(DataError, match="track id 0 must be a positive integer"):
            mot_to_csv([MotEntry(0, 0, (1, 2, 3, 4))])

    def test_gt_entries_from_simulated_scene(self):
        scene = generate_scene(SimConfig(seed=4, n_frames=6, n_objects=3,
                                         appearance_dim=4))
        entries = gt_mot_entries(scene)
        assert entries
        assert all(e.world_xyz is not None for e in entries)
