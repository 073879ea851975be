"""Reference code that only the tests use: a finite-difference gradient
check, input standardization fitted outside a training run, the pair-side
standardization that standardizing rows once replaced (with the scorer's
first layer whole, and split by side as tracking runs it), the per-array SGD
update that training's flat parameter vector replaced, the pose-by-pose
reference-frame transform, the object-by-object scene generator and pose
target that the simulator's per-frame pass replaced, the scene document and
its ``json.dumps`` text that the direct scene writer replaced, a document
mutator for the data-contract fuzz tests, and ``raises_internal`` for the
internal-fault (exit 4) guards."""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from geotrack import matching, numerics, simulator
from geotrack.errors import GeotrackError
from geotrack.geometry import (
    REFERENCE,
    WORLD,
    EgoPose,
    PixelObservation,
    Pose5D,
    camera_to_world,
    normalize_rotation,
    project,
    world_to_camera,
    yaw_rot2,
)
from geotrack.scene import (
    SCENE_SCHEMA_VERSION,
    Detection,
    FrameRecord,
    GroundTruthObject,
    SceneSequence,
    keep_most_confident,
)

# the benchmark's stored observation-route matcher
STORED_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench/data/obs-matcher.json"


@contextmanager
def raises_internal(match):
    """``pytest.raises`` for an internal fault: a plain ``GeotrackError``
    (exit 4), not one of its families, whose message matches ``match``."""
    with pytest.raises(GeotrackError, match=match) as excinfo:
        yield excinfo
    assert excinfo.type is GeotrackError


# --- gradient checking -------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_error: float
    worst_param: str
    tolerance: float
    errors: dict

    @property
    def passed(self):
        return self.max_error < self.tolerance


def grad_check(f, params, tolerance=1e-4, step=1e-5):
    """Compare analytic gradients of f against central finite differences.

    ``params`` maps names to arrays; ``f(params)`` must return
    (loss, grads-by-name). The per-entry error is relative,
    |a - b| / max(|a|, |b|, floor), where the floor is the roundoff noise
    that a central difference of this loss at this step cannot beat
    (about eps * |loss| / step), rescaled by the tolerance. Gradient
    entries below that resolution limit therefore pass on absolute
    agreement instead of drowning in quantization noise.
    """
    loss, grads = f(params)
    noise = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(loss)) / step
    floor = noise / tolerance
    errors = {}
    worst = ("", 0.0)
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise GeotrackError(f"gradient shape mismatch for {name}")
        err = 0.0
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            hi = f(params)[0]
            p[idx] = orig - step
            lo = f(params)[0]
            p[idx] = orig
            fd = (hi - lo) / (2.0 * step)
            a, b = float(g[idx]), fd
            e = abs(a - b) / max(abs(a), abs(b), floor)
            err = max(err, e)
        errors[name] = err
        if err >= worst[1]:
            worst = (name, err)
    return GradCheckReport(
        max_error=worst[1], worst_param=worst[0], tolerance=tolerance, errors=errors
    )


# --- input standardization -----------------------------------------------------------


def fit_input_standardization(samples, params):
    """Freeze ``params``' input standardization from ``samples`` as a fresh
    ``train_matcher`` run does before its first epoch; returns ``params``."""
    matching._set_standardization(params, matching._input_statistics(samples, params)[1])
    return params


def _standardized_pairs(feats_a, feats_b, params):
    """Every one of the n_a * n_b pairs as one row, standardized
    ``(pair - [shift, shift]) * [scale, scale]``."""
    pairs = matching.build_pair_tensor(feats_a, feats_b)
    x = pairs.reshape(-1, pairs.shape[2])
    x = x - np.concatenate([params.input_shift, params.input_shift])
    return x * np.concatenate([params.input_scale, params.input_scale])


def reference_pair_logits(feats_a, feats_b, params, cache=None):
    """The scorer's (n_a, n_b) logits with every pair standardized, as the
    scorer computed them before it standardized each row once."""
    x = _standardized_pairs(feats_a, feats_b, params)
    return numerics.mlp_forward(params.scorer, x, cache=cache).reshape(
        len(feats_a), len(feats_b))


def reference_split_logits(feats_a, feats_b, params):
    """The tapeless scorer's (n_a, n_b) logits with the first layer split by
    side in ``_score``'s order, ``(a W1[:d] + b1) + b W1[d:]``, but every
    pair standardized and multiplied on its own row, in one call rather
    than once per side and per chunk."""
    x = _standardized_pairs(feats_a, feats_b, params)
    d = x.shape[1] // 2
    first = params.scorer[0]
    z = numerics._layer_product(x[:, :d].copy(), first.w[:d], taped=False) + first.b
    z = z + numerics._layer_product(x[:, d:].copy(), first.w[d:], taped=False)
    h = numerics._ACTS[first.act][0](z)
    return numerics.mlp_forward(params.scorer[1:], h).reshape(len(feats_a), len(feats_b))


# --- per-array SGD update ---------------------------------------------------------


def _reference_sgd_epoch(samples, params, config, rng, lr, velocity, pose_only=False):
    """One pass of SGD with momentum, one array at a time: a fresh gradient
    dict per step, a Python sum of per-array squared norms for the clip, and
    a velocity array per trainable. Returns (mean affinity, mean pose loss,
    clipped steps)."""
    updates = [(name, arr) for name, arr in matching._named_arrays(params).items()
               if not pose_only or name.startswith(("pose_head.", "attention."))]
    affinity_sum, pose_sum, pose_count, clipped = 0.0, 0.0, 0, 0
    for idx in rng.permutation(len(samples)):
        result = matching.forward_pair(samples[idx], params, with_grad=True,
                                       pose_only=pose_only)
        if not pose_only:
            affinity_sum += result["affinity"]
        pose_sum += sum(result["pose_losses"])
        pose_count += len(result["pose_losses"])
        grads = result["grads"]
        if config.grad_clip:
            norm = np.sqrt(sum(float(np.sum(grads[name] ** 2)) for name, _ in updates))
            if norm > config.grad_clip:
                clipped += 1
                for name, _ in updates:
                    grads[name] *= config.grad_clip / norm
        for name, arr in updates:
            g = grads[name]
            if name.endswith(".w") and "attention" not in name:
                g = g + config.weight_decay * arr
            step = lr * config.pose_lr_scale if name.startswith("pose_head.") else lr
            v = velocity[name]
            v *= config.momentum
            v -= step * g
            arr += v
    return (float(affinity_sum) / len(samples) if not pose_only else float("nan"),
            float(pose_sum) / pose_count if pose_count else 0.0, clipped)


def reference_train_matcher(samples, config, params=None, heldout=None):
    """``matching.train_matcher`` run with the per-array update above, every
    sample described on every call. Returns (params, history as (epoch,
    affinity, pose, accuracy) tuples, clipped steps)."""
    rng = np.random.default_rng(config.seed)
    pretrain = 0
    if params is None:
        params = matching.init_matcher_params(config, rng)
        fit_input_standardization(samples, params)
        if config.use_pose_head:
            pretrain = (config.pose_pretrain_epochs
                        if config.pose_pretrain_epochs is not None else config.epochs // 3)
    velocity = {name: np.zeros_like(a) for name, a in matching._named_arrays(params).items()}
    cutoff = int(np.floor(config.epochs * 2 / 3))
    schedule = [(True, config.learning_rate)] * pretrain + [
        (False, config.learning_rate * (config.lr_decay if epoch >= cutoff else 1.0))
        for epoch in range(config.epochs)]
    history, clipped = [], 0
    for pose_only, lr in schedule:
        affinity, pose, clips = _reference_sgd_epoch(samples, params, config, rng, lr,
                                                     velocity, pose_only)
        clipped += clips
        accuracy = matching.pair_accuracy(heldout or samples, params)
        history.append((params.epochs_trained, affinity, pose, accuracy))
        params.epochs_trained += 1
    return params, history, clipped


# --- frame transforms ----------------------------------------------------------------


def to_reference_frame(pose, ego_t, ego_ref):
    """Re-express a camera(t) pose in the reference camera frame.

    Equals world_to_camera(camera_to_world(pose, ego_t), ego_ref).
    """
    return world_to_camera(camera_to_world(pose, ego_t), ego_ref, REFERENCE)


# --- object-by-object scene generation ----------------------------------------------


def _reference_ego_at(config, t):
    if config.trajectory == "straight":
        pos = np.array([0.0, -config.camera_height, config.speed * t])
        return EgoPose.from_yaw(0.0, pos)
    rate = math.radians(config.turn_rate_deg)
    if abs(rate) < 1e-12:
        pos = np.array([0.0, -config.camera_height, config.speed * t])
        return EgoPose.from_yaw(0.0, pos)
    # constant-rate turn: integrate the heading analytically
    yaw = rate * t
    radius = config.speed / rate
    pos = np.array(
        [radius * (1.0 - math.cos(yaw)), -config.camera_height,
         radius * math.sin(yaw)]
    )
    return EgoPose.from_yaw(yaw, pos)


def _reference_objects(config, rng):
    """(object id, world position, unit facing) of each object."""
    objects = []
    for i in range(config.n_objects):
        x = rng.uniform(*config.lateral_range)
        h = rng.uniform(*config.height_range)
        z = rng.uniform(*config.depth_range)
        # objects face back along the road, toward the approaching camera
        jitter = math.radians(rng.normal(0.0, config.facing_jitter_deg))
        facing = yaw_rot2(jitter) @ np.array([0.0, -1.0])
        objects.append((i + 1, np.array([x, -h, z]), normalize_rotation(facing)))
    return objects


def _reference_feature_map(config, object_id, target, rng):
    h, w = config.feature_map_size
    e = config.embed_dim
    base = np.zeros((h, w, e))
    c_star, tz_star, r_star = target
    pose_channels = np.array(
        [
            c_star[0] / config.image_width,
            c_star[1] / config.image_height,
            tz_star / config.visibility_max_range,
            r_star[0],
            r_star[1],
        ]
    )
    n_pose = min(5, e)
    base[:, :, :n_pose] = pose_channels[:n_pose]
    if e > 5:
        sig_rng = np.random.default_rng([config.seed, simulator._FEATURE_SALT, object_id])
        base[:, :, 5:] = sig_rng.normal(0.0, 0.5, size=e - 5)
    if config.feature_sigma > 0:
        base = base + rng.normal(0.0, config.feature_sigma, size=base.shape)
    return base


def _reference_visible(config, t_cam, center, bbox):
    if t_cam[2] < simulator.MIN_DEPTH_M:
        return False
    if np.linalg.norm(t_cam) > config.visibility_max_range:
        return False
    if not (0 <= center[0] <= config.image_width
            and 0 <= center[1] <= config.image_height):
        return False
    return bbox[2] >= simulator.MIN_BOX_PX and bbox[3] >= simulator.MIN_BOX_PX


def _reference_bbox(config, intrinsics, center, depth):
    w_px = intrinsics.f_x * simulator.OBJECT_WIDTH_M / depth
    h_px = intrinsics.f_y * simulator.OBJECT_HEIGHT_M / depth
    left = max(0.0, center[0] - w_px / 2.0)
    top = max(0.0, center[1] - h_px / 2.0)
    right = min(float(config.image_width), center[0] + w_px / 2.0)
    bottom = min(float(config.image_height), center[1] + h_px / 2.0)
    return np.array([left, top, right - left, bottom - top])


def reference_generate_scene(config, scene_id=None):
    """``simulator.generate_scene`` object by object: every object of every
    frame goes through ``world_to_camera``, and each detection draws its
    identity's base appearance afresh."""
    min_depth = simulator.MIN_DEPTH_M
    rng = np.random.default_rng([config.seed, 1])
    intrinsics = simulator._intrinsics(config)
    objects = _reference_objects(config, rng)
    frames = []
    for k in range(config.n_frames):
        t = k / config.frame_rate
        ego = _reference_ego_at(config, t)
        detections = []
        gt_objects = []
        for object_id, position, world_facing in objects:
            world_pose = Pose5D(position, world_facing, WORLD)
            cam_pose = world_to_camera(world_pose, ego)
            if cam_pose.T[2] < min_depth:
                continue
            center = project(cam_pose.T, intrinsics)
            bbox = _reference_bbox(config, intrinsics, center, cam_pose.T[2])
            if not _reference_visible(config, cam_pose.T, center, bbox):
                continue
            gt_objects.append(
                GroundTruthObject(
                    object_id=object_id,
                    pose=world_pose,
                    kind="vertical",
                    bbox=bbox,
                )
            )
            target = (center.copy(), float(cam_pose.T[2]), cam_pose.R.copy())
            missed = config.miss_rate > 0 and rng.random() < config.miss_rate
            noisy_center = center + rng.normal(0.0, config.center_sigma_px, 2) \
                if config.center_sigma_px > 0 else center.copy()
            depth = float(cam_pose.T[2])
            if config.depth_rel_sigma > 0:
                depth = max(min_depth / 2.0,
                            depth * (1.0 + rng.normal(0.0, config.depth_rel_sigma)))
            facing = cam_pose.R
            if config.rotation_sigma_deg > 0:
                facing = yaw_rot2(
                    math.radians(rng.normal(0.0, config.rotation_sigma_deg))
                ) @ facing
            det_bbox = bbox.copy()
            if config.bbox_jitter_px > 0:
                det_bbox = det_bbox + rng.normal(0.0, config.bbox_jitter_px, 4)
                det_bbox[2:] = np.maximum(det_bbox[2:], simulator.MIN_BOX_PX)
            appearance = simulator.object_appearance(
                config.seed, object_id, config.appearance_dim
            )
            if config.appearance_sigma > 0:
                appearance = appearance + rng.normal(
                    0.0, config.appearance_sigma, config.appearance_dim
                )
            if missed:
                continue
            if not (0 <= noisy_center[0] <= config.image_width
                    and 0 <= noisy_center[1] <= config.image_height):
                continue
            det = Detection(
                bbox=det_bbox,
                confidence=1.0,
                center=noisy_center.copy(),
                observation=PixelObservation(
                    c=noisy_center, T_z=depth, R=normalize_rotation(facing)
                ),
                appearance=appearance,
                gt_id=object_id,
            )
            if config.emit_feature_maps:
                det.feature_map = _reference_feature_map(config, object_id, target, rng)
            detections.append(det)

        if config.fp_rate > 0 and rng.random() < config.fp_rate:
            fp_center = np.array(
                [rng.uniform(0.05 * config.image_width, 0.95 * config.image_width),
                 rng.uniform(0.05 * config.image_height, 0.95 * config.image_height)]
            )
            fp_depth = rng.uniform(*config.depth_range)
            fp_rng = np.random.default_rng([config.seed, simulator._FP_SALT, k])
            det = Detection(
                bbox=_reference_bbox(config, intrinsics, fp_center, fp_depth),
                confidence=0.5,
                center=fp_center.copy(),
                observation=PixelObservation(
                    c=fp_center, T_z=fp_depth,
                    R=normalize_rotation(yaw_rot2(rng.uniform(-np.pi, np.pi))
                                         @ np.array([0.0, -1.0])),
                ),
                appearance=fp_rng.choice([-1.0, 1.0], size=config.appearance_dim),
                gt_id=None,
            )
            if config.emit_feature_maps:
                det.feature_map = rng.normal(
                    0.0, 0.5,
                    (*config.feature_map_size, config.embed_dim),
                )
            detections.append(det)

        if len(detections) > config.capacity:
            detections = keep_most_confident(detections, config.capacity)

        frames.append(
            FrameRecord(
                frame_index=k,
                timestamp=t,
                intrinsics=intrinsics,
                ego=ego,
                detections=detections,
                gt_objects=gt_objects,
            )
        )
    scene_id = scene_id or f"sim-{config.seed:08d}"
    return SceneSequence(scene_id=scene_id, frames=frames)


def reference_pose_target(detection, frame):
    """Ground-truth (center, depth, facing) regression target of one
    detection, through ``world_to_camera`` of its object's pose."""
    if detection.gt_id is None:
        return None
    for g in frame.gt_objects or []:
        if g.object_id == detection.gt_id:
            cam = world_to_camera(g.pose, frame.ego)
            center = project(cam.T, frame.intrinsics)
            return (center, float(cam.T[2]), cam.R)
    return None


# --- scene documents -----------------------------------------------------------------


def _floats(a):
    return [float(x) for x in np.asarray(a).reshape(-1)]


def _detection_to_doc(det):
    doc = {"bbox": _floats(det.bbox), "confidence": float(det.confidence)}
    if det.center is not None:
        doc["center"] = _floats(det.center)
    if det.observation is not None:
        doc["observation"] = {
            "center": _floats(det.observation.c),
            "depth": float(det.observation.T_z),
            "rotation": _floats(det.observation.R),
        }
    if det.appearance is not None:
        doc["appearance"] = _floats(det.appearance)
    if det.feature_map is not None:
        doc["feature_map"] = {
            "shape": [int(s) for s in det.feature_map.shape],
            "data": _floats(det.feature_map),
        }
    if det.gt_id is not None:
        doc["gt_id"] = int(det.gt_id)
    return doc


def scene_to_doc(scene):
    """The scene as a JSON document of dicts, lists and Python scalars."""
    frames = []
    for fr in scene.frames:
        doc = {
            "frame_index": int(fr.frame_index),
            "timestamp": float(fr.timestamp),
            "intrinsics": {
                "fx": float(fr.intrinsics.f_x),
                "fy": float(fr.intrinsics.f_y),
                "px": float(fr.intrinsics.p_x),
                "py": float(fr.intrinsics.p_y),
                "width": int(fr.intrinsics.width),
                "height": int(fr.intrinsics.height),
            },
            "ego": {
                "rotation": _floats(fr.ego.rotation),
                "translation": _floats(fr.ego.translation),
            },
            "detections": [_detection_to_doc(d) for d in fr.detections],
        }
        if fr.gt_objects is not None:
            doc["gt_objects"] = [
                {
                    "object_id": int(g.object_id),
                    "translation": _floats(g.pose.T),
                    "rotation": _floats(g.pose.R),
                    "kind": g.kind,
                    **({"bbox": _floats(g.bbox)} if g.bbox is not None else {}),
                }
                for g in fr.gt_objects
            ]
        frames.append(doc)
    return {"schema": SCENE_SCHEMA_VERSION, "scene_id": scene.scene_id, "frames": frames}


def reference_scene_json(scene):
    """The canonical scene text through ``json``: what ``scene_to_json``
    must write byte for byte."""
    return json.dumps(scene_to_doc(scene), sort_keys=True, indent=2) + "\n"


# --- document mutation ---------------------------------------------------------------


def _kind(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def mutate_one_value(doc, data, kind):
    """Break one value of ``doc`` in place: NaN, inf or +-1e308 (``kind``
    names the number), a value of another JSON type ("wrong type"), a
    "missing" key, or an "unknown key". Returns the key or list index
    broken."""
    # walk down from the top to a drawn depth, through dicts and lists
    path, node = [], doc
    for _ in range(data.draw(st.integers(1, 8))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append((node, key))
        node = node[key]
    parent, key = path[-1]
    if kind == "missing":
        parent, key = [(p, k) for p, k in path if isinstance(p, dict)][-1]
        del parent[key]
    elif kind == "unknown key":
        target = node if isinstance(node, dict) else doc
        key = data.draw(st.text(min_size=1).filter(lambda k: k not in target))
        target[key] = 1
    elif kind == "wrong type":
        parent[key] = data.draw(st.sampled_from(
            [v for v in ("x", None, [], {}, True, 1.5) if _kind(v) != _kind(node)]))
    else:
        parent[key] = float(kind)
    return key
