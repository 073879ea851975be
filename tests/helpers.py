"""Reference code that only the tests use: a finite-difference gradient
check, input standardization fitted outside a training run, the SGD step on
one sample of its own (``training_forward_pair``), the tapeless loss and
bundle of one sample (``reference_forward_pair``), the pair-side
standardization that standardizing rows once replaced (with the scorer's
first layer whole, and split by side as tracking runs it, in float32 or in
the float64 the tracker's scorer used before), the per-sample accuracy pass
that the one-pass sweep replaced, the per-array SGD
update that training's flat parameter vector replaced, the world-to-camera
and pose-by-pose reference-frame transforms, the one-point pinhole
projection and back-projection that the row forms in ``geometry`` replaced,
the object-by-object scene
generator and pose target that the simulator's per-frame pass replaced, the
scene document and its ``json.dumps`` text that the direct scene writer
replaced, a document mutator for the data-contract fuzz tests, and
``raises_internal`` for the internal-fault (exit 4) guards."""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from geotrack import matching, numerics, simulator
from geotrack.errors import GeotrackError, NonPositiveDepthError
from geotrack.geometry import (
    CAMERA,
    REFERENCE,
    WORLD,
    EgoPose,
    PixelObservation,
    Pose5D,
    camera_to_world,
    ego_yaw,
    normalize_rotation,
    quat_to_matrix,
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


# --- one training pair ---------------------------------------------------------------


def named_arrays(params):
    """Every trainable array of ``params`` by name, in
    ``matching._trainable_slots`` order; gradients use the same keys."""
    return {name: getattr(owner, attr) for name, owner, attr in
            matching._trainable_slots(params)}


def training_forward_pair(sample, params, pose_only=False, rows=None):
    """``matching.forward_pair``, the SGD step, on a sample of its own: both
    sides described through a one-sample ``_SideTable`` unless ``rows``
    holds them, and the gradients added into a fresh dict keyed like
    ``named_arrays`` (in ``out["grads"]``)."""
    grads = {name: np.zeros_like(a) for name, a in named_arrays(params).items()}
    stack = matching._SideTable([sample], params.config).stack(0) if rows is None else None
    return matching.forward_pair(sample, params, grads, pose_only=pose_only, rows=rows,
                                 stack=stack)


def reference_forward_pair(sample, params, pose_only=False, rows=None):
    """The affinity, pose and joint losses and the similarity bundle of one
    training pair, scored tapeless as ``Matcher.bundle`` scores it, with no
    gradient: ``forward_pair`` as it ran without ``with_grad``. The sides
    are described through a one-sample ``_SideTable`` unless ``rows`` holds
    them, and the scorer gets a float32 cast of its own."""
    cfg = params.config
    n1, n2 = matching._pair_counts(sample, cfg)
    pose_losses = []
    if rows is None:
        tape, described = matching._describe(
            matching._SideTable([sample], cfg).stack(0), params)
        rows, pose_losses = (described[:n1], described[n1:]), tape.pose_loss.tolist()
    mean_pose = float(np.mean(pose_losses)) if pose_losses else 0.0
    if pose_only:
        return {"affinity": float("nan"), "pose_losses": pose_losses, "joint": mean_pose,
                "bundle": None}
    logits = np.zeros((n1, n2))
    if n1 and n2:
        logits = matching._tapeless_logits(
            matching._float32_scorer(params),
            *(matching._standardized(side, params) for side in rows), [(n1, n2)])
    bundle = matching.augment_normalize(logits.reshape(n1, n2), cfg.delta)
    affinity = matching.loss_affinity(bundle, sample.match)[0]
    return {"affinity": affinity, "pose_losses": pose_losses,
            "joint": affinity + cfg.lam * mean_pose, "bundle": bundle}


# --- input standardization -----------------------------------------------------------


def fit_input_standardization(samples, params):
    """Freeze ``params``' input standardization from ``samples`` as a fresh
    ``train_matcher`` run does before its first epoch; returns ``params``."""
    table = matching._SideTable(samples, params.config)
    matching._set_standardization(params, matching._input_statistics(table, params)[1])
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


def _split_pair_logits(x, params, dtype):
    """The logits of every standardized pair row of ``x`` with the scorer's
    first layer split by side in ``_tapeless_logits``'s order,
    ``(a W1[:d] + b1) + b W1[d:]``, each pair multiplied on its own row, in
    one call; ``x`` and the layers are cast to ``dtype`` first."""
    x = x.astype(dtype)
    scorer = [numerics.Layer(layer.w.astype(dtype), layer.b.astype(dtype), layer.act)
              for layer in params.scorer]
    d = x.shape[1] // 2
    first = scorer[0]
    z = numerics._layer_product(x[:, :d].copy(), first.w[:d], taped=False) + first.b
    z = z + numerics._layer_product(x[:, d:].copy(), first.w[d:], taped=False)
    h = first.activate(z)
    return numerics.mlp_forward(scorer[1:], h)


def reference_split_logits(feats_a, feats_b, params, dtype=np.float32):
    """The tapeless scorer's (n_a, n_b) logits with every pair standardized
    and split as ``_split_pair_logits`` scores it, rather than once per side
    and per chunk. float32 is what ``_tapeless_logits`` computes."""
    return _split_pair_logits(_standardized_pairs(feats_a, feats_b, params), params,
                              dtype).reshape(len(feats_a), len(feats_b))


def reference_broadcast_logits(params, rows_a, rows_b, shapes):
    """``matching._tapeless_logits`` with its elementwise passes in the
    broadcast form they had before the scorer copies held bias rows and a
    zero buffer: each segment's first-layer pairs from one (rows, n_b,
    width) broadcast add, each later bias added as ``z += layer.b`` and each
    ReLU taken against the scalar 0.0. The chunks, side products and layer
    products are ``_tapeless_logits``' own, on a float32 cast of the scorer
    made here."""
    with np.errstate(over="ignore"):
        scorer = [numerics.Layer(layer.w.astype(np.float32), layer.b.astype(np.float32),
                                 layer.act) for layer in params.scorer]
        rows_a, rows_b = (rows.astype(np.float32) for rows in (rows_a, rows_b))

    def relu(z, act):
        return np.maximum(z, 0.0) if act == "relu" else z

    first, d = scorer[0], rows_a.shape[1]
    left = matching._side_product(rows_a, first.w[:d])
    left += first.b
    right = matching._side_product(rows_b, first.w[d:])
    logits = []
    for _, segments in matching._pair_chunks(shapes):
        h = relu(np.concatenate([(left[a:a_end, None] + right[None, b:b_end])
                                 .reshape(-1, left.shape[1])
                                 for a, a_end, b, b_end in segments]), first.act)
        for layer in scorer[1:]:
            z = numerics._layer_product(h, layer.w, taped=False)
            z += layer.b
            h = relu(z, layer.act)
        logits.append(h[:, 0])
    return np.concatenate(logits).astype(np.float64)


def reference_logits64(params, rows_a, rows_b, shapes):
    """``matching._tapeless_logits`` over the blocks ``shapes`` of the
    standardized rows ``rows_a`` and ``rows_b``, with the float64
    ``params.scorer`` rather than a float32 copy, as the tracker's scorer
    ran before float32, one unchunked call per block: with the scorer bound,
    a drop-in that checks the tracker's decisions do not depend on the
    precision."""
    logits, a, b = [], 0, 0
    for n_a, n_b in shapes:
        pairs = matching.build_pair_tensor(rows_a[a:a + n_a], rows_b[b:b + n_b])
        logits.append(_split_pair_logits(pairs.reshape(n_a * n_b, -1), params,
                                         np.float64)[:, 0])
        a, b = a + n_a, b + n_b
    return np.concatenate(logits)


def reference_pair_accuracy(samples, params, rows=None):
    """``matching.pair_accuracy`` as it ran before its one-pass sweep: one
    ``reference_forward_pair`` call per sample, each with its own scorer
    cast, side products and chunks, and every sample described afresh
    unless ``rows`` holds its ``(rows_a, rows_b)``."""
    correct = 0
    total = 0
    for i, sample in enumerate(samples):
        bundle = reference_forward_pair(sample, params,
                                        rows=rows[i] if rows else None)["bundle"]
        fused, match = bundle.fused, sample.match
        n1, n2 = fused.shape[0] - 1, fused.shape[1] - 1
        correct += np.count_nonzero(fused[:n1].argmax(axis=1) == match[:n1].argmax(axis=1))
        correct += np.count_nonzero(
            fused[:, :n2].argmax(axis=0) == match[:, :n2].argmax(axis=0))
        total += n1 + n2
    return float(correct / total) if total else 0.0


# --- per-array SGD update ---------------------------------------------------------


def _reference_sgd_epoch(samples, params, config, rng, lr, velocity, pose_only=False):
    """One pass of SGD with momentum, one array at a time: a fresh gradient
    dict per step, a Python sum of per-array squared norms for the clip, and
    a velocity array per trainable. Returns (mean affinity, mean pose loss,
    clipped steps)."""
    updates = [(name, arr) for name, arr in named_arrays(params).items()
               if not pose_only or name.startswith(("pose_head.", "attention."))]
    affinity_sum, pose_sum, pose_count, clipped = 0.0, 0.0, 0, 0
    for idx in rng.permutation(len(samples)):
        result = training_forward_pair(samples[idx], params, pose_only=pose_only)
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
    """``matching.train_matcher`` run with the per-array update above and
    the per-sample accuracy pass, every sample described on every call.
    Returns (params, history as (epoch, affinity, pose, accuracy) tuples,
    clipped steps)."""
    rng = np.random.default_rng(config.seed)
    pretrain = 0
    if params is None:
        params = matching.init_matcher_params(config, rng)
        fit_input_standardization(samples, params)
        if config.use_pose_head:
            pretrain = (config.pose_pretrain_epochs
                        if config.pose_pretrain_epochs is not None else config.epochs // 3)
    velocity = {name: np.zeros_like(a) for name, a in named_arrays(params).items()}
    cutoff = int(np.floor(config.epochs * 2 / 3))
    schedule = [(True, config.learning_rate)] * pretrain + [
        (False, config.learning_rate * (config.lr_decay if epoch >= cutoff else 1.0))
        for epoch in range(config.epochs)]
    history, clipped = [], 0
    for pose_only, lr in schedule:
        affinity, pose, clips = _reference_sgd_epoch(samples, params, config, rng, lr,
                                                     velocity, pose_only)
        clipped += clips
        accuracy = reference_pair_accuracy(heldout or samples, params)
        history.append((params.epochs_trained, affinity, pose, accuracy))
        params.epochs_trained += 1
    return params, history, clipped


# --- frame transforms ----------------------------------------------------------------


def world_to_camera(pose, ego, frame_id=CAMERA):
    """The inverse of ``geometry.camera_to_world``: a world pose seen from
    the camera of ego pose ``ego``."""
    rot = quat_to_matrix(ego.rotation)
    t = rot.T @ (pose.T - ego.translation)
    r = yaw_rot2(-ego_yaw(ego)) @ pose.R
    return Pose5D(t, normalize_rotation(r), frame_id)


def reference_project(T, intrinsics):
    """Pixel centre of one camera-frame point ``T``, as ``geometry.project``
    takes it for one row; a point not ahead of the camera has none."""
    T = np.asarray(T, dtype=np.float64).reshape(3)
    if T[2] <= 0:
        raise NonPositiveDepthError(f"depth {T[2]} must be positive")
    return np.array([intrinsics.p_x + intrinsics.f_x * T[0] / T[2],
                     intrinsics.p_y + intrinsics.f_y * T[1] / T[2]])


def reference_recover_translation(obs, intrinsics):
    """Camera-frame translation of one ``PixelObservation``, as
    ``geometry.recover_translation`` takes it for one row."""
    tx = (obs.c[0] - intrinsics.p_x) * obs.T_z / intrinsics.f_x
    ty = (obs.c[1] - intrinsics.p_y) * obs.T_z / intrinsics.f_y
    return np.array([tx, ty, obs.T_z])


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
            center = reference_project(cam_pose.T, intrinsics)
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
            center = reference_project(cam.T, frame.intrinsics)
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
