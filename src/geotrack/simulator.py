"""Synthetic geo-located scene generation.

The simulator is the desk-scale data source for every pipeline stage: it
drives a camera through a world populated with static roadside objects,
projects them with the shared pinhole model, and emits detections whose
corruption (center jitter, relative depth noise, facing jitter, misses,
false positives) is fully seeded. Ground truth — stable ids, world poses,
and the uncorrupted boxes — rides along in the scene file, so zero-noise
configurations serve as exact oracles for the geometry and the tracker.

Depth noise is multiplicative: monocular depth error grows with range, and
the evaluation asserts exactly that signature downstream.

Each frame maps every object into the camera in one batched pass, with the
sums ``world_to_camera`` takes row by row, and decides visibility for all of
them at once; only the visible objects reach the per-object code, which
draws their noise in object order. Each object's world pose and each
identity's base appearance are built once per scene. Scene files are
byte-identical to those of the object-by-object reference generator in the
tests.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError
from .geometry import (
    WORLD,
    CameraIntrinsics,
    EgoPose,
    PixelObservation,
    Pose5D,
    ego_yaw,
    normalize_rotation,
    project,
    quat_to_matrix,
    yaw_rot2,
)
from .matching import (
    MAX_COUNT,
    PairSample,
    check_array_size,
    config_from_dict,
)
from .scene import (
    DEFAULT_CAPACITY,
    Detection,
    FrameRecord,
    GroundTruthObject,
    SceneSequence,
    build_match_matrix,
    keep_most_confident,
    sample_training_pairs,
)

OBJECT_WIDTH_M = 0.35
OBJECT_HEIGHT_M = 1.0
MIN_DEPTH_M = 1.0
MIN_BOX_PX = 2.0

_APPEARANCE_SALT = 101
_FP_SALT = 202
_FEATURE_SALT = 303


@dataclass
class SimConfig:
    seed: int = 0
    n_frames: int = 40
    frame_rate: float = 2.0  # keyframe rate, Hz
    trajectory: str = "straight"  # "straight" | "turn"
    speed: float = 5.0  # m/s
    turn_rate_deg: float = 3.0  # deg/s, used by "turn"
    n_objects: int = 4
    lateral_range: tuple = (-8.0, 8.0)  # world x, meters
    height_range: tuple = (3.0, 6.0)  # meters above ground
    depth_range: tuple = (15.0, 70.0)  # world z, meters
    camera_height: float = 1.6
    visibility_max_range: float = 100.0
    image_width: int = 1600
    image_height: int = 900
    focal: float = 1000.0
    facing_jitter_deg: float = 10.0
    center_sigma_px: float = 0.0
    depth_rel_sigma: float = 0.0
    rotation_sigma_deg: float = 0.0
    appearance_sigma: float = 0.0
    bbox_jitter_px: float = 0.0
    miss_rate: float = 0.0
    fp_rate: float = 0.0
    appearance_dim: int = 64
    emit_feature_maps: bool = False
    feature_map_size: tuple = (3, 3)
    embed_dim: int = 8
    feature_sigma: float = 0.01
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        if self.n_frames < 2:
            raise ConfigError("n_frames must be >= 2")
        for name in ("center_sigma_px", "depth_rel_sigma", "rotation_sigma_deg",
                     "appearance_sigma", "bbox_jitter_px", "feature_sigma",
                     "facing_jitter_deg"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("miss_rate", "fp_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.trajectory not in ("straight", "turn"):
            raise ConfigError(f"unknown trajectory {self.trajectory!r}")
        if self.n_objects < 1:
            raise ConfigError("n_objects must be >= 1")
        for name in ("n_frames", "n_objects"):
            if getattr(self, name) > MAX_COUNT:
                raise ConfigError(f"{name} must be <= {MAX_COUNT}, got {getattr(self, name)}")
        # written so that NaN fails each check
        for name in ("frame_rate", "focal", "visibility_max_range"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("image_width", "image_height", "capacity", "appearance_dim",
                     "embed_dim"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1")
        if not min(self.feature_map_size) >= 1:
            raise ConfigError(f"feature_map_size must be >= 1, got {self.feature_map_size}")
        check_array_size("appearance_dim", self.appearance_dim)
        h, w = self.feature_map_size
        check_array_size(f"feature map {h} x {w} x {self.embed_dim}", h * w * self.embed_dim)
        if not self.seed >= 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("lateral_range", "height_range", "depth_range"):
            low, high = getattr(self, name)
            # objects are drawn as low + (high - low) * U, which needs a finite width
            if not math.isfinite(float(high) - float(low)):
                raise ConfigError(f"{name} {getattr(self, name)}: high - low must be finite")
        # a false positive's depth is drawn from depth_range
        if self.fp_rate > 0 and not all(float(end) > 0 for end in self.depth_range):
            raise ConfigError(f"depth_range {self.depth_range} must lie above 0 when fp_rate > 0")
        self._check_camera_path()

    def _check_camera_path(self):
        """ConfigError naming the field when a frame's time, heading or
        camera position, or an object's height seen from the camera, leaves
        the float range."""
        for name in ("speed", "turn_rate_deg", "camera_height"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        # the camera-frame y of an object at height h is camera_height - h
        if not all(math.isfinite(self.camera_height - float(h)) for h in self.height_range):
            raise ConfigError(f"camera_height {self.camera_height} and height_range "
                              f"{self.height_range}: an object's height minus the camera's "
                              "must be finite")
        t_last = (self.n_frames - 1) / self.frame_rate
        if not math.isfinite(t_last):
            raise ConfigError(f"frame_rate {self.frame_rate} puts frame {self.n_frames - 1} "
                              "past the float range of time")
        rate = _turn_rate(self)
        if rate is not None and not math.isfinite(rate * t_last):
            raise ConfigError(f"turn_rate_deg {self.turn_rate_deg} turns the camera past "
                              f"the float range of angles by t = {t_last}")
        for k in range(self.n_frames):
            _, position = _camera_at(self, k / self.frame_rate)
            if not all(map(math.isfinite, position)):
                radius = "" if rate is None else f" on a turn of radius speed / rate = {self.speed / rate}"
                raise ConfigError(f"speed {self.speed} takes the camera past the float range "
                                  f"by frame {k}{radius}")

    @classmethod
    def from_dict(cls, doc):
        return config_from_dict(cls, doc, "simulator")

    def as_dict(self):
        return asdict(self)


def _intrinsics(config):
    return CameraIntrinsics(
        f_x=config.focal,
        f_y=config.focal,
        p_x=config.image_width / 2.0,
        p_y=config.image_height / 2.0,
        width=config.image_width,
        height=config.image_height,
    )


def _turn_rate(config):
    """Turn rate in rad/s, or None when the camera drives straight (a turn
    whose rate rounds to zero included)."""
    rate = math.radians(config.turn_rate_deg)
    return rate if config.trajectory == "turn" and not abs(rate) < 1e-12 else None


def _camera_at(config, t):
    """Camera heading and world position (x, y, z) at time ``t``."""
    rate = _turn_rate(config)
    if rate is None:
        return 0.0, (0.0, -config.camera_height, config.speed * t)
    # constant-rate turn: integrate the heading analytically
    yaw = rate * t
    radius = config.speed / rate
    return yaw, (radius * (1.0 - math.cos(yaw)), -config.camera_height,
                 radius * math.sin(yaw))


def _ego_at(config, t):
    yaw, position = _camera_at(config, t)
    return EgoPose.from_yaw(yaw, np.array(position))


def _sample_objects(config, rng):
    """World positions (n, 3), y being negative altitude, and unit facings
    (n, 2) of the scene's objects; object i has id i + 1."""
    positions, facings = [], []
    for _ in range(config.n_objects):
        x = rng.uniform(*config.lateral_range)
        h = rng.uniform(*config.height_range)
        z = rng.uniform(*config.depth_range)
        # objects face back along the road, toward the approaching camera
        # abs: numpy refuses a -0.0 scale, which draws as 0.0
        jitter = math.radians(rng.normal(0.0, abs(config.facing_jitter_deg)))
        _check_noise(config, "facing_jitter_deg", jitter)
        positions.append([x, -h, z])
        facings.append(normalize_rotation(yaw_rot2(jitter) @ np.array([0.0, -1.0])))
    return np.array(positions), np.array(facings)


def _check_noise(config, name, values):
    """ConfigError naming the field ``name`` when the noise it scales made
    any of ``values`` NaN or infinite."""
    if not np.isfinite(values).all():
        raise ConfigError(f"{name} {getattr(config, name)} draws noise past the float range")


def object_appearance(seed, object_id, dim):
    """Seeded base appearance vector of one object identity.

    Identities are signed binary patterns: per-dimension +-1 with additive
    Gaussian noise applied downstream. Matching identities then differ by
    ~0 per dimension and distinct ones by 2 in about half the dimensions,
    which keeps the similarity scorer learnable across identities it never
    saw in training.
    """
    rng = np.random.default_rng([seed, _APPEARANCE_SALT, object_id])
    return rng.choice([-1.0, 1.0], size=dim)


def _object_feature_map(config, signature, target, rng):
    """Feature map encoding the pose target plus the identity's
    ``_feature_signature``."""
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
        base[:, :, 5:] = signature
    if config.feature_sigma > 0:
        base = base + rng.normal(0.0, config.feature_sigma, size=base.shape)
    return base


def _feature_signature(config, object_id):
    """Seeded identity channels of an object's feature maps, past the five
    pose channels; None when there are none."""
    if config.embed_dim <= 5:
        return None
    sig_rng = np.random.default_rng([config.seed, _FEATURE_SALT, object_id])
    return sig_rng.normal(0.0, 0.5, size=config.embed_dim - 5)


def _camera_frame(ego, T, R):
    """Camera-frame translations (n, 3) and facings (n, 2) of the world poses
    with translations ``T`` (n, 3) and unit facings ``R`` (n, 2), seen from
    ``ego``: the sums ``world_to_camera`` takes, for all rows at once. The
    facings are not yet normalized. DataError when a translation overflows,
    as ``world_to_camera`` raises for it."""
    rot = quat_to_matrix(ego.rotation)
    with np.errstate(over="ignore", invalid="ignore"):
        cam_T = (rot.T @ (T - ego.translation)[:, :, None])[:, :, 0]
    if not np.isfinite(cam_T).all():
        raise DataError("camera-frame object translation T must be finite")
    cam_R = (yaw_rot2(-ego_yaw(ego)) @ R[:, :, None])[:, :, 0]
    return cam_T, cam_R


def _boxes(config, intrinsics, centers, depths):
    """Image boxes (k, 4) of objects with pixel ``centers`` (k, 2) at
    ``depths`` (k,), clipped to the image. A box whose size overflows spans
    the image."""
    with np.errstate(over="ignore", divide="ignore"):
        w_px = intrinsics.f_x * OBJECT_WIDTH_M / depths
        h_px = intrinsics.f_y * OBJECT_HEIGHT_M / depths
        left = np.maximum(0.0, centers[:, 0] - w_px / 2.0)
        top = np.maximum(0.0, centers[:, 1] - h_px / 2.0)
        right = np.minimum(float(config.image_width), centers[:, 0] + w_px / 2.0)
        bottom = np.minimum(float(config.image_height), centers[:, 1] + h_px / 2.0)
    return np.stack([left, top, right - left, bottom - top], axis=1)


def _in_view(config, intrinsics, cam_T):
    """Indices (ascending) of the objects at camera-frame translations
    ``cam_T`` (n, 3) that the camera sees, with their ``project``ed pixel
    centres (k, 2) and ``_boxes`` (k, 4).

    An object is seen when it lies at least ``MIN_DEPTH_M`` ahead and within
    ``visibility_max_range``, its centre projects inside the image, bounds
    included, and its box is at least ``MIN_BOX_PX`` wide and high. A norm
    or centre that overflows is out of view.
    """
    ahead = np.flatnonzero(cam_T[:, 2] >= MIN_DEPTH_M)
    T = cam_T[ahead]
    with np.errstate(over="ignore"):
        # np.linalg.norm's sums: the root of one dot product per row
        norms = np.sqrt((T[:, None, :] @ T[:, :, None])[:, 0, 0])
        centers = np.stack([intrinsics.p_x + intrinsics.f_x * T[:, 0] / T[:, 2],
                            intrinsics.p_y + intrinsics.f_y * T[:, 1] / T[:, 2]], axis=1)
    boxes = _boxes(config, intrinsics, centers, T[:, 2])
    seen = ((norms <= config.visibility_max_range)
            & (centers[:, 0] >= 0) & (centers[:, 0] <= config.image_width)
            & (centers[:, 1] >= 0) & (centers[:, 1] <= config.image_height)
            & (boxes[:, 2] >= MIN_BOX_PX) & (boxes[:, 3] >= MIN_BOX_PX))
    return ahead[seen], centers[seen], boxes[seen]


def generate_scene(config, scene_id=None):
    """Simulate one scene with ground truth and corrupted detections.

    All randomness flows from ``config.seed``; equal configs produce
    byte-identical scene files. Noise that a field scales past the float
    range is a ConfigError naming the field.
    """
    rng = np.random.default_rng([config.seed, 1])
    intrinsics = _intrinsics(config)
    positions, facings = _sample_objects(config, rng)
    world_poses = [Pose5D(t, r, WORLD) for t, r in zip(positions, facings)]
    # each identity's seeded vectors, drawn at its first sighting
    appearances, signatures = {}, {}
    # noisy values by the field that scales their noise, checked once per scene
    drawn = {name: [] for name in ("depth_rel_sigma", "bbox_jitter_px", "appearance_sigma",
                                   "feature_sigma")}
    frames = []
    for k in range(config.n_frames):
        t = k / config.frame_rate
        ego = _ego_at(config, t)
        cam_T, cam_R = _camera_frame(ego, positions, facings)
        seen, centers, boxes = _in_view(config, intrinsics, cam_T)
        detections = []
        gt_objects = []
        for i, center, bbox in zip(seen.tolist(), centers, boxes):
            object_id = i + 1
            gt_objects.append(
                GroundTruthObject(
                    object_id=object_id,
                    pose=world_poses[i],
                    kind="vertical",
                    bbox=bbox,
                )
            )
            cam_facing = normalize_rotation(cam_R[i])
            depth = float(cam_T[i, 2])
            target = (center, depth, cam_facing)
            missed = config.miss_rate > 0 and rng.random() < config.miss_rate
            noisy_center = center + rng.normal(0.0, config.center_sigma_px, 2) \
                if config.center_sigma_px > 0 else center.copy()
            if config.depth_rel_sigma > 0:
                depth *= 1.0 + rng.normal(0.0, config.depth_rel_sigma)
                drawn["depth_rel_sigma"].append(depth)
                depth = max(MIN_DEPTH_M / 2.0, depth)
            facing = cam_facing
            if config.rotation_sigma_deg > 0:
                angle = math.radians(rng.normal(0.0, config.rotation_sigma_deg))
                _check_noise(config, "rotation_sigma_deg", angle)
                facing = yaw_rot2(angle) @ facing
            det_bbox = bbox.copy()
            if config.bbox_jitter_px > 0:
                det_bbox = det_bbox + rng.normal(0.0, config.bbox_jitter_px, 4)
                drawn["bbox_jitter_px"].append(det_bbox.copy())
                det_bbox[2:] = np.maximum(det_bbox[2:], MIN_BOX_PX)
            if i not in appearances:
                appearances[i] = object_appearance(config.seed, object_id,
                                                   config.appearance_dim)
            if config.appearance_sigma > 0:
                appearance = appearances[i] + rng.normal(
                    0.0, config.appearance_sigma, config.appearance_dim)
                drawn["appearance_sigma"].append(appearance)
            else:
                appearance = appearances[i].copy()
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
                if i not in signatures:
                    signatures[i] = _feature_signature(config, object_id)
                det.feature_map = _object_feature_map(
                    config, signatures[i], target, rng
                )
                if config.feature_sigma > 0:
                    drawn["feature_sigma"].append(det.feature_map)
            detections.append(det)

        if config.fp_rate > 0 and rng.random() < config.fp_rate:
            fp_center = np.array(
                [rng.uniform(0.05 * config.image_width, 0.95 * config.image_width),
                 rng.uniform(0.05 * config.image_height, 0.95 * config.image_height)]
            )
            fp_depth = rng.uniform(*config.depth_range)
            fp_rng = np.random.default_rng([config.seed, _FP_SALT, k])
            det = Detection(
                bbox=_boxes(config, intrinsics, fp_center[None], np.array([fp_depth]))[0],
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
    for name, values in drawn.items():
        _check_noise(config, name, values)
    scene_id = scene_id or f"sim-{config.seed:08d}"
    return SceneSequence(scene_id=scene_id, frames=frames)


def world_objects(scene):
    """Deduplicated ground-truth objects of a scene (id -> world pose)."""
    out = {}
    for frame in scene.frames:
        for g in frame.gt_objects or []:
            out.setdefault(g.object_id, g.pose)
    return out


def _frame_targets(frame):
    """Each detection's ground-truth (center, depth, facing) regression
    target in ``frame``, None for one without a ground-truth object there:
    its object's world pose mapped into the camera (``_camera_frame``, one
    pass per frame) and ``project``ed."""
    by_id = {}
    for g in frame.gt_objects or []:
        by_id.setdefault(g.object_id, g.pose)
    poses = [by_id[det.gt_id] for det in frame.detections if det.gt_id in by_id]
    if not poses:
        return (None,) * len(frame.detections)
    cam_T, cam_R = _camera_frame(frame.ego, np.array([p.T for p in poses]),
                                 np.array([p.R for p in poses]))
    rows = zip(cam_T, cam_R)
    targets = []
    for det in frame.detections:
        if det.gt_id not in by_id:
            targets.append(None)
            continue
        T, R = next(rows)
        facing = normalize_rotation(R)
        targets.append((project(T, frame.intrinsics), float(T[2]), facing))
    return tuple(targets)


def make_matching_dataset(scenes, n_max, pairs_per_scene, seed):
    """Training pairs of scene frames with each detection's pose target,
    ready for the matcher."""
    samples = []
    for scene_idx, scene in enumerate(scenes):
        pairs = sample_training_pairs(scene, n_max, pairs_per_scene, seed=seed + scene_idx)
        # frames recur across pairs; each one's targets are computed once
        targets = {k: _frame_targets(scene.frames[k])
                   for k in {k for pair in pairs for k in pair}}
        for a, b in pairs:
            frame_a, frame_b = scene.frames[a], scene.frames[b]
            samples.append(
                PairSample(
                    frame_a=frame_a,
                    frame_b=frame_b,
                    targets_a=targets[a],
                    targets_b=targets[b],
                    ego_ref=scene.reference_ego,
                    match=build_match_matrix(frame_a, frame_b),
                )
            )
    return samples
