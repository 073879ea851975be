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
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (
    WORLD,
    CameraIntrinsics,
    EgoPose,
    PixelObservation,
    Pose5D,
    normalize_rotation,
    project,
    world_to_camera,
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
                     "appearance_sigma", "bbox_jitter_px", "feature_sigma"):
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

    @classmethod
    def from_dict(cls, doc):
        return config_from_dict(cls, doc, "simulator")

    def as_dict(self):
        return asdict(self)


@dataclass
class _WorldObject:
    object_id: int
    position: np.ndarray  # world (x, y, z); y is negative altitude
    facing: np.ndarray  # world horizontal plane, unit


def _intrinsics(config):
    return CameraIntrinsics(
        f_x=config.focal,
        f_y=config.focal,
        p_x=config.image_width / 2.0,
        p_y=config.image_height / 2.0,
        width=config.image_width,
        height=config.image_height,
    )


def _ego_at(config, t):
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


def _sample_objects(config, rng):
    objects = []
    for i in range(config.n_objects):
        x = rng.uniform(*config.lateral_range)
        h = rng.uniform(*config.height_range)
        z = rng.uniform(*config.depth_range)
        # objects face back along the road, toward the approaching camera
        jitter = math.radians(rng.normal(0.0, config.facing_jitter_deg))
        facing = yaw_rot2(jitter) @ np.array([0.0, -1.0])
        objects.append(
            _WorldObject(
                object_id=i + 1,
                position=np.array([x, -h, z]),
                facing=normalize_rotation(facing),
            )
        )
    return objects


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


def _object_feature_map(config, object_id, target, rng):
    """Feature map encoding the pose target plus an identity signature."""
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
        sig_rng = np.random.default_rng([config.seed, _FEATURE_SALT, object_id])
        base[:, :, 5:] = sig_rng.normal(0.0, 0.5, size=e - 5)
    if config.feature_sigma > 0:
        base = base + rng.normal(0.0, config.feature_sigma, size=base.shape)
    return base


def _visible(config, t_cam, center, bbox):
    if t_cam[2] < MIN_DEPTH_M:
        return False
    if np.linalg.norm(t_cam) > config.visibility_max_range:
        return False
    if not (0 <= center[0] <= config.image_width
            and 0 <= center[1] <= config.image_height):
        return False
    return bbox[2] >= MIN_BOX_PX and bbox[3] >= MIN_BOX_PX


def _gt_bbox(config, intrinsics, center, depth):
    w_px = intrinsics.f_x * OBJECT_WIDTH_M / depth
    h_px = intrinsics.f_y * OBJECT_HEIGHT_M / depth
    left = max(0.0, center[0] - w_px / 2.0)
    top = max(0.0, center[1] - h_px / 2.0)
    right = min(float(config.image_width), center[0] + w_px / 2.0)
    bottom = min(float(config.image_height), center[1] + h_px / 2.0)
    return np.array([left, top, right - left, bottom - top])


def generate_scene(config, scene_id=None):
    """Simulate one scene with ground truth and corrupted detections.

    All randomness flows from ``config.seed``; equal configs produce
    byte-identical scene files.
    """
    rng = np.random.default_rng([config.seed, 1])
    intrinsics = _intrinsics(config)
    objects = _sample_objects(config, rng)
    frames = []
    for k in range(config.n_frames):
        t = k / config.frame_rate
        ego = _ego_at(config, t)
        detections = []
        gt_objects = []
        for obj in objects:
            world_pose = Pose5D(obj.position, obj.facing, WORLD)
            cam_pose = world_to_camera(world_pose, ego)
            if cam_pose.T[2] < MIN_DEPTH_M:
                continue
            center = project(cam_pose.T, intrinsics)
            bbox = _gt_bbox(config, intrinsics, center, cam_pose.T[2])
            if not _visible(config, cam_pose.T, center, bbox):
                continue
            gt_objects.append(
                GroundTruthObject(
                    object_id=obj.object_id,
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
                depth = max(MIN_DEPTH_M / 2.0,
                            depth * (1.0 + rng.normal(0.0, config.depth_rel_sigma)))
            facing = cam_pose.R
            if config.rotation_sigma_deg > 0:
                facing = yaw_rot2(
                    math.radians(rng.normal(0.0, config.rotation_sigma_deg))
                ) @ facing
            det_bbox = bbox.copy()
            if config.bbox_jitter_px > 0:
                det_bbox = det_bbox + rng.normal(0.0, config.bbox_jitter_px, 4)
                det_bbox[2:] = np.maximum(det_bbox[2:], MIN_BOX_PX)
            appearance = object_appearance(
                config.seed, obj.object_id, config.appearance_dim
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
                gt_id=obj.object_id,
            )
            if config.emit_feature_maps:
                det.feature_map = _object_feature_map(
                    config, obj.object_id, target, rng
                )
            detections.append(det)

        if config.fp_rate > 0 and rng.random() < config.fp_rate:
            fp_center = np.array(
                [rng.uniform(0.05 * config.image_width, 0.95 * config.image_width),
                 rng.uniform(0.05 * config.image_height, 0.95 * config.image_height)]
            )
            fp_depth = rng.uniform(*config.depth_range)
            fp_rng = np.random.default_rng([config.seed, _FP_SALT, k])
            det = Detection(
                bbox=_gt_bbox(config, intrinsics, fp_center, fp_depth),
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
            order = sorted(
                range(len(detections)),
                key=lambda i: (-detections[i].confidence, i),
            )[: config.capacity]
            detections = [detections[i] for i in sorted(order)]

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


def world_objects(scene):
    """Deduplicated ground-truth objects of a scene (id -> world pose)."""
    out = {}
    for frame in scene.frames:
        for g in frame.gt_objects or []:
            out.setdefault(g.object_id, g.pose)
    return out


def pose_target(detection, frame):
    """Ground-truth (center, depth, facing) regression target of a detection."""
    if detection.gt_id is None:
        return None
    for g in frame.gt_objects or []:
        if g.object_id == detection.gt_id:
            cam = world_to_camera(g.pose, frame.ego)
            center = project(cam.T, frame.intrinsics)
            return (center, float(cam.T[2]), cam.R)
    return None


def make_matching_dataset(scenes, n_max, pairs_per_scene, seed):
    """Training pairs of scene frames with each detection's pose target,
    ready for the matcher."""
    samples = []
    for scene_idx, scene in enumerate(scenes):
        pairs = sample_training_pairs(scene, n_max, pairs_per_scene, seed=seed + scene_idx)
        # frames recur across pairs; each one's targets are computed once
        targets = {k: tuple(pose_target(det, scene.frames[k])
                            for det in scene.frames[k].detections)
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
