"""Camera model, coordinate frames, and 5D pose transforms.

COORDINATE CONVENTION (used by every module in this package):

- All frames (world, reference, per-frame camera) share the same axis
  convention: x right, y down, z forward. "Forward" for the world frame is
  the nominal driving direction of the scene; "down" means altitude is
  negative y.
- The horizontal plane of any frame is therefore its x-z plane.
- A 5D pose is a 3D translation T plus a unit 2-vector R giving the facing
  direction of the object inside the horizontal plane: R[0] is the
  component along the frame's x axis, R[1] along its z axis.
- An ego pose maps camera coordinates to world coordinates:
  ``X_world = Q @ X_cam + t`` with Q the rotation of a unit quaternion
  (w, x, y, z) and t the camera position in the world.
- Facing directions transform between frames through the yaw component of
  the ego rotation only (rotation about the y axis). Pitch and roll of the
  ego pose move translations but are deliberately ignored for R; scenes
  with strongly non-planar ego motion are outside the model.

Pixel coordinates: u right, v down, origin at the top-left corner, so the
pinhole projection is ``u = p_x + f_x * T_x / T_z``, ``v = p_y + f_y *
T_y / T_z``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NonPositiveDepthError, ZeroVectorError

WORLD = "world"
REFERENCE = "reference"
CAMERA = "camera"

_UNIT_TOL = 1e-9


def _as_vec(x, n, name):
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if v.shape != (n,):
        raise DataError(f"{name} must have {n} components")
    if not all(map(math.isfinite, v.tolist())):  # cheaper than np.isfinite for n <= 4
        raise DataError(f"{name} must be finite")
    return v


@dataclass(frozen=True, eq=False)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    f_x: float
    f_y: float
    p_x: float
    p_y: float
    width: int
    height: int

    def __post_init__(self):
        if self.f_x <= 0 or self.f_y <= 0:
            raise DataError("focal lengths must be positive")
        if not (0 <= self.p_x <= self.width and 0 <= self.p_y <= self.height):
            raise DataError("principal point outside image")


@dataclass(frozen=True, eq=False)
class EgoPose:
    """Camera pose in the world: unit quaternion (world<-camera) + position."""

    rotation: np.ndarray  # quaternion (w, x, y, z)
    translation: np.ndarray  # meters, world frame

    def __post_init__(self):
        q = _as_vec(self.rotation, 4, "rotation quaternion")
        t = _as_vec(self.translation, 3, "translation")
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > 1e-3:
            raise DataError(
                f"quaternion norm {norm:.6f} too far from 1"
            )
        if abs(norm - 1.0) > _UNIT_TOL:
            q = q / norm
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls):
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_yaw(cls, yaw, translation=(0.0, 0.0, 0.0)):
        """Ego pose with a pure yaw (rotation about y) heading."""
        half = 0.5 * yaw
        return cls(
            np.array([np.cos(half), 0.0, np.sin(half), 0.0]),
            np.asarray(translation, dtype=np.float64),
        )

    @classmethod
    def from_matrix(cls, mat):
        """Build from a 4x4 rigid transform (world<-camera)."""
        m = np.asarray(mat, dtype=np.float64)
        if m.shape != (4, 4):
            raise DataError("ego matrix must be 4x4")
        rot = m[:3, :3]
        if np.abs(rot.T @ rot - np.eye(3)).max() >= 1e-6:
            raise DataError("ego rotation block is not orthonormal")
        return cls(quat_from_matrix(rot), m[:3, 3].copy())

    def matrix(self):
        m = np.eye(4)
        m[:3, :3] = quat_to_matrix(self.rotation)
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True, eq=False)
class Pose5D:
    """3D translation plus horizontal-plane facing direction (unit 2-vector)."""

    T: np.ndarray
    R: np.ndarray
    frame_id: str = CAMERA

    def __post_init__(self):
        t = _as_vec(self.T, 3, "T")
        r = _as_vec(self.R, 2, "R")
        norm = float(np.linalg.norm(r))
        if abs(norm - 1.0) > _UNIT_TOL:
            raise DataError(f"facing direction norm {norm} != 1")
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "R", r)

    def with_frame(self, frame_id):
        return Pose5D(self.T.copy(), self.R.copy(), frame_id)


@dataclass(frozen=True, eq=False)
class PixelObservation:
    """Regressed observation of one object: pixel center, depth, facing."""

    c: np.ndarray  # (c_x, c_y) pixels
    T_z: float  # meters along the optical axis
    R: np.ndarray  # facing direction, camera horizontal plane

    def __post_init__(self):
        c = _as_vec(self.c, 2, "center")
        r = _as_vec(self.R, 2, "R")
        if not self.T_z > 0:  # NaN fails too
            raise NonPositiveDepthError(f"depth {self.T_z} must be positive")
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "R", r)


# --- quaternion helpers -----------------------------------------------------

def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(m):
    """Quaternion (w, x, y, z) of an orthonormal 3x3 rotation matrix."""
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = 2.0 * np.sqrt(tr + 1.0)
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
             (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
             (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
             (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = 2.0 * np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
             (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    return q / np.linalg.norm(q)


def ego_yaw(ego):
    """Heading angle of the camera forward axis in the world x-z plane.

    Falls back to the camera x axis when the forward axis is (near)
    vertical; the two cannot both be vertical.
    """
    rot = quat_to_matrix(ego.rotation)
    fwd = rot[:, 2]
    if np.hypot(fwd[0], fwd[2]) > 1e-9:
        return float(np.arctan2(fwd[0], fwd[2]))
    right = rot[:, 0]
    # right = (cos(yaw), ., -sin(yaw)) in world coordinates
    return float(np.arctan2(-right[2], right[0]))


def yaw_rot2(theta):
    """2x2 rotation acting on horizontal-plane (x, z) component pairs."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


# --- operations ---------------------------------------------------------------

def normalize_rotation(r):
    """Scale a facing direction to unit length."""
    r = np.asarray(r, dtype=np.float64).reshape(2)
    norm = float(np.linalg.norm(r))
    if norm <= 1e-12:
        raise ZeroVectorError("cannot normalize a zero facing direction")
    return r / norm


def recover_translation(obs, intrinsics):
    """Full camera-frame translation from pixel center and depth.

    T_a = (c_a - p_a) * T_z / f_a for a in {x, y}; T_z passes through.
    """
    if obs.T_z <= 0:
        raise NonPositiveDepthError(f"depth {obs.T_z} must be positive")
    tx = (obs.c[0] - intrinsics.p_x) * obs.T_z / intrinsics.f_x
    ty = (obs.c[1] - intrinsics.p_y) * obs.T_z / intrinsics.f_y
    return np.array([tx, ty, obs.T_z])


def project(T, intrinsics):
    """Pixel center of a camera-frame point; inverse of recover_translation."""
    T = np.asarray(T, dtype=np.float64).reshape(3)
    if T[2] <= 0:
        raise NonPositiveDepthError(f"depth {T[2]} must be positive")
    return np.array(
        [
            intrinsics.p_x + intrinsics.f_x * T[0] / T[2],
            intrinsics.p_y + intrinsics.f_y * T[1] / T[2],
        ]
    )


def camera_to_world(pose, ego, frame_id=WORLD):
    rot = quat_to_matrix(ego.rotation)
    t = rot @ pose.T + ego.translation
    r = yaw_rot2(ego_yaw(ego)) @ pose.R
    return Pose5D(t, normalize_rotation(r), frame_id)


def world_to_camera(pose, ego, frame_id=CAMERA):
    rot = quat_to_matrix(ego.rotation)
    t = rot.T @ (pose.T - ego.translation)
    r = yaw_rot2(-ego_yaw(ego)) @ pose.R
    return Pose5D(t, normalize_rotation(r), frame_id)


def reference_transform(ego_t, ego_ref):
    """Affine pieces of re-expressing a camera(t) pose in the reference
    camera frame, world_to_camera(camera_to_world(pose, ego_t), ego_ref),
    for one frame pair.

    Returns (B, d, C) with T_ref = B @ T_cam + d and R_ref = C @ R_cam (up
    to normalization). Used by the training graph, which needs the
    Jacobians of the transform.
    """
    rot_t = quat_to_matrix(ego_t.rotation)
    rot_r = quat_to_matrix(ego_ref.rotation)
    B = rot_r.T @ rot_t
    d = rot_r.T @ (ego_t.translation - ego_ref.translation)
    C = yaw_rot2(ego_yaw(ego_t) - ego_yaw(ego_ref))
    return B, d, C


def angular_error(r_a, r_b):
    """Angles in degrees, in [0, 180], between (..., 2) facing directions.

    Taken as atan2(|a x b|, a . b): unlike arccos of the dot product it keeps
    full precision near 0 and 180 degrees.
    """
    r_a, r_b = np.asarray(r_a, np.float64), np.asarray(r_b, np.float64)
    cross = r_a[..., 0] * r_b[..., 1] - r_a[..., 1] * r_b[..., 0]
    dot = r_a[..., 0] * r_b[..., 0] + r_a[..., 1] * r_b[..., 1]
    return np.degrees(np.arctan2(np.abs(cross), dot))
