"""Online tracking-by-detection over a scene.

Each frame's detections are associated to the tracks the camera can see by
solving a maximization assignment on a score matrix of shape (m, n + m):
column j < n holds the best similarity between track i's buffered
instances and detection j, and column n + i holds track i's null score (its
mean probability of matching nothing). A track is in view when its newest
instance's position, mapped into the current camera, lies in front of it
and projects inside the image widened by ``VIEW_MARGIN`` (``view_gate``).
Tracks out of view are neither scored nor solved: they cannot take a
detection in this frame. Tracks never die — the targets are static, so
leaving the view is expected — and an out-of-view or null-matched track
keeps its buffer and is matched again once it is back in view. A track's
5D pose is aggregated in the reference frame when results are reported
(``finalize``): the per-component median of its buffered instances'
poses, read from their descriptors (geometry prefix: T ``[:3]``, R
``[3:5]``), with the facing renormalized. A frame without detections has
nothing to decide: every track stays unmatched, keeps its buffer, and
nothing is gated, scored or solved.
"""

from dataclasses import dataclass, field

import numpy as np

from .assignment import AssignmentResult, hungarian
from .errors import ConfigError, GeotrackError, ZeroVectorError
from .geometry import REFERENCE, Pose5D, camera_to_world, normalize_rotation, quat_to_matrix
from .scene import MotEntry

DEFAULT_BUFFER = 10
DEFAULT_MIN_INSTANCES = 2
# share of the image width and height by which the view gate widens the
# image on every side: a track projected this far outside is still scored
VIEW_MARGIN = 0.25


@dataclass
class TrackInstance:
    """One buffered sighting of a track: its frame and its descriptor as the
    matcher saw it, whose prefix ``[:5]`` is its reference-frame pose."""

    frame_index: int
    descriptor: np.ndarray


@dataclass
class Track:
    track_id: int
    instances: list = field(default_factory=list)
    observation_count: int = 0


@dataclass
class GeolocatedObject:
    track_id: int
    pose: Pose5D  # world frame
    instance_count: int


class TrackerState:
    """Mutable per-scene tracking state owned by a single caller."""

    def __init__(self, matcher, ego_ref, buffer_size=DEFAULT_BUFFER):
        if not buffer_size >= 1:
            raise ConfigError(f"buffer_size must be >= 1, got {buffer_size}")
        self.matcher = matcher
        self.ego_ref = ego_ref
        self.buffer_size = buffer_size
        self.tracks = []
        self.last_frame_index = None
        self.next_track_id = 1


def aggregate_pose(track):
    """Per-component median of a track's buffered reference-frame poses,
    each read as T = ``descriptor[:3]`` and R = normalized
    ``descriptor[3:5]``, as one Pose5D. The median facing is renormalized;
    when it is zero (two opposite facings, say) the newest instance's is
    taken."""
    if not track.instances:
        raise GeotrackError(f"track {track.track_id} has no instances")
    ts = np.array([inst.descriptor[:3] for inst in track.instances])
    rs = np.array([normalize_rotation(inst.descriptor[3:5]) for inst in track.instances])
    t = np.median(ts, axis=0)
    try:
        r = normalize_rotation(np.median(rs, axis=0))
    except ZeroVectorError:
        r = rs[-1]
    return Pose5D(t, r, REFERENCE)


def score_matrix(tracks, detection_descriptors, matcher):
    """Similarity scores between m tracks and n detections plus null options.

    For every past frame that still has buffered instances, the matcher is
    re-run between that frame's instances and the current detections; a
    track's detection score is the maximum fused similarity over its
    instances and its null score the mean null-column probability.
    """
    m, n = len(tracks), len(detection_descriptors)
    scores = np.full((m, n + m), -np.inf)
    if m == 0:
        return scores
    null_sums = np.zeros(m)
    null_counts = np.zeros(m)

    by_frame = {}
    for t_idx, track in enumerate(tracks):
        for inst in track.instances:
            by_frame.setdefault(inst.frame_index, []).append((t_idx, inst))
    for frame_index in sorted(by_frame):
        group = by_frame[frame_index]
        bundle = matcher.bundle([inst.descriptor for _, inst in group],
                                detection_descriptors)
        # A track holds at most one instance per frame, so these rows are
        # distinct and each fancy-indexed update touches a track once.
        rows = [t_idx for t_idx, _ in group]
        scores[rows, :n] = np.maximum(scores[rows, :n], bundle.fused[:len(rows), :n])
        null_sums[rows] += bundle.S1n[:, -1]
        null_counts[rows] += 1

    null = np.divide(null_sums, null_counts, out=np.ones(m), where=null_counts > 0)
    scores[np.arange(m), n + np.arange(m)] = null
    return scores


def view_gate(tracks, ego_ref, ego, intrinsics):
    """(m,) booleans: which tracks the camera at ``ego`` can see.

    Each track's newest instance's reference-frame translation
    (``descriptor[:3]``) is mapped to the world through ``ego_ref`` and into
    the camera through ``ego``, all tracks at once and with the same sums as
    ``world_to_camera(camera_to_world(...))``. A track is in view when its
    depth is positive and its ``project``ed centre lies inside the image
    widened by ``VIEW_MARGIN`` of its width and height on every side, bounds
    included. A position that overflows on the way is out of view.
    """
    T = np.array([track.instances[-1].descriptor[:3] for track in tracks]).reshape(-1, 3)
    rot_ref, rot = quat_to_matrix(ego_ref.rotation), quat_to_matrix(ego.rotation)
    with np.errstate(over="ignore", invalid="ignore"):
        world = (rot_ref @ T[:, :, None])[:, :, 0] + ego_ref.translation
        cam = (rot.T @ (world - ego.translation)[:, :, None])[:, :, 0]
        ahead = cam[:, 2] > 0
        u = intrinsics.p_x + np.divide(intrinsics.f_x * cam[:, 0], cam[:, 2],
                                       out=np.full(len(T), np.nan), where=ahead)
        v = intrinsics.p_y + np.divide(intrinsics.f_y * cam[:, 1], cam[:, 2],
                                       out=np.full(len(T), np.nan), where=ahead)
    mx, my = VIEW_MARGIN * intrinsics.width, VIEW_MARGIN * intrinsics.height
    return (ahead & (u >= -mx) & (u <= intrinsics.width + mx)
            & (v >= -my) & (v <= intrinsics.height + my))


def step(state, frame):
    """Advance the tracker by one frame; returns (assignment, mot_entries)."""
    if state.last_frame_index is not None and frame.frame_index <= state.last_frame_index:
        raise GeotrackError(
            f"frame {frame.frame_index} after {state.last_frame_index}"
        )
    config = state.matcher.config
    if len(frame.detections) > config.capacity:
        raise GeotrackError(
            f"{len(frame.detections)} detections exceed capacity {config.capacity}"
        )
    if not frame.detections:
        state.last_frame_index = frame.frame_index
        return AssignmentResult(unmatched_tracks=list(range(len(state.tracks)))), []
    descriptors = state.matcher.descriptors(
        frame.detections, frame.ego, state.ego_ref, frame.intrinsics
    )

    # only tracks in view are scored and solved; row i of the solve is
    # track visible[i], and every other track keeps its null
    visible = np.flatnonzero(view_gate(state.tracks, state.ego_ref, frame.ego,
                                       frame.intrinsics))
    solved = hungarian(score_matrix([state.tracks[t] for t in visible], descriptors,
                                    state.matcher))
    matches = [(int(visible[i]), j) for i, j in solved.matches]
    matched = {t for t, _ in matches}
    assignment = AssignmentResult(
        matches=matches,
        unmatched_tracks=[t for t in range(len(state.tracks)) if t not in matched],
        unmatched_detections=solved.unmatched_detections,
    )

    # Spawned tracks get consecutive ids in unmatched-detection order.
    unmatched = assignment.unmatched_detections
    spawned = [Track(track_id=state.next_track_id + k) for k in range(len(unmatched))]
    updates = [(state.tracks[t], j) for t, j in assignment.matches]
    updates += zip(spawned, unmatched)
    state.tracks += spawned
    state.next_track_id += len(spawned)

    # camera_to_world of every reference-frame translation at once; R @ T per
    # row sums as it does (T @ R.T would not, and differs in the last bit).
    rot, t_ref = quat_to_matrix(state.ego_ref.rotation), state.ego_ref.translation
    T = descriptors[:, :3].copy()
    world = (rot @ T[:, :, None])[:, :, 0] + t_ref

    entries = []
    for track, j in updates:
        det = frame.detections[j]
        track.instances.append(TrackInstance(frame.frame_index, descriptors[j]))
        if len(track.instances) > state.buffer_size:
            track.instances = track.instances[-state.buffer_size:]
        track.observation_count += 1
        entries.append(MotEntry(frame=frame.frame_index, track_id=track.track_id,
                                bbox=det.bbox, confidence=det.confidence,
                                world_xyz=world[j]))

    state.last_frame_index = frame.frame_index
    return assignment, entries


def finalize(state, min_instances=DEFAULT_MIN_INSTANCES):
    """World-frame aggregated poses of tracks with enough observations."""
    out = []
    for track in state.tracks:
        if track.observation_count < min_instances:
            continue
        pose_ref = aggregate_pose(track)
        world = camera_to_world(pose_ref.with_frame("camera"), state.ego_ref)
        out.append(
            GeolocatedObject(
                track_id=track.track_id,
                pose=world,
                instance_count=track.observation_count,
            )
        )
    return out


def track_scene(scene, matcher, buffer_size=DEFAULT_BUFFER):
    """Run the tracker over a whole scene with a ``Matcher``; returns (state,
    mot entries)."""
    state = TrackerState(matcher, scene.reference_ego, buffer_size=buffer_size)
    entries = []
    for frame in scene.frames:
        _, frame_entries = step(state, frame)
        entries.extend(frame_entries)
    return state, entries


def geolocation_report(state, min_instances=DEFAULT_MIN_INSTANCES):
    """JSON-ready geolocalization summary of a finished tracker state."""
    objects = finalize(state, min_instances=min_instances)
    return {
        "objects": [
            {
                "track_id": obj.track_id,
                "translation": [float(x) for x in obj.pose.T],
                "rotation": [float(x) for x in obj.pose.R],
                "instances": obj.instance_count,
            }
            for obj in objects
        ],
        "min_instances": min_instances,
        "total_tracks": len(state.tracks),
    }
