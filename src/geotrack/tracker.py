"""Online tracking-by-detection over a scene.

The state is one table per scene. ``TrackerState.tracks`` holds each
track's observation count; track i has id i + 1, since tracks never die
(the targets are static) and are spawned in id order.
``TrackerState.instances`` holds every track's buffer as (track, frame,
count, descriptor) rows in (frame, track) order: the ``count``-th
observation of the track, made in the ``frame``-th frame with detections
(an ordinal, as a frame index is any JSON integer), and the descriptor the
matcher saw, whose prefix is its reference-frame pose (T ``[:3]``, R
``[3:5]``). A track keeps its newest ``buffer_size`` rows. Matches come
back in ascending track order and spawned tracks follow every old one, so
appending a step's rows keeps the table in order.

Each frame's detections are assigned to the tracks the camera can see
(``view_gate``) by a maximization on a score matrix of shape (m, n + m):
column j < n holds the best similarity between track i's rows and
detection j, column n + i track i's null score (``score_matrix``). Tracks
out of view are neither scored nor solved, and keep their rows until they
are matched again. A frame without detections leaves every track unmatched,
and nothing is gated, scored or solved. A track's 5D pose is the
per-component median of its rows' poses, taken when results are reported
(``finalize``).
"""

from dataclasses import dataclass

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
class GeolocatedObject:
    track_id: int
    pose: Pose5D  # world frame
    instance_count: int


class TrackerState:
    """Mutable per-scene tracking state owned by a single caller: the
    observation counts ``tracks`` and the instance table ``instances`` (see
    the module docstring)."""

    def __init__(self, matcher, ego_ref, buffer_size=DEFAULT_BUFFER):
        if (isinstance(buffer_size, bool) or not isinstance(buffer_size, (int, np.integer))
                or buffer_size < 1):
            raise ConfigError(f"buffer_size must be an integer >= 1, got {buffer_size!r}")
        self.matcher = matcher
        self.ego_ref = ego_ref
        self.buffer_size = buffer_size
        self.tracks = np.zeros(0, dtype=np.int64)
        self.instances = np.zeros(0, dtype=[
            ("track", np.intp), ("frame", np.int64), ("count", np.int64),
            ("descriptor", np.float64, (matcher.config.descriptor_dim,)),
        ])
        self.last_frame_index = None


def aggregate_pose(descriptors):
    """Per-component median of one track's buffered reference-frame poses,
    given its descriptor rows oldest first, each read as T = ``[:3]`` and
    R = normalized ``[3:5]``, as one Pose5D. The median facing is
    renormalized; when it is zero (two opposite facings, say) the newest
    row's is taken."""
    if not len(descriptors):
        raise GeotrackError("aggregate_pose needs at least one descriptor row")
    rs = np.array([normalize_rotation(d[3:5]) for d in descriptors])
    t = np.median(descriptors[:, :3], axis=0)
    try:
        r = normalize_rotation(np.median(rs, axis=0))
    except ZeroVectorError:
        r = rs[-1]
    return Pose5D(t, r, REFERENCE)


def score_matrix(tracks, state, detection_descriptors):
    """Similarity scores between the m tracks ``tracks`` (ascending indices)
    and n detections plus null options.

    The tracks' rows are scored against the detections in one
    ``matcher.bundle`` call, each past frame's rows as their own candidate
    set (see ``matching.augment_normalize``), just as a call per past frame
    would score them. A track's detection score is the maximum fused
    similarity over its rows and its null score the mean null-column
    probability, summed in frame order.
    """
    m, n = len(tracks), len(detection_descriptors)
    scores = np.full((m, n + m), -np.inf)
    if m == 0:
        return scores

    row_of = np.full(len(state.tracks), -1, dtype=np.intp)
    row_of[tracks] = np.arange(m)
    owners = row_of[state.instances["track"]]
    scored = owners >= 0
    owners = owners[scored]
    # the rows are in frame order, so each past frame's rows are one run
    frames = state.instances["frame"][scored]
    bounds = np.concatenate(([0], np.flatnonzero(frames[1:] != frames[:-1]) + 1, [len(frames)]))
    bundle = state.matcher.bundle(state.instances["descriptor"][scored],
                                  detection_descriptors, bounds[1:] - bounds[:-1])
    np.maximum.at(scores[:, :n], owners, bundle.fused[:len(owners), :n])
    null_sums = np.zeros(m)
    np.add.at(null_sums, owners, bundle.S1n[:, -1])
    null_counts = np.bincount(owners, minlength=m)

    null = np.divide(null_sums, null_counts, out=np.ones(m), where=null_counts > 0)
    scores[np.arange(m), n + np.arange(m)] = null
    return scores


def view_gate(T, ego_ref, ego, intrinsics):
    """(m,) booleans: which of the tracks whose newest reference-frame
    translations are ``T`` (m, 3) the camera at ``ego`` can see.

    The translations are mapped to the world through ``ego_ref`` and into
    the camera through ``ego``, all tracks at once and with the same sums as
    ``world_to_camera(camera_to_world(...))``. A track is in view when its
    depth is positive and its ``project``ed centre lies inside the image
    widened by ``VIEW_MARGIN`` of its width and height on every side, bounds
    included. A position that overflows on the way is out of view.
    """
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
    table, n_tracks = state.instances, len(state.tracks)
    newest = np.flatnonzero(table["count"] == state.tracks[table["track"]])
    newest_T = np.empty((n_tracks, 3))
    newest_T[table["track"][newest]] = table["descriptor"][newest, :3]
    visible = np.flatnonzero(view_gate(newest_T, state.ego_ref, frame.ego, frame.intrinsics))
    solved = hungarian(score_matrix(visible, state, descriptors))
    matches = [(int(visible[i]), j) for i, j in solved.matches]
    free = np.ones(n_tracks, dtype=bool)
    free[[t for t, _ in matches]] = False
    unmatched = solved.unmatched_detections
    assignment = AssignmentResult(
        matches=matches,
        unmatched_tracks=np.flatnonzero(free).tolist(),
        unmatched_detections=unmatched,
    )

    # Spawned tracks take the next ids in unmatched-detection order, after
    # the matched tracks, so the step's rows are in track order.
    owners = np.array([t for t, _ in matches] + list(range(n_tracks, n_tracks + len(unmatched))),
                      dtype=np.intp)
    dets = np.array([j for _, j in matches] + unmatched, dtype=np.intp)
    state.tracks = np.concatenate([state.tracks, np.zeros(len(unmatched), np.int64)])
    state.tracks[owners] += 1
    rows = np.empty(len(owners), dtype=table.dtype)
    rows["track"], rows["count"] = owners, state.tracks[owners]
    rows["frame"] = table["frame"][-1] + 1 if len(table) else 0  # the last row is newest
    rows["descriptor"] = descriptors[dets]
    kept = table.compress(table["count"] > state.tracks[table["track"]] - state.buffer_size)
    state.instances = np.concatenate([kept, rows], dtype=table.dtype)

    # camera_to_world of every reference-frame translation at once; R @ T per
    # row sums as it does (T @ R.T would not, and differs in the last bit).
    rot, t_ref = quat_to_matrix(state.ego_ref.rotation), state.ego_ref.translation
    T = descriptors[:, :3].copy()
    world = (rot @ T[:, :, None])[:, :, 0] + t_ref

    entries = []
    for t, j in zip(owners.tolist(), dets.tolist()):
        det = frame.detections[j]
        entries.append(MotEntry(frame=frame.frame_index, track_id=t + 1, bbox=det.bbox,
                                confidence=det.confidence, world_xyz=world[j]))
    state.last_frame_index = frame.frame_index
    return assignment, entries


def finalize(state, min_instances=DEFAULT_MIN_INSTANCES):
    """World-frame aggregated poses of tracks with enough observations."""
    table = state.instances
    by_track = np.argsort(table["track"], kind="stable")  # each track's rows oldest first
    ends = np.cumsum(np.bincount(table["track"], minlength=len(state.tracks)))
    buffers = np.split(table["descriptor"][by_track], ends[:-1])
    out = []
    for t, (count, descriptors) in enumerate(zip(state.tracks.tolist(), buffers)):
        if count < min_instances:
            continue
        pose_ref = aggregate_pose(descriptors)
        world = camera_to_world(pose_ref.with_frame("camera"), state.ego_ref)
        out.append(GeolocatedObject(track_id=t + 1, pose=world, instance_count=count))
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
