"""Scene data model and file formats.

Two on-disk formats live here:

- Scene JSON (``"schema": 1``): one document per scene holding frames with
  intrinsics, ego pose, detections (optionally with pixel observations,
  appearance vectors, and small feature maps), and ground-truth objects.
  Ground-truth objects are static: the sightings of one object that carry
  the same world pose share one read-only ``Pose5D`` after loading. Ids
  (``gt_id``, ``object_id``), ``frame_index`` and the intrinsics' ``width``
  and ``height`` are JSON integers (not booleans, not floats such as 1.0)
  and ``kind`` is a string. A ``bbox`` needs a finite left + width,
  top + height and 2 * width * height as float64 values.
  Serialization is canonical (sorted keys, indent 2, repr floats), so
  save -> load -> save is byte-stable. ``scene_to_json`` writes that text
  straight from the scene's fields, byte for byte what
  ``json.dumps(doc, sort_keys=True, indent=2)`` gives for the scene's
  document; the tests hold that ``json.dumps`` reference
  (``tests/helpers.py``). Loading goes through ``json``.
- Tracking CSV: ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z``
  with one line per box, frame-major then id-major. Frames are 1-based on
  disk (0-based in memory), absent fields are written as -1, and x,y,z are
  world coordinates. Import is the exact inverse of export, and holds boxes
  to the scene JSON's rule.
"""

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DataError, NonPositiveDepthError
from .geometry import WORLD, CameraIntrinsics, EgoPose, PixelObservation, Pose5D

SCENE_SCHEMA_VERSION = 1
DEFAULT_CAPACITY = 30


@dataclass
class Detection:
    """One detected object in one frame."""

    bbox: np.ndarray  # (left, top, width, height) pixels
    confidence: float = 1.0
    center: np.ndarray | None = None  # regressed pixel center
    observation: PixelObservation | None = None
    appearance: np.ndarray | None = None
    feature_map: np.ndarray | None = None  # (H, W, E)
    gt_id: int | None = None

    def __post_init__(self):
        self.bbox = np.asarray(self.bbox, dtype=np.float64).reshape(4)
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=np.float64).reshape(2)
        if self.appearance is not None:
            self.appearance = np.asarray(self.appearance, dtype=np.float64).reshape(-1)
        if self.feature_map is not None:
            self.feature_map = np.asarray(self.feature_map, dtype=np.float64)


@dataclass
class GroundTruthObject:
    object_id: int
    pose: Pose5D  # world frame; read-only, shared by the object's sightings
    kind: str = "vertical"
    bbox: np.ndarray | None = None  # image box of the (unoccluded) object

    def __post_init__(self):
        if self.bbox is not None:
            self.bbox = np.asarray(self.bbox, dtype=np.float64).reshape(4)


@dataclass
class FrameRecord:
    frame_index: int
    timestamp: float
    intrinsics: CameraIntrinsics
    ego: EgoPose
    detections: list[Detection] = field(default_factory=list)
    gt_objects: list[GroundTruthObject] | None = None


@dataclass
class SceneSequence:
    scene_id: str
    frames: list[FrameRecord]

    @property
    def reference_ego(self):
        return self.frames[0].ego

    def __len__(self):
        return len(self.frames)


# --- bbox helpers -------------------------------------------------------------


def _bbox_intersects_image(bbox, intrinsics):
    left, top, w, h = bbox
    return w > 0 and h > 0 and left < intrinsics.width and top < intrinsics.height \
        and left + w > 0 and top + h > 0


_BOX_RANGE = "bbox is out of range: left + width, top + height and " \
    "2 * width * height must be finite"


def _box_in_range(bbox):
    """Whether a finite (left, top, width, height) box of Python floats has
    finite far edges and doubled area, which keeps any IoU with it finite."""
    left, top, w, h = bbox
    return math.isfinite(left + w) and math.isfinite(top + h) \
        and math.isfinite(2.0 * w * h)


# --- match matrices -----------------------------------------------------------


def build_match_matrix(frame_a, frame_b):
    """Ground-truth association matrix between two frames' detections.

    The int64 matrix is (n_a+1) x (n_b+1): M[i, j] = 1 when detection i of
    frame_a and detection j of frame_b carry the same ground-truth id.
    Objects leaving set the last column, objects entering set the last row;
    detections without a ground-truth id (false positives) count as
    leaving/entering. A ground-truth id may appear once per frame.
    """
    dets_a, dets_b = frame_a.detections, frame_b.detections
    ids_a, ids_b = _gt_index(frame_a), _gt_index(frame_b)
    n_a, n_b = len(dets_a), len(dets_b)
    m = np.zeros((n_a + 1, n_b + 1), dtype=np.int64)
    for i, det in enumerate(dets_a):
        m[i, ids_b.get(det.gt_id, n_b)] = 1
    for j, det in enumerate(dets_b):
        if det.gt_id not in ids_a:
            m[n_a, j] = 1
    return m


def _gt_index(frame):
    """Ground-truth id -> detection index, rejecting duplicate ids."""
    ids = {}
    for j, det in enumerate(frame.detections):
        if det.gt_id is not None:
            if det.gt_id in ids:
                raise DataError(
                    f"duplicate ground-truth id {det.gt_id} in frame {frame.frame_index}"
                )
            ids[det.gt_id] = j
    return ids


def sample_training_pairs(scene, n_max, count, seed):
    """Sample (frame_a, frame_b) index pairs with uniformly random
    separation n = frame_b - frame_a in [1, n_max].

    Deterministic for a fixed seed.
    """
    if len(scene.frames) < 2:
        raise DataError(
            f"scene {scene.scene_id} has {len(scene.frames)} frame(s); need >= 2"
        )
    rng = np.random.default_rng(seed)
    max_sep = min(n_max, len(scene.frames) - 1)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, max_sep + 1))
        a = int(rng.integers(0, len(scene.frames) - n))
        pairs.append((a, a + n))
    return pairs


# --- scene JSON ---------------------------------------------------------------


def _check_finite(where, fields):
    """Raise DataError naming the first of ``fields`` that holds NaN, inf
    or a JSON boolean.

    Each value is a JSON number or flat list of numbers; None (an absent
    optional field) passes. A non-number raises TypeError, an integer past
    the float range OverflowError. Detections and ground-truth objects walk
    their fields this way only after ``_all_finite`` has found a fault, to
    name it.
    """
    for name, value in fields.items():
        numbers = value if isinstance(value, list) else [] if value is None else [value]
        if any(type(x) is bool for x in numbers):
            raise DataError(f"{where}: {name} must be numbers, not true or false")
        if not all(map(math.isfinite, numbers)):
            raise DataError(f"{where}: {name} must be finite")


def _all_finite(values):
    """One verdict over the values ``_check_finite`` checks field by field:
    True when every number is finite and none is a JSON boolean.

    Anything it would raise on (a string, a nested list, an integer past the
    float range) gives False. The float sum is finite only if every term is;
    a sum of finite numbers that leaves the float range also gives False,
    and the walk then finds nothing, which costs time, not correctness.
    """
    numbers = []
    for value in values:
        if isinstance(value, list):
            numbers += value
        elif value is not None:
            numbers.append(value)
    try:
        return bool not in map(type, numbers) and math.isfinite(sum(numbers, 0.0))
    except (TypeError, OverflowError):
        return False


def _same_bits(a, b):
    """Whether two lists of finite JSON numbers give bit-equal float64
    arrays; ``==`` takes -0.0 for 0.0, so the signs of zeros count too."""
    return a == b and (0.0 not in a or [math.copysign(1.0, x) for x in a]
                       == [math.copysign(1.0, x) for x in b])


# what reading a malformed value raises: a missing key, a value of the wrong
# type or shape, or an integer past the float range
_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


def _detection_numbers(doc):
    """The values of a detection document that ``_check_finite`` checks."""
    values = [doc["bbox"], doc["confidence"], doc.get("center")]
    obs = doc.get("observation")
    if obs is not None:
        values += (obs["center"], obs["depth"], obs["rotation"])
    if "appearance" in doc:
        values.append(doc["appearance"])
    if "feature_map" in doc:
        values.append(doc["feature_map"]["data"])
    return values


def _detection_from_doc(doc, where):
    # One verdict over every number; only when it fails do the per-field
    # walks below run, in their order, so the first fault keeps its message.
    try:
        finite = _all_finite(_detection_numbers(doc))
    except (KeyError, TypeError):
        finite = False  # not an object, or a key is missing: the walk names it
    try:
        if not finite:
            _check_finite(where, {"bbox": doc["bbox"], "confidence": doc["confidence"],
                                  "center": doc.get("center")})
        det = Detection(
            bbox=doc["bbox"],
            confidence=float(doc["confidence"]),
            center=doc.get("center"),
            gt_id=doc.get("gt_id"),
        )
    except _BAD_VALUE as exc:
        raise DataError(f"{where}: bad detection ({exc})") from exc
    if det.gt_id is not None and type(det.gt_id) is not int:
        raise DataError(f"{where}: gt_id must be an integer")
    obs = doc.get("observation")
    if obs is not None:
        try:
            if not finite:
                _check_finite(where, {f"observation.{k}": obs[k]
                                      for k in ("center", "depth", "rotation")})
            det.observation = PixelObservation(
                c=obs["center"], T_z=float(obs["depth"]), R=obs["rotation"]
            )
        except (*_BAD_VALUE, NonPositiveDepthError) as exc:
            raise DataError(f"{where}: bad observation ({exc})") from exc
    if "appearance" in doc:
        if not isinstance(doc["appearance"], list):
            raise DataError(f"{where}: appearance must be a list of numbers")
        try:
            if not finite:
                _check_finite(where, {"appearance": doc["appearance"]})
            det.appearance = np.asarray(doc["appearance"], dtype=np.float64)
        except _BAD_VALUE as exc:
            raise DataError(f"{where}: bad appearance ({exc})") from exc
    if "feature_map" in doc:
        fm = doc["feature_map"]
        try:
            if not finite:
                _check_finite(where, {"feature_map": fm["data"]})
            det.feature_map = np.asarray(fm["data"], dtype=np.float64).reshape(fm["shape"])
        except _BAD_VALUE as exc:
            raise DataError(f"{where}: bad feature map ({exc})") from exc
    return det


def _gt_object_from_doc(doc, where, i, poses):
    """Ground-truth object ``i`` of the frame at ``where``.

    ``poses`` maps each object id to its first (pose, translation, rotation)
    in the scene; a sighting whose lists give the same float64 bits shares
    that read-only pose.
    """
    try:
        finite = _all_finite([doc.get("translation"), doc.get("rotation"), doc.get("bbox")])
    except AttributeError:
        finite = False  # not an object: the walk names it
    try:
        if not finite:
            _check_finite(f"{where}.gt_objects[{i}]", {
                k: doc[k] for k in ("translation", "rotation", "bbox") if k in doc})
        object_id = doc["object_id"]
        if type(object_id) is not int:
            raise DataError(f"{where}.gt_objects[{i}]: object_id must be an integer")
        translation, rotation = doc["translation"], doc["rotation"]
        first = poses.get(object_id)
        if first is not None and _same_bits(translation, first[1]) \
                and _same_bits(rotation, first[2]):
            pose = first[0]
        else:
            pose = Pose5D(np.asarray(translation, dtype=np.float64),
                          np.asarray(rotation, dtype=np.float64), WORLD)
            poses.setdefault(object_id, (pose, translation, rotation))
        kind = doc.get("kind", "vertical")
        if type(kind) is not str:
            raise DataError(f"{where}.gt_objects[{i}]: kind must be a string")
        g = GroundTruthObject(object_id=object_id, pose=pose, kind=kind,
                              bbox=doc.get("bbox"))
        if g.bbox is not None and not _box_in_range(g.bbox.tolist()):
            raise DataError(f"{where}.gt_objects[{i}]: {_BOX_RANGE}")
        return g
    except _BAD_VALUE as exc:
        raise DataError(f"{where}: bad gt object ({exc})") from exc


def keep_most_confident(detections, capacity):
    """The ``capacity`` most confident of ``detections`` (the earlier one
    wins a tie), in their original order."""
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))[:capacity]
    return [detections[i] for i in sorted(order)]


def scene_from_doc(doc, capacity=DEFAULT_CAPACITY):
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
    poses = {}  # object id -> (pose, translation, rotation) of its first sighting
    prev_index = None
    for k, fd in enumerate(frame_docs):
        where = f"frames[{k}]"
        try:
            intr, ego_doc = fd["intrinsics"], fd["ego"]
            _check_finite(where, {
                "frame_index": fd["frame_index"],
                "timestamp": fd["timestamp"],
                **{f"intrinsics.{name}": intr[name]
                   for name in ("fx", "fy", "px", "py", "width", "height")},
                **{f"ego.{name}": ego_doc[name]
                   for name in ("rotation", "translation") if name in ego_doc},
                **({"ego.matrix": [x for row in ego_doc["matrix"] for x in row]}
                   if "matrix" in ego_doc else {}),
            })
            for name, value in (("frame_index", fd["frame_index"]),
                                ("intrinsics.width", intr["width"]),
                                ("intrinsics.height", intr["height"])):
                if type(value) is not int:
                    raise DataError(f"{where}: {name} must be an integer")
            intrinsics = CameraIntrinsics(
                f_x=float(intr["fx"]),
                f_y=float(intr["fy"]),
                p_x=float(intr["px"]),
                p_y=float(intr["py"]),
                width=intr["width"],
                height=intr["height"],
            )
            if "matrix" in ego_doc:
                ego = EgoPose.from_matrix(ego_doc["matrix"])
            else:
                ego = EgoPose(
                    np.asarray(ego_doc["rotation"], dtype=np.float64),
                    np.asarray(ego_doc["translation"], dtype=np.float64),
                )
            frame = FrameRecord(
                frame_index=fd["frame_index"],
                timestamp=float(fd["timestamp"]),
                intrinsics=intrinsics,
                ego=ego,
                detections=[
                    _detection_from_doc(dd, f"{where}.detections[{j}]")
                    for j, dd in enumerate(fd["detections"])
                ],
            )
        except _BAD_VALUE as exc:
            raise DataError(f"{where}: {exc}") from exc
        if "gt_objects" in fd:
            if not isinstance(fd["gt_objects"], list):
                raise DataError(f"{where}: gt_objects must be a list")
            frame.gt_objects = [_gt_object_from_doc(gd, where, i, poses)
                                for i, gd in enumerate(fd["gt_objects"])]
        if prev_index is not None and frame.frame_index <= prev_index:
            raise DataError(
                f"{where}: frame_index {frame.frame_index} not increasing"
            )
        prev_index = frame.frame_index
        for j, det in enumerate(frame.detections):
            bbox = det.bbox.tolist()  # Python floats compare faster than numpy scalars
            if not _box_in_range(bbox):
                raise DataError(f"{where}.detections[{j}]: {_BOX_RANGE}")
            if not _bbox_intersects_image(bbox, intrinsics):
                raise DataError(
                    f"{where}: bbox {bbox} does not intersect the image"
                )
        if len(frame.detections) > capacity:
            warnings.warn(
                f"{where}: {len(frame.detections)} detections exceed capacity "
                f"{capacity}; keeping the top-{capacity} by confidence",
                stacklevel=2,
            )
            frame.detections = keep_most_confident(frame.detections, capacity)
        frames.append(frame)
    if not frames:
        raise DataError("scene has no frames")
    return SceneSequence(scene_id=scene_id, frames=frames)


# The writer below lays the text out as json.dumps(doc, sort_keys=True,
# indent=2) does: one item per line, two spaces more per level, keys sorted,
# [] for an empty list. _PAD[k] indents level k: a frame's fields sit at
# level 3, a detection's or ground-truth object's at level 5.
_PAD = [" " * (2 * level) for level in range(8)]
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


def _block(open_, items, level, close):
    """Non-empty encoded ``items`` one per line at ``level``, in brackets."""
    pad = _PAD[level]
    return open_ + "\n" + pad + (",\n" + pad).join(items) + "\n" + _PAD[level - 1] + close


def _list_json(items, level):
    return _block("[", items, level, "]") if items else "[]"


def _float_json(x):
    text = float.__repr__(float(x))
    return _NON_FINITE.get(text, text)


def _floats_json(values, level):
    """A list of Python floats with its items at ``level``."""
    if not values:
        return "[]"
    pad = _PAD[level]
    text = (",\n" + pad).join(map(float.__repr__, values))
    if "n" in text:  # of a float's repr, only nan and inf spell an n
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return _block("[", [text], level, "]")


def _detection_json(det):
    fields = []
    if det.appearance is not None:
        fields.append('"appearance": ' + _floats_json(det.appearance.tolist(), 6))
    fields.append('"bbox": ' + _floats_json(det.bbox.tolist(), 6))
    if det.center is not None:
        fields.append('"center": ' + _floats_json(det.center.tolist(), 6))
    fields.append('"confidence": ' + _float_json(det.confidence))
    if det.feature_map is not None:
        fm = det.feature_map
        fields.append('"feature_map": ' + _block("{", [
            '"data": ' + _floats_json(fm.reshape(-1).tolist(), 7),
            '"shape": ' + _list_json([str(int(s)) for s in fm.shape], 7),
        ], 6, "}"))
    if det.gt_id is not None:
        fields.append('"gt_id": ' + str(int(det.gt_id)))
    obs = det.observation
    if obs is not None:
        fields.append('"observation": ' + _block("{", [
            '"center": ' + _floats_json(obs.c.tolist(), 7),
            '"depth": ' + _float_json(obs.T_z),
            '"rotation": ' + _floats_json(obs.R.tolist(), 7),
        ], 6, "}"))
    return _block("{", fields, 5, "}")


def _gt_object_json(g, poses):
    """``poses`` maps each pose already written to its fields' text: the
    sightings of a static object share one read-only ``Pose5D``."""
    fields = []
    if g.bbox is not None:
        fields.append('"bbox": ' + _floats_json(g.bbox.tolist(), 6))
    fields.append('"kind": ' + encode_basestring_ascii(g.kind))
    fields.append('"object_id": ' + str(int(g.object_id)))
    pose = poses.get(g.pose)
    if pose is None:
        pose = poses[g.pose] = ('"rotation": ' + _floats_json(g.pose.R.tolist(), 6) + ",\n"
                                + _PAD[5] + '"translation": '
                                + _floats_json(g.pose.T.tolist(), 6))
    fields.append(pose)
    return _block("{", fields, 5, "}")


def _frame_json(fr, poses):
    intr = fr.intrinsics
    fields = [
        '"detections": ' + _list_json([_detection_json(d) for d in fr.detections], 4),
        '"ego": ' + _block("{", ['"rotation": ' + _floats_json(fr.ego.rotation.tolist(), 5),
                                 '"translation": ' + _floats_json(fr.ego.translation.tolist(), 5)],
                           4, "}"),
        '"frame_index": ' + str(int(fr.frame_index)),
    ]
    if fr.gt_objects is not None:
        fields.append('"gt_objects": '
                      + _list_json([_gt_object_json(g, poses) for g in fr.gt_objects], 4))
    fields.append('"intrinsics": ' + _block("{", [
        '"fx": ' + _float_json(intr.f_x),
        '"fy": ' + _float_json(intr.f_y),
        '"height": ' + str(int(intr.height)),
        '"px": ' + _float_json(intr.p_x),
        '"py": ' + _float_json(intr.p_y),
        '"width": ' + str(int(intr.width)),
    ], 4, "}"))
    fields.append('"timestamp": ' + _float_json(fr.timestamp))
    return _block("{", fields, 3, "}")


def scene_to_json(scene):
    """The scene's canonical JSON text, written field by field from the
    scene's float64 arrays and numbers."""
    poses = {}
    return _block("{", [
        '"frames": ' + _list_json([_frame_json(fr, poses) for fr in scene.frames], 2),
        '"scene_id": ' + encode_basestring_ascii(scene.scene_id),
        f'"schema": {SCENE_SCHEMA_VERSION}',
    ], 1, "}") + "\n"


def atomic_write_text(path, text):
    """Write via temp file + rename so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_scene(scene, path):
    atomic_write_text(path, scene_to_json(scene))


def load_scene(path, capacity=DEFAULT_CAPACITY):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return scene_from_doc(doc, capacity)


# --- tracking CSV ---------------------------------------------------------------


@dataclass
class MotEntry:
    """One CSV line: a box of one identity in one frame."""

    frame: int  # 0-based in memory; written 1-based
    track_id: int
    bbox: np.ndarray
    confidence: float = 1.0
    world_xyz: np.ndarray | None = None

    def __post_init__(self):
        self.bbox = np.asarray(self.bbox, dtype=np.float64).reshape(4)
        if self.world_xyz is not None:
            self.world_xyz = np.asarray(self.world_xyz, dtype=np.float64).reshape(3)


def _fmt(x):
    return repr(float(x))


def mot_to_csv(entries):
    lines = []
    for e in sorted(entries, key=lambda e: (e.frame, e.track_id)):
        if e.track_id <= 0:
            raise DataError(f"track id {e.track_id} must be a positive integer")
        xyz = e.world_xyz
        fields = [
            str(e.frame + 1),
            str(int(e.track_id)),
            _fmt(e.bbox[0]),
            _fmt(e.bbox[1]),
            _fmt(e.bbox[2]),
            _fmt(e.bbox[3]),
            _fmt(e.confidence),
            _fmt(xyz[0]) if xyz is not None else "-1",
            _fmt(xyz[1]) if xyz is not None else "-1",
            _fmt(xyz[2]) if xyz is not None else "-1",
        ]
        lines.append(",".join(fields))
    return "".join(line + "\n" for line in lines)


def mot_from_csv(text):
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise DataError(f"line {lineno}: expected 10 fields, got {len(parts)}")
        try:
            frame = int(parts[0]) - 1
            track_id = int(parts[1])
            bbox = [float(p) for p in parts[2:6]]
            conf = float(parts[6])
            xyz = [float(p) for p in parts[7:10]]
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, bbox + [conf] + xyz)):
            raise DataError(f"line {lineno}: bbox, conf and x,y,z must be finite")
        if not _box_in_range(bbox):
            raise DataError(f"line {lineno}: {_BOX_RANGE}")
        world = None if xyz == [-1.0, -1.0, -1.0] else np.array(xyz)
        entries.append(
            MotEntry(frame=frame, track_id=track_id, bbox=bbox,
                     confidence=conf, world_xyz=world)
        )
    return entries


def write_mot(entries, path):
    atomic_write_text(path, mot_to_csv(entries))


def read_mot(path):
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return mot_from_csv(text)


def gt_mot_entries(scene):
    """Ground-truth objects of a scene as CSV entries (ids stay stable)."""
    entries = []
    for fr in scene.frames:
        for g in fr.gt_objects or []:
            if g.bbox is None:
                continue
            entries.append(
                MotEntry(
                    frame=fr.frame_index,
                    track_id=g.object_id,
                    bbox=g.bbox,
                    confidence=1.0,
                    world_xyz=g.pose.T,
                )
            )
    return entries
