"""Tracking and geo-localization metrics.

Tracking quality uses the CLEAR protocol on image-space boxes: per frame,
previous ground-truth/hypothesis correspondences are kept while their IoU
stays above threshold, remaining boxes are matched by maximum-IoU
assignment, and MOTA folds misses, false positives, and identity switches
into one score. Geo-localization quality is measured object-wise with
precision/recall under a Euclidean or Mahalanobis acceptance gate,
optionally also requiring the facing direction to agree. The gate is one
(predictions x objects) distance matrix per call, ``inf`` where it rejects
a pair; in descending score order each prediction takes the nearest
accepted object that is still free.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import iou_matrix
from .assignment import hungarian
from .errors import ConfigError, DataError, GeotrackError
from .geometry import angular_error
from .numerics import row_norm

MT_COVERAGE = 0.8
ML_COVERAGE = 0.2


@dataclass
class MotReport:
    mota: float
    motp: float
    mt: int
    ml: int
    mt_fraction: float
    ml_fraction: float
    ids: int
    fp: int
    fn: int
    matches: int
    gt_total: int
    trajectories: int
    frames: int

    def as_dict(self):
        return {k: (float(v) if isinstance(v, float) else int(v))
                for k, v in self.__dict__.items()}


def _entries_by_frame(entries):
    frames = {}
    for e in entries:
        frames.setdefault(e.frame, []).append(e)
    return frames


def mot_metrics(gt_entries, hyp_entries, iou_threshold=0.5):
    """CLEAR-MOT scores between ground-truth and hypothesis box entries.

    Correspondences persist across frames while they keep IoU >= threshold;
    an identity switch is counted when a ground-truth object is matched to
    a different hypothesis id than the last one it had.
    """
    if not 0 < iou_threshold <= 1:  # NaN fails too
        raise ConfigError(f"iou_threshold {iou_threshold} outside (0, 1]")
    gt_frames = _entries_by_frame(gt_entries)
    hyp_frames = _entries_by_frame(hyp_entries)
    gt_total = sum(len(v) for v in gt_frames.values())
    if gt_total == 0:
        raise DataError("no ground-truth boxes to evaluate against")

    last_match = {}  # gt id -> hypothesis id (sticky across gaps)
    gt_frames_seen = {}
    gt_frames_covered = {}
    fn = fp = ids = matches = 0
    iou_sum = 0.0
    all_frames = sorted(set(gt_frames) | set(hyp_frames))

    for frame in all_frames:
        gts = gt_frames.get(frame, [])
        hyps = hyp_frames.get(frame, [])
        for g in gts:
            gt_frames_seen[g.track_id] = gt_frames_seen.get(g.track_id, 0) + 1
        if gts and hyps:
            ious = iou_matrix(
                np.array([g.bbox for g in gts]),
                np.array([h.bbox for h in hyps]),
            )
        else:
            ious = np.zeros((len(gts), len(hyps)))
        hyp_index = {h.track_id: j for j, h in enumerate(hyps)}

        taken_g = set()
        taken_h = set()
        # keep still-valid correspondences from earlier frames
        for i, g in enumerate(gts):
            j = hyp_index.get(last_match.get(g.track_id))
            if j is not None and j not in taken_h and ious[i, j] >= iou_threshold:
                taken_g.add(i)
                taken_h.add(j)
                matches += 1
                iou_sum += ious[i, j]
                gt_frames_covered[g.track_id] = gt_frames_covered.get(g.track_id, 0) + 1

        free_g = [i for i in range(len(gts)) if i not in taken_g]
        free_h = [j for j in range(len(hyps)) if j not in taken_h]
        if free_g and free_h:
            block = ious[np.ix_(free_g, free_h)].copy()
            block[block < iou_threshold] = -np.inf
            # null columns at 0 let any row stay unmatched
            score = np.full((len(free_g), len(free_h) + len(free_g)), -np.inf)
            score[:, : len(free_h)] = block
            for r in range(len(free_g)):
                score[r, len(free_h) + r] = 0.0
            result = hungarian(score)
            for r, c in result.matches:
                i, j = free_g[r], free_h[c]
                g = gts[i]
                matches += 1
                iou_sum += ious[i, j]
                gt_frames_covered[g.track_id] = gt_frames_covered.get(g.track_id, 0) + 1
                prev = last_match.get(g.track_id)
                if prev is not None and prev != hyps[j].track_id:
                    ids += 1
                last_match[g.track_id] = hyps[j].track_id
                taken_g.add(i)
                taken_h.add(j)
        fn += len(gts) - len(taken_g)
        fp += len(hyps) - len(taken_h)

    coverages = {
        gid: gt_frames_covered.get(gid, 0) / seen
        for gid, seen in gt_frames_seen.items()
    }
    mt = sum(1 for c in coverages.values() if c >= MT_COVERAGE)
    ml = sum(1 for c in coverages.values() if c < ML_COVERAGE)
    trajectories = len(gt_frames_seen)
    return MotReport(
        mota=1.0 - (fn + fp + ids) / gt_total,
        motp=iou_sum / matches if matches else 0.0,
        mt=mt,
        ml=ml,
        mt_fraction=mt / trajectories if trajectories else 0.0,
        ml_fraction=ml / trajectories if trajectories else 0.0,
        ids=ids,
        fp=fp,
        fn=fn,
        matches=matches,
        gt_total=gt_total,
        trajectories=trajectories,
        frames=len(all_frames),
    )


# --- geo-localization ------------------------------------------------------------


def mahalanobis_distance(delta, semi_axes, limit=3.0):
    """Anisotropic distance of (..., 3) displacements, scaled so the given
    ellipsoid is the level set.

    A displacement lying exactly on the ellipsoid with the given semi-axes
    returns ``limit``.
    """
    delta = np.asarray(delta, dtype=np.float64)
    semi_axes = np.asarray(semi_axes, dtype=np.float64).reshape(-1)
    if (semi_axes <= 0).any():
        raise ConfigError("semi-axes must be positive")
    with np.errstate(over="ignore"):
        ratio = delta / semi_axes
        # ratio first: a point on the ellipsoid yields exactly `limit`
        dist = np.sqrt(np.sum((limit * ratio) ** 2, axis=-1))
        # where a huge limit overflowed the squares, scale after the norm, so
        # that a point inside the ellipsoid still reads at most `limit`
        spilled = np.isinf(dist) & np.isfinite(ratio).all(axis=-1)
        if spilled.any():
            dist = np.where(spilled, limit * row_norm(ratio), dist)[()]
    return dist


@dataclass
class GeoCriterion:
    """Acceptance gate deciding whether a prediction hits a GT object."""

    kind: str = "euclidean"  # "euclidean" | "mahalanobis"
    radius: float = 2.0  # meters, euclidean
    limit: float = 3.0  # mahalanobis units
    semi_axes: tuple = (0.4, 0.39, 3.84)  # meters, mahalanobis ellipsoid
    rotation_gate_deg: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "mahalanobis"):
            raise ConfigError(f"unknown criterion kind {self.kind!r}")
        # each check is written so that NaN fails it
        for name, value in (("radius", self.radius), ("limit", self.limit),
                            *(("semi-axes", s) for s in self.semi_axes)):
            if not 0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        gate = self.rotation_gate_deg
        if gate is not None and not 0 <= gate < np.inf:
            raise ConfigError(f"rotation gate must be finite and >= 0, got {gate}")

    def distances(self, pred_poses, gt_poses):
        """(P, G) gate distances between predicted and ground-truth poses,
        ``inf`` where the gate rejects the pair."""
        pred_T = np.array([p.T for p in pred_poses]).reshape(-1, 3)
        gt_T = np.array([g.T for g in gt_poses]).reshape(-1, 3)
        # huge poses overflow to an infinite distance, which the gate rejects
        with np.errstate(over="ignore"):
            delta = pred_T[:, None, :] - gt_T[None, :, :]
            if self.kind == "euclidean":
                dist, bound = row_norm(delta), self.radius
            else:
                dist = mahalanobis_distance(delta, self.semi_axes, self.limit)
                bound = self.limit
        reject = dist > bound
        if self.rotation_gate_deg is not None:
            pred_R = np.array([p.R for p in pred_poses]).reshape(-1, 2)
            gt_R = np.array([g.R for g in gt_poses]).reshape(-1, 2)
            angle = angular_error(pred_R[:, None, :], gt_R[None, :, :])
            reject |= angle > self.rotation_gate_deg
        return np.where(reject, np.inf, dist)


def greedy_match(predictions, ground_truth, criterion):
    """One-to-one greedy matching in descending score order.

    ``predictions`` holds (pose, score[, scene]) tuples, ``ground_truth``
    poses or (pose[, scene]) tuples; matching never crosses scenes. Ties
    break on the pose content, not the input position, so results are
    invariant to input ordering. Returns (tp_flags in score order, matched
    index pairs, order) where pairs map prediction index -> ground truth.
    """
    preds = [(*item, "")[:3] for item in predictions]  # (pose, score, scene)
    gts = [(*item, "")[:2] if isinstance(item, tuple) else (item, "")
           for item in ground_truth]  # (pose, scene)

    def sort_key(i):
        pose, score, scene = preds[i]
        return (-float(score), scene, tuple(pose.T), tuple(pose.R))

    order = sorted(range(len(preds)), key=sort_key)
    dist = criterion.distances([p for p, _, _ in preds], [g for g, _ in gts])
    label = {}  # scene -> integer label
    pred_scene = np.array([label.setdefault(s, len(label)) for _, _, s in preds])
    gt_scene = np.array([label.setdefault(s, len(label)) for _, s in gts])
    dist[pred_scene[:, None] != gt_scene] = np.inf
    tp_flags = []
    pairs = []
    for i in order:
        # argmin takes the first of equal distances: the lowest free index
        j = int(np.argmin(dist[i])) if gts else None
        if j is None or dist[i, j] == np.inf:
            tp_flags.append(False)
            continue
        dist[:, j] = np.inf  # taken
        pairs.append((i, j))
        tp_flags.append(True)
    return tp_flags, pairs, order


def pr_curve(predictions, ground_truth, criterion):
    """Precision/recall sweep over the prediction score threshold.

    Returns one (precision, recall, threshold) triple per prediction, in
    descending score order; recall is monotone non-decreasing.
    """
    tp_flags, _, order = greedy_match(predictions, ground_truth, criterion)
    return _pr_points(predictions, len(ground_truth), tp_flags, order)


def _pr_points(predictions, n_gt, tp_flags, order):
    """``pr_curve``'s points from one ``greedy_match`` result over ``n_gt``
    ground-truth objects."""
    points = []
    tp = 0
    for k, (flag, idx) in enumerate(zip(tp_flags, order), start=1):
        tp += flag
        points.append(
            (tp / k, tp / n_gt if n_gt else 0.0, float(predictions[idx][1]))
        )
    return points


@dataclass
class TranslationErrorStats:
    mean: np.ndarray
    median: np.ndarray
    std: np.ndarray
    count: int

    def as_dict(self):
        return {
            "mean": [float(x) for x in self.mean],
            "median": [float(x) for x in self.median],
            "std": [float(x) for x in self.std],
            "count": int(self.count),
        }


def translation_error_stats(pairs):
    """Per-axis absolute translation error summary over matched pairs."""
    if not pairs:
        raise DataError("translation statistics need at least one matched pair")
    deltas = []
    for pred, gt in pairs:
        if pred.frame_id != gt.frame_id:
            raise GeotrackError(
                f"poses in frames {pred.frame_id!r} and {gt.frame_id!r} do not compare"
            )
        deltas.append(np.abs(pred.T - gt.T))
    block = np.array(deltas)
    return TranslationErrorStats(
        mean=block.mean(axis=0),
        median=np.median(block, axis=0),
        std=block.std(axis=0),
        count=block.shape[0],
    )


# --- plotting ----------------------------------------------------------------------


def pr_curve_svg(points, title="precision / recall"):
    """Self-contained SVG of a PR curve with one marker per point."""
    width, height, margin = 480, 360, 48

    def sx(r):
        return margin + r * (width - 2 * margin)

    def sy(p):
        return height - margin - p * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">recall</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.1f})">precision</text>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="13">{title}</text>',
    ]
    if points:
        coords = [(sx(r), sy(p)) for p, r, _ in points]
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
        )
        for x, y in coords:
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#1f6fb2" '
                f'class="pr-point"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
