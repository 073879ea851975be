"""Workload inputs, the pipeline stages they run, and the output checks.

Every pass of a workload runs the whole pipeline once: train both matcher
routes, track scenes with the stored checkpoint, and evaluate scene files the
way ``geotrack evaluate`` does. A workload decides how much input each stage
gets. Its own stage runs on inputs made from the run's seed; the other stages
run the fixed reference inputs, which are the same in every workload and
every run. The pose-head route always trains on fixed scenes (see ``_routes``).
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from geotrack import evaluation, matching, simulator, tracker
from geotrack import scene as gscene
from geotrack.geometry import WORLD, Pose5D

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "obs-matcher.json"
# README geo gate: Mahalanobis ellipsoid with these semi-axes, limit 3
CRITERION = evaluation.GeoCriterion(kind="mahalanobis", semi_axes=(0.4, 0.39, 3.84),
                                    limit=3.0)
REFERENCE_BASE = 5_000  # scene seeds of the reference inputs
APPEARANCE_DIM = 16
POSE_PRETRAIN = 1

# Stage sizes. "tiny" exists for the self-test.
SIZES = {
    "full": {
        "long": (8, 20, 120), "dense": (6, 60, 40), "synthetic": (6, 60, 40),
        "obs": (32, 12, 2), "pose": (8, 25, 6, 2),
        "ref_track": (3, 20, 40), "ref_obs": (2, 12, 8), "ref_pose": (1, 25, 6, 7),
    },
    "tiny": {
        "long": (1, 6, 16), "dense": (1, 12, 8), "synthetic": (1, 12, 8),
        "obs": (2, 4, 1), "pose": (1, 4, 2, 1),
        "ref_track": (1, 6, 12), "ref_obs": (2, 4, 1), "ref_pose": (1, 4, 2, 1),
    },
}


# --- scene and dataset configurations ------------------------------------------


def middle_profile(seed, n_objects, n_frames):
    """Middle noise profile of the test suite's training mixture."""
    return simulator.SimConfig(
        seed=seed, n_frames=n_frames, n_objects=n_objects,
        appearance_dim=APPEARANCE_DIM, appearance_sigma=0.15, center_sigma_px=2.0,
        depth_rel_sigma=0.05, miss_rate=0.05, fp_rate=0.2,
        lateral_range=(-10.0, 10.0), depth_range=(12.0, 80.0),
    )


def observation_mixture(base_seed, count):
    """Three-profile mixture the observation-route matcher trains on."""
    out = []
    for s in range(count):
        center, depth = ((0.0, 0.0), (2.0, 0.05), (3.0, 0.08))[s % 3]
        out.append(simulator.SimConfig(
            seed=base_seed + s, n_frames=24, n_objects=8,
            appearance_dim=APPEARANCE_DIM,
            appearance_sigma=(0.05, 0.15, 0.3)[s % 3],
            center_sigma_px=center, depth_rel_sigma=depth,
            miss_rate=(0.0, 0.05, 0.1)[s % 3], fp_rate=(0.0, 0.2, 0.4)[s % 3],
            lateral_range=(-10.0, 10.0), depth_range=(12.0, 80.0),
        ))
    return out


def observation_config(epochs, seed=1):
    return matching.MatcherConfig(appearance_dim=APPEARANCE_DIM, epochs=epochs, seed=seed,
                                  scorer_hidden=(64, 48, 32, 16, 8))


def pose_scene_configs(base_seed, count):
    """Scenes with feature maps for the pose-head route."""
    out = []
    for s in range(count):
        center, depth = ((0.5, 0.01), (1.5, 0.03), (2.5, 0.06))[s % 3]
        out.append(simulator.SimConfig(
            seed=base_seed + s, n_frames=24, n_objects=6, appearance_dim=64,
            appearance_sigma=(0.05, 0.15, 0.25)[s % 3], center_sigma_px=center,
            depth_rel_sigma=depth, emit_feature_maps=True, embed_dim=8,
            feature_map_size=(3, 3), feature_sigma=0.02,
        ))
    return out


def pose_config(epochs):
    return matching.MatcherConfig(
        appearance_dim=64, embed_dim=8, use_pose_head=True, lam=0.005, epochs=epochs,
        seed=1, scorer_hidden=(160, 96, 48, 24, 12), pose_hidden=(16, 12),
        pose_pretrain_epochs=POSE_PRETRAIN,
    )


# --- inputs -------------------------------------------------------------------------


@dataclass
class Route:
    name: str  # "obs" | "pose"
    samples: list
    heldout: list | None
    config: matching.MatcherConfig

    @property
    def epochs(self):
        return self.config.epochs + (self.config.pose_pretrain_epochs or 0)


@dataclass
class Inputs:
    params: matching.MatcherParams  # tracking checkpoint
    routes: list
    scenes: list  # (scene, scene JSON path)
    synthetic: list | None  # (scene, hypothesis CSV, geo JSON) paths, or None


def _routes(obs_size, pose_size, obs_base):
    n_scenes, pairs, epochs = obs_size
    scenes = [simulator.generate_scene(c) for c in observation_mixture(obs_base, n_scenes)]
    obs = Route("obs", simulator.make_matching_dataset(scenes, n_max=20,
                                                       pairs_per_scene=pairs, seed=0),
                None, observation_config(epochs))
    # The pose-head route always trains on the reference scenes: after a few
    # epochs its held-out accuracy swings from 0.59 to 0.83 across scene
    # seeds, far more than any bound could absorb, while its time per epoch
    # hardly depends on the scenes.
    n_scenes, pairs, held_pairs, epochs = pose_size
    scenes = [simulator.generate_scene(c)
              for c in pose_scene_configs(REFERENCE_BASE + 100, n_scenes)]
    pose = Route(
        "pose",
        simulator.make_matching_dataset(scenes, n_max=20, pairs_per_scene=pairs, seed=0),
        simulator.make_matching_dataset(scenes, n_max=20, pairs_per_scene=held_pairs,
                                        seed=77),
        pose_config(epochs),
    )
    return [obs, pose]


def _scenes(size, base_seed, workdir, tag):
    count, n_objects, n_frames = size
    out = []
    for i in range(count):
        sc = simulator.generate_scene(middle_profile(base_seed + i, n_objects, n_frames))
        path = workdir / f"{tag}-{i:02d}.scene.json"
        gscene.save_scene(sc, path)
        out.append((sc, path))
    return out


def _synthetic_outputs(sc, rng):
    """Hypotheses from the detections with identity swaps and box jitter, and
    geo predictions from the ground truth with seeded noise."""
    object_ids = sorted({g.object_id for f in sc.frames for g in f.gt_objects or []})
    swaps = sorted(
        (int(rng.integers(len(sc.frames))), *rng.choice(object_ids, 2, replace=False))
        for _ in range(max(1, len(object_ids) // 10))
    )
    entries = []
    next_fp = 100_000
    for frame in sc.frames:
        ident = {o: o for o in object_ids}
        for start, a, b in swaps:
            if frame.frame_index >= start:
                ident[a], ident[b] = ident[b], ident[a]
        for det in frame.detections:
            if det.gt_id is None:
                track_id, next_fp = next_fp, next_fp + 1
            else:
                track_id = ident[det.gt_id]
            box = det.bbox.copy()
            box[:2] += rng.normal(0.0, 1.5, 2)
            box[2:] *= 1.0 + rng.normal(0.0, 0.03, 2)
            entries.append(gscene.MotEntry(frame=frame.frame_index, track_id=track_id,
                                           bbox=box, confidence=det.confidence))
    objects = []
    for object_id, pose in sorted(simulator.world_objects(sc).items()):
        objects.append({
            "track_id": int(object_id),
            "translation": [float(x) for x in pose.T + rng.normal(0.0, (0.15, 0.15, 1.2))],
            "rotation": [float(x) for x in pose.R],
            "instances": int(rng.integers(2, 40)),
        })
    geo = {"objects": objects, "min_instances": 2, "total_tracks": len(objects)}
    return entries, geo


def _write_outputs(stem, entries, geo):
    hyp = stem.with_suffix(".hyp.txt")
    geo_path = stem.with_suffix(".geo.json")
    gscene.write_mot(entries, hyp)
    gscene.atomic_write_text(geo_path, json.dumps(geo, sort_keys=True, indent=2) + "\n")
    return hyp, geo_path


def _synthetic(size, base_seed, workdir):
    out = []
    for i, (sc, path) in enumerate(_scenes(size, base_seed, workdir, "synthetic")):
        rng = np.random.default_rng([base_seed, i])
        out.append((path, *_write_outputs(path.with_suffix(""), *_synthetic_outputs(sc, rng))))
    return out


def setup(workload, seed, size, workdir):
    """Build the workload's inputs: its own from ``seed``, the rest reference."""
    sizes = SIZES[size]
    base = 10_000 + 1_000 * seed
    if workload == "train":
        routes = _routes(sizes["obs"], sizes["pose"], base)
    else:
        routes = _routes(sizes["ref_obs"], sizes["ref_pose"], REFERENCE_BASE)
    if workload in ("track-long", "track-dense"):
        key = "long" if workload == "track-long" else "dense"
        scenes = _scenes(sizes[key], base + 500, workdir, key)
    else:
        scenes = _scenes(sizes["ref_track"], REFERENCE_BASE + 500, workdir, "reference")
    synthetic = _synthetic(sizes["synthetic"], base + 700, workdir) \
        if workload == "evaluate" else None
    params = matching.load_checkpoint(CHECKPOINT)
    return Inputs(params, routes, scenes, synthetic)


# --- checks ---------------------------------------------------------------------------


def check_frame(frame, n_tracks, result, entries):
    """Problem with one tracker step's outputs, or None."""
    n = len(frame.detections)
    if len(entries) != n:
        return f"{len(entries)} MOT entries for {n} detections"
    if len({e.track_id for e in entries}) != n:
        return "track ids repeat within the frame"
    rows = [i for i, _ in result.matches]
    cols = [j for _, j in result.matches]
    if len(set(cols)) != len(cols):
        return "an assignment column is taken twice"
    if len(set(rows)) != len(rows) or any(not 0 <= i < n_tracks for i in rows):
        return "assignment rows repeat or fall outside the tracks"
    if sorted(cols + list(result.unmatched_detections)) != list(range(n)):
        return "matched and unmatched detections do not partition the frame"
    return None


def check_history(history, pretrain):
    for h in history:
        pose_ok = math.isfinite(h.pose)
        affinity_ok = h.epoch < pretrain or math.isfinite(h.affinity)
        if not (pose_ok and affinity_ok and 0.0 <= h.accuracy <= 1.0):
            return f"epoch {h.epoch}: non-finite loss or accuracy {h}"
    return None


def check_report(report, n_hyp):
    mot = report["mot"]
    if mot["matches"] + mot["fn"] != mot["gt_total"] or mot["matches"] + mot["fp"] != n_hyp:
        return "CLEAR-MOT counts do not add up"
    values = [mot["mota"], mot["motp"], report["recall"], report["precision"]]
    if not all(math.isfinite(v) for v in values) or mot["mota"] > 1.0:
        return "non-finite or out-of-range score"
    if not (0.0 <= report["recall"] <= 1.0 and 0.0 <= report["precision"] <= 1.0):
        return "precision or recall outside [0, 1]"
    return None


def _digest(*texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


# --- running a pass ----------------------------------------------------------------


@dataclass
class Tally:
    """Timings, quality figures and failures over the passes of one run."""

    frame_s: list = field(default_factory=list)  # per pass: step seconds
    epoch_s: list = field(default_factory=list)  # per pass: {route: [s/epoch] or []}
    scene_s: list = field(default_factory=list)  # per pass: evaluation seconds
    attempted: dict = field(default_factory=lambda: {"frame": 0, "epoch": 0, "scene": 0})
    failed: dict = field(default_factory=lambda: {"frame": 0, "epoch": 0, "scene": 0})
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # output -> digest of the first pass
    quality: dict = field(default_factory=dict)  # figures of the first pass

    def fail(self, kind, count, message):
        self.failed[kind] += count
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {message}")

    def same_as_first(self, key, digest):
        """Record a first-pass digest; later passes must reproduce it."""
        return self.digests.setdefault(key, digest) == digest


class FrameClock:
    """Times and checks each ``tracker.step``; installed where track_scene looks.
    Step times go to ``times`` through ``speed`` (see speed.py)."""

    def __init__(self, tally, speed):
        self.tally = tally
        self.speed = speed
        self.step = tracker.step
        self.times = None
        tracker.step = self

    def __call__(self, state, frame):
        n_tracks = len(state.tracks)
        started = self.speed.clock()
        result, entries = self.step(state, frame)
        self.speed.add(self.times, started)
        self.tally.attempted["frame"] += 1
        problem = check_frame(frame, n_tracks, result, entries)
        if problem:
            self.tally.fail("frame", 1, f"frame {frame.frame_index}: {problem}")
        return result, entries

    def uninstall(self):
        tracker.step = self.step


def _train(route, tally, first, speed, sink):
    """Train one route; its time per epoch goes to ``sink`` through ``speed``."""
    started = speed.clock()
    try:
        params, history = matching.train_matcher(route.samples, route.config,
                                                 heldout=route.heldout)
    except Exception as exc:  # a failed epoch is counted, not fatal
        tally.attempted["epoch"] += route.epochs
        tally.fail("epoch", route.epochs, f"{route.name} training raised {exc!r}")
        return
    speed.add(sink, started, max(len(history), 1))
    tally.attempted["epoch"] += route.epochs
    problem = check_history(history, route.config.pose_pretrain_epochs or 0)
    if len(history) != route.epochs:
        problem = f"{len(history)} epochs run of {route.epochs}"
    rows = [(h.epoch, float(h.affinity).hex(), float(h.pose).hex(), float(h.accuracy).hex())
            for h in history]
    digest = _digest(json.dumps(matching.params_to_doc(params), sort_keys=True),
                     json.dumps(rows))
    if problem is None and not tally.same_as_first(f"train.{route.name}", digest):
        problem = "history or parameters differ from the first run in this process"
    if problem:
        tally.fail("epoch", route.epochs, f"{route.name}: {problem}")
    if first:
        tally.quality[f"{route.name}_accuracy"] = history[-1].accuracy if history else 0.0


def _track(sc, path, params, tally, count):
    done = tally.attempted["frame"]
    try:
        state, entries = tracker.track_scene(sc, matching.Matcher(params))
    except Exception as exc:
        left = len(sc.frames) - (tally.attempted["frame"] - done)
        tally.attempted["frame"] += left
        tally.fail("frame", left, f"{sc.scene_id}: tracking raised {exc!r}")
        return None
    count("tracker.tracks_total", len(state.tracks))
    geo = tracker.geolocation_report(state)
    hyp, geo_path = _write_outputs(path.with_suffix(""), entries, geo)
    digest = _digest(hyp.read_text(), geo_path.read_text())
    if not tally.same_as_first(f"track.{sc.scene_id}", digest):
        tally.fail("frame", len(sc.frames), f"{sc.scene_id}: outputs differ between passes")
    return path, hyp, geo_path


def evaluate_files(scene_path, hyp_path, geo_path):
    """What ``geotrack evaluate`` computes for one scene; returns (report, #hyps)."""
    sc = gscene.load_scene(scene_path)
    hyps = gscene.read_mot(hyp_path)
    mot = evaluation.mot_metrics(gscene.gt_mot_entries(sc), hyps)
    geo = json.loads(Path(geo_path).read_text())
    predictions = [
        (Pose5D(np.array(o["translation"]), np.array(o["rotation"]), WORLD),
         float(o["instances"]))
        for o in geo["objects"]
    ]
    gts = list(simulator.world_objects(sc).values())
    points = evaluation.pr_curve(predictions, gts, CRITERION)
    _, pairs, _ = evaluation.greedy_match(predictions, gts, CRITERION)
    report = {
        "mot": mot.as_dict(),
        "pr": [{"precision": p, "recall": r, "threshold": t} for p, r, t in points],
        "recall": points[-1][1] if points else 0.0,
        "precision": points[-1][0] if points else 0.0,
    }
    if pairs:
        report["translation_error"] = evaluation.translation_error_stats(
            [(predictions[i][0], gts[j]) for i, j in pairs]).as_dict()
    return report, len(hyps)


def _evaluate(triple, tally, speed, times, reports):
    tally.attempted["scene"] += 1
    started = speed.clock()
    try:
        report, n_hyp = evaluate_files(*triple)
    except Exception as exc:
        tally.fail("scene", 1, f"{triple[0].name}: evaluation raised {exc!r}")
        return
    speed.add(times, started)
    problem = check_report(report, n_hyp)
    digest = _digest(json.dumps(report, sort_keys=True))
    if problem is None and not tally.same_as_first(f"evaluate.{triple[0].name}", digest):
        problem = "report differs from the first pass"
    if problem:
        tally.fail("scene", 1, f"{triple[0].name}: {problem}")
    reports.append(report)


def run_pass(inputs, tally, clock, count):
    """Train, track and evaluate once over the inputs, adding to ``tally``.
    Every time goes through ``clock.speed`` (see speed.py)."""
    first = not tally.frame_s
    speed = clock.speed
    epoch_s = {route.name: [] for route in inputs.routes}
    for route in inputs.routes:
        _train(route, tally, first, speed, epoch_s[route.name])
    tally.epoch_s.append(epoch_s)
    clock.times = []
    tracked = [_track(sc, path, inputs.params, tally, count) for sc, path in inputs.scenes]
    tally.frame_s.append(clock.times)
    triples = inputs.synthetic if inputs.synthetic is not None else tracked
    times, reports = [], []
    for triple in triples:
        if triple is None:
            tally.attempted["scene"] += 1
            tally.fail("scene", 1, "no tracker output to evaluate")
            continue
        _evaluate(triple, tally, speed, times, reports)
    tally.scene_s.append(times)
    if first and reports:
        tally.quality["mota"] = float(np.mean([r["mot"]["mota"] for r in reports]))
        tally.quality["geo_recall"] = float(np.mean([r["recall"] for r in reports]))
        tally.quality["geo_precision"] = float(np.mean([r["precision"] for r in reports]))


def _per_item(per_pass):
    """Each item's median time over the passes. Items line up across passes
    because every pass runs the same inputs in the same order."""
    if len({len(times) for times in per_pass}) == 1:
        return np.median(np.array(per_pass), axis=0)
    return np.concatenate(per_pass)  # a failed pass broke the alignment


def timings(tally, passes):
    """End-to-end timing figures over the given pass indices."""
    frames = _per_item([tally.frame_s[p] for p in passes]) * 1e3
    scenes = _per_item([tally.scene_s[p] for p in passes]) * 1e3

    def epoch(route):
        values = [tally.epoch_s[p][route] for p in passes]
        return float(np.median(values)) if all(values) else float("nan")

    def pct(values, q):
        return float(np.percentile(values, q)) if len(values) else float("nan")

    return {
        "frame_ms_p50": pct(frames, 50), "frame_ms_p90": pct(frames, 90),
        "obs_epoch_s": epoch("obs"), "pose_epoch_s": epoch("pose"),
        "eval_scene_ms_p50": pct(scenes, 50), "eval_scene_ms_p90": pct(scenes, 90),
    }


def digest_summary(tally):
    """One digest per output kind, over the first pass's outputs."""
    out = {}
    for kind in ("train", "track", "evaluate"):
        keys = sorted(k for k in tally.digests if k.startswith(kind + "."))
        out[kind] = _digest(*(f"{k}={tally.digests[k]}" for k in keys))
    return out
