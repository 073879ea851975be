"""Command-line front end.

Subcommands: simulate, dataset, train, track, evaluate, plot. Every command
accepts --seed / --config / --out and drops a ``manifest.json`` next to its
outputs with the resolved configuration, so any run can be reproduced from
the manifest alone. The manifest also records the environment (Python,
numpy, BLAS, CPU count) that tracking's output bits rest on.

Exit codes: 0 success, 2 usage or configuration error, 3 data error
(unparseable or invariant-breaking input), 4 internal error.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, GeotrackError
from .evaluation import (
    GeoCriterion,
    _pr_points,
    greedy_match,
    mot_metrics,
    pr_curve_svg,
    translation_error_stats,
)
from .geometry import WORLD, Pose5D
from .matching import (
    MAX_COUNT,
    Matcher,
    MatcherConfig,
    check_detections,
    load_checkpoint,
    save_checkpoint,
    train_matcher,
)
from .numerics import array_from_doc, is_number
from .scene import (
    atomic_write_text,
    gt_mot_entries,
    load_scene,
    read_mot,
    save_scene,
    write_mot,
)
from .simulator import SimConfig, generate_scene, make_matching_dataset, world_objects
from .tracker import geolocation_report, track_scene

USAGE_ERROR = 2
DATA_ERROR = 3
INTERNAL_ERROR = 4


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: configuration must be a JSON object")
    return doc


def _read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: {exc.msg} (line {exc.lineno})")
    except OSError as exc:
        raise DataError(f"{path}: {exc}")


def _read_json_object(path):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise DataError(f"{path}: must be a JSON object")
    return doc


def _object_list(value, name):
    """``value`` as a list of JSON objects; DataError naming ``name`` otherwise."""
    if not isinstance(value, list):
        raise DataError(f"{name} must be a list")
    for i, row in enumerate(value):
        if not isinstance(row, dict):
            raise DataError(f"{name}[{i}] must be a JSON object")
    return value


def _number(row, key, where):
    """``row[key]`` as a float: a finite JSON number, not true or false."""
    if not is_number(row.get(key)):
        raise DataError(f"{where}.{key} must be a finite number")
    return float(row[key])


def _blas_kernel():
    """The kernel numpy's bundled OpenBLAS runs. A ``DYNAMIC_ARCH`` build
    picks it from the CPU when it loads, so the build's configuration line
    names only its baseline. None when numpy bundles no such library, or
    the library cannot say."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            return None
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = corename()
        return name.decode() if name else None
    return None


def _environment():
    """What output bits rest on besides the inputs: tracking multiplies
    through BLAS gemm, whose rows are bit-stable only per BLAS kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints, returns nothing
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "kernel": _blas_kernel()},
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_dir, command, config, seed, inputs, outputs, started):
    manifest = {
        "command": command,
        "config": config,
        "environment": _environment(),
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
    }
    atomic_write_text(
        Path(out_dir) / "manifest.json",
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands ------------------------------------------------------------------


def cmd_simulate(args):
    started = time.time()
    if not 1 <= args.scenes <= MAX_COUNT:
        raise ConfigError(f"--scenes must lie in [1, {MAX_COUNT}], got {args.scenes}")
    doc = _load_config_file(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    for name in ("n_frames", "n_objects"):
        value = getattr(args, name)
        if value is not None:
            doc[name] = value
    base = SimConfig.from_dict(doc)
    # a run that fails leaves no output: --out is made once the first scene
    # exists, and a later failure removes the files and directories made
    out = Path(args.out)
    new_dirs = [d for d in (out, *out.parents) if not d.exists()]
    outputs = []
    try:
        for i in range(args.scenes):
            config = SimConfig.from_dict({**base.as_dict(), "seed": base.seed + i})
            scene = generate_scene(config, scene_id=f"scene-{config.seed:08d}")
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{scene.scene_id}.json"
            save_scene(scene, path)
            outputs.append(path)
        _write_manifest(out, "simulate", base.as_dict(), base.seed,
                        [args.config] if args.config else [], outputs, started)
    except BaseException:
        for path in outputs:
            path.unlink(missing_ok=True)
        for d in new_dirs:  # deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    print(f"wrote {len(outputs)} scene(s) to {out}")
    return 0


def cmd_dataset(args):
    started = time.time()
    scene_paths = sorted(Path(args.scenes).glob("*.json"))
    scene_paths = [p for p in scene_paths if p.name != "manifest.json"]
    if not scene_paths:
        raise ConfigError(f"no scene files under {args.scenes}")
    seed = args.seed if args.seed is not None else 0
    for flag, value in (("--n-max", args.n_max), ("--pairs-per-scene", args.pairs_per_scene)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    if args.pairs_per_scene > MAX_COUNT:
        raise ConfigError(f"--pairs-per-scene must be <= {MAX_COUNT}, "
                          f"got {args.pairs_per_scene}")
    out = _out_dir(args)
    doc = {
        "format": 1,
        "scenes": [str(p) for p in scene_paths],
        "n_max": args.n_max,
        "pairs_per_scene": args.pairs_per_scene,
        "seed": seed,
    }
    index = out / "pairs.json"
    atomic_write_text(index, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _write_manifest(out, "dataset", doc, seed, scene_paths, [index], started)
    print(f"indexed {len(scene_paths)} scene(s) into {index}")
    return 0


def _load_dataset(index_path, capacity):
    """The checked ``pairs.json`` document and its scenes; a field that does
    not fit raises DataError naming it."""
    doc = _read_json_object(index_path)
    if type(doc.get("format")) is not int or doc["format"] != 1:
        raise DataError(f"unsupported dataset format {doc.get('format')!r}")
    paths = doc.get("scenes")
    if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
        raise DataError("dataset scenes must be a list of file paths")
    for name, low in (("n_max", 1), ("pairs_per_scene", 1), ("seed", 0)):
        if type(doc.get(name)) is not int or doc[name] < low:
            raise DataError(f"dataset {name} must be an integer >= {low}")
    if doc["pairs_per_scene"] > MAX_COUNT:
        raise DataError(f"dataset pairs_per_scene must be <= {MAX_COUNT}")
    return doc, [load_scene(p, capacity) for p in paths]


def cmd_train(args):
    started = time.time()
    overrides = {key: value for key, value in (
        ("seed", args.seed), ("epochs", args.epochs), ("lam", args.lam))
        if value is not None}
    if args.resume:
        if args.config:
            raise ConfigError("--config cannot be combined with --resume: "
                              "the checkpoint fixes the configuration")
        params = load_checkpoint(args.resume)
        # The resumed forward pass reads lam from params.config.
        params.config = config = replace(params.config, **overrides)
    else:
        params = None
        config = MatcherConfig.from_dict({**_load_config_file(args.config), **overrides})
    out = _out_dir(args)
    doc, scenes = _load_dataset(args.dataset, config.capacity)
    # every detection, not only those of the frames the pairs draw: data
    # that train accepts, track accepts too
    for scene in scenes:
        for frame in scene.frames:
            check_detections(frame.detections, config)
    samples = make_matching_dataset(
        scenes, doc["n_max"], doc["pairs_per_scene"], doc["seed"]
    )
    params, history = train_matcher(samples, config, params=params)
    ckpt = out / "checkpoint.json"
    save_checkpoint(params, ckpt)
    metrics = out / "metrics.csv"
    lines = ["epoch,affinity_loss,pose_loss,accuracy"]
    for row in history:
        lines.append(
            f"{row.epoch},{row.affinity!r},{row.pose!r},{row.accuracy!r}"
        )
    atomic_write_text(metrics, "\n".join(lines) + "\n")
    _write_manifest(out, "train", asdict(config), config.seed,
                    [args.dataset], [ckpt, metrics], started)
    print(
        f"trained {len(history)} epoch(s); final affinity loss "
        f"{history[-1].affinity:.4f}, accuracy {history[-1].accuracy:.3f}"
    )
    return 0


def cmd_track(args):
    started = time.time()
    if args.min_instances < 1:
        raise ConfigError(f"--min-instances must be >= 1, got {args.min_instances}")
    params = load_checkpoint(args.checkpoint)
    scene = load_scene(args.scene, params.config.capacity)
    state, entries = track_scene(scene, Matcher(params))
    out = _out_dir(args)
    hyp_path = out / f"{scene.scene_id}.hyp.txt"
    write_mot(entries, hyp_path)
    geo_path = out / f"{scene.scene_id}.geo.json"
    report = geolocation_report(state, min_instances=args.min_instances)
    atomic_write_text(geo_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_manifest(out, "track", {"min_instances": args.min_instances},
                    args.seed, [args.scene, args.checkpoint],
                    [hyp_path, geo_path], started)
    print(f"tracked {len(scene.frames)} frame(s); "
          f"{len(report['objects'])} geo-located object(s)")
    return 0


def _criterion_from_args(args):
    try:
        semi = tuple(float(x) for x in args.semi_axes.split(","))
    except ValueError as exc:
        raise ConfigError(f"--semi-axes: {exc}") from exc
    if len(semi) != 3:
        raise ConfigError("--semi-axes needs three comma-separated values")
    return GeoCriterion(
        kind=args.criterion,
        radius=args.radius,
        limit=args.limit,
        semi_axes=semi,
        rotation_gate_deg=args.rotation_gate,
    )


def _read_predictions(path):
    """(world pose, instance count) of each object in a geolocation JSON."""
    objects = _object_list(_read_json_object(path).get("objects"), "objects")
    predictions = []
    for i, obj in enumerate(objects):
        where = f"objects[{i}]"
        translation = array_from_doc(obj.get("translation"), f"{where}.translation", (3,))
        rotation = array_from_doc(obj.get("rotation"), f"{where}.rotation", (2,))
        try:
            pose = Pose5D(translation, rotation, WORLD)
        except DataError as exc:
            raise DataError(f"{where}.rotation: {exc}") from exc
        predictions.append((pose, _number(obj, "instances", where)))
    return predictions


def cmd_evaluate(args):
    started = time.time()
    criterion = _criterion_from_args(args)
    if not 0 < args.iou <= 1:  # NaN fails too
        raise ConfigError(f"--iou must lie in (0, 1], got {args.iou}")
    scene = load_scene(args.scene)
    gt_entries = gt_mot_entries(scene)
    report = {}
    inputs = [args.scene]
    points = []
    if args.tracks:
        hyp_entries = read_mot(args.tracks)
        mot = mot_metrics(gt_entries, hyp_entries, iou_threshold=args.iou)
        report["mot"] = mot.as_dict()
        inputs.append(args.tracks)
    if args.geoloc:
        predictions = _read_predictions(args.geoloc)
        gts = list(world_objects(scene).values())
        tp_flags, pairs, order = greedy_match(predictions, gts, criterion)
        points = _pr_points(predictions, len(gts), tp_flags, order)
        report["pr"] = [
            {"precision": p, "recall": r, "threshold": t} for p, r, t in points
        ]
        report["recall"] = points[-1][1] if points else 0.0
        report["precision"] = points[-1][0] if points else 0.0
        if pairs:
            te = translation_error_stats(
                [(predictions[i][0], gts[j]) for i, j in pairs]
            )
            report["translation_error"] = te.as_dict()
        inputs.append(args.geoloc)
    out = _out_dir(args)
    report_path = out / "report.json"
    atomic_write_text(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    csv_path = out / "report.csv"
    csv_lines = ["metric,value"]
    for key, value in sorted(report.items()):
        if isinstance(value, (int, float)):
            csv_lines.append(f"{key},{value!r}")
        elif key == "mot":
            csv_lines.extend(f"mot.{k},{v!r}" for k, v in sorted(value.items()))
        elif key == "translation_error":
            for stat in ("mean", "median", "std"):
                for axis, v in zip("xyz", value[stat]):
                    csv_lines.append(f"te.{stat}.{axis},{v!r}")
    atomic_write_text(csv_path, "\n".join(csv_lines) + "\n")
    outputs = [report_path, csv_path]
    _write_manifest(out, "evaluate", {"criterion": args.criterion,
                                      "radius": args.radius,
                                      "limit": args.limit,
                                      "semi_axes": args.semi_axes,
                                      "rotation_gate": args.rotation_gate,
                                      "iou": args.iou},
                    args.seed, inputs, outputs, started)
    print(f"wrote {report_path}")
    return 0


def cmd_plot(args):
    started = time.time()
    out = _out_dir(args)
    rows = _object_list(_read_json_object(args.report).get("pr", []), "pr")
    points = []
    for i, row in enumerate(rows):
        p, r, t = (_number(row, key, f"pr[{i}]")
                   for key in ("precision", "recall", "threshold"))
        if not (0.0 <= p <= 1.0 and 0.0 <= r <= 1.0):
            raise DataError(f"pr[{i}]: precision and recall must lie in [0, 1]")
        points.append((p, r, t))
    svg_path = out / "pr_curve.svg"
    atomic_write_text(svg_path, pr_curve_svg(points))
    _write_manifest(out, "plot", {}, args.seed, [args.report], [svg_path], started)
    print(f"wrote {svg_path}")
    return 0


# --- parser ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured random seed")
    common.add_argument("--config", default=None,
                        help="JSON configuration file")
    common.add_argument("--out", default="out",
                        help="output directory (created if missing)")

    parser = argparse.ArgumentParser(
        prog="geotrack",
        description="Static-object geo-localization pipeline: simulate, train, "
                    "track, evaluate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate synthetic geo-located scenes")
    p.add_argument("--scenes", type=int, default=1, help="number of scenes")
    p.add_argument("--n-frames", dest="n_frames", type=int, default=None)
    p.add_argument("--n-objects", dest="n_objects", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dataset", parents=[common],
                       help="index scenes into a matching-pair dataset")
    p.add_argument("--scenes", required=True, help="directory of scene JSON files")
    p.add_argument("--n-max", dest="n_max", type=int, default=35,
                   help="maximum frame separation of a pair")
    p.add_argument("--pairs-per-scene", dest="pairs_per_scene", type=int, default=32)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", parents=[common], help="train the object matcher")
    p.add_argument("--dataset", required=True, help="pairs.json from `dataset`")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="pose-loss weight (0 disables the pose contribution)")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", parents=[common], help="track one scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--min-instances", dest="min_instances", type=int, default=2)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score tracking and geo-localization outputs")
    p.add_argument("--scene", required=True, help="scene JSON with ground truth")
    p.add_argument("--tracks", default=None, help="hypothesis tracking CSV")
    p.add_argument("--geoloc", default=None, help="geolocation JSON from `track`")
    p.add_argument("--criterion", choices=("euclidean", "mahalanobis"),
                   default="euclidean")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--limit", type=float, default=3.0)
    p.add_argument("--semi-axes", dest="semi_axes", default="0.4,0.39,3.84")
    p.add_argument("--rotation-gate", dest="rotation_gate", type=float, default=None)
    p.add_argument("--iou", type=float, default=0.5)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", parents=[common],
                       help="render a PR report as a standalone SVG")
    p.add_argument("--report", required=True, help="report.json from `evaluate`")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except GeotrackError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
