import argparse
import ast
import copy
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack import cli, matching, tracker
from geotrack.errors import (
    ConfigError,
    DataError,
    GeotrackError,
    NonFiniteLossError,
    NonPositiveDepthError,
    ZeroVectorError,
)
from geotrack.matching import MatcherConfig, save_checkpoint, train_matcher
from geotrack.scene import gt_mot_entries, load_scene, save_scene, write_mot
from geotrack.simulator import SimConfig, generate_scene, make_matching_dataset
from helpers import _kind, mutate_one_value

SRC = str(Path(__file__).resolve().parent.parent / "src")
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "geotrack.cli", *[str(a) for a in args]],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


SIM_ARGS = ["--n-frames", "16", "--n-objects", "3"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> dataset -> train once; reused by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    scenes = root / "scenes"
    sim_config = root / "sim.json"
    sim_config.write_text(json.dumps({
        "appearance_dim": 8, "n_objects": 4, "n_frames": 16,
        "appearance_sigma": 0.1, "center_sigma_px": 1.0,
        "depth_rel_sigma": 0.02,
    }))
    r = run_cli("simulate", "--config", sim_config, "--seed", "100",
                "--scenes", "6", "--out", scenes)
    assert r.returncode == 0, r.stderr
    dataset = root / "dataset"
    r = run_cli("dataset", "--scenes", scenes, "--out", dataset,
                "--n-max", "10", "--pairs-per-scene", "12", "--seed", "0")
    assert r.returncode == 0, r.stderr
    train_config = root / "matcher.json"
    train_config.write_text(json.dumps({
        "appearance_dim": 8, "epochs": 12,
        "scorer_hidden": [24, 16, 12, 8, 6],
    }))
    model = root / "model"
    r = run_cli("train", "--dataset", dataset / "pairs.json",
                "--config", train_config, "--seed", "1", "--out", model)
    assert r.returncode == 0, r.stderr
    return {"root": root, "scenes": scenes, "dataset": dataset,
            "model": model, "sim_config": sim_config,
            "train_config": train_config}


class TestSimulate:
    def test_writes_scene_and_manifest(self, pipeline):
        files = sorted(p.name for p in pipeline["scenes"].glob("*.json"))
        assert "manifest.json" in files
        assert sum(n.startswith("scene-") for n in files) == 6
        manifest = json.loads((pipeline["scenes"] / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 100
        assert manifest["outputs"]

    def test_manifest_records_environment(self, pipeline):
        """Tracking bits rest on the BLAS kernel, so every manifest names it."""
        for out in (pipeline["scenes"], pipeline["dataset"], pipeline["model"]):
            env = json.loads((out / "manifest.json").read_text())["environment"]
            assert set(env) == {"python", "numpy", "blas", "cpu_count"}
            assert env["python"] == ".".join(map(str, sys.version_info[:3]))
            assert env["numpy"] == np.__version__
            assert set(env["blas"]) == {"name", "version", "config"}
            assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1

    def test_seed_repetition_identical(self, pipeline, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            r = run_cli("simulate", "--config", pipeline["sim_config"],
                        "--seed", "55", "--out", out)
            assert r.returncode == 0
        names = [p.name for p in out1.glob("scene-*.json")]
        assert names
        for name in names:
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_reproducible_from_manifest(self, pipeline, tmp_path):
        manifest = json.loads((pipeline["scenes"] / "manifest.json").read_text())
        config = tmp_path / "resim.json"
        config.write_text(json.dumps(manifest["config"]))
        out = tmp_path / "resim"
        r = run_cli("simulate", "--config", config, "--scenes", "6",
                    "--out", out)
        assert r.returncode == 0
        for path in pipeline["scenes"].glob("scene-*.json"):
            assert (out / path.name).read_text() == path.read_text()

    def test_invalid_sigma_exits_2_and_names_field(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"center_sigma_px": -2.0}))
        r = run_cli("simulate", "--config", config, "--out", tmp_path / "o")
        assert r.returncode == 2
        assert "center_sigma_px" in r.stderr

    def test_short_range_exits_2_and_names_field(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"lateral_range": [1.0]}))
        r = run_cli("simulate", "--config", config, "--out", tmp_path / "o")
        assert r.returncode == 2
        assert "lateral_range" in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, named", [
        ({"frame_rate": 0}, "frame_rate"), ({"frame_rate": -2}, "frame_rate"),
        ({"focal": 0}, "focal"), ({"image_width": -5}, "image_width"),
        ({"image_height": 0}, "image_height"),
        ({"visibility_max_range": 0}, "visibility_max_range"),
        ({"capacity": 0}, "capacity"),
        ({"appearance_dim": -1}, "appearance_dim"),
        ({"appearance_dim": 10 ** 12}, "appearance_dim"),
        ({"feature_map_size": [-1, 3], "emit_feature_maps": True}, "feature_map_size"),
        ({"embed_dim": -2, "emit_feature_maps": True}, "embed_dim"),
        ({"embed_dim": 10 ** 9, "emit_feature_maps": True}, "feature map"),
        # a range whose width overflows, a camera path past the float range
        ({"height_range": [1e308, -1e308]}, "height_range"),
        ({"speed": 1e308, "n_frames": 40}, "speed"),
        ({"trajectory": "turn", "speed": 1e308, "turn_rate_deg": 1e-9}, "speed"),
        # an object's height seen from the camera overflows
        ({"camera_height": -1.7e308, "height_range": [1.7e308, 1.75e308]}, "camera_height"),
        ({"camera_height": 1.7e308, "height_range": [-1.75e308, -1.7e308]}, "height_range"),
        # a false positive's depth is drawn from depth_range
        ({"depth_range": [-5, 5], "fp_rate": 1.0, "n_frames": 6}, "depth_range"),
        ({"depth_range": [5, 0], "fp_rate": 0.1, "n_frames": 6}, "depth_range"),
        ({"n_frames": 3, "facing_jitter_deg": -5}, "facing_jitter_deg"),
    ])
    def test_out_of_range_config_exits_2(self, tmp_path, doc, named):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        r = run_cli("simulate", "--config", config, "--out", tmp_path / "o")
        assert r.returncode == 2, r.stderr
        assert named in r.stderr
        assert not (tmp_path / "o").exists()

    def test_negative_zero_facing_jitter_draws_as_zero(self, tmp_path):
        """-0.0 draws the facings 0.0 draws: the scene files are equal."""
        scenes = []
        for jitter in ("-0.0", "0.0"):
            config = tmp_path / f"sim{jitter}.json"
            config.write_text(f'{{"n_frames": 3, "facing_jitter_deg": {jitter}}}')
            r = run_cli("simulate", "--config", config, "--out", tmp_path / f"o{jitter}")
            assert r.returncode == 0, r.stderr
            scenes.append((tmp_path / f"o{jitter}" / "scene-00000000.json").read_bytes())
        assert scenes[0] == scenes[1]

    def test_depth_range_through_zero_without_false_positives(self, tmp_path):
        # only false positives draw from depth_range; objects behind the
        # camera are simply never seen
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"depth_range": [-5, 5], "fp_rate": 0.0, "n_frames": 6}))
        r = run_cli("simulate", "--config", config, "--out", tmp_path / "o")
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("doc", [
        {"depth_rel_sigma": 1e308},
        {"bbox_jitter_px": 1e308},
        {"appearance_sigma": 1e308},
        {"feature_sigma": 1e308, "emit_feature_maps": True},
        {"rotation_sigma_deg": 1e308},
        {"facing_jitter_deg": 1e308},
    ], ids=lambda doc: next(iter(doc)))
    def test_noise_past_the_float_range_exits_2(self, tmp_path, doc):
        """A noise scale that draws an infinite value names its field; no
        scene file holds Infinity."""
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({**doc, "n_frames": 6, "n_objects": 40}))
        r = run_cli("simulate", "--config", config, "--out", tmp_path / "o")
        assert r.returncode == 2, r.stderr
        assert next(iter(doc)) in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_later_scene_failure_removes_what_the_run_made(self, tmp_path, monkeypatch,
                                                           existing):
        """A scene after the first that raises leaves neither scene files nor
        directories this run made; an --out that existed keeps its own files."""
        out = tmp_path / "a" / "o"
        if existing:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        made = []

        def generate(config, scene_id=None):
            if made:
                raise ConfigError("appearance_sigma draws noise past the float range")
            made.append(scene_id)
            return generate_scene(config, scene_id=scene_id)

        monkeypatch.setattr(cli, "generate_scene", generate)
        code = cli.main(["simulate", *SIM_ARGS, "--scenes", "3", "--out", str(out)])
        assert code == 2
        assert made == ["scene-00000000"]
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_scenes_below_one_exits_2(self, tmp_path, count):
        r = run_cli("simulate", "--scenes", count, "--out", tmp_path / "o")
        assert r.returncode == 2, r.stderr
        assert "--scenes" in r.stderr
        assert not (tmp_path / "o").exists()

    def test_unknown_command_exits_2(self):
        assert run_cli("frobnicate").returncode == 2


class TestTrain:
    def test_outputs(self, pipeline):
        model = pipeline["model"]
        assert (model / "checkpoint.json").exists()
        lines = (model / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,affinity_loss,pose_loss,accuracy"
        assert len(lines) == 13
        losses = [float(row.split(",")[1]) for row in lines[1:]]
        assert losses[-1] < losses[0]

    def test_metrics_fields_are_plain_numbers(self, pipeline):
        # a numpy scalar's repr (np.float64(0.5)) would not parse
        lines = (pipeline["model"] / "metrics.csv").read_text().strip().splitlines()
        for row in lines[1:]:
            assert [float(field) for field in row.split(",")]

    def test_resume_continues_epochs(self, pipeline, tmp_path):
        out = tmp_path / "resumed"
        r = run_cli("train", "--dataset", pipeline["dataset"] / "pairs.json",
                    "--resume", pipeline["model"] / "checkpoint.json",
                    "--epochs", "2", "--out", out)
        assert r.returncode == 0, r.stderr
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["12", "13"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2

    def test_resume_with_config_exits_2(self, pipeline, tmp_path):
        r = run_cli("train", "--dataset", pipeline["dataset"] / "pairs.json",
                    "--resume", pipeline["model"] / "checkpoint.json",
                    "--config", pipeline["train_config"], "--out", tmp_path / "o")
        assert r.returncode == 2
        assert "--resume" in r.stderr

    def test_lambda_zero_flag_accepted(self, pipeline, tmp_path):
        r = run_cli("train", "--dataset", pipeline["dataset"] / "pairs.json",
                    "--config", pipeline["train_config"], "--epochs", "1",
                    "--lambda", "0", "--seed", "1", "--out", tmp_path / "lz")
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("doc, named", [
        ({"appearance_dim": 8, "bogus": 1}, "bogus"),
        ({"appearance_dim": 8, "epochs": "2"}, "epochs"),
        ([8], "JSON object"),
        ({"appearance_dim": 8, "use_pose_head": True, "center_scale": [1600.0]},
         "center_scale"),
    ])
    def test_bad_config_exits_2(self, pipeline, tmp_path, doc, named):
        config = tmp_path / "matcher.json"
        config.write_text(json.dumps(doc))
        r = run_cli("train", "--dataset", pipeline["dataset"] / "pairs.json",
                    "--config", config, "--out", tmp_path / "o")
        assert r.returncode == 2, r.stderr
        assert named in r.stderr

    def test_missing_dataset_exits_3(self, tmp_path):
        r = run_cli("train", "--dataset", tmp_path / "nope.json",
                    "--out", tmp_path / "o")
        assert r.returncode == 3

    def test_duplicate_gt_id_in_earlier_frame_exits_3(self, tmp_path):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"appearance_dim": 8, "n_objects": 4, "n_frames": 2,
                                   "lateral_range": [-4, 4], "depth_range": [20, 40]}))
        scenes = tmp_path / "scenes"
        assert run_cli("simulate", "--config", sim, "--seed", "3",
                       "--out", scenes).returncode == 0
        path = next(scenes.glob("scene-*.json"))
        doc = json.loads(path.read_text())
        earlier, later = (f["detections"] for f in doc["frames"])
        assert len(earlier) >= 2 and earlier[0]["gt_id"] in {d["gt_id"] for d in later}
        earlier[1]["gt_id"] = earlier[0]["gt_id"]
        path.write_text(json.dumps(doc))
        assert run_cli("dataset", "--scenes", scenes, "--n-max", "1",
                       "--pairs-per-scene", "1", "--out", tmp_path / "ds").returncode == 0
        config = tmp_path / "matcher.json"
        config.write_text(json.dumps({"appearance_dim": 8, "epochs": 1}))
        r = run_cli("train", "--dataset", tmp_path / "ds" / "pairs.json",
                    "--config", config, "--out", tmp_path / "model")
        assert r.returncode == 3, r.stderr
        assert "duplicate ground-truth id" in r.stderr

    @staticmethod
    def overflowing_dataset(tmp_path):
        """A four-frame dataset and a one-epoch config; returns (pairs.json,
        config, scene doc, scene path). The caller writes the scene."""
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"appearance_dim": 8, "n_objects": 4, "n_frames": 4}))
        scenes = tmp_path / "scenes"
        assert run_cli("simulate", "--config", sim, "--seed", "3",
                       "--out", scenes).returncode == 0
        path = next(scenes.glob("scene-*.json"))
        assert run_cli("dataset", "--scenes", scenes, "--n-max", "2",
                       "--pairs-per-scene", "4", "--out", tmp_path / "ds").returncode == 0
        config = tmp_path / "matcher.json"
        config.write_text(json.dumps({"appearance_dim": 8, "epochs": 1}))
        return tmp_path / "ds" / "pairs.json", config, json.loads(path.read_text()), path

    def test_overflowing_appearance_exits_3(self, tmp_path):
        """An appearance value near the float limit is bad data for training
        too, as it is for tracking."""
        dataset, config, doc, path = self.overflowing_dataset(tmp_path)
        doc["frames"][0]["detections"][0]["appearance"][0] = 1e308
        path.write_text(json.dumps(doc))
        r = run_cli("train", "--dataset", dataset, "--config", config,
                    "--out", tmp_path / "model")
        assert r.returncode == 3, r.stderr
        assert "overflow the input standardization" in r.stderr

    def test_resume_on_overflowing_appearance_exits_3(self, tmp_path):
        """A resumed run keeps the checkpoint's standardization but checks the
        data as a fresh run does: bad data, not a diverging loss (exit 4)."""
        dataset, config, doc, path = self.overflowing_dataset(tmp_path)
        assert run_cli("train", "--dataset", dataset, "--config", config,
                       "--out", tmp_path / "model").returncode == 0
        doc["frames"][0]["detections"][0]["appearance"][0] = 1e308
        path.write_text(json.dumps(doc))
        r = run_cli("train", "--dataset", dataset, "--resume",
                    tmp_path / "model" / "checkpoint.json", "--out", tmp_path / "resumed")
        assert r.returncode == 3, r.stderr
        assert "overflow the input standardization" in r.stderr


@pytest.fixture(scope="module")
def over_capacity(tmp_path_factory):
    """A dataset of scenes with 12 visible objects, more than a capacity of 5."""
    root = tmp_path_factory.mktemp("capacity")
    sim = root / "sim.json"
    sim.write_text(json.dumps({"appearance_dim": 8, "n_objects": 12, "n_frames": 6,
                               "lateral_range": [-6, 6], "depth_range": [20, 50]}))
    scenes = root / "scenes"
    assert run_cli("simulate", "--config", sim, "--seed", "7", "--scenes", "2",
                   "--out", scenes).returncode == 0
    scene = sorted(scenes.glob("scene-*.json"))[0]
    assert max(len(f["detections"])
               for f in json.loads(scene.read_text())["frames"]) > 5
    assert run_cli("dataset", "--scenes", scenes, "--n-max", "3",
                   "--pairs-per-scene", "4", "--out", root / "ds").returncode == 0
    return {"root": root, "scene": scene, "dataset": root / "ds" / "pairs.json"}


class TestCapacity:
    WARNING = "exceed capacity 5; keeping the top-5 by confidence"

    def test_train_keeps_top_detections_with_warning(self, over_capacity, tmp_path):
        config = tmp_path / "matcher.json"
        config.write_text(json.dumps({"appearance_dim": 8, "capacity": 5, "epochs": 1,
                                      "scorer_hidden": [8, 8, 6, 4, 4]}))
        r = run_cli("train", "--dataset", over_capacity["dataset"],
                    "--config", config, "--out", tmp_path / "model")
        assert r.returncode == 0, r.stderr
        assert self.WARNING in r.stderr

    def test_track_keeps_top_detections_with_warning(self, pipeline, over_capacity,
                                                     tmp_path):
        doc = json.loads((pipeline["model"] / "checkpoint.json").read_text())
        doc["config"]["capacity"] = 5
        checkpoint = tmp_path / "capacity-5.json"
        checkpoint.write_text(json.dumps(doc))
        r = run_cli("track", "--scene", over_capacity["scene"],
                    "--checkpoint", checkpoint, "--out", tmp_path / "tracked")
        assert r.returncode == 0, r.stderr
        assert self.WARNING in r.stderr


@pytest.fixture(scope="module")
def tracked(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("tracked")
    scene = sorted(pipeline["scenes"].glob("scene-*.json"))[0]
    r = run_cli("track", "--scene", scene,
                "--checkpoint", pipeline["model"] / "checkpoint.json",
                "--out", out)
    assert r.returncode == 0, r.stderr
    scene_id = scene.stem
    return {"out": out, "scene": scene,
            "hyp": out / f"{scene_id}.hyp.txt",
            "geo": out / f"{scene_id}.geo.json"}


class TestTrackEvaluatePlot:
    def test_track_outputs(self, tracked):
        assert tracked["hyp"].exists()
        geo = json.loads(tracked["geo"].read_text())
        assert geo["objects"]
        line = tracked["hyp"].read_text().splitlines()[0]
        assert len(line.split(",")) == 10

    def test_track_reruns_byte_identical(self, pipeline, tracked, tmp_path):
        out = tmp_path / "again"
        r = run_cli("track", "--scene", tracked["scene"],
                    "--checkpoint", pipeline["model"] / "checkpoint.json",
                    "--out", out)
        assert r.returncode == 0
        assert (out / tracked["hyp"].name).read_text() == tracked["hyp"].read_text()
        assert (out / tracked["geo"].name).read_text() == tracked["geo"].read_text()

    def test_min_instances_honored(self, pipeline, tracked, tmp_path):
        out = tmp_path / "strict"
        r = run_cli("track", "--scene", tracked["scene"],
                    "--checkpoint", pipeline["model"] / "checkpoint.json",
                    "--min-instances", "100", "--out", out)
        assert r.returncode == 0
        geo = json.loads((out / tracked["geo"].name).read_text())
        assert geo["objects"] == []

    def test_missing_checkpoint_exits_2(self, pipeline, tracked, tmp_path):
        r = run_cli("track", "--scene", tracked["scene"],
                    "--checkpoint", tmp_path / "missing.json",
                    "--out", tmp_path / "o")
        assert r.returncode == 2

    def test_corrupt_checkpoint_exits_3(self, pipeline, tracked, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        r = run_cli("track", "--scene", tracked["scene"],
                    "--checkpoint", bad, "--out", tmp_path / "o")
        assert r.returncode == 3

    @staticmethod
    def track_mutated_checkpoint(pipeline, tracked, tmp_path, mutate):
        doc = json.loads((pipeline["model"] / "checkpoint.json").read_text())
        mutate(doc)
        checkpoint = tmp_path / "mutated.json"
        checkpoint.write_text(json.dumps(doc))
        return run_cli("track", "--scene", tracked["scene"],
                       "--checkpoint", checkpoint, "--out", tmp_path / "o")

    def test_unknown_checkpoint_config_key_exits_3(self, pipeline, tracked, tmp_path):
        r = self.track_mutated_checkpoint(pipeline, tracked, tmp_path,
                                          lambda doc: doc["config"].update(bogus=1))
        assert r.returncode == 3, r.stderr
        assert "bogus" in r.stderr

    @pytest.mark.parametrize("named, mutate", [
        ("score_space", lambda doc: doc["config"].update(score_space="probability")),
        ("scorer[0].act", lambda doc: doc["scorer"][0].update(act="tanh")),
        ("softmax_axis", lambda doc: doc["config"].update(softmax_axis="literal")),
        ("pooling", lambda doc: doc["config"].update(pooling="weighted")),
        ("delta", lambda doc: doc["config"].update(delta=1e308)),
        ("delta", lambda doc: doc["config"].update(delta=-750.0)),
    ])
    def test_retired_checkpoint_value_exits_3(self, pipeline, tracked, tmp_path, named,
                                              mutate):
        r = self.track_mutated_checkpoint(pipeline, tracked, tmp_path, mutate)
        assert r.returncode == 3, r.stderr
        assert named in r.stderr

    @pytest.mark.parametrize("field, where", [
        ("input_scale", lambda doc: doc["input_scale"]),
        ("input_shift", lambda doc: doc["input_shift"]),
        ("scorer[0].w", lambda doc: doc["scorer"][0]["w"][0]),
        ("scorer[5].b", lambda doc: doc["scorer"][5]["b"]),
    ])
    def test_non_finite_checkpoint_exits_3(self, pipeline, tracked, tmp_path,
                                           field, where):
        def mutate(doc):
            where(doc)[0] = float("nan")

        r = self.track_mutated_checkpoint(pipeline, tracked, tmp_path, mutate)
        assert r.returncode == 3, r.stderr
        assert f"checkpoint {field} must be finite" in r.stderr

    def test_track_nan_appearance_exits_3(self, pipeline, tracked, tmp_path):
        doc = json.loads(tracked["scene"].read_text())
        doc["frames"][0]["detections"][0]["appearance"][0] = float("nan")
        scene = tmp_path / tracked["scene"].name
        scene.write_text(json.dumps(doc))
        r = run_cli("track", "--scene", scene,
                    "--checkpoint", pipeline["model"] / "checkpoint.json",
                    "--out", tmp_path / "o")
        assert r.returncode == 3, r.stderr
        assert "frames[0].detections[0]: appearance must be finite" in r.stderr

    def test_evaluate_nan_hypothesis_exits_3(self, pipeline, tmp_path):
        from geotrack.scene import gt_mot_entries, load_scene, mot_to_csv

        scene_path = sorted(pipeline["scenes"].glob("scene-*.json"))[0]
        lines = mot_to_csv(gt_mot_entries(load_scene(scene_path))).splitlines()
        parts = lines[0].split(",")
        parts[2] = "nan"  # bb_left of the first box
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("\n".join([",".join(parts), *lines[1:]]) + "\n")
        r = run_cli("evaluate", "--scene", scene_path, "--tracks", hyp,
                    "--out", tmp_path / "eval")
        assert r.returncode == 3, r.stderr
        assert "line 1" in r.stderr

    def test_evaluate_repeated_hypothesis_id_exits_3(self, pipeline, tmp_path):
        from geotrack.scene import gt_mot_entries, load_scene, mot_to_csv

        scene_path = sorted(pipeline["scenes"].glob("scene-*.json"))[0]
        lines = mot_to_csv(gt_mot_entries(load_scene(scene_path))).splitlines()
        rows = [line.split(",") for line in lines]
        for parts in rows:
            parts[1] = "7"  # one id for every box
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(",".join(parts) + "\n" for parts in rows))
        r = run_cli("evaluate", "--scene", scene_path, "--tracks", hyp,
                    "--out", tmp_path / "eval")
        assert r.returncode == 3, r.stderr
        assert f"MOT frame {rows[0][0]}: hypothesis id 7 appears more than once" in r.stderr

    @pytest.mark.parametrize("flags, named", [
        (["--radius", "nan"], "radius"),
        (["--criterion", "mahalanobis", "--limit", "nan"], "limit"),
        (["--criterion", "mahalanobis", "--limit", "-1"], "limit"),
        (["--criterion", "mahalanobis", "--semi-axes", "nan,1,1"], "semi-axes"),
        (["--semi-axes", "x,1,1"], "semi-axes"),
        (["--rotation-gate", "nan"], "rotation gate"),
        (["--iou", "nan"], "iou"),
    ])
    def test_evaluate_out_of_range_gate_exits_2(self, tracked, tmp_path, flags, named):
        out = tmp_path / "eval"
        r = run_cli("evaluate", "--scene", tracked["scene"], "--tracks", tracked["hyp"],
                    "--geoloc", tracked["geo"], *flags, "--out", out)
        assert r.returncode == 2, r.stderr
        assert named in r.stderr
        assert not (out / "report.json").exists()

    def test_evaluate_and_plot(self, pipeline, tracked, tmp_path):
        out = tmp_path / "eval"
        r = run_cli("evaluate", "--scene", tracked["scene"],
                    "--tracks", tracked["hyp"], "--geoloc", tracked["geo"],
                    "--criterion", "mahalanobis",
                    "--semi-axes", "0.4,0.39,3.84", "--limit", "3",
                    "--out", out)
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert "mot" in report and "pr" in report
        assert report["mot"]["mota"] <= 1.0
        csv_text = (out / "report.csv").read_text()
        assert "mot.mota" in csv_text

        plot_out = tmp_path / "plot"
        r = run_cli("plot", "--report", out / "report.json", "--out", plot_out)
        assert r.returncode == 0, r.stderr
        svg = (plot_out / "pr_curve.svg").read_text()
        assert svg.count("<circle") == len(report["pr"])

    def test_zero_noise_scene_geolocation_matches_gt(self, pipeline, tmp_path):
        # a noise-free variant of a training-seed scene: the tracked
        # geolocation JSON must reproduce the ground-truth world poses
        from geotrack.scene import load_scene
        from geotrack.simulator import world_objects

        config = tmp_path / "clean.json"
        base = json.loads(pipeline["sim_config"].read_text())
        base.update({"appearance_sigma": 0.0, "center_sigma_px": 0.0,
                     "depth_rel_sigma": 0.0, "n_frames": 20})
        config.write_text(json.dumps(base))
        scenes_out = tmp_path / "clean_scenes"
        r = run_cli("simulate", "--config", config, "--seed", "100",
                    "--out", scenes_out)
        assert r.returncode == 0, r.stderr
        scene_path = next(scenes_out.glob("scene-*.json"))
        out = tmp_path / "clean_track"
        r = run_cli("track", "--scene", scene_path,
                    "--checkpoint", pipeline["model"] / "checkpoint.json",
                    "--out", out)
        assert r.returncode == 0, r.stderr
        geo = json.loads((out / f"{scene_path.stem}.geo.json").read_text())
        gt = world_objects(load_scene(scene_path))
        assert len(geo["objects"]) == len(gt)
        for obj in geo["objects"]:
            err = min(np.linalg.norm(np.array(obj["translation"]) - g.T)
                      for g in gt.values())
            assert err < 1e-6

    def test_evaluate_identical_tracks_perfect_mota(self, pipeline, tmp_path):
        # use the GT boxes themselves as hypotheses
        from geotrack.scene import gt_mot_entries, load_scene, write_mot

        scene_path = sorted(pipeline["scenes"].glob("scene-*.json"))[0]
        scene = load_scene(scene_path)
        hyp = tmp_path / "hyp.txt"
        write_mot(gt_mot_entries(scene), hyp)
        out = tmp_path / "eval"
        r = run_cli("evaluate", "--scene", scene_path, "--tracks", hyp,
                    "--out", out)
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["mot"]["mota"] == 1.0
        assert report["mot"]["ids"] == 0


@pytest.fixture(scope="module")
def pose_model(tmp_path_factory):
    """A small trained pose-head checkpoint (embed_dim 6) and a scene it
    tracks, plus a scene whose feature maps are 8 deep."""
    root = tmp_path_factory.mktemp("pose")
    sim = dict(n_frames=6, n_objects=3, appearance_dim=4, emit_feature_maps=True,
               embed_dim=6, feature_map_size=(3, 3), feature_sigma=0.02)
    scene = generate_scene(SimConfig(seed=31, **sim))
    samples = make_matching_dataset([scene], n_max=4, pairs_per_scene=3, seed=0)
    params, _ = train_matcher(samples, MatcherConfig(
        appearance_dim=4, embed_dim=6, use_pose_head=True, epochs=1,
        pose_pretrain_epochs=1, scorer_hidden=(8, 6, 6, 4, 4), pose_hidden=(6, 4)))
    save_checkpoint(params, root / "checkpoint.json")
    save_scene(generate_scene(SimConfig(seed=32, **sim)), root / "scene.json")
    save_scene(generate_scene(SimConfig(seed=33, **{**sim, "embed_dim": 8})),
               root / "deep.json")
    assert cli.main(["track", "--scene", str(root / "scene.json"), "--checkpoint",
                     str(root / "checkpoint.json"), "--out", str(root / "ok")]) == 0
    return root


class TestCheckpointData:
    def test_feature_map_depth_mismatch_exits_3(self, pose_model, tmp_path):
        r = run_cli("track", "--scene", pose_model / "deep.json",
                    "--checkpoint", pose_model / "checkpoint.json",
                    "--out", tmp_path / "o")
        assert r.returncode == 3, r.stderr
        assert "embed_dim 6" in r.stderr

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_mutated_checkpoint_exits_2_or_3(self, pose_model, data):
        """One field of a trained checkpoint is broken: NaN or inf, a value of
        another type, a missing key, or an unknown config key."""
        doc = json.loads((pose_model / "checkpoint.json").read_text())
        kind = data.draw(st.sampled_from(
            ["nan", "inf", "-inf", "wrong type", "missing", "unknown config key"]))
        if kind == "unknown config key":
            doc["config"][data.draw(st.text(min_size=1).filter(
                lambda key: key not in doc["config"]))] = 1
        else:
            # walk down from a top-level field to a random depth
            containers = dict if kind == "missing" else (dict, list)
            node, parent = doc, None
            while isinstance(node, containers) and node \
                    and (parent is None or data.draw(st.booleans())):
                parent = node
                key = data.draw(st.sampled_from(
                    sorted(node) if isinstance(node, dict) else range(len(node))))
                node = node[key]
            if kind == "missing":
                del parent[key]
            elif kind == "wrong type":
                parent[key] = data.draw(st.sampled_from(
                    [v for v in ("x", None, [], {}, True, 1.5) if _kind(v) != _kind(node)]))
            else:
                parent[key] = float(kind)
        checkpoint = pose_model / "mutated.json"
        checkpoint.write_text(json.dumps(doc))
        code = cli.main(["track", "--scene", str(pose_model / "scene.json"),
                         "--checkpoint", str(checkpoint),
                         "--out", str(pose_model / "out")])
        assert code in (2, 3)


@pytest.fixture(scope="module")
def scene_inputs(pose_model):
    """The pose model's scene as a document, with frame 0's ego pose given as
    a matrix, plus what tracks, evaluates and trains on it: an
    observation-route checkpoint that pools the same feature maps, the
    ground-truth boxes as hypotheses, the tracked geolocation, and a
    one-scene dataset index with a tiny matcher config."""
    scene = load_scene(pose_model / "scene.json")
    samples = make_matching_dataset([scene], n_max=4, pairs_per_scene=3, seed=0)
    params, _ = train_matcher(samples, MatcherConfig(
        appearance_dim=4, embed_dim=6, epochs=1, scorer_hidden=(8, 6, 6, 4, 4)))
    save_checkpoint(params, pose_model / "obs-checkpoint.json")
    write_mot(gt_mot_entries(scene), pose_model / "hyp.txt")
    (pose_model / "pairs.json").write_text(json.dumps({
        "format": 1, "scenes": [str(pose_model / "mutated-scene.json")], "n_max": 2,
        "pairs_per_scene": 2, "seed": 0}))
    (pose_model / "matcher.json").write_text(json.dumps({
        "appearance_dim": 4, "epochs": 1, "scorer_hidden": [8, 6, 6, 4, 4]}))
    doc = json.loads((pose_model / "scene.json").read_text())
    doc["frames"][0]["ego"] = {"matrix": scene.frames[0].ego.matrix().tolist()}
    geo = pose_model / "ok" / f"{scene.scene_id}.geo.json"
    assert geo.exists()
    return {"root": pose_model, "doc": doc, "geo": geo}


def run_on_scene(inputs, doc, command):
    """Write ``doc`` and run one command on it in-process; the exit code."""
    root = inputs["root"]
    scene = root / "mutated-scene.json"
    scene.write_text(json.dumps(doc))
    argv = {
        "track-obs": ["track", "--scene", scene, "--checkpoint", root / "obs-checkpoint.json"],
        "track-pose": ["track", "--scene", scene, "--checkpoint", root / "checkpoint.json"],
        "evaluate": ["evaluate", "--scene", scene, "--tracks", root / "hyp.txt",
                     "--geoloc", inputs["geo"]],
        "train": ["train", "--dataset", root / "pairs.json", "--config", root / "matcher.json"],
    }[command]
    return cli.main([str(a) for a in [*argv, "--out", root / f"out-{command}"]])


def _detections(doc):
    return [d for frame in doc["frames"] for d in frame["detections"]]


def _gt_objects(doc):
    return [g for frame in doc["frames"] for g in frame["gt_objects"]]


def _crowded_frame(doc):
    return max(doc["frames"], key=lambda frame: len(frame["detections"]))


class TestSceneData:
    ALL = ("track-obs", "track-pose", "evaluate")

    def test_unmutated_scene_runs(self, scene_inputs):
        for command in self.ALL:
            assert run_on_scene(scene_inputs, scene_inputs["doc"], command) == 0

    @pytest.mark.parametrize("mutate, commands, named", [
        (lambda doc: _detections(doc)[0]["observation"].update(depth=-1.0),
         ("track-obs", "evaluate"), "depth -1.0 must be positive"),
        (lambda doc: _detections(doc)[0].update(appearance=0.5),
         ("track-obs", "track-pose"), "appearance must be a list"),
        (lambda doc: doc["frames"][1]["intrinsics"].update(width=float("inf")),
         ALL, "intrinsics.width must be finite"),
        (lambda doc: doc["frames"][1].update(frame_index=float("inf")),
         ALL, "frame_index must be finite"),
        (lambda doc: _detections(doc)[0]["observation"]["rotation"].__setitem__(0, 1e308),
         ("track-obs",), "observation geometry is not finite"),
        (lambda doc: _detections(doc)[0]["observation"]["center"].__setitem__(0, 1e308),
         ("track-obs",), "observation geometry is not finite"),
        (lambda doc: _detections(doc)[0].update(confidence=True),
         ALL, "confidence must be numbers, not true or false"),
        (lambda doc: _detections(doc)[0]["bbox"].__setitem__(0, False),
         ALL, "bbox must be numbers, not true or false"),
        (lambda doc: _detections(doc)[0].update(gt_id=[1]),
         (*ALL, "train"), "gt_id must be an integer"),
        (lambda doc: _detections(doc)[0].update(gt_id=True), ALL, "gt_id must be an integer"),
        (lambda doc: _detections(doc)[0].update(gt_id=1.5), ALL, "gt_id must be an integer"),
        (lambda doc: _detections(doc)[0].update(gt_id="a"), ALL, "gt_id must be an integer"),
        (lambda doc: _gt_objects(doc)[0].update(object_id=2.7),
         ALL, "object_id must be an integer"),
        (lambda doc: _gt_objects(doc)[0].update(object_id=True),
         ALL, "object_id must be an integer"),
        (lambda doc: _gt_objects(doc)[0].update(object_id="7"),
         ALL, "object_id must be an integer"),
        (lambda doc: _gt_objects(doc)[0].update(kind=5), ALL, "kind must be a string"),
        (lambda doc: doc["frames"][1].update(frame_index=1.7),
         ALL, "frame_index must be an integer"),
        (lambda doc: doc["frames"][1].update(frame_index=1.0),
         ALL, "frame_index must be an integer"),
        (lambda doc: doc["frames"][1].update(frame_index=True),
         ALL, "frame_index must be numbers, not true or false"),
        (lambda doc: doc["frames"][1]["intrinsics"].update(width=1600.9),
         ALL, "intrinsics.width must be an integer"),
        (lambda doc: doc["frames"][1]["intrinsics"].update(height=900.0),
         ALL, "intrinsics.height must be an integer"),
        (lambda doc: doc["frames"][1]["intrinsics"].update(height=False),
         ALL, "intrinsics.height must be numbers, not true or false"),
        # finite boxes whose area overflows: IoU would read 0 for a box and itself
        (lambda doc: _detections(doc)[0]["bbox"].__setitem__(slice(2, 4), [1e200, 1e200]),
         ALL, "detections[0]: bbox is out of range"),
        (lambda doc: _gt_objects(doc)[0]["bbox"].__setitem__(slice(2, 4), [1e200, 1e200]),
         ALL, "gt_objects[0]: bbox is out of range"),
        # a finite ego translation whose descriptor rows the input
        # standardization scales past the float range
        (lambda doc: doc["frames"][0]["ego"]["matrix"][0].__setitem__(3, 1e308),
         ("track-pose",), "descriptor values overflow the pair scorer"),
        (lambda doc: [det.pop("appearance") for det in _detections(doc)],
         ("track-obs", "track-pose", "train"), "lacks an appearance vector"),
        # train checks the detections of every frame, drawn into a pair or not
        (lambda doc: _detections(doc)[0].pop("appearance"),
         ("track-obs", "track-pose", "train"), "lacks an appearance vector"),
    ])
    def test_bad_scene_value_exits_3(self, scene_inputs, capsys, mutate, commands, named):
        doc = copy.deepcopy(scene_inputs["doc"])
        mutate(doc)
        for command in commands:
            assert run_on_scene(scene_inputs, doc, command) == 3, command
            assert named in capsys.readouterr().err, command

    @pytest.mark.parametrize("field", ["rotation", "center"])
    def test_huge_observation_exits_3_without_warnings(self, scene_inputs, capsys, field):
        """Observation geometry that overflows is a data error, and numpy
        prints no RuntimeWarning on the way to it."""
        doc = copy.deepcopy(scene_inputs["doc"])
        _detections(doc)[0]["observation"][field][0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_on_scene(scene_inputs, doc, "track-obs") == 3
        assert "observation geometry is not finite" in capsys.readouterr().err

    def test_resumed_train_checks_every_detection(self, scene_inputs, capsys):
        """A resumed run checks every detection of the dataset, as a fresh one does."""
        root = scene_inputs["root"]
        assert run_on_scene(scene_inputs, scene_inputs["doc"], "train") == 0
        resumed = ["train", "--dataset", root / "pairs.json", "--resume",
                   root / "out-train" / "checkpoint.json", "--out", root / "out-resumed"]
        doc = copy.deepcopy(scene_inputs["doc"])
        _detections(doc)[0].pop("appearance")
        (root / "mutated-scene.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main([str(a) for a in resumed]) == 3
        assert "lacks an appearance vector" in capsys.readouterr().err

    @pytest.mark.parametrize("checkpoint, mutate, named", [
        ("track-pose", lambda det: det["feature_map"].update(
            shape=[1, 1, 6], data=det["feature_map"]["data"][:6]), "all of one shape"),
        ("track-obs", lambda det: det.pop("feature_map"), "all of one shape"),
    ])
    def test_frame_mixing_feature_maps_exits_3(self, scene_inputs, capsys, checkpoint,
                                               mutate, named):
        """Every detection of a frame carries one map of a single shape."""
        doc = copy.deepcopy(scene_inputs["doc"])
        detections = _crowded_frame(doc)["detections"]
        assert len(detections) >= 2
        mutate(detections[1])
        assert run_on_scene(scene_inputs, doc, checkpoint) == 3
        assert named in capsys.readouterr().err

    @staticmethod
    def shape_errors(doc):
        """Mutations that break the shape of a bbox, the intrinsics, the ego
        matrix or a feature map."""
        det = _crowded_frame(doc)["detections"][0]
        intrinsics = doc["frames"][1]["intrinsics"]
        matrix = doc["frames"][0]["ego"]["matrix"]
        fmap = det["feature_map"]
        return [
            lambda: det.update(bbox=det["bbox"][:-1]),
            lambda: det.update(bbox=det["bbox"] + [1.0]),
            lambda: intrinsics.update(fx=[intrinsics["fx"]] * 2),
            lambda: intrinsics.update(width=[intrinsics["width"]]),
            lambda: matrix.pop(),
            lambda: matrix[1].pop(),
            lambda: fmap.update(shape=fmap["shape"][:-1]),
            lambda: fmap.update(shape=fmap["shape"][::-1]),
            lambda: fmap.update(shape=[0, *fmap["shape"][1:]]),
            lambda: fmap.update(data=fmap["data"][:-1]),
        ]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_scene_exits_0_2_or_3(self, scene_inputs, data):
        """One value of a scene document is broken: NaN or inf, 1e308, a value
        of another type, a missing or unknown key, or a shape error. Neither
        tracking route nor evaluation may fail as an internal fault."""
        doc = copy.deepcopy(scene_inputs["doc"])
        kind = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308",
                                          "wrong type", "missing", "unknown key",
                                          "shape"]))
        if kind == "shape":
            data.draw(st.sampled_from(self.shape_errors(doc)))()
        else:
            mutate_one_value(doc, data, kind)
        for command in self.ALL:
            assert run_on_scene(scene_inputs, doc, command) in (0, 2, 3), (kind, command)


# --- geolocation, dataset-index and report documents -------------------------------


@pytest.fixture(scope="module")
def documents(pipeline, tracked, tmp_path_factory):
    """A geolocation JSON, a one-scene dataset index with a tiny one-epoch
    config, and an evaluation report, each as a document, with the command
    that reads it."""
    root = tmp_path_factory.mktemp("documents")
    report_dir = root / "eval"
    assert cli.main(["evaluate", "--scene", str(tracked["scene"]), "--geoloc",
                     str(tracked["geo"]), "--out", str(report_dir)]) == 0
    config = root / "matcher.json"
    config.write_text(json.dumps({"appearance_dim": 8, "epochs": 1,
                                  "scorer_hidden": [8, 6, 6, 4, 4]}))
    pairs = {"format": 1, "scenes": [str(tracked["scene"])], "n_max": 2,
             "pairs_per_scene": 2, "seed": 0}
    geo = json.loads(tracked["geo"].read_text())
    assert geo["objects"]
    return {
        "root": root,
        "geo": geo,
        "pairs": pairs,
        "report": json.loads((report_dir / "report.json").read_text()),
        "argv": {
            "geo": lambda path: ["evaluate", "--scene", tracked["scene"],
                                 "--geoloc", path],
            "pairs": lambda path: ["train", "--dataset", path, "--config", config],
            "report": lambda path: ["plot", "--report", path],
        },
    }


def run_on_document(documents, kind, doc):
    """Write ``doc`` as the ``kind`` document and run its command in-process."""
    path = documents["root"] / f"mutated-{kind}.json"
    path.write_text(json.dumps(doc))
    argv = documents["argv"][kind](path)
    return cli.main([str(a) for a in [*argv, "--out", documents["root"] / f"out-{kind}"]])


class TestDocumentData:
    def test_unmutated_documents_run(self, documents):
        for kind in ("geo", "pairs", "report"):
            assert run_on_document(documents, kind, documents[kind]) == 0, kind

    @pytest.mark.parametrize("kind, mutate, named", [
        ("geo", lambda doc: doc["objects"][0].update(translation=[float("nan"), 0.0, 0.0]),
         "objects[0].translation"),
        ("geo", lambda doc: doc["objects"][0].update(rotation=[float("nan"), 1.0]),
         "objects[0].rotation"),
        ("geo", lambda doc: doc["objects"][0].update(rotation=[1.0, 1.0]),
         "objects[0].rotation"),
        ("geo", lambda doc: doc["objects"][0].pop("rotation"), "objects[0].rotation"),
        ("geo", lambda doc: doc["objects"][0].update(instances="x"),
         "objects[0].instances"),
        ("geo", lambda doc: doc["objects"][0].update(instances=True),
         "objects[0].instances"),
        ("geo", lambda doc: doc.update(objects={}), "objects must be a list"),
        ("pairs", lambda doc: doc.pop("scenes"), "scenes"),
        ("pairs", lambda doc: doc.update(n_max="a"), "n_max"),
        ("pairs", lambda doc: doc.update(pairs_per_scene=0), "pairs_per_scene"),
        ("pairs", lambda doc: doc.update(format=True), "format"),
        ("report", lambda doc: doc["pr"][0].pop("recall"), "pr[0].recall"),
        ("report", lambda doc: doc["pr"][0].update(precision=float("nan")),
         "pr[0].precision"),
        ("report", lambda doc: doc["pr"][0].update(precision=1e308), "[0, 1]"),
        ("pairs", lambda doc: doc.update(pairs_per_scene=10 ** 23),
         "pairs_per_scene must be <="),
    ])
    def test_bad_document_value_exits_3(self, documents, capsys, kind, mutate, named):
        doc = copy.deepcopy(documents[kind])
        mutate(doc)
        assert run_on_document(documents, kind, doc) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["geo", "pairs", "report"])
    def test_top_level_list_exits_3(self, documents, capsys, kind):
        assert run_on_document(documents, kind, [documents[kind]]) == 3
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n-max", "--pairs-per-scene"])
    def test_dataset_count_below_one_exits_2(self, pipeline, tmp_path, capsys, flag):
        assert cli.main(["dataset", "--scenes", str(pipeline["scenes"]), flag, "0",
                         "--out", str(tmp_path / "ds")]) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "ds" / "pairs.json").exists()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_document_exits_0_2_or_3(self, documents, data):
        """One value of a geolocation, dataset-index or report document is
        broken: NaN or inf, 1e308, a value of another type, a missing or
        unknown key. The command that reads it may not fail as an internal
        fault."""
        kind = data.draw(st.sampled_from(["geo", "pairs", "report"]))
        doc = copy.deepcopy(documents[kind])
        mutate_one_value(doc, data, data.draw(st.sampled_from(
            ["nan", "inf", "-inf", "1e308", "-1e308", "wrong type", "missing",
             "unknown key"])))
        assert run_on_document(documents, kind, doc) in (0, 2, 3), kind


def _usage_args(pipeline, tracked, tmp_path, case):
    """Argument list for one usage-error case; ``{...}`` names a fixture path."""
    paths = {
        "scene": tracked["scene"], "hyp": tracked["hyp"], "geo": tracked["geo"],
        "scenes": pipeline["scenes"], "pairs": pipeline["dataset"] / "pairs.json",
        "checkpoint": pipeline["model"] / "checkpoint.json",
        "missing": tmp_path / "missing.json", "empty": tmp_path,
    }
    args = []
    for arg in case:
        if arg.startswith("{") and arg.endswith("}"):
            arg = str(paths[arg[1:-1]])
        elif arg.startswith("config="):
            config = tmp_path / "config.json"
            config.write_text(arg[len("config="):])
            arg = str(config)
        args.append(arg)
    return args + ["--out", str(tmp_path / "out")]


class TestUsageErrors:
    """Exit 2 names the flag or field and leaves ``--out`` uncreated."""

    @pytest.mark.parametrize("case, named", [
        (["evaluate", "--scene", "{scene}", "--geoloc", "{missing}", "--radius", "nan"],
         "radius"),
        (["evaluate", "--scene", "{missing}", "--iou", "0"], "--iou"),
        (["evaluate", "--scene", "{scene}", "--tracks", "{hyp}", "--geoloc", "{geo}",
          "--rotation-gate", "-1"], "rotation gate"),
        (["dataset", "--scenes", "{scenes}", "--n-max", "0"], "--n-max"),
        (["dataset", "--scenes", "{scenes}", "--seed", "-1"], "--seed"),
        (["dataset", "--scenes", "{empty}"], "no scene files"),
        (["train", "--dataset", "{pairs}", "--resume", "{checkpoint}",
          "--config", "config={}"], "--resume"),
        (["train", "--dataset", "{missing}", "--config", "{missing}"], "missing.json"),
        (["train", "--dataset", "{pairs}", "--config", 'config={"bogus": 1}'], "bogus"),
        (["track", "--scene", "{scene}", "--checkpoint", "{missing}"], "missing.json"),
    ])
    def test_flag_checked_before_out_is_created(self, pipeline, tracked, tmp_path,
                                                capsys, case, named):
        assert cli.main(_usage_args(pipeline, tracked, tmp_path, case)) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, named", [
        (["train", "--dataset", "{pairs}", "--epochs", "0"], "epochs"),
        (["train", "--dataset", "{pairs}", "--epochs", "-2"], "epochs"),
        (["train", "--dataset", "{pairs}", "--resume", "{checkpoint}", "--epochs", "0"],
         "epochs"),
        (["train", "--dataset", "{pairs}", "--seed", "-1"], "seed"),
        (["simulate", "--seed", "-1"], "seed"),
        (["train", "--dataset", "{pairs}", "--config", 'config={"scorer_hidden": [-3]}'],
         "scorer_hidden"),
        (["train", "--dataset", "{pairs}", "--config", 'config={"pose_hidden": [4, 0]}'],
         "pose_hidden"),
        (["train", "--dataset", "{pairs}", "--config", 'config={"embed_dim": -1}'],
         "embed_dim"),
        (["train", "--dataset", "{pairs}", "--config",
          'config={"use_pose_head": true, "embed_dim": 4, "pose_pretrain_epochs": -1}'],
         "pose_pretrain_epochs"),
        (["track", "--scene", "{scene}", "--checkpoint", "{checkpoint}",
          "--score-threshold", "0.5"], "--score-threshold"),
        (["track", "--scene", "{scene}", "--checkpoint", "{checkpoint}",
          "--aggregate", "median"], "--aggregate"),
        (["track", "--scene", "{scene}", "--checkpoint", "{checkpoint}",
          "--min-instances", "0"], "--min-instances"),
        (["track", "--scene", "{scene}", "--checkpoint", "{checkpoint}",
          "--min-instances", "-5"], "--min-instances"),
        (["simulate", "--scenes", "1000001"], "--scenes"),
        (["simulate", "--n-frames", str(10 ** 23)], "n_frames"),
        (["simulate", "--n-objects", "1000001"], "n_objects"),
        (["dataset", "--scenes", "{scenes}", "--pairs-per-scene", "1000001"],
         "--pairs-per-scene"),
        (["train", "--dataset", "{pairs}", "--epochs", str(10 ** 23)], "epochs"),
        (["train", "--dataset", "{pairs}", "--resume", "{checkpoint}", "--epochs",
          "1000001"], "epochs"),
        (["train", "--dataset", "{pairs}", "--resume", "{checkpoint}", "--lambda", "nan"],
         "lam"),
        (["train", "--dataset", "{pairs}", "--resume", "{checkpoint}", "--lambda=inf"],
         "lam"),
        (["train", "--dataset", "{pairs}", "--config", 'config={"score_space": "probability"}'],
         "score_space"),
        *((["train", "--dataset", "{pairs}", "--config", f"config={json.dumps(doc)}"], named)
          for doc, named in (
              ({"appearance_dim": -20}, "appearance_dim"),
              ({"appearance_dim": -1}, "appearance_dim"),
              ({"appearance_dim": 0}, "appearance_dim"),
              ({"appearance_dim": 10 ** 12}, "scorer layer 0"),
              ({"scorer_hidden": [10 ** 9]}, "scorer layer 0"),
              ({"use_pose_head": True, "embed_dim": 4, "pose_hidden": [10 ** 9]},
               "pose head layer 0"),
              ({"learning_rate": -0.01}, "learning_rate"),
              ({"pose_lr_scale": -1e-3}, "pose_lr_scale"),
              ({"weight_decay": -1.0}, "weight_decay"),
              ({"beta": -0.1}, "beta"),
              ({"lr_decay": -0.5}, "lr_decay"),
              ({"grad_clip": -10}, "grad_clip"),
              ({"momentum": 1.0}, "momentum"),
              ({"momentum": -0.1}, "momentum"),
              ({"center_scale": [0, 900]}, "center_scale"),
              ({"depth_scale": 0}, "depth_scale"),
          )),
        (["train", "--dataset", "{pairs}", "--softmax-axis", "per-object"],
         "--softmax-axis"),
        *((["train", "--dataset", "{pairs}", "--config", f"config={json.dumps(doc)}"], named)
          for doc, named in (
              ({"softmax_axis": "literal"}, "softmax_axis"),
              ({"pooling": "weighted"}, "pooling"),
              # past DELTA_BOUND the first loss is already infinite
              ({"delta": 710.0}, "delta"),
              ({"delta": -750.0}, "delta"),
              ({"delta": 1e308}, "delta"),
              ({"delta": -1e308}, "delta"),
          )),
    ])
    def test_out_of_range_configuration_exits_2(self, pipeline, tracked, tmp_path,
                                                capsys, case, named):
        try:
            code = cli.main(_usage_args(pipeline, tracked, tmp_path, case))
        except SystemExit as exc:  # argparse refuses a flag it does not know
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# --- exit codes over every numeric flag ---------------------------------------------


@pytest.fixture(scope="module")
def flag_inputs(pipeline, tracked, tmp_path_factory):
    """Small valid inputs for every subcommand, so that a run exits 0 fast."""
    root = tmp_path_factory.mktemp("flags")
    sim = root / "sim.json"
    sim.write_text(json.dumps({"appearance_dim": 8, "n_objects": 2, "n_frames": 4}))
    matcher = root / "matcher.json"
    matcher.write_text(json.dumps({"appearance_dim": 8, "epochs": 1,
                                   "scorer_hidden": [8, 6, 6, 4, 4]}))
    pairs = root / "pairs.json"
    pairs.write_text(json.dumps({"format": 1, "scenes": [str(tracked["scene"])],
                                 "n_max": 2, "pairs_per_scene": 2, "seed": 0}))
    report = root / "eval"
    assert cli.main(["evaluate", "--scene", str(tracked["scene"]), "--geoloc",
                     str(tracked["geo"]), "--out", str(report)]) == 0
    checkpoint = pipeline["model"] / "checkpoint.json"
    evaluate = ["evaluate", "--scene", tracked["scene"], "--tracks", tracked["hyp"],
                "--geoloc", tracked["geo"]]
    # subcommand -> (command line, {each numeric flag it takes: a valid value})
    return root, {
        "simulate": (["simulate", "--config", sim],
                     {"--seed": "3", "--scenes": "1", "--n-frames": "4", "--n-objects": "2"}),
        "dataset": (["dataset", "--scenes", pipeline["scenes"]],
                    {"--seed": "0", "--n-max": "3", "--pairs-per-scene": "2"}),
        "train": (["train", "--dataset", pairs, "--config", matcher],
                  {"--seed": "1", "--epochs": "1", "--lambda": "0.005"}),
        "train --resume": (["train", "--dataset", pairs, "--resume", checkpoint],
                           {"--seed": "1", "--epochs": "1", "--lambda": "0.005"}),
        "track": (["track", "--scene", tracked["scene"], "--checkpoint", checkpoint],
                  {"--seed": "0", "--min-instances": "2"}),
        "evaluate": (evaluate, {"--seed": "0", "--radius": "2.0", "--limit": "3.0",
                                "--rotation-gate": "30", "--iou": "0.5"}),
        "evaluate mahalanobis": ([*evaluate, "--criterion", "mahalanobis"],
                                 {"--limit": "3.0"}),
        "plot": (["plot", "--report", report / "report.json"], {"--seed": "0"}),
    }


FLOAT_FLAGS = ("--lambda", "--radius", "--limit", "--rotation-gate", "--iou")


def _flag_value(data, flag, kind):
    """A value of ``kind`` for ``flag``, as the command line spells it."""
    if kind in ("0", "nan", "inf", "-inf"):
        return kind
    floats = flag in FLOAT_FLAGS
    if kind == "negative":
        return repr(data.draw(st.floats(-1e308, -1e-300))) if floats \
            else str(data.draw(st.integers(-10 ** 30, -1)))
    return repr(data.draw(st.floats(1e9, 1.7e308))) if floats \
        else str(data.draw(st.integers(10 ** 9, 10 ** 30)))


class TestNumericFlags:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_numeric_flag_exits_0_or_2(self, flag_inputs, data):
        """One numeric flag of one subcommand is 0, negative, huge, NaN or
        +-inf, everything else valid: the run succeeds or is refused as a
        usage error before ``--out`` exists, never an internal fault."""
        root, commands = flag_inputs
        command = data.draw(st.sampled_from(sorted(commands)))
        argv, flags = commands[command]
        flag = data.draw(st.sampled_from(sorted(flags)))
        kind = data.draw(st.sampled_from(["0", "negative", "huge", "nan", "inf", "-inf"]))
        value = _flag_value(data, flag, kind)
        out = root / f"out-{len(list(root.iterdir()))}"
        args = [*argv, *(f"{f}={value if f == flag else v}" for f, v in flags.items()),
                "--out", out]
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:  # argparse refuses a value that is not a number
            code = exc.code
        assert code in (0, 2), (command, flag, value)
        assert code == 0 or not out.exists(), (command, flag, value)


# --- exit codes over the configuration files' dimension fields ---------------------

DIMENSION_FIELDS = {
    "simulate": (SimConfig, ("appearance_dim", "embed_dim", "feature_map_size")),
    "train": (MatcherConfig, ("appearance_dim", "embed_dim", "scorer_hidden",
                              "pose_hidden")),
}


class TestConfigDimensions:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_dimension_field_exits_0_or_2(self, flag_inputs, data):
        """One dimension of a ``simulate`` (feature maps on) or ``train``
        configuration file is 0, negative, huge, NaN or +-inf, everything
        else valid: the run succeeds or is refused as a usage error before
        ``--out`` exists, never a traceback or a data error."""
        root, commands = flag_inputs
        command = data.draw(st.sampled_from(sorted(DIMENSION_FIELDS)))
        cls, names = DIMENSION_FIELDS[command]
        name = data.draw(st.sampled_from(names))
        argv, _ = commands[command]
        config_at = argv.index("--config") + 1
        doc = json.loads(Path(argv[config_at]).read_text())
        if command == "simulate":
            doc["emit_feature_maps"] = True
        kind = data.draw(st.sampled_from(["0", "negative", "huge", "nan", "inf", "-inf"]))
        value = {"0": 0, "nan": float("nan"), "inf": float("inf"),
                 "-inf": float("-inf"),
                 "negative": data.draw(st.integers(-10 ** 30, -1)),
                 "huge": data.draw(st.integers(10 ** 9, 10 ** 30))}[kind]
        current = getattr(cls.from_dict(doc), name)
        if isinstance(current, tuple):
            widths = list(current)
            widths[data.draw(st.integers(0, len(widths) - 1))] = value
            value = widths
        doc[name] = value
        n = len(list(root.iterdir()))
        config, out = root / f"config-{n}.json", root / f"out-{n}"
        config.write_text(json.dumps(doc))
        args = [*argv[:config_at], config, *argv[config_at + 1:], "--out", out]
        code = cli.main([str(a) for a in args])
        assert code in (0, 2), (command, name, value)
        assert code == 0 or not out.exists(), (command, name, value)


# --- one exception family per exit code -------------------------------------------


class TestErrorFamilies:
    @pytest.mark.parametrize("error, code", [
        (ConfigError, 2),
        (DataError, 3),
        (GeotrackError, 4),
        (ZeroVectorError, 4),
        (NonPositiveDepthError, 4),
        (NonFiniteLossError, 4),
    ], ids=lambda value: value.__name__ if isinstance(value, type) else str(value))
    def test_main_exit_code_by_class(self, monkeypatch, capsys, tmp_path, error, code):
        def fail(*args, **kwargs):
            raise error("probe")

        monkeypatch.setattr(cli, "generate_scene", fail)
        assert cli.main(["simulate", "--n-frames", "2", "--out", str(tmp_path)]) == code
        prefix = "internal error" if code == 4 else "error"
        assert capsys.readouterr().err == f"{prefix}: probe\n"

    def test_every_class_is_a_family_or_caught(self):
        """errors.py holds the three families the exit codes need, and
        beyond them only classes that an ``except`` clause in the package
        names; any other error is raised as its family."""
        package = Path(SRC) / "geotrack"
        defined = {node.name for node in ast.parse((package / "errors.py").read_text()).body
                   if isinstance(node, ast.ClassDef)}
        caught = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    caught |= {t.id for t in types if isinstance(t, ast.Name)}
        families = {"GeotrackError", "ConfigError", "DataError"}
        assert families <= defined
        assert defined - families - caught == set()


# --- the README documents the command line -----------------------------------------


class TestReadme:
    def test_names_every_long_flag(self):
        """Every long flag of every subcommand appears in README.md, so no
        flag is added without its documentation."""
        text = README.read_text()
        parser = cli.build_parser()
        subcommands = next(action.choices for action in parser._actions
                           if isinstance(action, argparse._SubParsersAction))
        missing = sorted({
            f"{name} {flag}"
            for name, sub in subcommands.items() for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
            if flag.startswith("--") and not re.search(re.escape(flag) + r"(?![\w-])", text)
        })
        assert not missing, f"README.md does not mention {missing}"


# --- the benchmark's trace points ------------------------------------------------------


class TestBenchmarkTracePoints:
    """perfbench/tracing.py wraps geotrack functions by name, and it and
    perfbench/pipeline.py read the tracker's state; a rename or a change of
    meaning in src would leave a benchmark run wrong without notice."""

    TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    CHECKPOINT = TRACING.parent / "data" / "obs-matcher.json"

    @pytest.fixture(scope="class")
    def tracked(self):
        """A scene with false positives tracked with the benchmark's stored
        checkpoint, and (rows, matrix rows) of every score_matrix call."""
        calls = []
        score_matrix = tracker.score_matrix

        def recording(tracks, *args):
            scores = score_matrix(tracks, *args)
            calls.append((len(tracks), scores.shape[0]))
            return scores

        scene = generate_scene(SimConfig(seed=7, n_frames=30, n_objects=12, appearance_dim=16,
                                         fp_rate=0.3, miss_rate=0.1))
        tracker.score_matrix = recording
        try:
            state, entries = tracker.track_scene(
                scene, matching.Matcher(matching.load_checkpoint(self.CHECKPOINT)))
        finally:
            tracker.score_matrix = score_matrix
        return state, entries, calls

    def test_score_matrix_rows_are_its_first_argument(self, tracked):
        """tracing.py counts tracker.rows as len of the first argument."""
        _, _, calls = tracked
        assert len(calls) > 20 and max(rows for rows, _ in calls) > 5
        assert all(rows == matrix_rows for rows, matrix_rows in calls)

    def test_len_of_tracks_counts_the_tracks(self, tracked):
        """pipeline.FrameClock and _track read len(state.tracks)."""
        state, entries, _ = tracked
        assert len(state.tracks) == tracker.geolocation_report(state)["total_tracks"] \
            == len({e.track_id for e in entries}) > 12

    def test_every_wrapped_name_exists(self):
        targets = [
            (ast.unparse(node.args[0]), node.args[1].value)
            for node in ast.walk(ast.parse(self.TRACING.read_text()))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "wrap"
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
        ]
        assert len(targets) > 20
        missing = []
        for owner_path, attr in targets:
            module, *rest = owner_path.split(".")
            owner = importlib.import_module(f"geotrack.{module}")
            for name in rest:
                owner = getattr(owner, name, None)
            if not hasattr(owner, attr):
                missing.append(f"{owner_path}.{attr}")
        assert not missing, f"perfbench/tracing.py wraps names geotrack lacks: {missing}"

    def test_pair_logits_take_the_pair_tensor_first(self):
        """tracing.py counts scored pairs from the first argument."""
        first = next(iter(inspect.signature(matching.score_pair_logits).parameters))
        assert first == "pair_tensor"
