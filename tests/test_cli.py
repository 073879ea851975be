import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
        import numpy as np

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
