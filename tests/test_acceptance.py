"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after
asserting the criterion at its stated tolerance and time budget.
"""

import dataclasses
import time
from itertools import permutations

import numpy as np

from geotrack.assignment import solve_max
from geotrack.evaluation import (
    GeoCriterion,
    greedy_match,
    mahalanobis_distance,
    mot_metrics,
    pr_curve,
    translation_error_stats,
)
from geotrack.geometry import (
    CameraIntrinsics,
    angular_error,
    project,
    recover_translation,
)
from geotrack.matching import (
    Matcher,
    MatcherConfig,
    init_matcher_params,
    pair_accuracy,
    train_matcher,
)
from geotrack.numerics import loss_rot, loss_rot_grad, loss_trans, loss_trans_grad
from geotrack.scene import (
    MotEntry,
    gt_mot_entries,
    load_scene,
    mot_from_csv,
    mot_to_csv,
    save_scene,
    scene_to_json,
)
from geotrack.simulator import SimConfig, generate_scene, make_matching_dataset, \
    world_objects
from geotrack.tracker import finalize, track_scene
from helpers import (
    fit_input_standardization,
    grad_check,
    named_arrays,
    reference_recover_translation,
    to_reference_frame,
    training_forward_pair,
)

APPEARANCE_DIM = 16


def report(name, elapsed, detail=""):
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s){suffix}")


def brute_force_best(score):
    m, n = score.shape
    best = None
    for perm in permutations(range(n), m):
        if any(score[i, perm[i]] == -np.inf for i in range(m)):
            continue
        total = float(np.sum(score[np.arange(m), list(perm)]))
        if best is None or total > best:
            best = total
    return best


def test_01_hungarian_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(0, 7 - m + 1))  # m + n <= 7
        score = np.full((m, n + m), -np.inf)
        if n:
            score[:, :n] = rng.normal(size=(m, n))
        for i in range(m):
            score[i, n + i] = rng.normal()
        _, total = solve_max(score)
        oracle = brute_force_best(score)
        assert total == oracle, (total, oracle)  # exact, zero tolerance
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("1 hungarian-oracle", elapsed, f"{checked} matrices, exact totals")


def _pose_setup():
    scenes = [generate_scene(SimConfig(
        seed=3, n_frames=12, n_objects=3, appearance_dim=4,
        emit_feature_maps=True, embed_dim=6, feature_map_size=(3, 3),
        appearance_sigma=0.05, feature_sigma=0.02))]
    samples = make_matching_dataset(scenes, n_max=8, pairs_per_scene=3, seed=0)
    cfg = MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                        scorer_hidden=(10, 8, 8, 6, 4), pose_hidden=(8, 6),
                        seed=5, lam=0.005)
    params = fit_input_standardization(samples, init_matcher_params(cfg))
    return samples, params, cfg


def test_02_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(7)

    # bare losses against central differences
    for _ in range(20):
        t, t_hat = rng.normal(size=3), rng.normal(size=3)
        r, r_hat = rng.normal(size=2), rng.normal(size=2)
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-5
            fd = (loss_trans(t, t_hat + step) - loss_trans(t, t_hat - step)) / 2e-5
            assert abs(loss_trans_grad(t, t_hat)[i] - fd) < 1e-4 * max(1, abs(fd))
        for i in range(2):
            step = np.zeros(2)
            step[i] = 1e-5
            fd = (loss_rot(r, r_hat + step) - loss_rot(r, r_hat - step)) / 2e-5
            assert abs(loss_rot_grad(r, r_hat)[i] - fd) < 1e-4 * max(1, abs(fd))

    samples, params, cfg = _pose_setup()
    sample = samples[0]
    names = named_arrays(params)

    def check(f, label, subset=None):
        target = {k: v for k, v in names.items()
                  if subset is None or k.startswith(tuple(subset))}
        rep = grad_check(f, target, tolerance=1e-4, step=1e-5)
        assert rep.passed, (label, rep.worst_param, rep.max_error)

    pose_group = ("pose_head.", "attention.")

    def pose_only_at(beta):
        local = dataclasses.replace(cfg, beta=beta)
        saved = params.config
        params.config = local
        try:
            res = training_forward_pair(sample, params, pose_only=True)
        finally:
            params.config = saved
        return res["joint"], res["grads"]

    # L_pose (rot + beta * trans) composed with attention + pose head
    check(lambda _: pose_only_at(cfg.beta), "L_pose", pose_group)
    # L_rot alone: beta = 0 switches the translation term off
    check(lambda _: pose_only_at(0.0), "L_rot-head", pose_group)

    # L_trans alone: the pose objective is affine in beta, so the
    # difference of the beta=1 and beta=0 objectives is exactly the
    # translation term
    def trans_composed(_):
        l1, g1 = pose_only_at(1.0)
        l0, g0 = pose_only_at(0.0)
        return l1 - l0, {k: g1[k] - g0[k] for k in g1}

    check(trans_composed, "L_trans-head", pose_group)

    # affinity loss through the scorer and the full descriptor chain
    def joint_at(lam):
        local = dataclasses.replace(cfg, lam=lam)
        saved = params.config
        params.config = local
        try:
            res = training_forward_pair(sample, params)
        finally:
            params.config = saved
        return res["joint"], res["grads"]

    check(lambda _: joint_at(0.0), "L_Aff-full-chain")
    check(lambda _: joint_at(cfg.lam), "L_joint")

    # L_Aff through the scorer alone (observation-route configuration)
    scenes = [generate_scene(SimConfig(seed=4, n_frames=10, n_objects=3,
                                       appearance_dim=4,
                                       appearance_sigma=0.1))]
    flat_samples = make_matching_dataset(scenes, n_max=6, pairs_per_scene=2,
                                         seed=1)
    flat_cfg = MatcherConfig(appearance_dim=4, scorer_hidden=(10, 8, 8, 6, 4),
                             seed=6)
    flat_params = fit_input_standardization(flat_samples,
                                            init_matcher_params(flat_cfg))

    def affinity_flat(_):
        res = training_forward_pair(flat_samples[0], flat_params)
        return res["joint"], res["grads"]

    rep = grad_check(affinity_flat, named_arrays(flat_params),
                     tolerance=1e-4, step=1e-5)
    assert rep.passed, (rep.worst_param, rep.max_error)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("2 gradient-suite", elapsed, "all losses < 1e-4 relative error")


def test_03_geometry_closure():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    intrinsics = CameraIntrinsics(f_x=1000.0, f_y=1000.0, p_x=800.0,
                                  p_y=450.0, width=1600, height=900)
    k_row = np.array([[intrinsics.f_x, intrinsics.f_y, intrinsics.p_x, intrinsics.p_y]])
    worst = 0.0
    for _ in range(1000):
        t = np.array([rng.uniform(-60, 60), rng.uniform(-60, 60),
                      rng.uniform(1, 100)])
        c = project(t[None], intrinsics)[0]
        back = recover_translation(np.array([[*c, t[2]]]), k_row)[0]
        worst = max(worst, float(np.abs(back - t).max() / max(np.abs(t).max(), 1.0)))
        # and the other direction: pixel -> translation -> pixel
        c = np.array([rng.uniform(0, 1600), rng.uniform(0, 900)])
        depth = rng.uniform(1, 100)
        t2 = recover_translation(np.array([[*c, depth]]), k_row)[0]
        c2 = project(t2[None], intrinsics)[0]
        worst = max(worst, float(np.abs(c2 - c).max() / max(np.abs(c).max(), 1.0)))
    assert worst < 1e-9

    # same physical object observed from any frame lands on one reference pose
    agreement = 0.0
    for seed in (101, 102):
        scene = generate_scene(SimConfig(seed=seed, n_frames=30, n_objects=4,
                                         appearance_dim=2))
        ref_poses = {}
        for frame in scene.frames:
            for det in frame.detections:
                cam_t = reference_recover_translation(det.observation, frame.intrinsics)
                from geotrack.geometry import Pose5D

                pose_cam = Pose5D(cam_t, det.observation.R, "camera")
                pose_ref = to_reference_frame(pose_cam, frame.ego,
                                              scene.reference_ego)
                if det.gt_id in ref_poses:
                    first = ref_poses[det.gt_id]
                    agreement = max(
                        agreement,
                        float(np.abs(first.T - pose_ref.T).max()),
                        float(np.abs(first.R - pose_ref.R).max()),
                    )
                else:
                    ref_poses[det.gt_id] = pose_ref
    assert agreement < 1e-9
    elapsed = time.perf_counter() - started
    report("3 geometry-closure", elapsed,
           f"round-trip {worst:.1e}, reference agreement {agreement:.1e}")


def test_04_zero_noise_end_to_end(trained_matcher):
    started = time.perf_counter()
    matcher = Matcher(trained_matcher.params)
    for seed in range(200, 205):
        scene = generate_scene(SimConfig(seed=seed, n_frames=40, n_objects=4,
                                         appearance_dim=APPEARANCE_DIM))
        state, entries = track_scene(scene, matcher)
        objects = finalize(state)
        gt = world_objects(scene)
        assert len(objects) == len(gt), f"scene {seed}: {len(objects)} tracks"
        used = set()
        for obj in objects:
            err, gid = min(
                (float(np.linalg.norm(obj.pose.T - g.T)), gid)
                for gid, g in gt.items() if gid not in used
            )
            used.add(gid)
            assert err < 1e-6
            assert angular_error(obj.pose.R, gt[gid].R) < 1e-6
        mot = mot_metrics(gt_mot_entries(scene), entries)
        assert mot.mota == 1.0
        assert mot.ids == 0
    elapsed = time.perf_counter() - started + trained_matcher.train_seconds
    assert elapsed < 60.0
    report("4 zero-noise-e2e", elapsed,
           "5 scenes exact (incl. matcher training time)")


def test_05_noisy_end_to_end(trained_matcher):
    started = time.perf_counter()
    matcher = Matcher(trained_matcher.params)
    predictions, ground_truth = [], []
    for seed in range(400, 420):
        scene = generate_scene(SimConfig(
            seed=seed, n_frames=40, n_objects=4,
            appearance_dim=APPEARANCE_DIM, center_sigma_px=2.0,
            depth_rel_sigma=0.05, miss_rate=0.05, depth_range=(15, 60),
        ))
        state, _ = track_scene(scene, matcher)
        key = scene.scene_id
        for obj in finalize(state):
            predictions.append((obj.pose, float(obj.instance_count), key))
        for pose in world_objects(scene).values():
            ground_truth.append((pose, key))

    criterion = GeoCriterion(kind="euclidean", radius=2.0)
    points = pr_curve(predictions, ground_truth, criterion)
    recall = points[-1][1]
    _, pairs, _ = greedy_match(predictions, ground_truth, criterion)
    stats = translation_error_stats(
        [(predictions[i][0], ground_truth[j][0]) for i, j in pairs]
    )
    med_x, med_y, med_z = stats.median
    assert med_x < 0.5 and med_y < 0.5
    assert med_z > med_x and med_z > med_y  # depth error dominates
    assert recall >= 0.9
    elapsed = time.perf_counter() - started + trained_matcher.train_seconds
    assert elapsed < 300.0
    report("5 noisy-e2e", elapsed,
           f"median |TE| = ({med_x:.3f}, {med_y:.3f}, {med_z:.3f}) m, "
           f"recall {recall:.3f}")


def test_06_matcher_training():
    started = time.perf_counter()
    dim = 64
    scenes = []
    for s in range(8):
        sigma_app = (0.05, 0.15, 0.25)[s % 3]
        center, depth = ((0.5, 0.01), (1.5, 0.03), (2.5, 0.06))[s % 3]
        scenes.append(generate_scene(SimConfig(
            seed=5000 + s, n_frames=24, n_objects=6, appearance_dim=dim,
            appearance_sigma=sigma_app, center_sigma_px=center,
            depth_rel_sigma=depth, emit_feature_maps=True, embed_dim=8,
            feature_map_size=(3, 3), feature_sigma=0.02,
        )))
    samples = make_matching_dataset(scenes, n_max=20, pairs_per_scene=25, seed=0)
    assert len(samples) == 200
    heldout = make_matching_dataset(scenes, n_max=20, pairs_per_scene=6, seed=77)

    config = MatcherConfig(appearance_dim=dim, embed_dim=8, use_pose_head=True,
                           lam=0.005, epochs=30, seed=1,
                           scorer_hidden=(160, 96, 48, 24, 12),
                           pose_hidden=(16, 12))
    initial = fit_input_standardization(samples, init_matcher_params(config))
    init_accuracy = pair_accuracy(heldout, initial)
    assert init_accuracy <= 0.6

    params_joint, hist_joint = train_matcher(samples, config, heldout=heldout)
    joint_accuracy = hist_joint[-1].accuracy
    assert joint_accuracy >= 0.95

    matching_only = dataclasses.replace(config, lam=0.0)
    _, hist_matching = train_matcher(samples, matching_only, heldout=heldout)
    matching_accuracy = hist_matching[-1].accuracy
    # joint training must not trail matching-only by more than one point
    assert joint_accuracy >= matching_accuracy - 0.01

    _, hist_again = train_matcher(samples, config, heldout=heldout)
    first = np.array([(h.affinity, h.pose, h.accuracy) for h in hist_joint])
    again = np.array([(h.affinity, h.pose, h.accuracy) for h in hist_again])
    assert np.array_equal(first, again, equal_nan=True)  # bit-identical

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    report("6 matcher-training", elapsed,
           f"init {init_accuracy:.3f} -> joint {joint_accuracy:.3f}, "
           f"matching-only {matching_accuracy:.3f}")


def test_07_metric_oracle():
    started = time.perf_counter()
    box_a = np.array([10.0, 10.0, 20.0, 40.0])
    box_b = np.array([200.0, 50.0, 20.0, 40.0])
    gt = [MotEntry(frame=f, track_id=1, bbox=box_a) for f in range(10)]
    gt += [MotEntry(frame=f, track_id=2, bbox=box_b) for f in range(10)]
    hyp = [MotEntry(frame=f, track_id=1, bbox=box_a)
           for f in range(10) if f != 4]
    hyp += [MotEntry(frame=f, track_id=2, bbox=box_b) for f in range(5)]
    hyp += [MotEntry(frame=f, track_id=3, bbox=box_b) for f in range(5, 10)]
    rep = mot_metrics(gt, hyp)
    assert rep.gt_total == 20 and rep.fn == 1 and rep.ids == 1 and rep.fp == 0
    assert rep.mota == 0.9  # 1 - (1 + 0 + 1)/20, exact in binary floats

    d = mahalanobis_distance((0.4, 0.0, 0.0), (0.4, 0.39, 3.84), limit=3.0)
    assert d == 3.0
    elapsed = time.perf_counter() - started
    report("7 metric-oracle", elapsed, "MOTA = 0.9 exactly, distance = 3.0 exactly")


def test_08_format_round_trips(tmp_path):
    started = time.perf_counter()
    for seed in range(300, 310):
        config = SimConfig(seed=seed, n_frames=12, n_objects=4,
                           appearance_dim=8, center_sigma_px=1.0,
                           depth_rel_sigma=0.02, miss_rate=0.1, fp_rate=0.2)
        scene = generate_scene(config)
        path = tmp_path / f"scene-{seed}.json"
        save_scene(scene, path)
        text = path.read_text()
        assert scene_to_json(load_scene(path)) == text  # byte-exact

        entries = gt_mot_entries(scene)
        csv_text = mot_to_csv(entries)
        assert mot_to_csv(mot_from_csv(csv_text)) == csv_text  # byte-exact
    elapsed = time.perf_counter() - started
    report("8 format-round-trips", elapsed, "10 scenes byte-exact")
