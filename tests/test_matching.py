import math
from dataclasses import replace

import numpy as np
import pytest

from geotrack.errors import (
    ConfigError,
    DegenerateMatchError,
    NonFiniteLossError,
    ShapeMismatchError,
)
from geotrack.geometry import CameraIntrinsics, EgoPose, PixelObservation
from geotrack.matching import (
    DetectionFeatures,
    Matcher,
    MatcherConfig,
    PairSample,
    augment_normalize,
    build_pair_tensor,
    fit_input_standardization,
    forward_pair,
    init_matcher_params,
    loss_affinity,
    pair_accuracy,
    params_from_doc,
    params_to_doc,
    train_matcher,
    _named_arrays,
    _named_grads,
)
from geotrack.numerics import grad_check
from geotrack.simulator import SimConfig, generate_scene, make_matching_dataset

K = CameraIntrinsics(f_x=1000.0, f_y=1000.0, p_x=800.0, p_y=450.0,
                     width=1600, height=900)
IDENTITY = EgoPose.identity()


def scoring_matcher(rng, appearance_dim=2):
    """Matcher with a fresh six-layer scorer and identity standardization."""
    cfg = MatcherConfig(appearance_dim=appearance_dim, scorer_hidden=(6, 5, 4, 4, 3))
    return Matcher(init_matcher_params(cfg, rng))


def describe_one(appearance, feature_map):
    """Descriptor of one detection seen at T = (1, 1, 4), R = (0.6, 0.8)
    by a camera that is its own reference frame."""
    cfg = MatcherConfig(appearance_dim=len(appearance), embed_dim=feature_map.shape[2])
    feats = DetectionFeatures(
        appearance=np.asarray(appearance, dtype=np.float64), feature_map=feature_map,
        observation=PixelObservation(c=(1050.0, 700.0), T_z=4.0, R=(0.6, 0.8)),
    )
    return Matcher(init_matcher_params(cfg)).descriptors([feats], IDENTITY, IDENTITY, K)[0]


def small_samples(emit_maps=False, n_scenes=2, appearance_dim=8):
    scenes = [
        generate_scene(
            SimConfig(
                seed=60 + s, n_frames=16, n_objects=4,
                appearance_dim=appearance_dim, appearance_sigma=0.1,
                center_sigma_px=1.0, depth_rel_sigma=0.02,
                emit_feature_maps=emit_maps, embed_dim=6,
                feature_map_size=(3, 3), feature_sigma=0.02,
            )
        )
        for s in range(n_scenes)
    ]
    return make_matching_dataset(scenes, n_max=10, pairs_per_scene=10, seed=0)


class TestDescriptors:
    def test_documented_layout(self):
        # (T, R, 0, G, appearance); a 1x1 feature map pools to itself
        appearance = [0.1, 0.2, 0.3, 0.4]
        desc = describe_one(appearance, np.array([[[3.0, -3.0]]]))
        assert desc.shape == (12,)
        np.testing.assert_allclose(desc[:6], [1, 1, 4, 0.6, 0.8, 0], atol=1e-12)
        np.testing.assert_array_equal(desc[6:8], [3.0, -3.0])
        np.testing.assert_array_equal(desc[8:], appearance)

    def test_paper_dimensions(self):
        desc = describe_one(np.zeros(500), np.zeros((1, 1, 128)))
        assert desc.shape == (634,)

    def test_zero_noise_descriptors_agree(self):
        scene = generate_scene(SimConfig(seed=5, n_frames=10, n_objects=3,
                                         appearance_dim=4))
        cfg = MatcherConfig(appearance_dim=4, embed_dim=0)
        params = init_matcher_params(cfg)
        matcher = Matcher(params)
        from geotrack.matching import DetectionFeatures

        by_id = {}
        for frame in scene.frames:
            feats = [DetectionFeatures(appearance=d.appearance,
                                       observation=d.observation)
                     for d in frame.detections]
            descs = matcher.descriptors(feats, frame.ego, scene.reference_ego,
                                        frame.intrinsics)
            for det, desc in zip(frame.detections, descs):
                by_id.setdefault(det.gt_id, []).append(desc[:6])
        for versions in by_id.values():
            for v in versions[1:]:
                np.testing.assert_allclose(v, versions[0], atol=1e-9)


class TestPairTensor:
    def test_single_pair(self, rng):
        fa = rng.normal(size=(1, 5))
        fb = rng.normal(size=(1, 5))
        out = build_pair_tensor(fa, fb)
        np.testing.assert_array_equal(out[0, 0], np.concatenate([fa[0], fb[0]]))

    def test_definition(self, rng):
        fa, fb = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        out = build_pair_tensor(fa, fb)
        for i, j in ((0, 3), (2, 1)):
            np.testing.assert_array_equal(out[i, j, :3], fa[i])
            np.testing.assert_array_equal(out[i, j, 3:], fb[j])

    def test_swap_transposes_with_halves_swapped(self, rng):
        fa, fb = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        ab = build_pair_tensor(fa, fb)
        ba = build_pair_tensor(fb, fa)
        np.testing.assert_array_equal(ba.transpose(1, 0, 2)[:, :, :2],
                                      ab[:, :, 2:])
        np.testing.assert_array_equal(ba.transpose(1, 0, 2)[:, :, 2:],
                                      ab[:, :, :2])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            build_pair_tensor(np.zeros((2, 3)), np.zeros((2, 4)))


class TestScorePairs:
    def test_locality_bit_identical(self, rng):
        # the 1x1 property: moving one descriptor only changes its row
        matcher = scoring_matcher(rng)
        fa = rng.normal(size=(4, 8))
        fb = rng.normal(size=(4, 8))
        base = matcher.bundle(fa, fb).S
        fa2 = fa.copy()
        fa2[2] += 0.5
        moved = matcher.bundle(fa2, fb).S
        for i in range(4):
            for j in range(4):
                if i == 2:
                    continue
                assert moved[i, j] == base[i, j]

    def test_values_in_open_unit_interval(self, rng):
        matcher = scoring_matcher(rng)
        out = matcher.bundle(rng.normal(size=(3, 8)), rng.normal(size=(3, 8))).S
        assert ((out > 0) & (out < 1)).all()

    def test_zero_final_weights_give_sigmoid_bias(self, rng):
        matcher = scoring_matcher(rng)
        matcher.params.scorer[-1].w[:] = 0.0
        matcher.params.scorer[-1].b[:] = 0.3
        out = matcher.bundle(rng.normal(size=(2, 8)), rng.normal(size=(3, 8))).S
        np.testing.assert_allclose(out, 1.0 / (1.0 + math.exp(-0.3)))


class TestAugmentNormalize:
    def test_two_entry_softmax_hand(self):
        s, delta = 0.3, 0.1
        bundle = augment_normalize(np.array([[s]]), delta)
        expected = math.exp(s) / (math.exp(s) + math.exp(delta))
        assert bundle.S1n[0, 0] == pytest.approx(expected, abs=1e-12)
        assert bundle.S1n[0, 1] == pytest.approx(1 - expected, abs=1e-12)
        assert bundle.S2n[0, 0] == pytest.approx(expected, abs=1e-12)
        assert bundle.fused[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_delta_to_minus_infinity_kills_null(self):
        bundle = augment_normalize(np.array([[0.4]]), -1e6)
        assert bundle.S1n[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert bundle.S1n[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_real_rows_sum_to_one(self, rng):
        base = rng.normal(size=(4, 3))
        bundle = augment_normalize(base, 0.7)
        np.testing.assert_allclose(bundle.S1n.sum(axis=1), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(bundle.S2n.sum(axis=0), np.ones(3), atol=1e-12)

    def test_fused_is_average_on_real_block(self, rng):
        base = rng.normal(size=(3, 3))
        bundle = augment_normalize(base, 0.2)
        np.testing.assert_allclose(
            bundle.fused[:3, :3],
            (bundle.S1n[:, :3] + bundle.S2n[:3, :]) / 2.0,
            atol=1e-15,
        )
        np.testing.assert_allclose(bundle.fused[:3, 3], bundle.S1n[:, 3])
        np.testing.assert_allclose(bundle.fused[3, :3], bundle.S2n[3, :])

    def test_base_separate_from_similarities(self, rng):
        logits = rng.normal(size=(2, 2))
        sims = 1.0 / (1.0 + np.exp(-logits))
        bundle = augment_normalize(sims, 8.0, base=logits)
        np.testing.assert_array_equal(bundle.S, sims)
        np.testing.assert_array_equal(bundle.S1n, augment_normalize(logits, 8.0).S1n)
        assert not np.array_equal(bundle.S1n, augment_normalize(sims, 8.0).S1n)

    def test_literal_axis_normalizes_columns_of_s1(self, rng):
        base = rng.normal(size=(3, 3))
        bundle = augment_normalize(base, 0.5, softmax_axis="literal")
        np.testing.assert_allclose(bundle.S1n[:, :3].sum(axis=0), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(bundle.S1n[:, 3], 1.0 / 3.0)
        np.testing.assert_allclose(bundle.S2n[:3, :].sum(axis=1), 1.0,
                                   atol=1e-12)


class TestLossAffinity:
    def one_to_one_bundle(self, prob):
        # invert softmax(z, delta) = prob with delta = 0
        z = math.log(prob / (1.0 - prob))
        return augment_normalize(np.array([[z]]), 0.0)

    def match_matrix(self, hit=True):
        m = np.zeros((2, 2), dtype=int)
        if hit:
            m[0, 0] = 1
        else:
            m[0, 1] = 1
            m[1, 0] = 1
        return m

    def test_perfect_match_zero_loss(self):
        bundle = self.one_to_one_bundle(1.0 - 1e-15)
        assert loss_affinity(bundle, self.match_matrix()) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_probability_is_log_two(self):
        bundle = self.one_to_one_bundle(0.5)
        assert loss_affinity(bundle, self.match_matrix()) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_degenerate_match_rejected(self):
        bundle = self.one_to_one_bundle(0.5)
        with pytest.raises(DegenerateMatchError):
            loss_affinity(bundle, np.zeros((2, 2), dtype=int))

    def test_gradient_matches_fd(self, rng):
        base = rng.normal(size=(3, 4))
        match = np.zeros((4, 5), dtype=int)
        match[0, 1] = match[1, 4] = match[2, 0] = 1  # one row matched to null
        match[3, 2] = match[3, 3] = 1  # entrants
        bundle = augment_normalize(base, 0.3)
        loss, grad = loss_affinity(bundle, match, with_grad=True)
        for idx in np.ndindex(base.shape):
            step = np.zeros_like(base)
            step[idx] = 1e-6
            hi = loss_affinity(augment_normalize(base + step, 0.3), match)
            lo = loss_affinity(augment_normalize(base - step, 0.3), match)
            fd = (hi - lo) / 2e-6
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_literal_gradient_matches_fd(self, rng):
        base = rng.normal(size=(3, 3))
        match = np.zeros((4, 4), dtype=int)
        match[0, 1] = match[1, 0] = match[2, 3] = 1
        match[3, 2] = 1
        kw = dict(softmax_axis="literal")
        bundle = augment_normalize(base, 0.3, **kw)
        loss, grad = loss_affinity(bundle, match, with_grad=True)
        for idx in np.ndindex(base.shape):
            step = np.zeros_like(base)
            step[idx] = 1e-6
            hi = loss_affinity(augment_normalize(base + step, 0.3, **kw), match)
            lo = loss_affinity(augment_normalize(base - step, 0.3, **kw), match)
            assert grad[idx] == pytest.approx((hi - lo) / 2e-6, rel=1e-5,
                                              abs=1e-9)

    def test_joint_composition(self):
        # joint = affinity + lam * mean pose loss over both frames' detections
        samples = small_samples(emit_maps=True)
        cfg = MatcherConfig(appearance_dim=8, embed_dim=6, use_pose_head=True,
                            scorer_hidden=(16, 12, 8, 8, 6), pose_hidden=(8, 6),
                            seed=3, lam=0.25)
        params = fit_input_standardization(samples, init_matcher_params(cfg))
        no_pose = replace(params, config=replace(cfg, lam=0.0))
        for sample in samples[:4]:
            res = forward_pair(sample, params)
            assert len(res["pose_losses"]) == len(sample.a) + len(sample.b)
            assert res["joint"] == pytest.approx(
                res["affinity"] + 0.25 * np.mean(res["pose_losses"]), abs=1e-12
            )
            assert res["joint"] > res["affinity"]
            assert forward_pair(sample, no_pose)["joint"] == res["affinity"]


class TestConfig:
    def test_defaults_match_documented_values(self):
        cfg = MatcherConfig()
        assert cfg.capacity == 30
        assert cfg.delta == 8.0
        assert cfg.lam == 0.005
        assert cfg.beta == 0.1
        assert cfg.n_max == 35
        assert cfg.momentum == 0.9
        assert len(cfg.scorer_hidden) + 1 == 6  # six-layer similarity estimator

    def test_validation(self):
        with pytest.raises(ConfigError):
            MatcherConfig(capacity=0)
        with pytest.raises(ConfigError):
            MatcherConfig(lam=-1.0)
        with pytest.raises(ConfigError):
            MatcherConfig(delta=float("inf"))
        with pytest.raises(ConfigError):
            MatcherConfig(use_pose_head=True, embed_dim=0)


class TestTraining:
    def test_separable_pair_converges_within_200_steps(self):
        # one trivially separable pair, 200 SGD steps
        samples = [s for s in small_samples() if len(s.a) >= 2 and len(s.b) >= 2]
        cfg = MatcherConfig(appearance_dim=8, epochs=200, seed=3,
                            scorer_hidden=(24, 16, 12, 8, 6))
        params, history = train_matcher(samples[:1], cfg)
        assert history[-1].affinity < 0.01

    def test_training_set_accuracy_reaches_one(self):
        samples = small_samples()
        cfg = MatcherConfig(appearance_dim=8, epochs=15, seed=3,
                            scorer_hidden=(24, 16, 12, 8, 6))
        params, history = train_matcher(samples, cfg)
        assert history[-1].accuracy > 0.95

    def test_bit_identical_across_runs(self):
        samples = small_samples()
        cfg = MatcherConfig(appearance_dim=8, epochs=4, seed=3,
                            scorer_hidden=(16, 12, 8, 8, 6))
        _, h1 = train_matcher(samples, cfg)
        _, h2 = train_matcher(samples, cfg)
        assert [(e.affinity, e.pose, e.accuracy) for e in h1] == \
               [(e.affinity, e.pose, e.accuracy) for e in h2]

    def test_non_finite_loss_aborts(self):
        samples = small_samples()
        cfg = MatcherConfig(appearance_dim=8, epochs=2, seed=3,
                            learning_rate=1e9, grad_clip=0.0,
                            scorer_hidden=(16, 12, 8, 8, 6))
        with pytest.raises(NonFiniteLossError):
            train_matcher(samples, cfg)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_matcher([], MatcherConfig())

    def test_resume_continues_epoch_numbering(self):
        samples = small_samples()
        cfg = MatcherConfig(appearance_dim=8, epochs=3, seed=3,
                            scorer_hidden=(16, 12, 8, 8, 6))
        params, h1 = train_matcher(samples, cfg)
        params, h2 = train_matcher(samples, cfg, params=params)
        assert h1[-1].epoch == 2
        assert h2[0].epoch == 3
        assert params.epochs_trained == 6

    def test_literal_axis_trains(self):
        # the alternative normalization reading optimizes a different
        # objective; it must train, not match the default's accuracy
        samples = small_samples()
        cfg = MatcherConfig(appearance_dim=8, epochs=12, seed=3,
                            softmax_axis="literal",
                            scorer_hidden=(24, 16, 12, 8, 6))
        params, history = train_matcher(samples, cfg)
        assert history[-1].affinity < 0.5 * history[0].affinity
        assert history[-1].accuracy > 0.5

    def test_checkpoint_doc_round_trip(self):
        samples = small_samples(emit_maps=True)
        cfg = MatcherConfig(appearance_dim=8, embed_dim=6, use_pose_head=True,
                            epochs=2, pose_pretrain_epochs=1, seed=3,
                            scorer_hidden=(16, 12, 8, 8, 6),
                            pose_hidden=(8, 6))
        params, _ = train_matcher(samples, cfg)
        doc = params_to_doc(params)
        back = params_from_doc(doc)
        assert params_to_doc(back) == doc


class TestGradients:
    def make_pose_setup(self):
        scenes = [generate_scene(SimConfig(
            seed=3, n_frames=12, n_objects=3, appearance_dim=4,
            emit_feature_maps=True, embed_dim=6, feature_map_size=(3, 3),
            appearance_sigma=0.05, feature_sigma=0.02))]
        samples = make_matching_dataset(scenes, n_max=8, pairs_per_scene=3, seed=0)
        cfg = MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                            scorer_hidden=(10, 8, 8, 6, 4), pose_hidden=(8, 6),
                            seed=5, lam=0.005)
        params = fit_input_standardization(samples, init_matcher_params(cfg))
        return samples, params

    def test_joint_loss_full_chain(self):
        samples, params = self.make_pose_setup()

        def f_for(sample):
            def f(_):
                res = forward_pair(sample, params, with_grad=True)
                return res["joint"], dict(_named_grads(params, res["grads"]))
            return f

        for sample in samples:
            report = grad_check(f_for(sample), dict(_named_arrays(params)),
                                tolerance=1e-4)
            assert report.passed, (report.worst_param, report.max_error)

    def test_pose_only_chain(self):
        samples, params = self.make_pose_setup()
        sample = samples[0]

        def f(_):
            res = forward_pair(sample, params, with_grad=True, pose_only=True)
            return res["joint"], dict(_named_grads(params, res["grads"]))

        report = grad_check(f, dict(_named_arrays(params)), tolerance=1e-4)
        assert report.passed, (report.worst_param, report.max_error)

    def test_weighted_pooling_chain(self):
        scenes = [generate_scene(SimConfig(
            seed=3, n_frames=12, n_objects=3, appearance_dim=4,
            emit_feature_maps=True, embed_dim=6, feature_map_size=(3, 3),
            appearance_sigma=0.05, feature_sigma=0.02))]
        samples = make_matching_dataset(scenes, n_max=8, pairs_per_scene=2, seed=0)
        cfg = MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                            scorer_hidden=(10, 8, 8, 6, 4), pose_hidden=(8, 6),
                            seed=5, lam=0.005, pooling="weighted")
        params = fit_input_standardization(samples, init_matcher_params(cfg))

        def f(_):
            res = forward_pair(samples[0], params, with_grad=True)
            return res["joint"], dict(_named_grads(params, res["grads"]))

        report = grad_check(f, dict(_named_arrays(params)), tolerance=1e-4)
        assert report.passed, (report.worst_param, report.max_error)


class TestEmptySides:
    def test_pair_with_empty_side(self):
        samples = small_samples()
        template = samples[0]
        cfg = MatcherConfig(appearance_dim=8, scorer_hidden=(16, 12, 8, 8, 6),
                            seed=2)
        params = fit_input_standardization(samples, init_matcher_params(cfg))
        match = np.zeros((len(template.a) + 1, 1), dtype=np.int64)
        match[:-1, 0] = 1  # everything leaves
        empty_b = PairSample(a=template.a, b=[], ego_a=template.ego_a,
                             ego_b=template.ego_b, ego_ref=template.ego_ref,
                             intrinsics_a=template.intrinsics_a,
                             intrinsics_b=template.intrinsics_b, match=match)
        res = forward_pair(empty_b, params, with_grad=True)
        assert np.isfinite(res["affinity"])
        assert res["bundle"].fused.shape == (len(template.a) + 1, 1)
        # null probability is 1 when there is nothing to match
        np.testing.assert_allclose(
            res["bundle"].S1n[: len(template.a), -1], 1.0
        )


class TestPerSideIntrinsics:
    """Each side of a training pair goes through its own frame's camera."""

    def two_frame_sample(self, emit_maps=False):
        scene = generate_scene(SimConfig(
            seed=21, n_frames=2, n_objects=4, appearance_dim=4,
            lateral_range=(-4, 4), depth_range=(20, 40),
            emit_feature_maps=emit_maps, embed_dim=6, feature_map_size=(3, 3),
            feature_sigma=0.02))
        later = scene.frames[1]
        later.intrinsics = replace(later.intrinsics, f_x=1.5 * later.intrinsics.f_x,
                                   f_y=1.5 * later.intrinsics.f_y)
        [sample] = make_matching_dataset([scene], n_max=1, pairs_per_scene=1, seed=0)
        assert sample.a and sample.b
        return scene, sample

    def test_training_geometry_matches_tracking_descriptors(self):
        scene, sample = self.two_frame_sample()
        cfg = MatcherConfig(appearance_dim=4, scorer_hidden=(10, 8, 8, 6, 4), seed=5)
        params = fit_input_standardization([sample], init_matcher_params(cfg))
        matcher = Matcher(params)
        rows_a, rows_b = (
            matcher.descriptors(feats, frame.ego, scene.reference_ego, frame.intrinsics)
            for frame, feats in zip(scene.frames, (sample.a, sample.b))
        )
        # standardization is fitted on the training-side descriptors ...
        np.testing.assert_array_equal(params.input_shift,
                                      np.array(rows_a + rows_b).mean(axis=0))
        # ... and the training pair scores exactly what tracking scores
        np.testing.assert_array_equal(forward_pair(sample, params)["bundle"].S,
                                      matcher.bundle(rows_a, rows_b).S)

    def test_pose_head_gradients(self):
        _, sample = self.two_frame_sample(emit_maps=True)
        cfg = MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                            scorer_hidden=(10, 8, 8, 6, 4), pose_hidden=(8, 6), seed=5)
        params = fit_input_standardization([sample], init_matcher_params(cfg))

        def f(_):
            res = forward_pair(sample, params, with_grad=True)
            return res["joint"], dict(_named_grads(params, res["grads"]))

        report = grad_check(f, dict(_named_arrays(params)), tolerance=1e-4)
        assert report.passed, (report.worst_param, report.max_error)


class TestAccuracyMetrics:
    def test_pair_accuracy_trained_beats_random(self, trained_matcher):
        samples = make_matching_dataset(
            [generate_scene(SimConfig(seed=778, n_frames=16, n_objects=4,
                                      appearance_dim=16))],
            n_max=10, pairs_per_scene=10, seed=4,
        )
        fresh = init_matcher_params(trained_matcher.config)
        fit_input_standardization(samples, fresh)
        assert pair_accuracy(samples, trained_matcher.params) > 0.95
        assert pair_accuracy(samples, fresh) < 0.7

    def trained_scores_by_label(self, trained_matcher, sim_kwargs):
        samples = make_matching_dataset(
            [generate_scene(SimConfig(seed=s, n_frames=20, n_objects=4,
                                      appearance_dim=16, **sim_kwargs))
             for s in (881, 882)],
            n_max=12, pairs_per_scene=12, seed=5,
        )
        same, cross = [], []
        for sample in samples:
            res = forward_pair(sample, trained_matcher.params)
            bundle = res["bundle"]
            n1, n2 = bundle.S.shape
            if n1 == 0 or n2 == 0:
                continue
            for i in range(n1):
                for j in range(n2):
                    (same if sample.match[i, j] else cross).append(bundle.fused[i, j])
        return np.array(same), np.array(cross)

    def test_heldout_auc_above_095(self, trained_matcher):
        same, cross = self.trained_scores_by_label(
            trained_matcher,
            dict(appearance_sigma=0.15, center_sigma_px=2.0,
                 depth_rel_sigma=0.05),
        )
        # rank-sum AUC of same-object vs cross-object scores
        scores = np.concatenate([same, cross])
        labels = np.concatenate([np.ones(len(same)), np.zeros(len(cross))])
        order = np.argsort(scores, kind="stable")
        ranks = np.empty(len(scores))
        ranks[order] = np.arange(1, len(scores) + 1)
        auc = (ranks[labels == 1].sum()
               - len(same) * (len(same) + 1) / 2) / (len(same) * len(cross))
        assert auc > 0.95

    def test_zero_noise_hard_margin(self, trained_matcher):
        same, cross = self.trained_scores_by_label(trained_matcher, {})
        assert same.min() > cross.max()
