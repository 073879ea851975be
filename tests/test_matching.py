import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from geotrack import matching
from geotrack.errors import ConfigError, DataError, NonFiniteLossError
from geotrack.geometry import (
    CameraIntrinsics,
    EgoPose,
    PixelObservation,
    normalize_rotation,
    recover_translation,
    reference_transform,
)
from geotrack.matching import (
    Matcher,
    MatcherConfig,
    PairSample,
    augment_normalize,
    build_pair_tensor,
    forward_pair,
    init_matcher_params,
    load_checkpoint,
    loss_affinity,
    pair_accuracy,
    params_from_doc,
    params_to_doc,
    score_pair_logits,
    train_matcher,
    _describe,
    _describe_sides,
    _named_arrays,
    _score,
)
from geotrack.numerics import _logcosh, mlp_backward, mlp_forward
from geotrack.scene import Detection, FrameRecord
from geotrack.simulator import SimConfig, generate_scene, make_matching_dataset
from helpers import (
    STORED_CHECKPOINT,
    fit_input_standardization,
    grad_check,
    raises_internal,
    reference_pair_logits,
    reference_split_logits,
    reference_train_matcher,
)

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
    det = Detection(
        bbox=(1000.0, 650.0, 100.0, 100.0), appearance=appearance, feature_map=feature_map,
        observation=PixelObservation(c=(1050.0, 700.0), T_z=4.0, R=(0.6, 0.8)),
    )
    return Matcher(init_matcher_params(cfg)).descriptors([det], IDENTITY, IDENTITY, K)[0]


def with_empty_b(sample):
    """``sample`` with no detections in frame b: everything in frame a leaves."""
    match = np.zeros((len(sample.frame_a.detections) + 1, 1), dtype=np.int64)
    match[:-1, 0] = 1
    return replace(sample, frame_b=replace(sample.frame_b, detections=[]), targets_b=(),
                   match=match)


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

    def test_one_array_per_frame(self):
        # a frame's descriptors are one (k, d) array, bit-equal to the rows
        # stacked from the list of them that descriptors used to return
        scene = generate_scene(SimConfig(seed=5, n_frames=2, n_objects=3,
                                         appearance_dim=4))
        frame = scene.frames[0]
        params = init_matcher_params(MatcherConfig(appearance_dim=4))
        rows = Matcher(params).descriptors(frame.detections, frame.ego, scene.reference_ego,
                                           frame.intrinsics)
        transform = reference_transform(frame.ego, scene.reference_ego)
        stacked = np.array(list(_describe(frame.detections, params, transform,
                                          frame.intrinsics)[1]))
        assert isinstance(rows, np.ndarray)
        assert rows.shape == stacked.shape and len(rows) == len(frame.detections) > 1
        assert rows.tobytes() == stacked.tobytes()

    def test_overflowing_pose_head_facing_is_bad_data(self):
        """A feature map so large that the pose head's facing overflows its
        norm is bad data (exit 3), and numpy prints no RuntimeWarning."""
        cfg = MatcherConfig(appearance_dim=2, embed_dim=6, use_pose_head=True)
        det = Detection(bbox=(1000.0, 650.0, 100.0, 100.0), appearance=np.zeros(2),
                        feature_map=np.full((3, 3, 6), 1e200))
        matcher = Matcher(init_matcher_params(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="zero or overflowing facing"):
                matcher.descriptors([det], IDENTITY, IDENTITY, K)

    def test_zero_noise_descriptors_agree(self):
        scene = generate_scene(SimConfig(seed=5, n_frames=10, n_objects=3,
                                         appearance_dim=4))
        cfg = MatcherConfig(appearance_dim=4, embed_dim=0)
        params = init_matcher_params(cfg)
        matcher = Matcher(params)

        by_id = {}
        for frame in scene.frames:
            descs = matcher.descriptors(frame.detections, frame.ego, scene.reference_ego,
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
        with raises_internal(re.escape("feature matrices (2, 3) / (2, 4) do not pair")):
            build_pair_tensor(np.zeros((2, 3)), np.zeros((2, 4)))


class TestScorePairs:
    def test_locality_bit_identical(self, rng):
        # the 1x1 property: moving one descriptor only changes its row
        params = scoring_matcher(rng).params

        def logits(fa, fb):
            return score_pair_logits(build_pair_tensor(fa, fb), params.scorer)

        fa = rng.normal(size=(4, 8))
        fb = rng.normal(size=(4, 8))
        base = logits(fa, fb)
        fa2 = fa.copy()
        fa2[2] += 0.5
        moved = logits(fa2, fb)
        for i in range(4):
            for j in range(4):
                if i == 2:
                    continue
                assert moved[i, j] == base[i, j]

    @pytest.mark.parametrize("name", ["shift", "scale"])
    def test_standardization_width_mismatch_is_internal(self, rng, name):
        matcher = scoring_matcher(rng)
        setattr(matcher.params, f"input_{name}", np.ones(9))
        rows = rng.normal(size=(3, 8))
        with raises_internal(f"input {name} of width 9 does not match descriptor width 8"):
            matcher.bundle(rows, rows)


# 30 x 30 and 41 x 17 pairs exceed one chunk
SCORE_SHAPES = [(1, 1), (1, 7), (7, 1), (0, 7), (30, 30), (41, 17)]


def _spread_rows(params, n_a, n_b):
    """Two sides of descriptor rows spread like the descriptors the
    standardization was fitted on."""
    rng = np.random.default_rng(100 * n_a + n_b)
    d = params.config.descriptor_dim
    return (params.input_shift + rng.normal(size=(n, d)) / params.input_scale
            for n in (n_a, n_b))


def _recorded_score(monkeypatch, *args):
    """``_score(*args)`` and the logits of each ``score_pair_logits`` call
    it made."""
    scored = []
    original = matching.score_pair_logits

    def record(*call_args, **kwargs):
        scored.append(original(*call_args, **kwargs))
        return scored[-1]

    monkeypatch.setattr(matching, "score_pair_logits", record)
    return _score(*args), scored


@pytest.fixture(params=["stored-checkpoint", "trained"])
def scoring_params(request):
    if request.param == "stored-checkpoint":
        return load_checkpoint(STORED_CHECKPOINT)
    return request.getfixturevalue("trained_matcher").params


class TestRowStandardizationOracle:
    """``_score`` standardizes each side's descriptor rows once, before
    pairing them. Its logits must be byte for byte those of standardizing
    every pair: on the taped path training runs (in one call) with the
    concatenated first layer, and on the tapeless path the tracker runs (in
    row chunks of at most ``SCORER_CHUNK_PAIRS`` pairs) with the first layer
    split by side in the same order."""

    @pytest.mark.parametrize("taped", [False, True], ids=["tapeless", "taped"])
    @pytest.mark.parametrize("n_a, n_b", SCORE_SHAPES)
    def test_bit_equal_to_pair_standardization(self, scoring_params, monkeypatch, taped,
                                               n_a, n_b):
        params = scoring_params
        feats_a, feats_b = _spread_rows(params, n_a, n_b)
        cache, ref_cache = ([], []) if taped else (None, None)
        bundle, scored = _recorded_score(monkeypatch, feats_a, feats_b, params, cache)
        if taped:
            expected = reference_pair_logits(feats_a, feats_b, params, ref_cache)
        else:
            expected = reference_split_logits(feats_a, feats_b, params)
        if n_a and n_b:
            chunk_rows = n_a if taped else max(1, matching.SCORER_CHUNK_PAIRS // n_b)
            assert [len(logits) for logits in scored] \
                == [min(chunk_rows, n_a - start) for start in range(0, n_a, chunk_rows)]
            assert np.concatenate(scored).tobytes() == expected.tobytes()
            assert len(cache or []) == len(ref_cache or [])
            for entry, ref_entry in zip(cache or [], ref_cache or []):
                assert [a.tobytes() for a in entry] == [a.tobytes() for a in ref_entry]
        else:
            assert scored == []
        reference = augment_normalize(expected, params.config.delta)
        for field in ("S1n", "S2n", "fused"):
            assert getattr(bundle, field).tobytes() == getattr(reference, field).tobytes()


class TestSplitFirstLayer:
    """The tapeless scorer splits its first layer by side, which sums in
    another order than the concatenated product: the logits agree to 1e-12
    and every decision is the same."""

    @pytest.mark.parametrize("n_a, n_b", [s for s in SCORE_SHAPES if s[0]])
    def test_agrees_with_concatenated_layer(self, scoring_params, monkeypatch, n_a, n_b):
        params = scoring_params
        feats_a, feats_b = _spread_rows(params, n_a, n_b)
        bundle, scored = _recorded_score(monkeypatch, feats_a, feats_b, params)
        concatenated = reference_pair_logits(feats_a, feats_b, params)
        np.testing.assert_allclose(np.concatenate(scored), concatenated, rtol=1e-12, atol=0)
        reference = augment_normalize(concatenated, params.config.delta)
        for axis in (0, 1):
            np.testing.assert_array_equal(bundle.fused.argmax(axis=axis),
                                          reference.fused.argmax(axis=axis))


class TestGroupedBundleOracle:
    """``Matcher.bundle`` over stacked row groups, the tracker's one call per
    frame, against one call per group with the scorer unchunked, byte for
    byte: every real row of fused and S1n, and each group's null row of S2n
    and fused."""

    @pytest.fixture
    def matcher(self):
        return Matcher(load_checkpoint(STORED_CHECKPOINT))

    def check(self, matcher, monkeypatch, sizes, n, chunk):
        params = matcher.params
        rng = np.random.default_rng(len(sizes) * 100 + n)
        rows, cols = (params.input_shift + rng.normal(size=(k, params.config.descriptor_dim))
                      / params.input_scale for k in (sum(sizes), n))
        starts = np.cumsum([0, *sizes])
        monkeypatch.setattr(matching, "SCORER_CHUNK_PAIRS", 10**9)
        per_group = [matcher.bundle(rows[a:b], cols) for a, b in zip(starts, starts[1:])]
        monkeypatch.setattr(matching, "SCORER_CHUNK_PAIRS", chunk)
        got = matcher.bundle(rows, cols, sizes)
        r, g = len(rows), len(sizes)
        assert (got.S1n.shape, got.S2n.shape, got.fused.shape) \
            == ((r, n + 1), (r + g, n), (r + g, n + 1))
        for k, (a, b, ref) in enumerate(zip(starts, starts[1:], per_group)):
            assert got.fused[a:b].tobytes() == ref.fused[:-1].tobytes()
            assert got.S1n[a:b].tobytes() == ref.S1n.tobytes()
            assert got.S2n[a:b].tobytes() == ref.S2n[:-1].tobytes()
            assert got.S2n[r + k].tobytes() == ref.S2n[-1].tobytes()
            assert got.fused[r + k].tobytes() == ref.fused[-1].tobytes()

    def test_group_split_across_chunks(self, matcher, monkeypatch):
        n = 7
        chunk_rows = matching.SCORER_CHUNK_PAIRS // n
        # the second group holds rows chunk_rows - 3 ... chunk_rows + 2
        self.check(matcher, monkeypatch, [chunk_rows - 3, 6, 10], n,
                   matching.SCORER_CHUNK_PAIRS)

    def test_chunk_of_one_pair(self, matcher, monkeypatch):
        self.check(matcher, monkeypatch, [3, 1, 4], 1, 1)

    def test_chunk_below_detection_count(self, matcher, monkeypatch):
        self.check(matcher, monkeypatch, [2, 5, 3], 7, 3)

    def test_one_row_groups(self, matcher, monkeypatch):
        self.check(matcher, monkeypatch, [1, 1, 1, 1], 5, matching.SCORER_CHUNK_PAIRS)
        self.check(matcher, monkeypatch, [1, 1, 1, 1], 5, 5)

    def test_zero_detections(self, matcher, monkeypatch):
        self.check(matcher, monkeypatch, [2, 3, 1], 0, matching.SCORER_CHUNK_PAIRS)

    def test_sizes_must_cover_the_rows(self):
        with raises_internal(r"group sizes \[2, 2\] do not add up to 3 rows"):
            augment_normalize(np.zeros((3, 2)), 0.5, [2, 2])


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
        # a sample's match matrix is checked once, when the sample is built
        frames = [FrameRecord(frame_index=k, timestamp=float(k), intrinsics=K, ego=IDENTITY,
                              detections=[Detection(bbox=(750.0, 400.0, 100.0, 100.0))])
                  for k in (0, 1)]
        for match, message in (
            (np.zeros((2, 2), dtype=int), "row 0 of the match matrix must sum to 1"),
            (np.array([[0, 1], [0, 0]]), "column 0 of the match matrix must sum to 1"),
            (np.zeros((3, 2), dtype=int),
             re.escape("match matrix (3, 2) does not fit real counts (1, 1)")),
        ):
            with raises_internal(message):
                PairSample(frame_a=frames[0], frame_b=frames[1], targets_a=(None,),
                           targets_b=(None,), ego_ref=IDENTITY, match=match)

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
            assert len(res["pose_losses"]) == \
                len(sample.frame_a.detections) + len(sample.frame_b.detections)
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

    def test_from_dict(self):
        cfg = MatcherConfig.from_dict({"scorer_hidden": [8, 4], "delta": 6,
                                       "pose_pretrain_epochs": None})
        assert cfg == MatcherConfig(scorer_hidden=(8, 4), delta=6)
        assert MatcherConfig.from_dict(params_to_doc(
            init_matcher_params(cfg))["config"]) == cfg

    @pytest.mark.parametrize("doc, named", [
        ({"bogus": 1, "seed": 2}, "bogus"),
        ({"epochs": "5"}, "epochs"),
        ({"use_pose_head": 1}, "use_pose_head"),
        ({"delta": float("nan")}, "delta"),
        ({"center_scale": [1600.0, "x"]}, "center_scale"),
        ({"scorer_hidden": 8}, "scorer_hidden"),
        ({"pose_pretrain_epochs": 1.5}, "pose_pretrain_epochs"),
    ])
    def test_from_dict_rejects(self, doc, named):
        with pytest.raises(ConfigError, match=named):
            MatcherConfig.from_dict(doc)


class TestTraining:
    def test_separable_pair_converges_within_200_steps(self):
        # one trivially separable pair, 200 SGD steps
        samples = [s for s in small_samples()
                   if len(s.frame_a.detections) >= 2 and len(s.frame_b.detections) >= 2]
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

    def test_grads_keyed_like_params(self):
        obs_samples = small_samples()
        obs_params = fit_input_standardization(obs_samples, init_matcher_params(
            MatcherConfig(appearance_dim=8, scorer_hidden=(16, 12, 8, 8, 6), seed=2)))
        samples, pose_params = self.make_pose_setup()
        for sample, params, pose_only in ((obs_samples[0], obs_params, False),
                                          (samples[0], pose_params, False),
                                          (samples[0], pose_params, True)):
            grads = forward_pair(sample, params, with_grad=True,
                                 pose_only=pose_only)["grads"]
            assert {k: g.shape for k, g in grads.items()} == \
                {k: a.shape for k, a in _named_arrays(params).items()}

    def test_joint_loss_full_chain(self):
        samples, params = self.make_pose_setup()

        def f_for(sample):
            def f(_):
                res = forward_pair(sample, params, with_grad=True)
                return res["joint"], res["grads"]
            return f

        for sample in samples:
            report = grad_check(f_for(sample), _named_arrays(params),
                                tolerance=1e-4)
            assert report.passed, (report.worst_param, report.max_error)

    def test_pose_only_chain(self):
        samples, params = self.make_pose_setup()
        sample = samples[0]

        def f(_):
            res = forward_pair(sample, params, with_grad=True, pose_only=True)
            return res["joint"], res["grads"]

        report = grad_check(f, _named_arrays(params), tolerance=1e-4)
        assert report.passed, (report.worst_param, report.max_error)


class TestEmptySides:
    def test_pair_with_empty_side(self):
        samples = small_samples()
        template = samples[0]
        cfg = MatcherConfig(appearance_dim=8, scorer_hidden=(16, 12, 8, 8, 6),
                            seed=2)
        params = fit_input_standardization(samples, init_matcher_params(cfg))
        n_a = len(template.frame_a.detections)
        empty_b = with_empty_b(template)
        res = forward_pair(empty_b, params, with_grad=True)
        assert np.isfinite(res["affinity"])
        assert res["bundle"].fused.shape == (n_a + 1, 1)
        # null probability is 1 when there is nothing to match
        np.testing.assert_allclose(
            res["bundle"].S1n[:n_a, -1], 1.0
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
        assert sample.frame_a.detections and sample.frame_b.detections
        return scene, sample

    def test_training_geometry_matches_tracking_descriptors(self):
        scene, sample = self.two_frame_sample()
        assert sample.frame_a is scene.frames[0] and sample.frame_b is scene.frames[1]
        # the second scorer's widths are multiples of 8, so tracking scores
        # its hidden layers through BLAS gemm
        for hidden in ((10, 8, 8, 6, 4), (64, 48, 32, 16, 8)):
            cfg = MatcherConfig(appearance_dim=4, scorer_hidden=hidden, seed=5)
            params = fit_input_standardization([sample], init_matcher_params(cfg))
            matcher = Matcher(params)
            rows_a, rows_b = (
                matcher.descriptors(frame.detections, frame.ego, scene.reference_ego,
                                    frame.intrinsics)
                for frame in scene.frames
            )
            # standardization is fitted on the training-side descriptors ...
            np.testing.assert_array_equal(params.input_shift,
                                          np.concatenate([rows_a, rows_b]).mean(axis=0))
            # ... and the training pair scores exactly what tracking scores
            assert_bits_equal(forward_pair(sample, params)["bundle"].fused,
                              matcher.bundle(rows_a, rows_b).fused, hidden)

    def test_pose_head_gradients(self):
        _, sample = self.two_frame_sample(emit_maps=True)
        cfg = MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                            scorer_hidden=(10, 8, 8, 6, 4), pose_hidden=(8, 6), seed=5)
        params = fit_input_standardization([sample], init_matcher_params(cfg))

        def f(_):
            res = forward_pair(sample, params, with_grad=True)
            return res["joint"], res["grads"]

        report = grad_check(f, _named_arrays(params), tolerance=1e-4)
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
            n1, n2 = len(sample.frame_a.detections), len(sample.frame_b.detections)
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


# --- reference: the descriptor chain run one detection at a time ---------------------
#
# The matcher runs each frame side's descriptor chain on (k, ...) arrays. These
# functions are the chain as it was written per detection, with plain
# per-vector norms and losses; the side chain must reproduce them bit for bit.


def _ref_norm(v):
    return float(np.linalg.norm(v))


def _ref_forward_detection(det, target, params, B, d_off, C, K):
    cfg = params.config
    tape = SimpleNamespace(detection=det, B=B, C=C, K=K, pose_loss=None, embedding=None)
    if cfg.embed_dim > 0 and det.feature_map is not None:
        fmap = det.feature_map
        logits = fmap @ params.attention_w + params.attention_b[0]
        e = np.exp(logits - logits.max())
        attn = e / e.sum()
        pooled = np.einsum("ij,ije->e", attn, fmap) / (fmap.shape[0] * fmap.shape[1])
        tape.attn, tape.embedding = attn, pooled
    if cfg.use_pose_head:
        tape.head_cache = []
        out = mlp_forward(params.pose_head,
                          (tape.embedding - params.head_shift) * params.head_scale,
                          cache=tape.head_cache)
        sx, sy = cfg.center_scale
        tape.center = np.array([out[0] * sx, out[1] * sy])
        tape.depth = out[2] * cfg.depth_scale
        tape.r_raw_norm = _ref_norm(out[3:5])
        tape.r_hat = out[3:5] / tape.r_raw_norm
        t_cam = np.array([(tape.center[0] - K.p_x) * tape.depth / K.f_x,
                          (tape.center[1] - K.p_y) * tape.depth / K.f_y,
                          tape.depth])
        t_ref = B @ t_cam + d_off
        r_ref = C @ tape.r_hat
        if target is not None:
            c_star, tz_star, r_star = target
            tape.target_vec = (np.array([c_star[0], c_star[1], tz_star]),
                               np.asarray(r_star, dtype=np.float64))
            estimate = np.array([tape.center[0], tape.center[1], tape.depth])
            tape.pose_loss = float(np.sum(_logcosh(tape.target_vec[1] - tape.r_hat))) \
                + cfg.beta * _ref_norm(tape.target_vec[0] - estimate)
    else:
        t_ref = B @ recover_translation(det.observation, K) + d_off
        r_ref = normalize_rotation(C @ normalize_rotation(det.observation.R))
    emb = tape.embedding if tape.embedding is not None else np.zeros(cfg.embed_dim)
    tape.geometry = np.concatenate([t_ref, r_ref, [0.0], emb])
    return tape


def _ref_backward_detection(tape, d_geometry, pose_weight, params, grads):
    cfg = params.config
    K = tape.K
    d_emb = d_geometry[6:].copy()
    if cfg.use_pose_head:
        d_t_cam = tape.B.T @ d_geometry[:3]
        d_r_hat = tape.C.T @ d_geometry[3:5]
        center, depth = tape.center, tape.depth
        d_center = np.array([d_t_cam[0] * depth / K.f_x, d_t_cam[1] * depth / K.f_y])
        d_depth = (d_t_cam[0] * (center[0] - K.p_x) / K.f_x
                   + d_t_cam[1] * (center[1] - K.p_y) / K.f_y + d_t_cam[2])
        if tape.pose_loss is not None and pose_weight != 0.0:
            t_target, r_target = tape.target_vec
            d_r_hat = d_r_hat + pose_weight * np.tanh(tape.r_hat - r_target)
            d = np.array([center[0], center[1], depth]) - t_target
            norm = np.linalg.norm(d)
            unit = np.zeros_like(d) if norm == 0.0 else d / norm
            d_trans = pose_weight * cfg.beta * unit
            d_center = d_center + d_trans[:2]
            d_depth = d_depth + d_trans[2]
        r_hat = tape.r_hat
        d_r_raw = (d_r_hat - r_hat * float(r_hat @ d_r_hat)) / tape.r_raw_norm
        sx, sy = cfg.center_scale
        d_out = np.array([d_center[0] * sx, d_center[1] * sy, d_depth * cfg.depth_scale,
                          d_r_raw[0], d_r_raw[1]])
        head_grads, d_head_in = mlp_backward(params.pose_head, tape.head_cache, d_out)
        for i, (dw, db) in enumerate(head_grads):
            grads[f"pose_head.{i}.w"] += dw
            grads[f"pose_head.{i}.b"] += db
        d_emb += d_head_in * params.head_scale
    if tape.embedding is not None and d_emb.any():
        fmap, attn = tape.detection.feature_map, tape.attn
        d_attn = np.einsum("ije,e->ij", fmap, d_emb) / (fmap.shape[0] * fmap.shape[1])
        d_logits = attn * (d_attn - float((attn * d_attn).sum()))
        grads["attention.w"] += np.einsum("ij,ije->e", d_logits, fmap)
        grads["attention.b"] += d_logits.sum()


def _ref_describe(frame, targets, params, ego_ref):
    B, d_off, C = reference_transform(frame.ego, ego_ref)
    tapes = [_ref_forward_detection(det, target, params, B, d_off, C, frame.intrinsics)
             for det, target in zip(frame.detections, targets)]
    rows = [np.concatenate([t.geometry, det.appearance])
            for t, det in zip(tapes, frame.detections)]
    return tapes, np.array(rows).reshape(len(rows), params.config.descriptor_dim)


def _ref_forward_pair(sample, params, pose_only=False):
    """Pose losses, joint loss and gradients of one pair, per detection."""
    cfg = params.config
    n1, n2 = len(sample.frame_a.detections), len(sample.frame_b.detections)
    tapes_a, feats_a = _ref_describe(sample.frame_a, sample.targets_a, params,
                                     sample.ego_ref)
    tapes_b, feats_b = _ref_describe(sample.frame_b, sample.targets_b, params,
                                     sample.ego_ref)
    tapes = tapes_a + tapes_b
    pose_losses = [t.pose_loss for t in tapes if t.pose_loss is not None]
    mean_pose = float(np.mean(pose_losses)) if pose_losses else 0.0
    grads = {name: np.zeros_like(a) for name, a in _named_arrays(params).items()}
    geom_width = 6 + cfg.embed_dim
    d_geometry = np.zeros((n1 + n2, geom_width))
    if pose_only:
        joint, pose_weight = mean_pose, 1.0
    else:
        cache = []
        bundle = _score(feats_a, feats_b, params, cache)
        affinity, d_logits = loss_affinity(bundle, sample.match, with_grad=True)
        joint, pose_weight = affinity + cfg.lam * mean_pose, cfg.lam
        if n1 and n2:
            scorer_grads, d_x = mlp_backward(params.scorer, cache,
                                             d_logits.reshape(n1 * n2, 1))
            for i, (dw, db) in enumerate(scorer_grads):
                grads[f"scorer.{i}.w"] += dw
                grads[f"scorer.{i}.b"] += db
            scale2 = np.concatenate([params.input_scale, params.input_scale])
            d_pairs = (d_x * scale2).reshape(n1, n2, -1)
            d = cfg.descriptor_dim
            d_geometry = np.concatenate([
                d_pairs[:, :, :d].sum(axis=1), d_pairs[:, :, d:].sum(axis=0)
            ])[:, :geom_width]
    weight = pose_weight / len(pose_losses) if pose_losses else 0.0
    for tape, dg in zip(tapes, d_geometry):
        _ref_backward_detection(tape, dg, weight, params, grads)
    return {"rows": (feats_a, feats_b), "pose_losses": pose_losses, "joint": joint,
            "grads": grads}


def assert_bits_equal(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    assert actual.dtype == expected.dtype, what
    # byte equality: the sign of zero counts, as does every last bit
    assert actual.tobytes() == expected.tobytes(), what


def _oracle_samples(emit_maps, drop_every=0):
    """Pairs with false positives (no pose target) and misses; with
    ``drop_every`` every that-many-th detection of a pair also loses its
    target."""
    scenes = [generate_scene(SimConfig(
        seed=70 + s, n_frames=12, n_objects=4, appearance_dim=4, fp_rate=0.5,
        miss_rate=0.1, appearance_sigma=0.05, center_sigma_px=1.0,
        emit_feature_maps=emit_maps, embed_dim=6, feature_map_size=(3, 2),
        feature_sigma=0.05)) for s in range(2)]
    samples = make_matching_dataset(scenes, n_max=8, pairs_per_scene=4, seed=0)
    if drop_every:
        for i, sample in enumerate(samples):
            targets = [None if j % drop_every == 0 else target for j, target in
                       enumerate(sample.targets_a + sample.targets_b)]
            n_a = len(sample.targets_a)
            samples[i] = replace(sample, targets_a=tuple(targets[:n_a]),
                                 targets_b=tuple(targets[n_a:]))
    samples.append(with_empty_b(samples[0]))  # one empty side
    return samples


class TestSideChainOracle:
    """The (k, ...) side chain against the per-detection chain it replaced."""

    @pytest.mark.parametrize("route", [
        dict(use_pose_head=True),
        dict(use_pose_head=True, lam=0.0),
        dict(use_pose_head=True, pose_only=True),
        dict(),
        dict(embed_dim=0),
    ])
    def test_bit_identical_to_per_detection_chain(self, route):
        route = dict(route)
        pose_only = route.pop("pose_only", False)
        cfg = MatcherConfig(**{"appearance_dim": 4, "embed_dim": 6,
                               "scorer_hidden": (10, 8, 8, 6, 4), "pose_hidden": (8, 6),
                               "seed": 5, "lam": 0.5, **route})
        samples = _oracle_samples(emit_maps=cfg.embed_dim > 0,
                                  drop_every=3 if cfg.use_pose_head else 0)
        params = fit_input_standardization(samples, init_matcher_params(cfg))
        for sample in samples:
            ref = _ref_forward_pair(sample, params, pose_only=pose_only)
            new = forward_pair(sample, params, with_grad=True, pose_only=pose_only)
            for (_, rows), ref_rows in zip(_describe_sides(sample, params, _describe),
                                           ref["rows"]):
                assert_bits_equal(rows, ref_rows, "descriptor rows")
            assert_bits_equal(new["pose_losses"], ref["pose_losses"], "pose losses")
            assert_bits_equal(new["joint"], ref["joint"], "joint loss")
            assert new["grads"].keys() == ref["grads"].keys()
            for name, grad in ref["grads"].items():
                assert_bits_equal(new["grads"][name], grad, name)
        if cfg.use_pose_head:
            # the cases reach both branches of the pose loss
            targeted = [t is not None for s in samples for t in s.targets_a + s.targets_b]
            assert any(targeted) and not all(targeted)


def _route_config(**route):
    return MatcherConfig(**{"appearance_dim": 4, "embed_dim": 0,
                            "scorer_hidden": (10, 8, 8, 6, 4), "pose_hidden": (8, 6),
                            "seed": 5, "epochs": 3, "pose_pretrain_epochs": 1, **route})


class TestDescriptorRowsOnce:
    """With only the scorer training, descriptor rows are built once per run."""

    def test_cached_rows_bit_identical(self):
        cfg = _route_config()
        samples = _oracle_samples(emit_maps=False)
        params = fit_input_standardization(samples, init_matcher_params(cfg))
        rows, _ = matching._input_statistics(samples, params)
        assert any(len(sample.frame_b.detections) == 0 for sample in samples)
        for sample, sample_rows in zip(samples, rows):
            for with_grad in (False, True):
                ref = forward_pair(sample, params, with_grad=with_grad)
                new = forward_pair(sample, params, with_grad=with_grad, rows=sample_rows)
                assert_bits_equal(new["joint"], ref["joint"], "joint loss")
                assert_bits_equal(new["bundle"].fused, ref["bundle"].fused, "fused")
            assert new["grads"].keys() == ref["grads"].keys()
            for name, grad in ref["grads"].items():
                assert_bits_equal(new["grads"][name], grad, name)

    def test_training_bit_identical_to_describing_every_call(self, monkeypatch):
        samples = _oracle_samples(emit_maps=False)
        train, heldout = samples[::2], samples[1::2]
        original = matching.forward_pair
        reused = []

        def run():
            params, h1 = train_matcher(train, _route_config(), heldout=heldout)
            params, h2 = train_matcher(train, _route_config(), params=params,
                                       heldout=heldout)
            return params, [(e.affinity, e.pose, e.accuracy) for e in h1 + h2]

        def check_rows(sample, params, rows=None, **kwargs):
            # rows handed in are those _describe gives at this very call
            if rows is not None:
                reused.append(sample)
                for got, (_, want) in zip(rows, _describe_sides(sample, params, _describe)):
                    assert_bits_equal(got, want, "reused rows")
            return original(sample, params, rows=rows, **kwargs)

        monkeypatch.setattr(matching, "forward_pair", check_rows)
        cached_params, cached_history = run()
        assert {id(s) for s in reused} == {id(s) for s in samples}
        monkeypatch.setattr(matching, "forward_pair",
                            lambda *args, rows=None, **kwargs: original(*args, **kwargs))
        params, history = run()
        assert_bits_equal(cached_history, history, "history")
        for name, arr in _named_arrays(params).items():
            assert_bits_equal(_named_arrays(cached_params)[name], arr, name)
        for name in ("input_scale", "input_shift"):
            assert_bits_equal(getattr(cached_params, name), getattr(params, name), name)

    @pytest.mark.parametrize("route, once", [
        (dict(), True),
        (dict(embed_dim=6), False),
        (dict(embed_dim=6, use_pose_head=True), False),
    ])
    def test_describe_calls(self, monkeypatch, route, once):
        samples = _oracle_samples(emit_maps=route.get("embed_dim", 0) > 0)
        train, heldout = samples[::2], samples[1::2]
        calls = {"_describe": 0, "forward_pair": 0, "reference_transform": 0}

        def counted(name):
            original = getattr(matching, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(matching, name, wrapper)

        counted("_describe")
        counted("forward_pair")
        counted("reference_transform")
        train_matcher(train, _route_config(**route), heldout=heldout)
        assert calls["forward_pair"] > len(train) + len(heldout)
        sides = 2 * len(train)  # the input-statistics pass
        if once:
            assert calls["_describe"] == sides + 2 * len(heldout)
        else:
            assert calls["_describe"] == sides + 2 * calls["forward_pair"]
        # on every route, one reference transform per sample side and call
        assert calls["reference_transform"] == 2 * (len(train) + len(heldout))


class TestFlatUpdate:
    """Training's flat parameter vector against the per-array update it
    replaced (``helpers.reference_train_matcher``), bit for bit."""

    @pytest.mark.parametrize("route", [
        dict(),  # observation route
        dict(embed_dim=6),  # attention without a pose head
        dict(embed_dim=6, use_pose_head=True),  # with a pose-only epoch
        dict(embed_dim=6, use_pose_head=True, grad_clip=0.05),
        dict(embed_dim=6, use_pose_head=True, grad_clip=0.0),
        dict(grad_clip=0.05),
    ])
    def test_bit_identical_to_per_array_update(self, route):
        samples = _oracle_samples(emit_maps=route.get("embed_dim", 0) > 0)
        train, heldout = samples[::2], samples[1::2]
        cfg = _route_config(**route)
        params, ref_params, clipped = None, None, 0
        for run in ("fresh", "resumed"):
            params, history = train_matcher(train, cfg, params=params, heldout=heldout)
            ref_params, ref_history, clips = reference_train_matcher(
                train, cfg, params=ref_params, heldout=heldout)
            clipped += clips
            assert_bits_equal([(e.epoch, e.affinity, e.pose, e.accuracy) for e in history],
                              ref_history, f"{run} history")
            ref_arrays = _named_arrays(ref_params)
            assert _named_arrays(params).keys() == ref_arrays.keys()
            for name, arr in _named_arrays(params).items():
                assert_bits_equal(arr, ref_arrays[name], f"{run} {name}")
        if 0 < cfg.grad_clip < 1:
            assert clipped > 0, "the small clip must trigger"
        if cfg.use_pose_head:  # one pose-only epoch, in the fresh run
            assert params.epochs_trained == 2 * cfg.epochs + cfg.pose_pretrain_epochs

    def test_segments(self):
        cfg = _route_config(embed_dim=6, use_pose_head=True)
        params = init_matcher_params(cfg)
        before = {name: arr.copy() for name, arr in _named_arrays(params).items()}
        flat = matching._FlatTrainables(params)
        names = list(before)
        assert list(flat.grads) == names
        for name, arr in _named_arrays(params).items():
            # every trainable is a view into the one vector, values kept
            assert np.shares_memory(arr, flat.theta)
            assert_bits_equal(arr, before[name], name)

        def covered(span):
            lo, hi = span.indices(len(flat.theta))[:2]
            return sorted(n for n, (a, b, _) in flat.spans.items() if lo <= a and b <= hi)

        assert covered(flat.decay) == sorted(
            n for n in names if n.endswith(".w") and not n.startswith("attention"))
        assert covered(flat.pose_head) == sorted(n for n in names if n.startswith("pose_head"))
        assert covered(slice(flat.upstream, None)) == sorted(
            n for n in names if n.startswith(("pose_head", "attention")))
