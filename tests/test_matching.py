import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack import matching
from geotrack.errors import ConfigError, DataError, NonFiniteLossError
from geotrack.geometry import (
    CameraIntrinsics,
    EgoPose,
    PixelObservation,
    normalize_rotation,
    reference_transform,
)
from geotrack.matching import (
    Matcher,
    MatcherConfig,
    PairSample,
    augment_normalize,
    build_pair_tensor,
    init_matcher_params,
    load_checkpoint,
    loss_affinity,
    pair_accuracy,
    params_from_doc,
    params_to_doc,
    score_pair_logits,
    train_matcher,
    _describe,
)
from geotrack.numerics import _logcosh, mlp_backward, mlp_forward
from geotrack.scene import Detection, FrameRecord
from geotrack.simulator import SimConfig, generate_scene, make_matching_dataset
from helpers import (
    STORED_CHECKPOINT,
    fit_input_standardization,
    grad_check,
    named_arrays,
    raises_internal,
    reference_broadcast_logits,
    reference_forward_pair,
    reference_pair_accuracy,
    reference_pair_logits,
    reference_recover_translation,
    reference_split_logits,
    reference_train_matcher,
    training_forward_pair,
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


def with_resized_b_maps(sample):
    """``sample`` with frame b's feature maps cut to their top-left (2, 1)
    cells, so that its two frames' maps differ in (H, W)."""
    detections = [replace(det, feature_map=det.feature_map[:2, :1].copy())
                  for det in sample.frame_b.detections]
    return replace(sample, frame_b=replace(sample.frame_b, detections=detections))


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
        side = matching._side_inputs(frame.detections, frame.intrinsics, params.config)
        stacked = np.array(list(_describe(matching._stack([side], [transform]), params)[1]))
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


def _recorded_score(monkeypatch, feats_a, feats_b, params, taped=False):
    """The similarity bundle of two descriptor matrices, the logits of each
    ``score_pair_logits`` call that made it and each call's tape (None when
    tapeless). Tapeless, ``Matcher.bundle`` scores them, as the tracker
    does; taped, the SGD step ``forward_pair`` does, on a stand-in sample
    of those detection counts, whose capacity it may pass."""
    scored, tapes = [], []
    original = matching.score_pair_logits

    def record(*call_args, **kwargs):
        tapes.append(kwargs.get("cache"))
        scored.append(original(*call_args, **kwargs))
        return scored[-1]

    monkeypatch.setattr(matching, "score_pair_logits", record)
    if not taped:
        return Matcher(params).bundle(feats_a, feats_b), scored, tapes
    n_a, n_b = len(feats_a), len(feats_b)
    sample = SimpleNamespace(frame_a=SimpleNamespace(detections=[None] * n_a),
                             frame_b=SimpleNamespace(detections=[None] * n_b),
                             match=np.zeros((n_a + 1, n_b + 1), dtype=np.int64))
    roomy = replace(params, config=replace(params.config, capacity=max(n_a, n_b, 1)))
    bundle = training_forward_pair(sample, roomy, rows=(feats_a, feats_b))["bundle"]
    return bundle, scored, tapes


@pytest.fixture(params=["stored-checkpoint", "trained"])
def scoring_params(request):
    if request.param == "stored-checkpoint":
        return load_checkpoint(STORED_CHECKPOINT)
    return request.getfixturevalue("trained_matcher").params


class TestRowStandardizationOracle:
    """Scoring standardizes each side's descriptor rows once, before
    pairing them. Its logits must be byte for byte those of standardizing
    every pair: on the taped path training runs (in one call) with the
    concatenated first layer, and on the tapeless path the tracker runs (in
    row chunks of at most ``SCORER_CHUNK_PAIRS`` pairs) in float32 with the
    first layer split by side in the same order."""

    @pytest.mark.parametrize("taped", [False, True], ids=["tapeless", "taped"])
    @pytest.mark.parametrize("n_a, n_b", SCORE_SHAPES)
    def test_bit_equal_to_pair_standardization(self, scoring_params, monkeypatch, taped,
                                               n_a, n_b):
        params = scoring_params
        feats_a, feats_b = _spread_rows(params, n_a, n_b)
        ref_cache = [] if taped else None
        bundle, scored, tapes = _recorded_score(monkeypatch, feats_a, feats_b, params, taped)
        if taped:
            expected = reference_pair_logits(feats_a, feats_b, params, ref_cache)
        else:
            expected = reference_split_logits(feats_a, feats_b, params)
        if n_a and n_b:
            chunk_rows = n_a if taped else max(1, matching.SCORER_CHUNK_PAIRS // n_b)
            assert [logits.size for logits in scored] \
                == [min(chunk_rows, n_a - start) * n_b for start in range(0, n_a, chunk_rows)]
            assert np.concatenate(scored).tobytes() == expected.tobytes()
            # only the taped call keeps a tape, entry for entry the reference's
            assert [tape is None for tape in tapes] == [not taped] * len(scored)
            cache = tapes[0] or []
            assert len(cache) == len(ref_cache or [])
            for entry, ref_entry in zip(cache, ref_cache or []):
                assert [a.tobytes() for a in entry] == [a.tobytes() for a in ref_entry]
        else:
            assert scored == []
        reference = augment_normalize(expected, params.config.delta)
        for field in ("S1n", "S2n", "fused"):
            assert getattr(bundle, field).tobytes() == getattr(reference, field).tobytes()


class TestSplitFirstLayer:
    """The tapeless scorer runs in float32 and splits its first layer by
    side, which sums in another order than the float64 concatenated
    product: the logits agree to 1e-5 relative to 1 + |logit| (float32
    keeps 24 bits, about 6e-8 per rounding) and every decision is the same."""

    @pytest.mark.parametrize("n_a, n_b", [s for s in SCORE_SHAPES if s[0]])
    def test_agrees_with_concatenated_layer(self, scoring_params, monkeypatch, n_a, n_b):
        params = scoring_params
        feats_a, feats_b = _spread_rows(params, n_a, n_b)
        bundle, scored, _ = _recorded_score(monkeypatch, feats_a, feats_b, params)
        concatenated = reference_pair_logits(feats_a, feats_b, params)
        np.testing.assert_allclose(np.concatenate(scored).reshape(n_a, n_b), concatenated,
                                   rtol=1e-5, atol=1e-5)
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


class TestPairChunks:
    """``_pair_chunks`` cuts the pairs of stacked blocks into the chunks the
    tapeless pass scores: every pair exactly once, in row-major order of
    the blocks, and no chunk past ``SCORER_CHUNK_PAIRS`` pairs, even where
    one row of a block is wider than that."""

    @given(chunk=st.integers(1, 12),
           shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 30)), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_cover_every_pair_once_in_order(self, chunk, shapes):
        with mock.patch.object(matching, "SCORER_CHUNK_PAIRS", chunk):
            chunks = list(matching._pair_chunks(shapes))
        pairs, a, b = [], 0, 0
        for n_a, n_b in shapes:
            pairs += [(i, j) for i in range(a, a + n_a) for j in range(b, b + n_b)]
            a, b = a + n_a, b + n_b
        covered = [(i, j) for _, segments in chunks for a, a_end, b, b_end in segments
                   for i in range(a, a_end) for j in range(b, b_end)]
        assert covered == pairs
        for count, segments in chunks:
            assert 0 < count <= chunk
            assert count == sum((a_end - a) * (b_end - b) for a, a_end, b, b_end in segments)

    def test_whole_rows_while_they_fit(self):
        # 600 // 7 = 85 whole rows a chunk; a row wider than a chunk is cut
        assert [count for count, _ in matching._pair_chunks([(100, 7)])] == [595, 105]
        with mock.patch.object(matching, "SCORER_CHUNK_PAIRS", 3):
            assert list(matching._pair_chunks([(2, 7)])) == [
                (3, [(0, 1, 0, 3)]), (3, [(0, 1, 3, 6)]), (1, [(0, 1, 6, 7)]),
                (3, [(1, 2, 0, 3)]), (3, [(1, 2, 3, 6)]), (1, [(1, 2, 6, 7)])]


class TestContiguousPassesOracle:
    """``_tapeless_logits`` builds a segment's first-layer pairs from its
    left rows repeated in place and one add of its right column run, and
    the scorer copy's layers add bias rows and take the ReLU against a zero
    buffer (``_reserve``). The logits must be byte for byte, sign bits
    included, those of the broadcast forms
    (``helpers.reference_broadcast_logits``)."""

    @pytest.fixture(params=["stored-checkpoint", "fresh"])
    def params(self, request):
        if request.param == "stored-checkpoint":
            return load_checkpoint(STORED_CHECKPOINT)
        # einsum widths 12 and 6 among the gemm ones, and biases that push
        # some pre-activations below zero
        rng = np.random.default_rng(5)
        params = init_matcher_params(MatcherConfig(appearance_dim=8,
                                                   scorer_hidden=(24, 16, 12, 8, 6)), rng)
        for layer in params.scorer:
            layer.b = rng.normal(-0.2, 0.5, size=layer.b.shape)
        return params

    @staticmethod
    def rows(params, shapes, seed=0):
        """Standardized rows for the blocks ``shapes``."""
        rng = np.random.default_rng(seed)
        d = params.config.descriptor_dim
        return (rng.normal(size=(sum(shape[k] for shape in shapes), d)) for k in (0, 1))

    def check(self, params, rows_a, rows_b, shapes, scorer=None):
        """The logits, after checking them against the reference; each
        ``score_pair_logits`` call at most ``SCORER_CHUNK_PAIRS`` pairs."""
        chunks = []
        original = matching.score_pair_logits

        def counted(pair_tensor, *args, **kwargs):
            chunks.append(pair_tensor.shape[0] * pair_tensor.shape[1])
            return original(pair_tensor, *args, **kwargs)

        with mock.patch.object(matching, "score_pair_logits", counted), \
                np.errstate(over="ignore", invalid="ignore"):
            got = matching._tapeless_logits(scorer or matching._float32_scorer(params),
                                            rows_a, rows_b, shapes)
            want = reference_broadcast_logits(params, rows_a, rows_b, shapes)
        assert_bits_equal(got, want, "logits")
        assert sum(chunks) == sum(n_a * n_b for n_a, n_b in shapes)
        assert max(chunks) <= matching.SCORER_CHUNK_PAIRS
        return got

    # one block; many small blocks packed as an accuracy sweep packs them;
    # rows wider than a chunk (alone, and among narrow blocks)
    SHAPES = {
        "one-block": [(41, 17)],
        "packed": [(3, 4), (1, 1), (5, 2), (2, 7), (8, 8), (1, 9), (6, 1), (30, 30)] * 4,
        "wide-row": [(3, 700)],
        "wide-among-packed": [(2, 3), (2, 650), (4, 5), (1, 1201)],
    }

    @pytest.mark.parametrize("chunk", [None, 1, 3, 10**9], ids=["600", "1", "3", "1e9"])
    @pytest.mark.parametrize("layout", list(SHAPES))
    def test_bit_equal_to_broadcast_forms(self, params, monkeypatch, layout, chunk):
        if chunk is not None:
            monkeypatch.setattr(matching, "SCORER_CHUNK_PAIRS", chunk)
        shapes = self.SHAPES[layout]
        self.check(params, *self.rows(params, shapes), shapes)

    def test_signed_zeros(self, params):
        # rows of +0.0 and -0.0 only, and rows with zeros among values
        shapes = [(4, 5), (3, 3)]
        rows_a, rows_b = self.rows(params, shapes, seed=1)
        signs = np.random.default_rng(2).random(rows_a.shape) < 0.5
        rows_a[:4] = np.where(signs[:4], -0.0, 0.0)
        rows_b[::2] = -0.0
        rows_a[4:, ::3] = 0.0
        logits = self.check(params, rows_a, rows_b, shapes)
        assert np.isfinite(logits).all()

    def test_overflowing_value(self, params):
        # one value past float32's range: the same non-finite logits, and
        # Matcher.bundle reports it as bad data
        shapes = [(5, 4)]
        rows_a, rows_b = self.rows(params, shapes, seed=3)
        rows_a[2, 0] = 1e39
        logits = self.check(params, rows_a, rows_b, shapes)
        assert not np.isfinite(logits[8:12]).any() and np.isfinite(logits[:8]).all()
        raw = params.input_shift + rows_a / params.input_scale
        with pytest.raises(DataError, match="descriptor values overflow the pair scorer"):
            Matcher(params).bundle(raw, params.input_shift + rows_b / params.input_scale)

    def test_blocks_sized_from_chunks_scored(self, params, monkeypatch):
        # a copy's blocks hold as many rows as its largest chunk so far, not
        # SCORER_CHUNK_PAIRS, and a smaller chunk reuses them
        scorer = matching._float32_scorer(params)
        widest = max(layer.w.shape[1] for layer in scorer)
        assert all(layer.bias_rows is None and layer.zeros is None for layer in scorer)
        self.check(params, *self.rows(params, [(2, 3)]), [(2, 3)], scorer)
        zeros = scorer[0].zeros
        assert len(zeros) == 6 * widest and not zeros.any()
        assert all(layer.zeros is zeros for layer in scorer)
        assert scorer[0].bias_rows is None
        for layer in scorer[1:]:
            assert layer.bias_rows.shape == (6, len(layer.b))
            assert layer.bias_rows.tobytes() == np.tile(layer.b, (6, 1)).tobytes()
        self.check(params, *self.rows(params, [(1, 4)]), [(1, 4)], scorer)
        assert scorer[0].zeros is zeros
        monkeypatch.setattr(matching, "SCORER_CHUNK_PAIRS", 10**9)
        self.check(params, *self.rows(params, [(40, 30)]), [(40, 30)], scorer)
        assert len(scorer[0].zeros) == 1200 * widest and not scorer[0].zeros.any()
        assert all(len(layer.bias_rows) == 1200 for layer in scorer[1:])


class TestFloat64MasterCopy:
    """The tapeless scorer computes on float32 copies of the layers, made
    once per ``Matcher`` and once per accuracy sweep: the parameters stay
    float64, and a checkpoint written after scoring holds what it held
    before."""

    def test_one_float32_copy_per_matcher_and_sweep(self, monkeypatch):
        params = load_checkpoint(STORED_CHECKPOINT)
        samples = small_samples(appearance_dim=params.config.appearance_dim)
        casts = []
        original = matching._float32_scorer
        monkeypatch.setattr(matching, "_float32_scorer",
                            lambda p: casts.append(p) or original(p))
        matcher = Matcher(params)
        for n_a, n_b in ((30, 17), (4, 5), (1, 3)):
            matcher.bundle(*_spread_rows(params, n_a, n_b))
        assert len(casts) == 1
        pair_accuracy(samples, params)
        assert len(casts) == 2 and all(p is params for p in casts)

    def test_scoring_leaves_parameters_float64(self, scoring_params):
        params = scoring_params
        before = params_to_doc(params)
        Matcher(params).bundle(*_spread_rows(params, 30, 17))
        assert 0.0 < pair_accuracy(small_samples(appearance_dim=params.config.appearance_dim),
                                   params) <= 1.0
        arrays = {**{name: a for name, a in vars(params).items()
                     if isinstance(a, np.ndarray)}, **named_arrays(params)}
        assert {name: a.dtype for name, a in arrays.items()} \
            == {name: np.dtype(np.float64) for name in arrays}
        assert params_to_doc(params) == before


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
        assert loss_affinity(bundle, self.match_matrix())[0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_probability_is_log_two(self):
        bundle = self.one_to_one_bundle(0.5)
        assert loss_affinity(bundle, self.match_matrix())[0] == pytest.approx(
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
        loss, grad = loss_affinity(bundle, match)
        for idx in np.ndindex(base.shape):
            step = np.zeros_like(base)
            step[idx] = 1e-6
            hi = loss_affinity(augment_normalize(base + step, 0.3), match)[0]
            lo = loss_affinity(augment_normalize(base - step, 0.3), match)[0]
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
            res = training_forward_pair(sample, params)
            assert len(res["pose_losses"]) == \
                len(sample.frame_a.detections) + len(sample.frame_b.detections)
            assert res["joint"] == pytest.approx(
                res["affinity"] + 0.25 * np.mean(res["pose_losses"]), abs=1e-12
            )
            assert res["joint"] > res["affinity"]
            assert training_forward_pair(sample, no_pose)["joint"] == res["affinity"]


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

    def test_overflowing_pose_target_is_bad_data(self):
        """A pose target whose norm overflows would make the pose loss
        non-finite, which reads as a diverging model (exit 4)."""
        samples = _oracle_samples(emit_maps=True)
        sample = next(s for s in samples if any(t is not None for t in s.targets_b))
        i = next(j for j, t in enumerate(sample.targets_b) if t is not None)
        targets = list(sample.targets_b)
        c, tz, r = targets[i]
        targets[i] = (np.array([1e200, c[1]]), tz, r)
        cfg = MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True, epochs=1,
                            scorer_hidden=(8, 6, 6, 4, 4), pose_hidden=(8, 6))
        with pytest.raises(DataError, match=f"detection {i}: .* overflows the pose loss"):
            train_matcher([replace(sample, targets_b=tuple(targets))], cfg)

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
            grads = training_forward_pair(sample, params, pose_only=pose_only)["grads"]
            assert {k: g.shape for k, g in grads.items()} == \
                {k: a.shape for k, a in named_arrays(params).items()}

    def test_joint_loss_full_chain(self):
        samples, params = self.make_pose_setup()

        def f_for(sample):
            def f(_):
                res = training_forward_pair(sample, params)
                return res["joint"], res["grads"]
            return f

        for sample in samples:
            report = grad_check(f_for(sample), named_arrays(params),
                                tolerance=1e-4)
            assert report.passed, (report.worst_param, report.max_error)

    def test_pose_only_chain(self):
        samples, params = self.make_pose_setup()
        sample = samples[0]

        def f(_):
            res = training_forward_pair(sample, params, pose_only=True)
            return res["joint"], res["grads"]

        report = grad_check(f, named_arrays(params), tolerance=1e-4)
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
        res = training_forward_pair(empty_b, params)
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
            assert_bits_equal(reference_forward_pair(sample, params)["bundle"].fused,
                              matcher.bundle(rows_a, rows_b).fused, hidden)

    def test_pose_head_gradients(self):
        _, sample = self.two_frame_sample(emit_maps=True)
        cfg = MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                            scorer_hidden=(10, 8, 8, 6, 4), pose_hidden=(8, 6), seed=5)
        params = fit_input_standardization([sample], init_matcher_params(cfg))

        def f(_):
            res = training_forward_pair(sample, params)
            return res["joint"], res["grads"]

        report = grad_check(f, named_arrays(params), tolerance=1e-4)
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
            bundle = reference_forward_pair(sample, trained_matcher.params)["bundle"]
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
        t_ref = B @ reference_recover_translation(det.observation, K) + d_off
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
    grads = {name: np.zeros_like(a) for name, a in named_arrays(params).items()}
    geom_width = 6 + cfg.embed_dim
    d_geometry = np.zeros((n1 + n2, geom_width))
    if pose_only:
        joint, pose_weight = mean_pose, 1.0
    else:
        cache = []
        logits = reference_pair_logits(feats_a, feats_b, params, cache) if n1 and n2 \
            else np.zeros((n1, n2))
        affinity, d_logits = loss_affinity(augment_normalize(logits, cfg.delta), sample.match)
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


def sample_rows(sample, params):
    """A sample's ``(rows_a, rows_b)`` as an SGD step describes them: both
    sides in one stack, a then b."""
    rows = _describe(matching._SideTable([sample], params.config).stack(0), params)[1]
    n_a = len(sample.frame_a.detections)
    return rows[:n_a], rows[n_a:]


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
    if emit_maps:  # two sides whose maps differ in (H, W)
        samples.append(with_resized_b_maps(samples[1]))
    return samples


class TestSideChainOracle:
    """The stacked chain, both sides of a sample in one (n, ...) pass,
    against the per-detection chain it replaced."""

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
            new = training_forward_pair(sample, params, pose_only=pose_only)
            for rows, ref_rows in zip(sample_rows(sample, params), ref["rows"]):
                assert_bits_equal(rows, ref_rows, "descriptor rows")
            assert_bits_equal(new["pose_losses"], ref["pose_losses"], "pose losses")
            assert_bits_equal(new["joint"], ref["joint"], "joint loss")
            assert new["grads"].keys() == ref["grads"].keys()
            for name, grad in ref["grads"].items():
                assert_bits_equal(new["grads"][name], grad, name)
        shapes = {(s.frame_a.detections[0].feature_map.shape,
                   s.frame_b.detections[0].feature_map.shape)
                  for s in samples if cfg.embed_dim and s.frame_b.detections}
        assert not cfg.embed_dim or any(a != b for a, b in shapes)
        if cfg.use_pose_head:
            # the cases reach both branches of the pose loss
            targeted = [t is not None for s in samples for t in s.targets_a + s.targets_b]
            assert any(targeted) and not all(targeted)


class TestPerRowTransforms:
    """``_stack`` repeats each side's reference transform per row; each
    row's product, forward and transposed, must have the bits of its side's
    one broadcast matrix, as the per-side chain multiplied it. A one-side
    stack keeps the side's matrices themselves."""

    @pytest.mark.parametrize("counts", [(1,), (1, 1), (1, 4), (6, 5), (0, 3), (4, 0, 2)])
    def test_products_match_the_side_matrix(self, counts):
        rng = np.random.default_rng(len(counts) * 10 + sum(counts))
        for _ in range(300):
            sides = [SimpleNamespace(k=k, fmaps=None, rows={"appearance": np.zeros((k, 1))})
                     for k in counts]
            transforms = [(rng.normal(size=(3, 3)), rng.normal(size=3),
                           rng.normal(size=(2, 2))) for _ in counts]
            stack = matching._stack(sides, transforms)
            n = sum(counts)
            for name, index, width in (("B", 0, 3), ("C", 2, 2)):
                per_row = getattr(stack, name)
                if len(counts) == 1:
                    assert per_row is transforms[0][index]
                else:
                    assert per_row.shape == (n, width, width) and per_row.flags.c_contiguous
                rows = rng.normal(size=(n, width))
                start = 0
                for k, transform in zip(counts, transforms):
                    M, part = transform[index], slice(start, start + k)
                    start += k
                    assert_bits_equal(matching._apply(per_row, rows)[part],
                                      matching._apply(M, rows[part]), name)
                    assert_bits_equal(
                        matching._apply(np.swapaxes(per_row, -1, -2), rows)[part],
                        matching._apply(M.T, rows[part]), name + " transposed")
            if len(counts) > 1:
                assert_bits_equal(stack.d_off, np.repeat([d for _, d, _ in transforms],
                                                         counts, axis=0), "d_off")


def _route_config(**route):
    return MatcherConfig(**{"appearance_dim": 4, "embed_dim": 0,
                            "scorer_hidden": (10, 8, 8, 6, 4), "pose_hidden": (8, 6),
                            "seed": 5, "epochs": 3, "pose_pretrain_epochs": 1, **route})


class TestDescriptorRowsOnce:
    """With only the scorer training, descriptor rows are built once per
    run; otherwise each SGD step describes its sample in one call."""

    def test_cached_rows_bit_identical(self):
        cfg = _route_config()
        samples = _oracle_samples(emit_maps=False)
        params = fit_input_standardization(samples, init_matcher_params(cfg))
        rows, _ = matching._input_statistics(matching._SideTable(samples, cfg), params)
        assert any(len(sample.frame_b.detections) == 0 for sample in samples)
        for sample, sample_rows in zip(samples, rows):
            for forward in (reference_forward_pair, training_forward_pair):
                ref = forward(sample, params)
                new = forward(sample, params, rows=sample_rows)
                assert_bits_equal(new["joint"], ref["joint"], "joint loss")
                assert_bits_equal(new["bundle"].fused, ref["bundle"].fused, "fused")
            assert new["grads"].keys() == ref["grads"].keys()
            for name, grad in ref["grads"].items():
                assert_bits_equal(new["grads"][name], grad, name)

    def test_training_bit_identical_to_describing_every_call(self, monkeypatch):
        samples = _oracle_samples(emit_maps=False)
        train, heldout = samples[::2], samples[1::2]
        original = matching.forward_pair

        def run():
            params, h1 = train_matcher(train, _route_config(), heldout=heldout)
            params, h2 = train_matcher(train, _route_config(), params=params,
                                       heldout=heldout)
            return params, [(e.affinity, e.pose, e.accuracy) for e in h1 + h2]

        original_accuracy = matching.pair_accuracy
        reused = []

        def check(sample, params, rows):
            # rows handed in are those _describe gives at this very call
            if rows is not None:
                reused.append(sample)
                for got, want in zip(rows, sample_rows(sample, params)):
                    assert_bits_equal(got, want, "reused rows")

        def check_rows(sample, params, grads, rows=None, **kwargs):
            check(sample, params, rows)
            return original(sample, params, grads, rows=rows, **kwargs)

        def check_accuracy_rows(eval_samples, params, rows=None):
            for sample, pair in zip(eval_samples, rows):
                check(sample, params, pair)
            return original_accuracy(eval_samples, params, rows)

        monkeypatch.setattr(matching, "forward_pair", check_rows)
        monkeypatch.setattr(matching, "pair_accuracy", check_accuracy_rows)
        cached_params, cached_history = run()
        assert {id(s) for s in reused} == {id(s) for s in samples}
        monkeypatch.setattr(matching, "forward_pair",
                            lambda sample, params, grads, rows=None, stack=None, **kwargs:
                            original(sample, params, grads, stack=matching._SideTable(
                                [sample], params.config).stack(0), **kwargs))
        monkeypatch.setattr(matching, "pair_accuracy",
                            lambda eval_samples, params, rows=None:
                            original_accuracy(eval_samples, params))
        params, history = run()
        assert_bits_equal(cached_history, history, "history")
        for name, arr in named_arrays(params).items():
            assert_bits_equal(named_arrays(cached_params)[name], arr, name)
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
        calls = dict.fromkeys(("_describe", "_backward_stack", "_side_inputs",
                               "_with_targets", "forward_pair", "reference_transform"), 0)

        def counted(name):
            original = getattr(matching, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(matching, name, wrapper)

        counted("_describe")
        counted("_backward_stack")
        counted("_side_inputs")
        counted("_with_targets")
        counted("forward_pair")
        counted("reference_transform")
        _, history = train_matcher(train, _route_config(**route), heldout=heldout)
        # forward_pair runs the SGD steps alone; each accuracy pass is one sweep
        assert calls["forward_pair"] == len(history) * len(train)
        # the input-statistics pass and each accuracy sweep describe every
        # (frame, reference ego) once
        frames, held = _distinct_frames(train), _distinct_frames(heldout)
        steps = calls["forward_pair"]
        if once:
            assert calls["_describe"] == frames + held
            assert calls["_backward_stack"] == 0
        else:
            # one _describe and one backward per SGD step: both sides stacked
            assert calls["_describe"] == frames + steps + len(history) * held
            assert calls["_backward_stack"] == steps
        # on every route, each frame and each (frame, reference ego) of the
        # training and of the held-out samples is gathered once per run
        assert calls["_side_inputs"] == _distinct_sides(train) + _distinct_sides(heldout)
        assert calls["reference_transform"] == frames + held
        # only SGD steps stack a side with its targets, once per (frame,
        # pose targets) of the training samples: held-out targets stay unread
        assert calls["_with_targets"] == (0 if once else _distinct_targets(train))

    def test_statistics_describe_each_frame_once(self, monkeypatch):
        samples = small_samples()
        params = init_matcher_params(_route_config(appearance_dim=8))
        expected = [sample_rows(sample, params) for sample in samples]
        calls = []
        original = matching._describe
        monkeypatch.setattr(matching, "_describe",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        rows, (block, shift, std) = matching._input_statistics(
            matching._SideTable(samples, params.config), params)
        # 20 samples share 25 frames: 40 descriptions before, 25 now
        assert len(calls) == _distinct_frames(samples) == 25 < 2 * len(samples) == 40
        for got, want in zip(rows, expected):
            for got_side, want_side in zip(got, want):
                assert_bits_equal(got_side, want_side, "rows")
        # every side stays in the stack, repeats included
        stacked = np.concatenate([side for pair in expected for side in pair])
        assert_bits_equal(block, stacked, "stacked rows")
        assert_bits_equal(shift, stacked.mean(axis=0), "column means")
        assert_bits_equal(std, stacked.std(axis=0), "column deviations")


def _distinct_frames(samples):
    """How many (frame, reference ego) pairs ``samples`` hold."""
    return len({(id(frame), id(sample.ego_ref))
                for sample in samples for frame in (sample.frame_a, sample.frame_b)})


def _distinct_sides(samples):
    """How many frames ``samples`` hold."""
    return len({id(frame) for s in samples for frame in (s.frame_a, s.frame_b)})


def _distinct_targets(samples):
    """How many (frame, pose targets) pairs ``samples`` hold."""
    return len({(id(frame), id(targets)) for s in samples for frame, targets in (
        (s.frame_a, s.targets_a), (s.frame_b, s.targets_b))})


def with_one_b(sample):
    """``sample`` with frame b cut to its first detection."""
    match = np.zeros((len(sample.frame_a.detections) + 1, 2), dtype=np.int64)
    match[:, 0] = sample.match[:, 0]
    match[:-1, 1] = 1 - match[:-1, 0]
    return replace(sample, frame_b=replace(sample.frame_b,
                                           detections=sample.frame_b.detections[:1]),
                   targets_b=sample.targets_b[:1], match=match)


def swapped(sample):
    """``sample`` with its two frames swapped."""
    return replace(sample, frame_a=sample.frame_b, frame_b=sample.frame_a,
                   targets_a=sample.targets_b, targets_b=sample.targets_a,
                   match=np.ascontiguousarray(sample.match.T))


def _recorded_normalizations(monkeypatch, run):
    """``run()`` and the (logits, bundle) of each ``augment_normalize`` call
    it made."""
    calls = []
    original = matching.augment_normalize

    def record(B, delta, sizes=None):
        calls.append((np.array(B), original(B, delta, sizes)))
        return calls[-1][1]

    monkeypatch.setattr(matching, "augment_normalize", record)
    try:
        return run(), calls
    finally:
        monkeypatch.setattr(matching, "augment_normalize", original)


class TestAccuracySweepOracle:
    """``pair_accuracy`` scores every sample in one sweep of shared chunks.
    Each sample's logits and fused similarities, and the accuracy, must be
    byte for byte those of one ``reference_forward_pair`` call per sample
    (``helpers.reference_pair_accuracy``), and the logits those of scoring
    every pair on its own row (``helpers.reference_split_logits``)."""

    def check(self, monkeypatch, samples, params, rows=None):
        """Returns the pair count of each ``score_pair_logits`` call."""
        chunks = []
        original = matching.score_pair_logits

        def counted(pair_tensor, *args, **kwargs):
            chunks.append(pair_tensor.shape[0] * pair_tensor.shape[1])
            return original(pair_tensor, *args, **kwargs)

        monkeypatch.setattr(matching, "score_pair_logits", counted)
        got, swept = _recorded_normalizations(
            monkeypatch, lambda: pair_accuracy(samples, params, rows))
        monkeypatch.setattr(matching, "score_pair_logits", original)
        want, oracle = _recorded_normalizations(
            monkeypatch, lambda: reference_pair_accuracy(samples, params, rows))
        assert_bits_equal(got, want, "accuracy")
        assert len(swept) == len(oracle) == len(samples)
        for k, (sample, (logits, bundle), (ref_logits, ref_bundle)) in enumerate(
                zip(samples, swept, oracle)):
            assert_bits_equal(logits, ref_logits, f"sample {k} logits")
            for field in ("S1n", "S2n", "fused"):
                assert_bits_equal(getattr(bundle, field), getattr(ref_bundle, field),
                                  f"sample {k} {field}")
            rows_a, rows_b = sample_rows(sample, params)
            if len(rows_a) and len(rows_b):
                assert_bits_equal(logits, reference_split_logits(rows_a, rows_b, params)
                                  .astype(np.float64), f"sample {k} split reference")
        pairs = sum(len(s.frame_a.detections) * len(s.frame_b.detections) for s in samples)
        assert sum(chunks) == pairs
        assert max(chunks, default=0) <= matching.SCORER_CHUNK_PAIRS
        return chunks

    @staticmethod
    def observation_case():
        samples = _oracle_samples(emit_maps=False)
        samples += [with_one_b(samples[1]), swapped(with_one_b(samples[2]))]
        params = fit_input_standardization(samples, init_matcher_params(_route_config()))
        return samples, params

    def test_fixed_observation_rows(self, monkeypatch):
        samples, params = self.observation_case()
        assert any(len(s.frame_b.detections) == 0 for s in samples)
        assert any(len(s.frame_b.detections) == 1 for s in samples)
        rows, _ = matching._input_statistics(matching._SideTable(samples, params.config),
                                             params)
        chunks = self.check(monkeypatch, samples, params, rows)
        assert len(chunks) < len(samples)  # samples share chunks

    def test_without_fixed_rows(self, monkeypatch):
        samples, params = self.observation_case()
        self.check(monkeypatch, samples, params)

    def test_pose_head_heldout(self, monkeypatch):
        samples = _oracle_samples(emit_maps=True, drop_every=3)
        samples.append(with_one_b(samples[1]))
        train, heldout = samples[::2], samples[1::2]
        cfg = _route_config(embed_dim=6, use_pose_head=True)
        params, _ = train_matcher(train, cfg)
        # no rows: the sweep describes the samples through its own table, the
        # reference through reference_forward_pair's two-side stack
        self.check(monkeypatch, heldout, params)

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_one_detection_side_alone(self, monkeypatch, which):
        # the only sample: the sweep's side product is one padded row too
        samples, params = self.observation_case()
        sample = with_one_b(samples[1])
        if which == "a":
            sample = swapped(sample)
        assert self.check(monkeypatch, [sample], params) \
            == [len(sample.frame_a.detections) * len(sample.frame_b.detections)]

    def test_full_capacity_pairs_span_chunks(self, monkeypatch):
        scene = generate_scene(SimConfig(seed=90, n_frames=3, n_objects=30, appearance_dim=16,
                                         lateral_range=(-6, 6), depth_range=(40, 60)))
        samples = make_matching_dataset([scene], n_max=2, pairs_per_scene=2, seed=0)
        params = load_checkpoint(STORED_CHECKPOINT)
        assert params.config.capacity == 30
        assert [(len(s.frame_a.detections), len(s.frame_b.detections)) for s in samples] \
            == [(30, 30), (30, 30)]
        # 20 rows, then 10 + 10 rows of the two samples, then 20
        assert self.check(monkeypatch, samples, params) == [600, 600, 600]
        assert self.check(monkeypatch, samples[:1], params) == [600, 300]
        # past capacity the sweep refuses the pair, as forward_pair does
        small = init_matcher_params(MatcherConfig(capacity=29, appearance_dim=16))
        for accuracy in (pair_accuracy, reference_pair_accuracy):
            with raises_internal("pair has 30 detections; capacity is 29"):
                accuracy(samples, small)

    def test_overflowing_heldout_values_are_bad_data(self):
        # a held-out appearance value out of all proportion overflows the
        # sweep's scorer: bad data, as in Matcher.bundle, and no accuracy
        # computed from non-finite logits
        samples = _oracle_samples(emit_maps=False)
        train, heldout = samples[::2], samples[1::2]
        sample = heldout[0]
        first, *rest = sample.frame_a.detections
        huge = replace(first, appearance=np.concatenate([[1e308], first.appearance[1:]]))
        heldout[0] = replace(sample, frame_a=replace(sample.frame_a, detections=[huge, *rest]))
        with pytest.raises(DataError, match="descriptor values overflow the pair scorer"):
            train_matcher(train, _route_config(), heldout=heldout)

    def test_heldout_pose_targets_are_never_read(self):
        # a held-out pose target out of all proportion: the sweeps describe
        # sides without their targets, so no pose loss overflows and the
        # run has the bits of one whose held-out targets are sound
        samples = _oracle_samples(emit_maps=True, drop_every=3)
        train, heldout = samples[::2], samples[1::2]
        sample = heldout[0]
        k = next(i for i, target in enumerate(sample.targets_a) if target is not None)
        (c_x, c_y), t_z, r = sample.targets_a[k]
        targets = list(sample.targets_a)
        targets[k] = ((1e200, c_y), t_z, r)
        huge = [replace(sample, targets_a=tuple(targets)), *heldout[1:]]
        cfg = _route_config(embed_dim=6, use_pose_head=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, history = train_matcher(train, cfg, heldout=huge)
        want_params, want = train_matcher(train, cfg, heldout=heldout)
        assert_bits_equal([(e.affinity, e.pose, e.accuracy) for e in history],
                          [(e.affinity, e.pose, e.accuracy) for e in want], "history")
        assert params_to_doc(params) == params_to_doc(want_params)

    def test_scorer_past_float32_range_is_divergence(self):
        # a scorer weight finite in float64 but past float32's range is a
        # diverged training run, not bad data
        samples, params = self.observation_case()
        params.scorer[0].w[0, 0] = 1e39
        with pytest.raises(NonFiniteLossError, match="scorer weights overflow float32"):
            pair_accuracy(samples, params)


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
            ref_arrays = named_arrays(ref_params)
            assert named_arrays(params).keys() == ref_arrays.keys()
            for name, arr in named_arrays(params).items():
                assert_bits_equal(arr, ref_arrays[name], f"{run} {name}")
        if 0 < cfg.grad_clip < 1:
            assert clipped > 0, "the small clip must trigger"
        if cfg.use_pose_head:  # one pose-only epoch, in the fresh run
            assert params.epochs_trained == 2 * cfg.epochs + cfg.pose_pretrain_epochs

    def test_segments(self):
        cfg = _route_config(embed_dim=6, use_pose_head=True)
        params = init_matcher_params(cfg)
        before = {name: arr.copy() for name, arr in named_arrays(params).items()}
        flat = matching._FlatTrainables(params)
        names = list(before)
        assert list(flat.grads) == names
        for name, arr in named_arrays(params).items():
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
