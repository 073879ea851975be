import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotrack.errors import DataError
from geotrack.geometry import CameraIntrinsics, EgoPose, PixelObservation
from geotrack.matching import (
    Matcher,
    MatcherConfig,
    PairSample,
    build_pair_tensor,
    init_matcher_params,
    load_checkpoint,
    params_to_doc,
    score_pair_logits,
)
from geotrack.numerics import (
    Layer,
    _layer_product,
    init_mlp,
    layers_from_doc,
    layers_to_doc,
    loss_rot,
    loss_rot_grad,
    loss_trans,
    loss_trans_grad,
    mlp_backward,
    mlp_forward,
    row_norm,
    softmax_map,
)
from geotrack.scene import Detection, FrameRecord
from geotrack.simulator import SimConfig, generate_scene, make_matching_dataset
from helpers import STORED_CHECKPOINT, grad_check, raises_internal, training_forward_pair

LOGCOSH_1 = math.log(math.cosh(1.0))  # independent direct evaluation
K = CameraIntrinsics(f_x=1000.0, f_y=1000.0, p_x=800.0, p_y=450.0,
                     width=1600, height=900)
IDENTITY = EgoPose.identity()


def pooling_matcher(embed_dim, w, b):
    """Observation-route matcher whose attention logits are fmap @ w + b."""
    params = init_matcher_params(MatcherConfig(appearance_dim=1, embed_dim=embed_dim))
    params.attention_w = np.asarray(w, dtype=np.float64)
    params.attention_b = np.array([float(b)])
    return Matcher(params)


def embedding(matcher, fmap):
    """The attention-pooled embedding slot G of one detection's descriptor."""
    det = Detection(
        bbox=(750.0, 400.0, 100.0, 100.0), appearance=np.zeros(1), feature_map=fmap,
        observation=PixelObservation(c=(800.0, 450.0), T_z=10.0, R=(0.0, 1.0)),
    )
    row = matcher.descriptors([det], IDENTITY, IDENTITY, K)[0]
    return row[6:6 + matcher.config.embed_dim]


class TestSoftmaxMap:
    def test_symmetric_two_entries(self):
        np.testing.assert_allclose(softmax_map(np.array([[0.0, 0.0]])),
                                   [[0.5, 0.5]])

    def test_hand_value(self):
        out = softmax_map(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_shift_invariance(self, rng):
        a = rng.normal(size=(5, 7))
        np.testing.assert_allclose(softmax_map(a), softmax_map(a + 123.456),
                                   atol=1e-12)

    def test_huge_logit_is_stable(self):
        a = np.zeros((3, 3))
        a[1, 2] = 1e6
        out = softmax_map(a)
        assert np.isfinite(out).all()
        assert out[1, 2] == pytest.approx(1.0)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=100)
    def test_sums_to_one(self, h, w, seed):
        a = np.random.default_rng(seed).normal(0, 5, (h, w))
        out = softmax_map(a)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out > 0).all()


class TestAttentionPool:
    def test_constant_field(self, rng):
        v = np.array([2.0, -1.0, 0.5])
        fmap = np.broadcast_to(v, (4, 5, 3)).copy()
        out = embedding(pooling_matcher(3, rng.normal(size=3), 0.4), fmap)
        np.testing.assert_allclose(out, v / 20.0, atol=1e-12)

    def test_dominant_logit_selects_pixel(self, rng):
        fmap = rng.normal(size=(3, 3, 4))
        fmap[:, :, 3] = 0.0
        fmap[1, 2, 3] = 1e3  # the only logit that is not zero
        out = embedding(pooling_matcher(4, [0.0, 0.0, 0.0, 1.0], 0.0), fmap)
        np.testing.assert_allclose(out, fmap[1, 2] / 9.0, atol=1e-6)

    def test_hand_fixture(self):
        # 2x1 map with logits (1, 0): weights softmax(1, 0) = (e/(e+1),
        # 1/(e+1)); pooled over 2 cells with the 1/(H*W) factor.
        fmap = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        w1 = math.e / (math.e + 1.0)
        w0 = 1.0 / (math.e + 1.0)
        expected = np.array([
            (w1 * 1.0 + w0 * 3.0) / 2.0,
            (w1 * 2.0 + w0 * 4.0) / 2.0,
        ])
        out = embedding(pooling_matcher(2, [-0.5, 0.0], 1.5), fmap)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=re.escape(
                "embed_dim 3 needs one (H, W, 3) feature map per detection")):
            embedding(pooling_matcher(3, np.zeros(3), 0.0), np.zeros((2, 2, 2)))


class TestLosses:
    def test_trans_zero_at_equality(self):
        assert loss_trans((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0

    def test_trans_3_4_5(self):
        assert loss_trans((0.0, 0.0, 0.0), (3.0, 4.0, 0.0)) == pytest.approx(5.0)

    def test_trans_grad_matches_fd(self, rng):
        t = rng.normal(size=3)
        t_hat = rng.normal(size=3)
        g = loss_trans_grad(t, t_hat)
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-6
            fd = (loss_trans(t, t_hat + step) - loss_trans(t, t_hat - step)) / 2e-6
            assert g[i] == pytest.approx(fd, rel=1e-6)

    def test_trans_grad_zero_at_origin(self):
        np.testing.assert_array_equal(loss_trans_grad((1.0, 1.0), (1.0, 1.0)),
                                      [0.0, 0.0])

    def test_rot_zero_at_equality(self):
        assert loss_rot((0.6, 0.8), (0.6, 0.8)) == 0.0

    def test_rot_unit_difference(self):
        assert loss_rot((1.0, 0.0), (0.0, 0.0)) == pytest.approx(
            LOGCOSH_1, abs=1e-12
        )

    def test_rot_asymptote(self):
        # log cosh d -> |d| - log 2 for large d
        assert loss_rot((20.0, 0.0), (0.0, 0.0)) == pytest.approx(
            20.0 - math.log(2.0), abs=1e-8
        )

    def test_rot_symmetric_in_sign(self, rng):
        d = rng.normal(size=2)
        assert loss_rot(d, np.zeros(2)) == pytest.approx(
            loss_rot(-d, np.zeros(2))
        )

    def test_rot_grad_matches_fd(self, rng):
        r, r_hat = rng.normal(size=2), rng.normal(size=2)
        g = loss_rot_grad(r, r_hat)
        for i in range(2):
            step = np.zeros(2)
            step[i] = 1e-6
            fd = (loss_rot(r, r_hat + step) - loss_rot(r, r_hat - step)) / 2e-6
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_pose_combination(self):
        # the pose head is pinned to c = (800, 450), T_z = 25, R = (1, 0);
        # against the target ((803, 454), 25, (0, 0)) the rotation error is
        # 1 in one component and the translation error is 5
        for beta, expected in ((0.1, LOGCOSH_1 + 0.1 * 5.0), (0.0, LOGCOSH_1)):
            cfg = MatcherConfig(appearance_dim=1, embed_dim=2, use_pose_head=True,
                                pose_hidden=(3,), beta=beta)
            params = init_matcher_params(cfg)
            params.pose_head[-1].w[:] = 0.0
            params.pose_head[-1].b[:] = [0.5, 0.5, 0.25, 1.0, 0.0]
            det = Detection(bbox=(750.0, 400.0, 100.0, 100.0), appearance=np.zeros(1),
                            feature_map=np.ones((2, 2, 2)))
            frame_a = FrameRecord(frame_index=0, timestamp=0.0, intrinsics=K, ego=IDENTITY,
                                  detections=[det])
            frame_b = FrameRecord(frame_index=1, timestamp=1.0, intrinsics=K, ego=IDENTITY)
            sample = PairSample(frame_a=frame_a, frame_b=frame_b,
                                targets_a=(((803.0, 454.0), 25.0, (0.0, 0.0)),),
                                targets_b=(), ego_ref=IDENTITY,
                                match=np.array([[1], [0]]))
            res = training_forward_pair(sample, params, pose_only=True)
            assert res["pose_losses"] == [pytest.approx(expected)]
            assert res["joint"] == pytest.approx(expected)

    def test_losses_nonnegative(self, rng):
        for _ in range(100):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert loss_trans(a, b) >= 0.0
            assert loss_rot(a[:2], b[:2]) >= 0.0

    def test_row_wise_equals_row_at_a_time(self, rng):
        # a stack of rows gives each row's own loss, norm and gradient bit
        # for bit; np.linalg.norm(x, axis=1) would not
        t, t_hat = rng.normal(size=(200, 3)) * 30, rng.normal(size=(200, 3)) * 30
        t_hat[7] = t[7]  # the zero-subgradient row
        for fn, a, b in ((loss_trans, t, t_hat), (loss_trans_grad, t, t_hat),
                         (loss_rot, t[:, :2], t_hat[:, :2]),
                         (loss_rot_grad, t[:, :2], t_hat[:, :2])):
            rows = np.array([fn(x, y) for x, y in zip(a, b)])
            assert fn(a, b).tobytes() == rows.tobytes(), fn.__name__
        norms = np.array([np.linalg.norm(x) for x in t])
        assert row_norm(t).tobytes() == norms.tobytes()


class TestMlp:
    def test_identity_network(self):
        layers = [Layer(np.eye(3), np.zeros(3), "linear")]
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(mlp_forward(layers, x), x)

    def test_single_layer_weight_gradient(self, rng):
        layers = [Layer(rng.normal(size=(3, 2)), rng.normal(size=2), "linear")]
        x = rng.normal(size=3)
        upstream = rng.normal(size=2)
        cache = []
        mlp_forward(layers, x, cache=cache)
        grads, dx = mlp_backward(layers, cache, upstream)
        dw, db = grads[0]
        np.testing.assert_allclose(dw, np.outer(x, upstream))
        np.testing.assert_allclose(db, upstream)
        np.testing.assert_allclose(dx, layers[0].w @ upstream)

    def test_skipped_input_gradient_keeps_weight_gradients(self, rng):
        layers = init_mlp([4, 6, 5, 1], ["relu", "relu", "linear"], rng)
        cache = []
        out = mlp_forward(layers, rng.normal(size=(3, 4)), cache=cache)
        full, dx = mlp_backward(layers, cache, 2.0 * out)
        skipped, none = mlp_backward(layers, cache, 2.0 * out, input_grad=False)
        assert dx.shape == (3, 4) and none is None
        for (w, b), (w2, b2) in zip(full, skipped):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)

    def test_three_layer_fd(self, rng):
        layers = init_mlp([4, 6, 5, 1], ["relu", "relu", "linear"], rng)
        x = rng.normal(size=(3, 4))

        def f(params):
            cache = []
            out = mlp_forward(layers, x, cache=cache)
            loss = float((out ** 2).sum())
            grads, _ = mlp_backward(layers, cache, 2.0 * out)
            return loss, {
                f"{i}.{part}": g
                for i, (gw, gb) in enumerate(grads)
                for part, g in (("w", gw), ("b", gb))
            }

        params = {
            f"{i}.{part}": arr
            for i, layer in enumerate(layers)
            for part, arr in (("w", layer.w), ("b", layer.b))
        }
        report = grad_check(f, params, tolerance=1e-4)
        assert report.passed, report.errors

    def test_batch_consistency_bitwise(self, rng):
        layers = init_mlp([5, 8, 3], ["relu", "linear"], rng)
        x = rng.normal(size=(10, 5))
        batched = mlp_forward(layers, x)
        for i in range(10):
            row = mlp_forward(layers, x[i])
            assert np.array_equal(batched[i], row)

    def test_shape_mismatch(self, rng):
        layers = init_mlp([4, 2], ["linear"], rng)
        with raises_internal("input dim 3 != first layer fan-in 4"):
            mlp_forward(layers, np.zeros(3))

    def test_grad_check_negative_control(self, rng):
        w = rng.normal(size=(3, 1))

        def f(params):
            loss = float((params["w"] ** 2).sum())
            return loss, {"w": 2.0 * params["w"] + 0.05}  # corrupted gradient

        report = grad_check(f, {"w": w}, tolerance=1e-4)
        assert not report.passed

    def test_grad_check_quadratic_passes_tight(self, rng):
        w = rng.normal(size=(4,))

        def f(params):
            return float((params["w"] ** 2).sum()), {"w": 2.0 * params["w"]}

        assert grad_check(f, {"w": w}, tolerance=1e-7).passed

    def test_checkpoint_round_trip(self, rng):
        layers = init_mlp([3, 4, 2], ["relu", "linear"], rng)
        back = layers_from_doc(json.loads(json.dumps(layers_to_doc(layers))), [3, 4, 2])
        for a, b in zip(layers, back):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)
            assert a.act == b.act
        assert layers_to_doc(back) == layers_to_doc(layers_from_doc(
            layers_to_doc(layers), [3, 4, 2]))


class TestInPlaceForward:
    """``mlp_forward`` adds each bias into the layer's fresh product, and
    without a tape applies ReLU there too. That must leave the caller's
    input and the layers alone, keep the tape's pre-activations, and give
    the bits of a chain that allocates every step."""

    @staticmethod
    def layers(rng):
        # gemm widths (16, 8) and einsum widths (5, 1), biases that push
        # some pre-activations below zero
        layers = init_mlp([6, 16, 8, 5, 1], ["relu", "relu", "relu", "linear"], rng)
        for layer in layers:
            layer.b = rng.normal(-0.2, 0.5, size=layer.b.shape)
        return layers

    @staticmethod
    def reference(layers, x, taped):
        """act(_layer_product(h, w, taped) + b), layer by layer; the
        pre-activations and the output."""
        h, zs = np.atleast_2d(x), []
        for layer in layers:
            zs.append(_layer_product(h, layer.w, taped) + layer.b)
            h = np.maximum(zs[-1], 0.0) if layer.act == "relu" else zs[-1]
        return zs, (h[0] if np.ndim(x) == 1 else h)

    @pytest.mark.parametrize("rows", [None, 1, 9], ids=["vector", "one-row", "batch"])
    def test_leaves_input_and_layers_unchanged(self, rng, rows):
        layers = self.layers(rng)
        x = rng.normal(size=6 if rows is None else (rows, 6))
        before = [x.tobytes()] + [a.tobytes() for layer in layers for a in (layer.w, layer.b)]
        mlp_forward(layers, x)
        assert [x.tobytes()] + [a.tobytes() for layer in layers
                                for a in (layer.w, layer.b)] == before

    def test_tape_keeps_negative_pre_activations(self, rng):
        layers = self.layers(rng)
        x = rng.normal(size=(9, 6))
        cache = []
        mlp_forward(layers, x, cache=cache)
        zs, _ = self.reference(layers, x, taped=True)
        assert cache[0][0] is x
        for (_, z), z_ref, layer in zip(cache, zs, layers):
            assert z.tobytes() == z_ref.tobytes()
            assert layer.act != "relu" or (z < 0).any()
        for (_, z), (h_next, _) in zip(cache, cache[1:]):  # every one a ReLU
            assert h_next is not z
            assert h_next.tobytes() == np.maximum(z, 0.0).tobytes()

    @pytest.mark.parametrize("taped", [False, True], ids=["tapeless", "taped"])
    @pytest.mark.parametrize("rows", [None, 9], ids=["vector", "batch"])
    def test_bit_equal_to_allocating_chain(self, rng, taped, rows):
        layers = self.layers(rng)
        x = rng.normal(size=6 if rows is None else (rows, 6))
        out = mlp_forward(layers, x, cache=[] if taped else None)
        _, expected = self.reference(layers, x, taped)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_rows_and_zero_buffer_keep_the_bits(self, rng, dtype):
        # the tapeless scorer copies' contiguous operands against the
        # broadcast bias and the scalar ReLU, on rows holding signed zeros,
        # infinities and NaN, with blocks longer than the batch
        plain = [Layer(layer.w.astype(dtype), layer.b.astype(dtype), layer.act)
                 for layer in self.layers(rng)]
        zeros = np.zeros(12 * 16, dtype=dtype)
        blocked = [Layer(layer.w, layer.b, layer.act, np.tile(layer.b, (12, 1)), zeros)
                   for layer in plain]
        x = rng.normal(size=(9, 6)).astype(dtype)
        x[0] = 0.0
        x[1] = -0.0
        x[2, :3] = [np.inf, -np.inf, np.nan]
        with np.errstate(invalid="ignore"):
            assert mlp_forward(blocked, x).tobytes() == mlp_forward(plain, x).tobytes()
            assert mlp_forward(blocked, x[4]).tobytes() == mlp_forward(plain, x[4]).tobytes()
        z = np.array([[-0.0, 0.0, np.nan, -np.inf, np.inf, -1.0]], dtype=dtype)
        relu = Layer(np.zeros((1, 6), dtype), np.zeros(6, dtype), "relu", zeros=zeros)
        assert relu.activate(z).tobytes() == np.maximum(z, 0.0).tobytes()


class TestPrecision:
    """A tapeless forward runs in the precision it is given: float32 layers
    and input stay float32, and anything else becomes float64."""

    @pytest.mark.parametrize("dtype, expected", [
        (np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64),
        (np.float16, np.float64)])
    def test_float32_stays_and_the_rest_becomes_float64(self, rng, dtype, expected):
        layers = [Layer(layer.w.astype(dtype), layer.b.astype(dtype), layer.act)
                  for layer in TestInPlaceForward.layers(rng)]
        assert {a.dtype for layer in layers for a in (layer.w, layer.b)} == {np.dtype(expected)}
        x = rng.normal(size=(3, 4, 6)).astype(dtype)
        assert mlp_forward(layers, x[0]).dtype == expected
        assert mlp_forward(layers, x[0, 0]).dtype == expected
        assert score_pair_logits(x, layers).dtype == expected


# --- the stored checkpoint and batch invariance of the tapeless forward --------------


def test_stored_checkpoint_round_trips_byte_for_byte():
    """Loading the benchmark's stored checkpoint and writing it back gives
    its exact bytes, so the checkpoint format still reads every field."""
    doc = params_to_doc(load_checkpoint(STORED_CHECKPOINT))
    text = json.dumps(doc, sort_keys=True) + "\n"
    assert text.encode() == STORED_CHECKPOINT.read_bytes()


# Every matcher configuration that tests/ and perfbench/ train or track with.
CONFIGS = {
    "default": MatcherConfig(),
    "observation": MatcherConfig(appearance_dim=16, scorer_hidden=(64, 48, 32, 16, 8)),
    "pose": MatcherConfig(appearance_dim=64, embed_dim=8, use_pose_head=True,
                          scorer_hidden=(160, 96, 48, 24, 12), pose_hidden=(16, 12)),
    "test_06": MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                             scorer_hidden=(10, 8, 8, 6, 4), pose_hidden=(8, 6)),
    "cli": MatcherConfig(appearance_dim=8, scorer_hidden=(24, 16, 12, 8, 6)),
    "cli-small": MatcherConfig(appearance_dim=8, scorer_hidden=(8, 8, 6, 4, 4)),
    "cli-pose": MatcherConfig(appearance_dim=4, embed_dim=6, use_pose_head=True,
                              scorer_hidden=(8, 6, 6, 4, 4), pose_hidden=(6, 4)),
}
SWEEP_ROWS = 600


def _config_layers(name):
    """The config's scorer and pose-head layers, then the two halves of the
    scorer's first layer, which the tapeless scorer multiplies each side's
    rows by (``matching._tapeless_logits``)."""
    if name == "stored-checkpoint":
        params = load_checkpoint(STORED_CHECKPOINT)
    else:
        params = init_matcher_params(CONFIGS[name], np.random.default_rng(0))
    first, d = params.scorer[0], params.config.descriptor_dim
    halves = [Layer(w, first.b) for w in (first.w[:d], first.w[d:])]
    return params.scorer + (params.pose_head or []) + halves


class TestRowInvariance:
    """The contract the tracker's bit-for-bit reruns and the batched-versus-
    row oracles rest on: a tapeless forward gives each row the same bits
    whatever batch it comes in, in float64 and in the float32 the tracker's
    scorer runs in. Layers whose width is a multiple of ``GEMM_WIDTH_STEP``
    multiply through BLAS gemm (dgemm or sgemm) there, so this depends on
    the BLAS kernel; a shape named in a failure here breaks it on this
    machine."""

    @pytest.mark.parametrize("name", ["stored-checkpoint", *CONFIGS])
    def test_rows_bit_equal_at_every_batch_size(self, name):
        self.sweep(name, np.float64)

    @pytest.mark.parametrize("name", ["stored-checkpoint", *CONFIGS])
    def test_float32_rows_bit_equal_at_every_batch_size(self, name):
        self.sweep(name, np.float32)

    @staticmethod
    def sweep(name, dtype):
        """Every layer alone, linear, at 1-``SWEEP_ROWS`` rows from either
        end of one batch and as the one-row vector, in ``dtype``."""
        rng = np.random.default_rng(7)
        broken = []
        for i, layer in enumerate(_config_layers(name)):
            layers = [Layer(layer.w.astype(dtype), layer.b.astype(dtype), "linear")]
            x = rng.normal(size=(SWEEP_ROWS + 100, layer.w.shape[0])).astype(dtype)
            full = mlp_forward(layers, x)
            assert full.dtype == dtype
            bad = [m for m in range(1, SWEEP_ROWS + 1)
                   if mlp_forward(layers, x[:m]).tobytes() != full[:m].tobytes()
                   or mlp_forward(layers, x[-m:]).tobytes() != full[-m:].tobytes()]
            if mlp_forward(layers, x[3]).tobytes() != full[3].tobytes():
                bad.insert(0, "vector")
            if bad:
                broken.append(f"layer {i} {layer.w.shape}: batch sizes {bad[:5]}...")
        assert not broken, f"{name}: " + "; ".join(broken)

    def test_tape_and_tapeless_agree(self, trained_matcher):
        """Training's einsum and tracking's gemm differ only in summation
        order: the logits agree to 1e-12 and every decision is the same."""
        params = trained_matcher.params
        scenes = [generate_scene(SimConfig(seed=s, n_objects=10, n_frames=12,
                                           appearance_dim=16, appearance_sigma=0.15,
                                           center_sigma_px=2.0, fp_rate=0.2))
                  for s in (31, 32)]
        samples = make_matching_dataset(scenes, n_max=8, pairs_per_scene=6, seed=3)
        matcher = Matcher(params)
        for sample in samples:
            rows_a, rows_b = (matcher.descriptors(frame.detections, frame.ego,
                                                  sample.ego_ref, frame.intrinsics)
                              for frame in (sample.frame_a, sample.frame_b))
            pairs = build_pair_tensor(
                *((rows - params.input_shift) * params.input_scale
                  for rows in (rows_a, rows_b)))
            np.testing.assert_allclose(
                score_pair_logits(pairs, params.scorer),
                score_pair_logits(pairs, params.scorer, cache=[]),
                rtol=1e-12, atol=0)
            fused = matcher.bundle(rows_a, rows_b).fused
            trained = training_forward_pair(sample, params)["bundle"].fused
            for axis in (0, 1):
                np.testing.assert_array_equal(fused.argmax(axis=axis),
                                              trained.argmax(axis=axis))
