"""Learned pairwise object matching.

Objects are described by a fused vector ``[geometry | appearance]`` where
the geometry part is ``(T_x, T_y, T_z, R_x, R_y, 0)`` in the reference
camera frame followed by the pooled embedding G. A per-pair 6-layer MLP
(the 1x1-convolution similarity estimator: each pair is scored from its own
two descriptors only) maps every concatenated descriptor pair to a
similarity. Entering/leaving objects are handled by augmenting the score
matrix with a basis value delta and normalizing per object, and training
minimizes the symmetric cross-entropy of those normalized similarities,
optionally jointly with the pose-regression loss.

Two descriptor routes exist:

- observation route (default): geometry comes from provider-supplied pixel
  observations via projective recovery; only the scorer is trained.
- pose-head route (``use_pose_head``): a trainable head regresses
  (c_x, c_y, T_z, R) from the attention-pooled embedding of a provided
  feature map, and the geometry features are derived from those estimates,
  so the matching loss backpropagates into the pose head. This is the
  coupling that makes joint training meaningful.

Scores feed the softmax in logit space by default (``score_space``);
with similarities capped at 1 the documented basis value 8 would otherwise
drown every real match.
"""

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics
from .errors import (
    CapacityExceededError,
    ConfigError,
    DegenerateMatchError,
    NonFiniteLossError,
    ParseError,
    SchemaError,
    ShapeMismatchError,
)
from .geometry import normalize_rotation, recover_translation, reference_transform
from .numerics import init_mlp, mlp_backward, mlp_forward
from .scene import atomic_write_text

GEOMETRY_PREFIX = 6  # (T_x, T_y, T_z, R_x, R_y, pad)


def _fits(value, default):
    """Whether a JSON value has the type of a config field's default."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return numerics.is_number(value)
    return type(value) is type(default) or default is None and type(value) is int


# Tuple fields of free length (layer widths); any other tuple default, such
# as a (min, max) range or an (x, y) scale, fixes its field's length.
_VARIABLE_LENGTH = ("scorer_hidden", "pose_hidden")


def config_from_dict(cls, doc, what):
    """Config dataclass ``cls`` from a JSON object, JSON lists as tuples.
    ConfigError names unknown fields, values unlike the field's default in
    type (floats must also be finite) and tuples of the wrong length."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} configuration must be a JSON object")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {what} option(s): {unknown}")
    for name, value in doc.items():
        default = defaults[name]
        if not _fits(value, default):
            raise ConfigError(f"{what} option {name}: {value!r} has the wrong type")
        if (isinstance(default, tuple) and name not in _VARIABLE_LENGTH
                and len(value) != len(default)):
            raise ConfigError(
                f"{what} option {name}: {value!r} needs {len(default)} values"
            )
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


@dataclass
class MatcherConfig:
    capacity: int = 30  # N: maximum objects per frame
    delta: float = 8.0  # basis value for the null column/row
    lam: float = 0.005  # pose-loss weight in the joint loss
    beta: float = 0.1  # translation weight inside the pose loss
    n_max: int = 35  # maximum frame separation when sampling pairs
    appearance_dim: int = 64
    embed_dim: int = 0  # E; 0 disables the embedding slot
    scorer_hidden: tuple = (64, 48, 32, 24, 16)  # 5 hidden + output = 6 layers
    pose_hidden: tuple = (32, 16)
    use_pose_head: bool = False
    score_space: str = "logit"  # "logit" | "probability"
    softmax_axis: str = "per-object"  # "per-object" | "literal"
    pooling: str = "mean"  # "mean" | "weighted"
    learning_rate: float = 0.01
    lr_decay: float = 0.1  # multiplier applied after 2/3 of the epochs
    epochs: int = 60
    momentum: float = 0.9
    weight_decay: float = 8e-4
    seed: int = 0
    center_scale: tuple = (1600.0, 900.0)  # pose-head output scaling (pixels)
    depth_scale: float = 100.0  # pose-head output scaling (meters)
    # the decode scales amplify pose-head jacobians by ~1e3, so its
    # parameters train at a matching fraction of the base rate
    pose_lr_scale: float = 1e-3
    grad_clip: float = 10.0  # global-norm clip per training sample
    pose_pretrain_epochs: int | None = None  # None: epochs // 3 when head enabled

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError("capacity must be >= 1")
        if not np.isfinite(self.delta):
            raise ConfigError("delta must be finite")
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.score_space not in ("logit", "probability"):
            raise ConfigError(f"unknown score_space {self.score_space!r}")
        if self.softmax_axis not in ("per-object", "literal"):
            raise ConfigError(f"unknown softmax_axis {self.softmax_axis!r}")
        if self.pooling not in ("mean", "weighted"):
            raise ConfigError(f"unknown pooling {self.pooling!r}")
        if self.use_pose_head and self.embed_dim < 1:
            raise ConfigError("use_pose_head requires embed_dim >= 1")

    @property
    def descriptor_dim(self):
        return self.appearance_dim + GEOMETRY_PREFIX + self.embed_dim

    @classmethod
    def from_dict(cls, doc):
        return config_from_dict(cls, doc, "matcher")


@dataclass
class SimilarityBundle:
    """Raw, augmented, normalized, and fused similarities of a frame pair."""

    S: np.ndarray  # (rows, cols) similarities in [0, 1]
    S1n: np.ndarray  # (rows, cols+1): normalized, appended null column
    S2n: np.ndarray  # (rows+1, cols): normalized, appended null row
    fused: np.ndarray  # (rows+1, cols+1) inference similarity
    softmax_axis: str = "per-object"


@dataclass
class MatcherParams:
    """Trainable state: pair scorer, optional pose head + attention."""

    config: MatcherConfig
    scorer: list
    input_scale: np.ndarray
    input_shift: np.ndarray
    attention_w: np.ndarray | None = None
    attention_b: np.ndarray | None = None
    pose_head: list | None = None
    head_shift: np.ndarray | None = None  # pose-head input standardization
    head_scale: np.ndarray | None = None
    epochs_trained: int = 0


@dataclass
class DetectionFeatures:
    """Provider-facing inputs for one detection of a training/tracking frame."""

    appearance: np.ndarray
    observation: object | None = None  # PixelObservation
    target: tuple | None = None  # (c*, T_z*, R*_cam) pose supervision
    feature_map: np.ndarray | None = None


@dataclass
class PairSample:
    """One training item: two frames' detections plus their match matrix."""

    a: list
    b: list
    ego_a: object
    ego_b: object
    ego_ref: object
    intrinsics_a: object
    intrinsics_b: object
    match: np.ndarray  # (len(a)+1, len(b)+1), see scene.build_match_matrix


# --- parameter construction -----------------------------------------------------


def init_matcher_params(config, rng=None):
    rng = np.random.default_rng(config.seed) if rng is None else rng
    d2 = 2 * config.descriptor_dim
    sizes = [d2, *config.scorer_hidden, 1]
    scorer = init_mlp(sizes, ["relu"] * len(config.scorer_hidden) + ["linear"], rng)
    params = MatcherParams(
        config=config,
        scorer=scorer,
        input_scale=np.ones(config.descriptor_dim),
        input_shift=np.zeros(config.descriptor_dim),
    )
    if config.embed_dim > 0:
        bound = np.sqrt(6.0 / (config.embed_dim + 1))
        params.attention_w = rng.uniform(-bound, bound, size=config.embed_dim)
        params.attention_b = np.zeros(1)
    if config.use_pose_head:
        head_sizes = [config.embed_dim, *config.pose_hidden, 5]
        params.pose_head = init_mlp(
            head_sizes, ["relu"] * len(config.pose_hidden) + ["linear"], rng
        )
        # start near mid-image, mid-range depth, unit facing direction
        params.pose_head[-1].b = np.array([0.5, 0.5, 0.3, 1.0, 0.0])
        params.head_shift = np.zeros(config.embed_dim)
        params.head_scale = np.ones(config.embed_dim)
    return params


# --- descriptor assembly -----------------------------------------------------------


def build_pair_tensor(features_a, features_b):
    """All row-by-row concatenations: out[i, j] = [features_a[i], features_b[j]]."""
    features_a = np.asarray(features_a, dtype=np.float64)
    features_b = np.asarray(features_b, dtype=np.float64)
    if features_a.ndim != 2 or features_b.ndim != 2 \
            or features_a.shape[1] != features_b.shape[1]:
        raise ShapeMismatchError(
            f"feature matrices {features_a.shape} / {features_b.shape} do not pair"
        )
    n_a, d = features_a.shape
    n_b = features_b.shape[0]
    out = np.empty((n_a, n_b, 2 * d))
    out[:, :, :d] = features_a[:, None, :]
    out[:, :, d:] = features_b[None, :, :]
    return out


# --- scoring -----------------------------------------------------------------------


def _sigmoid(z):
    return numerics._sigmoid(np.asarray(z, dtype=np.float64))


def score_pair_logits(pair_tensor, scorer, input_scale=None, input_shift=None,
                      cache=None):
    pair_tensor = np.asarray(pair_tensor, dtype=np.float64)
    n_a, n_b, d2 = pair_tensor.shape
    x = pair_tensor.reshape(n_a * n_b, d2)
    if input_shift is not None:
        if 2 * input_shift.shape[0] != d2:
            raise ShapeMismatchError("input shift does not match pair width")
        x = x - np.concatenate([input_shift, input_shift])
    if input_scale is not None:
        if 2 * input_scale.shape[0] != d2:
            raise ShapeMismatchError("input scale does not match pair width")
        x = x * np.concatenate([input_scale, input_scale])
    logits = mlp_forward(scorer, x, cache=cache)
    if logits.shape[1] != 1:
        raise ShapeMismatchError("pair scorer must produce one output per pair")
    return logits.reshape(n_a, n_b)


def _softmax_rows_with_null(block, delta):
    """Per-row softmax over each row's entries plus the null slot."""
    logits = np.concatenate([block, np.full((block.shape[0], 1), float(delta))], axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_cols_plain(block):
    """Softmax down each column over its rows (no null slot)."""
    if block.size == 0:
        return np.zeros(block.shape)
    shifted = block - block.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def augment_normalize(S, delta, softmax_axis="per-object", base=None):
    """Append the null column/row at ``delta`` and normalize.

    S1 = [base | delta] gains a null column and S2 = [base ; delta] a null
    row; the bundle keeps their normalized forms S1n and S2n.
    ``S`` holds the [0, 1] similarities; ``base`` (default ``S``) is the
    matrix actually augmented and normalized, which lets callers feed raw
    scorer logits instead.

    The default axis normalizes each object's candidate set — rows of S1
    and columns of S2 — so every row of S1n and column of S2n is a
    distribution over the other frame's objects plus the null option.
    ``softmax_axis="literal"`` instead normalizes columns of S1 and rows
    of S2 (the appended constant-delta line then normalizes uniformly).
    """
    S = np.asarray(S, dtype=np.float64)
    rows, cols = S.shape
    B = S if base is None else np.asarray(base, dtype=np.float64)
    if B.shape != S.shape:
        raise ShapeMismatchError("base matrix must match S")

    if softmax_axis == "per-object":
        S1n = _softmax_rows_with_null(B, delta)
        S2n = _softmax_rows_with_null(B.T, delta).T
    else:
        S1n = np.zeros((rows, cols + 1))
        S1n[:, :cols] = _softmax_cols_plain(B)
        if rows > 0:
            S1n[:, cols] = 1.0 / rows
        S2n = np.zeros((rows + 1, cols))
        S2n[:rows, :] = _softmax_cols_plain(B.T).T
        if cols > 0:
            S2n[rows, :] = 1.0 / cols

    fused = np.zeros((rows + 1, cols + 1))
    fused[:rows, :cols] = 0.5 * (S1n[:, :cols] + S2n[:rows, :])
    fused[:rows, cols] = S1n[:, cols]
    fused[rows, :cols] = S2n[rows, :]
    return SimilarityBundle(S=S, S1n=S1n, S2n=S2n, fused=fused,
                            softmax_axis=softmax_axis)


def loss_affinity(bundle, match, with_grad=False):
    """Symmetric matching cross-entropy (average of both directions).

    ``match`` must be (rows+1, cols+1) for the bundle's (rows, cols) ``S``.
    When ``with_grad`` is set, the gradient with respect to the augmented
    base matrix (real block only) is returned alongside the loss. The
    softmax-group structure recorded in the bundle determines the gradient
    shape: the one-hot target couples all entries of its normalization group.
    """
    n1, n2 = bundle.S.shape
    if match.shape != (n1 + 1, n2 + 1):
        raise ShapeMismatchError(
            f"match matrix {match.shape} does not fit real counts ({n1}, {n2})"
        )
    for i in range(n1):
        if match[i].sum() != 1:
            raise DegenerateMatchError(f"row {i} of the match matrix must sum to 1")
    for j in range(n2):
        if match[:, j].sum() != 1:
            raise DegenerateMatchError(f"column {j} of the match matrix must sum to 1")

    grad = np.zeros((n1, n2)) if with_grad else None
    m_block = match[:n1, :n2].astype(np.float64)
    loss1 = 0.0
    if n1 > 0:
        p = np.concatenate(
            [bundle.S1n[:n1, :n2], bundle.S1n[:n1, n2:n2 + 1]], axis=1
        )
        m = np.concatenate(
            [m_block, match[:n1, n2:n2 + 1].astype(np.float64)], axis=1
        )
        with np.errstate(divide="ignore"):  # log 0 -> inf is the failure signal
            loss1 = -(m * np.log(np.where(m > 0, p, 1.0))).sum() / n1
        if with_grad:
            if bundle.softmax_axis == "per-object":
                # groups are rows of S1 (target mass per group is 1)
                grad[:n1, :n2] += (p[:, :-1] - m[:, :-1]) / (2.0 * n1)
            else:
                # groups are columns of S1; the null column is constant
                col_mass = m_block.sum(axis=0, keepdims=True)
                grad[:n1, :n2] += (
                    bundle.S1n[:n1, :n2] * col_mass - m_block
                ) / (2.0 * n1)
    loss2 = 0.0
    if n2 > 0:
        q = np.concatenate(
            [bundle.S2n[:n1, :n2], bundle.S2n[n1:n1 + 1, :n2]], axis=0
        )
        m = np.concatenate(
            [m_block, match[n1:n1 + 1, :n2].astype(np.float64)], axis=0
        )
        with np.errstate(divide="ignore"):
            loss2 = -(m * np.log(np.where(m > 0, q, 1.0))).sum() / n2
        if with_grad:
            if bundle.softmax_axis == "per-object":
                grad[:n1, :n2] += (q[:-1] - m[:-1]) / (2.0 * n2)
            else:
                row_mass = m_block.sum(axis=1, keepdims=True)
                grad[:n1, :n2] += (
                    bundle.S2n[:n1, :n2] * row_mass - m_block
                ) / (2.0 * n2)
    loss = float(0.5 * (loss1 + loss2))
    if with_grad:
        return loss, grad
    return loss


# --- per-detection forward/backward chains -------------------------------------------


class _DetectionTape:
    """Caches of one detection's descriptor-input pipeline."""

    __slots__ = (
        "features", "geometry", "embedding", "pose_loss",
        "attn", "head_cache", "head_out",
        "r_raw_norm", "r_hat", "center", "depth", "B", "C", "intrinsics",
        "target_vec",
    )


def _observed_geometry(features, B, d_off, C, intrinsics):
    obs = features.observation
    if obs is None:
        raise SchemaError("detection lacks the pixel observation needed for matching")
    t_cam = recover_translation(obs, intrinsics)
    t_ref = B @ t_cam + d_off
    r_ref = normalize_rotation(C @ normalize_rotation(obs.R))
    return t_ref, r_ref


def _forward_detection(features, params, B, d_off, C, intrinsics):
    """Build one detection's geometry (+embedding) inputs, caching for backprop."""
    cfg = params.config
    tape = _DetectionTape()
    tape.features = features
    tape.B, tape.C = B, C
    tape.intrinsics = intrinsics
    tape.pose_loss = None
    tape.embedding = None

    if cfg.embed_dim > 0 and features.feature_map is not None:
        fmap = features.feature_map
        if fmap.ndim != 3 or fmap.shape[2] != cfg.embed_dim:
            raise SchemaError(f"feature map of shape {fmap.shape} is not "
                              f"(H, W, embed_dim {cfg.embed_dim})")
        logits = fmap @ params.attention_w + params.attention_b[0]
        attn = numerics.softmax_map(logits)
        pooled = np.einsum("ij,ije->e", attn, fmap)
        if cfg.pooling == "mean":
            pooled = pooled / (fmap.shape[0] * fmap.shape[1])
        tape.attn = attn
        tape.embedding = pooled

    if cfg.use_pose_head:
        if tape.embedding is None:
            raise SchemaError("pose-head matching needs per-detection feature maps")
        cache = []
        head_in = (tape.embedding - params.head_shift) * params.head_scale
        out = mlp_forward(params.pose_head, head_in, cache=cache)
        tape.head_cache = cache
        tape.head_out = out
        sx, sy = cfg.center_scale
        center = np.array([out[0] * sx, out[1] * sy])
        depth = out[2] * cfg.depth_scale
        r_raw = out[3:5]
        nrm = float(np.linalg.norm(r_raw))
        if nrm <= 1e-12:
            raise NonFiniteLossError("pose head collapsed to a zero facing direction")
        r_hat = r_raw / nrm
        tape.center, tape.depth = center, depth
        tape.r_raw_norm, tape.r_hat = nrm, r_hat
        t_cam = np.array(
            [
                (center[0] - intrinsics.p_x) * depth / intrinsics.f_x,
                (center[1] - intrinsics.p_y) * depth / intrinsics.f_y,
                depth,
            ]
        )
        t_ref = B @ t_cam + d_off
        r_ref = C @ r_hat
        if features.target is not None:
            c_star, tz_star, r_star = features.target
            tape.target_vec = (
                np.array([c_star[0], c_star[1], tz_star]),
                np.asarray(r_star, dtype=np.float64),
            )
            tape.pose_loss = numerics.loss_rot(tape.target_vec[1], r_hat) \
                + cfg.beta * numerics.loss_trans(
                    tape.target_vec[0], np.array([center[0], center[1], depth])
                )
    else:
        t_ref, r_ref = _observed_geometry(features, B, d_off, C, intrinsics)

    emb = tape.embedding if tape.embedding is not None else np.zeros(cfg.embed_dim)
    tape.geometry = np.concatenate([t_ref, r_ref, [0.0], emb])
    return tape


def _backward_detection(tape, d_geometry, pose_weight, params, grads):
    """Push descriptor-geometry and pose-loss gradients into the trainables."""
    cfg = params.config
    intrinsics = tape.intrinsics
    d_emb = d_geometry[GEOMETRY_PREFIX:].copy()

    if cfg.use_pose_head:
        d_t_ref = d_geometry[:3]
        d_r_ref = d_geometry[3:5]
        d_t_cam = tape.B.T @ d_t_ref
        d_r_hat = tape.C.T @ d_r_ref

        center, depth = tape.center, tape.depth
        d_center = np.array(
            [
                d_t_cam[0] * depth / intrinsics.f_x,
                d_t_cam[1] * depth / intrinsics.f_y,
            ]
        )
        d_depth = (
            d_t_cam[0] * (center[0] - intrinsics.p_x) / intrinsics.f_x
            + d_t_cam[1] * (center[1] - intrinsics.p_y) / intrinsics.f_y
            + d_t_cam[2]
        )
        if tape.pose_loss is not None and pose_weight != 0.0:
            t_target, r_target = tape.target_vec
            d_r_hat = d_r_hat + pose_weight * numerics.loss_rot_grad(r_target, tape.r_hat)
            d_trans = pose_weight * cfg.beta * numerics.loss_trans_grad(
                t_target, np.array([center[0], center[1], depth])
            )
            d_center = d_center + d_trans[:2]
            d_depth = d_depth + d_trans[2]

        r_hat = tape.r_hat
        d_r_raw = (d_r_hat - r_hat * float(r_hat @ d_r_hat)) / tape.r_raw_norm
        sx, sy = cfg.center_scale
        d_out = np.array(
            [d_center[0] * sx, d_center[1] * sy, d_depth * cfg.depth_scale,
             d_r_raw[0], d_r_raw[1]]
        )
        head_grads, d_head_in = mlp_backward(params.pose_head, tape.head_cache, d_out)
        _add_layer_grads(grads, "pose_head", head_grads)
        d_emb += d_head_in * params.head_scale

    if tape.embedding is not None and d_emb.any():
        fmap = tape.features.feature_map
        attn = tape.attn
        d_attn = np.einsum("ije,e->ij", fmap, d_emb)
        if cfg.pooling == "mean":
            d_attn = d_attn / (fmap.shape[0] * fmap.shape[1])
        d_logits = attn * (d_attn - float((attn * d_attn).sum()))
        grads["attention.w"] += np.einsum("ij,ije->e", d_logits, fmap)
        grads["attention.b"] += d_logits.sum()


# --- full pair forward/backward --------------------------------------------------------


def _named_arrays(params):
    """Every trainable array by name: ``scorer.{i}.w|b``, ``pose_head.{i}.w|b``
    and ``attention.w|b``. Gradients and momentum use the same keys."""
    named = {}
    for group in ("scorer", "pose_head"):
        for i, layer in enumerate(getattr(params, group) or ()):
            named[f"{group}.{i}.w"] = layer.w
            named[f"{group}.{i}.b"] = layer.b
    if params.attention_w is not None:
        named["attention.w"] = params.attention_w
        named["attention.b"] = params.attention_b
    return named


def _add_layer_grads(grads, group, layer_grads):
    """Add ``mlp_backward``'s per-layer (dW, db) into the named gradients."""
    for i, (dw, db) in enumerate(layer_grads):
        grads[f"{group}.{i}.w"] += dw
        grads[f"{group}.{i}.b"] += db


def _describe(features_list, params, ego, ego_ref, intrinsics):
    """One frame's detection tapes and its (n, d) ``[geometry | appearance]``
    descriptor rows, all mapped into the ``ego_ref`` camera frame."""
    cfg = params.config
    B, d_off, C = reference_transform(ego, ego_ref)
    tapes, rows = [], []
    for f in features_list:
        if f.appearance.shape[0] != cfg.appearance_dim:
            raise SchemaError(
                f"appearance vector has {f.appearance.shape[0]} dims; "
                f"this matcher expects {cfg.appearance_dim}"
            )
        tape = _forward_detection(f, params, B, d_off, C, intrinsics)
        tapes.append(tape)
        rows.append(np.concatenate([tape.geometry, f.appearance]))
    return tapes, np.array(rows).reshape(len(rows), cfg.descriptor_dim)


def _score(feats_a, feats_b, params, cache=None):
    """Similarity bundle between two descriptor matrices.

    An empty side has no pairs to score and leaves only the null options.
    When ``cache`` is a list it receives the scorer's forward pass for
    ``mlp_backward``.
    """
    cfg = params.config
    n1, n2 = len(feats_a), len(feats_b)
    if n1 == 0 or n2 == 0:
        return augment_normalize(np.zeros((n1, n2)), cfg.delta,
                                 softmax_axis=cfg.softmax_axis)
    logits = score_pair_logits(
        build_pair_tensor(feats_a, feats_b), params.scorer,
        params.input_scale, params.input_shift, cache=cache,
    )
    S = _sigmoid(logits)
    base = logits if cfg.score_space == "logit" else S
    return augment_normalize(S, cfg.delta, softmax_axis=cfg.softmax_axis, base=base)


def forward_pair(sample, params, with_grad=False, pose_only=False):
    """Joint loss (and gradients) of one training pair.

    Returns a dict with the affinity loss, pose losses, joint loss, the
    similarity bundle, and — when ``with_grad`` — ``grads`` keyed like
    ``_named_arrays``: ``scorer.{i}.w|b``, ``pose_head.{i}.w|b`` and
    ``attention.w|b``, each present whenever the params hold it. With
    ``pose_only`` the scorer never runs: the objective is the mean pose loss
    alone (the pose-head pretraining phase).
    """
    cfg = params.config
    n1, n2 = len(sample.a), len(sample.b)
    if max(n1, n2) > cfg.capacity:
        raise CapacityExceededError(
            f"pair has {max(n1, n2)} detections; capacity is {cfg.capacity}"
        )
    tapes_a, feats_a = _describe(sample.a, params, sample.ego_a, sample.ego_ref,
                                 sample.intrinsics_a)
    tapes_b, feats_b = _describe(sample.b, params, sample.ego_b, sample.ego_ref,
                                 sample.intrinsics_b)
    tapes = tapes_a + tapes_b
    pose_losses = [t.pose_loss for t in tapes if t.pose_loss is not None]
    mean_pose = float(np.mean(pose_losses)) if pose_losses else 0.0

    if pose_only:
        out = {"affinity": float("nan"), "pose_losses": pose_losses,
               "joint": mean_pose, "bundle": None}
        pose_weight = 1.0
    else:
        cache = []
        bundle = _score(feats_a, feats_b, params, cache)
        affinity, d_base = loss_affinity(bundle, sample.match, with_grad=True)
        out = {"affinity": affinity, "pose_losses": pose_losses,
               "joint": affinity + cfg.lam * mean_pose, "bundle": bundle}
        pose_weight = cfg.lam
    if not with_grad:
        return out

    grads = {name: np.zeros_like(a) for name, a in _named_arrays(params).items()}
    geom_width = GEOMETRY_PREFIX + cfg.embed_dim
    if pose_only or n1 == 0 or n2 == 0:
        # no scorer gradient reaches the descriptors
        d_geometry = np.zeros((n1 + n2, geom_width))
    else:
        S = bundle.S
        d_logits = d_base if cfg.score_space == "logit" else d_base * S * (1.0 - S)
        scorer_grads, d_x = mlp_backward(
            params.scorer, cache, d_logits.reshape(n1 * n2, 1)
        )
        _add_layer_grads(grads, "scorer", scorer_grads)
        scale2 = np.concatenate([params.input_scale, params.input_scale])
        d_pairs = (d_x * scale2).reshape(n1, n2, -1)
        d = cfg.descriptor_dim
        d_geometry = np.concatenate([
            d_pairs[:, :, :d].sum(axis=1), d_pairs[:, :, d:].sum(axis=0)
        ])[:, :geom_width]

    weight = pose_weight / len(pose_losses) if pose_losses else 0.0
    for tape, dg in zip(tapes, d_geometry):
        _backward_detection(tape, dg, weight, params, grads)
    out["grads"] = grads
    return out


# --- training loop --------------------------------------------------------------------


def fit_input_standardization(samples, params):
    """Freeze input standardization from the dataset at initialization.

    Sets the scorer's (x - shift) * scale vectors so meter-scale geometry
    and unit-scale appearance start on comparable footing, and — when the
    pose head is enabled — whitens the head's embedding input the same
    way. All four vectors ride along in the checkpoint.
    """
    cfg = params.config
    rows = []
    for sample in samples:
        for feats, ego, intrinsics in ((sample.a, sample.ego_a, sample.intrinsics_a),
                                       (sample.b, sample.ego_b, sample.intrinsics_b)):
            rows.extend(_describe(feats, params, ego, sample.ego_ref, intrinsics)[1])
    if not rows:
        return params
    block = np.array(rows)
    params.input_shift = block.mean(axis=0)
    params.input_scale = 1.0 / np.clip(block.std(axis=0), 0.05, None)
    if params.pose_head is not None:
        emb = block[:, GEOMETRY_PREFIX:GEOMETRY_PREFIX + cfg.embed_dim]
        params.head_shift = emb.mean(axis=0)
        params.head_scale = 1.0 / np.clip(emb.std(axis=0), 1e-3, None)
    return params


@dataclass
class EpochStats:
    epoch: int
    affinity: float
    pose: float
    accuracy: float


def _sgd_epoch(samples, params, config, rng, lr, velocity, pose_only=False):
    """One pass over the samples; returns (mean affinity, mean pose loss)."""
    updates = [(name, arr) for name, arr in _named_arrays(params).items()
               if not pose_only or name.startswith(("pose_head.", "attention."))]
    order = rng.permutation(len(samples))
    affinity_sum = 0.0
    pose_sum = 0.0
    pose_count = 0
    for idx in order:
        result = forward_pair(samples[idx], params, with_grad=True,
                              pose_only=pose_only)
        if not np.isfinite(result["joint"]):
            raise NonFiniteLossError(
                f"non-finite loss at epoch {params.epochs_trained}, sample {idx}: "
                f"affinity={result['affinity']}, pose={result['pose_losses']}"
            )
        if not pose_only:
            affinity_sum += result["affinity"]
        pose_sum += sum(result["pose_losses"])
        pose_count += len(result["pose_losses"])
        grads = result["grads"]
        if config.grad_clip:
            norm = np.sqrt(sum(float(np.sum(grads[name] ** 2))
                               for name, _ in updates))
            if norm > config.grad_clip:
                scale = config.grad_clip / norm
                for name, _ in updates:
                    grads[name] *= scale
        for name, arr in updates:
            g = grads[name]
            if name.endswith(".w") and "attention" not in name:
                g = g + config.weight_decay * arr
            step = lr * config.pose_lr_scale if name.startswith("pose_head.") else lr
            v = velocity[name]
            v *= config.momentum
            v -= step * g
            arr += v
    return (
        float(affinity_sum) / len(samples) if not pose_only else float("nan"),
        float(pose_sum) / pose_count if pose_count else 0.0,
    )


def train_matcher(samples, config, params=None, heldout=None):
    """SGD-with-momentum training of the scorer (and pose head when enabled).

    Fresh pose-head runs start with a pretraining phase that fits the head
    (and attention) on the pose loss alone before the joint objective takes
    over; the decode-scale jacobians make a cold joint start diverge.
    Deterministic for a fixed config seed. Returns the trained params and
    per-epoch history (mean affinity loss, mean pose loss, accuracy on
    ``heldout`` or, failing that, the training samples).
    """
    samples = list(samples)
    if not samples:
        raise ConfigError("training needs at least one pair sample")
    rng = np.random.default_rng(config.seed)
    pretrain = 0
    if params is None:
        params = init_matcher_params(config, rng)
        fit_input_standardization(samples, params)
        if config.use_pose_head:
            pretrain = (config.pose_pretrain_epochs
                        if config.pose_pretrain_epochs is not None
                        else config.epochs // 3)
    velocity = {name: np.zeros_like(a) for name, a in _named_arrays(params).items()}
    eval_samples = heldout if heldout else samples
    cutoff = int(np.floor(config.epochs * 2 / 3))
    schedule = [(True, config.learning_rate)] * pretrain + [
        (False, config.learning_rate * (config.lr_decay if epoch >= cutoff else 1.0))
        for epoch in range(config.epochs)
    ]
    history = []
    for pose_only, lr in schedule:
        affinity_mean, pose_mean = _sgd_epoch(
            samples, params, config, rng, lr, velocity, pose_only=pose_only
        )
        history.append(
            EpochStats(epoch=params.epochs_trained, affinity=affinity_mean,
                       pose=pose_mean, accuracy=pair_accuracy(eval_samples, params))
        )
        params.epochs_trained += 1
    return params, history


# --- evaluation helpers ------------------------------------------------------------------


def pair_accuracy(samples, params):
    """Fraction of per-object assignment decisions (argmax incl. the null
    option, both directions) that agree with the ground-truth matrix."""
    correct = 0
    total = 0
    for sample in samples:
        result = forward_pair(sample, params, with_grad=False)
        bundle = result["bundle"]
        n1, n2 = bundle.S.shape
        match, fused = sample.match, bundle.fused
        for i in range(n1):
            total += 1
            if int(np.argmax(fused[i, : n2 + 1])) == int(np.argmax(match[i])):
                correct += 1
        for j in range(n2):
            total += 1
            if int(np.argmax(fused[: n1 + 1, j])) == int(np.argmax(match[:, j])):
                correct += 1
    return correct / total if total else 0.0


# --- inference wrapper ---------------------------------------------------------------------


class Matcher:
    """Bound (params, config) pair exposing the inference interface."""

    def __init__(self, params):
        self.params = params
        self.config = params.config

    def descriptors(self, features_list, ego, ego_ref, intrinsics):
        """Descriptor rows of one frame's detections in the reference frame."""
        return list(_describe(features_list, self.params, ego, ego_ref, intrinsics)[1])

    def bundle(self, desc_rows, desc_cols):
        """Similarity bundle between two stacked descriptor lists."""
        return _score(desc_rows, desc_cols, self.params)


# --- checkpoints -----------------------------------------------------------------------


def params_to_doc(params):
    doc = {
        "format": 1,
        "config": asdict(params.config),
        "scorer": numerics.layers_to_doc(params.scorer),
        "input_scale": [float(x) for x in params.input_scale],
        "input_shift": [float(x) for x in params.input_shift],
        "epochs_trained": int(params.epochs_trained),
    }
    if params.attention_w is not None:
        doc["attention_w"] = [float(x) for x in params.attention_w]
        doc["attention_b"] = float(params.attention_b[0])
    if params.pose_head is not None:
        doc["pose_head"] = numerics.layers_to_doc(params.pose_head)
        doc["head_shift"] = [float(x) for x in params.head_shift]
        doc["head_scale"] = [float(x) for x in params.head_scale]
    return doc


def params_from_doc(doc):
    """MatcherParams from a checkpoint document.

    Raises SchemaError naming the field when one is missing, has the wrong
    type or shape for the stored config, or holds NaN or inf.
    """
    if not isinstance(doc, dict) or type(doc.get("format")) is not int or doc["format"] != 1:
        raise SchemaError('checkpoint must be a JSON object with "format": 1')
    try:
        config = MatcherConfig.from_dict(doc.get("config"))
    except ConfigError as exc:
        raise SchemaError(f"checkpoint config: {exc}") from exc
    missing = sorted({f.name for f in fields(MatcherConfig)} - set(doc["config"]))
    if missing:
        raise SchemaError(f"checkpoint config lacks {missing}")
    if type(doc.get("epochs_trained")) is not int:
        raise SchemaError("checkpoint epochs_trained must be an integer")

    def stored(key, shape):
        return numerics.array_from_doc(doc.get(key), f"checkpoint {key}", shape)

    def stored_mlp(key, *sizes):
        return numerics.layers_from_doc(doc.get(key), sizes, f"checkpoint {key}")

    d, e = config.descriptor_dim, config.embed_dim
    params = MatcherParams(
        config=config,
        scorer=stored_mlp("scorer", 2 * d, *config.scorer_hidden, 1),
        input_scale=stored("input_scale", (d,)),
        input_shift=stored("input_shift", (d,)),
        epochs_trained=doc["epochs_trained"],
    )
    if e > 0:
        params.attention_w = stored("attention_w", (e,))
        params.attention_b = stored("attention_b", ()).reshape(1)
    if config.use_pose_head:
        params.pose_head = stored_mlp("pose_head", e, *config.pose_hidden, 5)
        params.head_shift = stored("head_shift", (e,))
        params.head_scale = stored("head_scale", (e,))
    return params


def save_checkpoint(params, path):
    atomic_write_text(path, json.dumps(params_to_doc(params), sort_keys=True) + "\n")


def load_checkpoint(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg} (line {exc.lineno})") from exc
    except OSError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return params_from_doc(doc)
