"""Learned pairwise object matching.

Objects are described by a fused vector ``[geometry | appearance]`` where
the geometry part is ``(T_x, T_y, T_z, R_x, R_y, 0)`` in the reference
camera frame followed by the pooled embedding G. A per-pair 6-layer MLP
(the 1x1-convolution similarity estimator: each pair is scored from its own
two descriptors only) maps every concatenated descriptor pair to a
similarity logit. Entering/leaving objects are handled by augmenting the score
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

Both routes read a frame's ``scene.Detection`` objects as they are (one
without an appearance vector is a DataError). Either runs once per frame
side on (k, ...) arrays of that side's k detections (``_describe`` forward,
``_backward_side`` backward), and reproduces bit for bit a loop over the
detections: each row's reductions are those a single vector would get, and
the pose head's weight gradients add up in detection order. With
``embed_dim`` > 0 every detection of a frame carries one feature map, all
of one (H, W, embed_dim) shape.
"""

import json
import math
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import numerics
from .errors import ConfigError, DataError, GeotrackError, NonFiniteLossError
from .geometry import recover_translation, reference_transform
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


# Ceiling on a count that sets how much work a run does (scenes, frames,
# objects, epochs). Values past it would keep a run going for days or exhaust
# memory, so they are usage errors rather than runs that never end.
MAX_COUNT = 1_000_000

# Ceiling on the float64 values one array that a configuration implies may
# hold: an MLP layer's weights, or one detection's appearance vector or
# feature map (80 MB). Past it the array would exhaust memory, so the
# configuration is a usage error.
MAX_ARRAY_VALUES = 10_000_000


def check_array_size(name, values):
    """ConfigError naming ``name`` when an implied array of ``values``
    float64 entries would pass ``MAX_ARRAY_VALUES``."""
    if values > MAX_ARRAY_VALUES:
        raise ConfigError(f"{name} implies an array of {values} values; "
                          f"the limit is {MAX_ARRAY_VALUES}")


# Bound on |delta|: the natural log of the largest float64. Past it the null
# slot swamps or vanishes from every softmax, and the loss takes log 0.
DELTA_BOUND = math.log(np.finfo(np.float64).max)

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
    delta: float = 8.0  # basis value for the null column/row, |delta| <= DELTA_BOUND
    lam: float = 0.005  # pose-loss weight in the joint loss
    beta: float = 0.1  # translation weight inside the pose loss
    n_max: int = 35  # maximum frame separation when sampling pairs
    appearance_dim: int = 64
    embed_dim: int = 0  # E; 0 disables the embedding slot
    scorer_hidden: tuple = (64, 48, 32, 24, 16)  # 5 hidden + output = 6 layers
    pose_hidden: tuple = (32, 16)
    use_pose_head: bool = False
    # the one score space, normalization and pooling; each field accepts only
    # its default and stays because checkpoints store every field
    score_space: str = "logit"
    softmax_axis: str = "per-object"
    pooling: str = "mean"
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
        if not abs(self.delta) <= DELTA_BOUND:  # NaN fails too
            raise ConfigError(f"delta must lie in [-{DELTA_BOUND}, {DELTA_BOUND}], "
                              f"got {self.delta}")
        if not 0 <= self.lam < math.inf:  # NaN fails too
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        for name, only in (("score_space", "logit"), ("softmax_axis", "per-object"),
                           ("pooling", "mean")):
            if getattr(self, name) != only:
                raise ConfigError(f"{name} must be {only!r}, got {getattr(self, name)!r}")
        # written so that NaN fails each check
        for name, value, low in (("epochs", self.epochs, 1), ("seed", self.seed, 0),
                                 ("appearance_dim", self.appearance_dim, 1),
                                 ("embed_dim", self.embed_dim, 0),
                                 *(("scorer_hidden", w, 1) for w in self.scorer_hidden),
                                 *(("pose_hidden", w, 1) for w in self.pose_hidden)):
            if not value >= low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        for name in ("learning_rate", "pose_lr_scale", "weight_decay", "beta", "lr_decay",
                     "grad_clip"):  # grad_clip 0: no clipping
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name, value in (*(("center_scale", v) for v in self.center_scale),
                            ("depth_scale", self.depth_scale)):
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        pretrain = self.pose_pretrain_epochs
        if pretrain is not None and not pretrain >= 0:
            raise ConfigError(f"pose_pretrain_epochs must be >= 0, got {pretrain}")
        for name, value in (("epochs", self.epochs), ("pose_pretrain_epochs", pretrain)):
            if value is not None and value > MAX_COUNT:
                raise ConfigError(f"{name} must be <= {MAX_COUNT}, got {value}")
        if self.use_pose_head and self.embed_dim < 1:
            raise ConfigError("use_pose_head requires embed_dim >= 1")
        # appearance_dim and embed_dim size the scorer's first layer, so the
        # layer checks bound them too
        mlps = [("scorer", [2 * self.descriptor_dim, *self.scorer_hidden, 1])]
        if self.use_pose_head:
            mlps.append(("pose head", [self.embed_dim, *self.pose_hidden, 5]))
        for group, sizes in mlps:
            for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
                check_array_size(f"{group} layer {i} ({fan_in} x {fan_out})",
                                 fan_in * fan_out)

    @property
    def descriptor_dim(self):
        return self.appearance_dim + GEOMETRY_PREFIX + self.embed_dim

    @classmethod
    def from_dict(cls, doc):
        return config_from_dict(cls, doc, "matcher")


@dataclass
class SimilarityBundle:
    """Normalized and fused similarities of G row groups against one set of
    columns, from their logits; a frame pair is the one-group case. Rows are
    the groups' rows stacked, then one null row per group."""

    S1n: np.ndarray  # (rows, cols+1): normalized, appended null column
    S2n: np.ndarray  # (rows+G, cols): normalized, appended null rows
    fused: np.ndarray  # (rows+G, cols+1) inference similarity


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
class PairSample:
    """One training item: two scene frames, whose ``scene.Detection``s the
    matcher reads, with each detection's (c*, T_z*, R*_cam) pose target or
    None, and their match matrix. Samples of one frame share its targets.

    The match matrix is checked once, here: it must fit the two frames'
    detection counts, and each real row and column must sum to 1.
    """

    frame_a: object  # scene.FrameRecord
    frame_b: object
    targets_a: tuple
    targets_b: tuple
    ego_ref: object
    match: np.ndarray  # (n_a+1, n_b+1), see scene.build_match_matrix

    def __post_init__(self):
        n1, n2 = len(self.frame_a.detections), len(self.frame_b.detections)
        if self.match.shape != (n1 + 1, n2 + 1):
            raise GeotrackError(
                f"match matrix {self.match.shape} does not fit real counts ({n1}, {n2})"
            )
        bad_rows = np.flatnonzero(self.match[:n1].sum(axis=1) != 1)
        if bad_rows.size:
            raise GeotrackError(f"row {bad_rows[0]} of the match matrix must sum to 1")
        bad_cols = np.flatnonzero(self.match[:, :n2].sum(axis=0) != 1)
        if bad_cols.size:
            raise GeotrackError(
                f"column {bad_cols[0]} of the match matrix must sum to 1")


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
        raise GeotrackError(
            f"feature matrices {features_a.shape} / {features_b.shape} do not pair"
        )
    n_a, d = features_a.shape
    n_b = features_b.shape[0]
    out = np.empty((n_a, n_b, 2 * d))
    out[:, :, :d] = features_a[:, None, :]
    out[:, :, d:] = features_b[None, :, :]
    return out


# --- scoring -----------------------------------------------------------------------

# Most (row, column) pairs one tapeless scorer pass takes. Each layer's
# output, the first layer's broadcast sum too, is then at most this many rows
# of 64 float64s, which stays in a 2 MiB L2 cache; one pass over thousands of
# pairs spills it and runs slower. Row invariance of the scorer is swept up to
# 600 rows (tests/test_numerics.py), so keep this at most 600 or widen the
# sweep. A training pair of up to 20 x 20 detections (``n_max`` 20) is one chunk.
SCORER_CHUNK_PAIRS = 600


def score_pair_logits(pair_tensor, scorer, cache=None):
    """The (n_a, n_b) logits of ``scorer`` over an (n_a, n_b, width) tensor
    of per-pair inputs; ``cache`` as in ``mlp_forward``. Training's taped
    pass gives it the pair tensor of standardized rows and the whole scorer;
    ``_score``'s tapeless pass gives it the first layer's activations and
    the layers after it."""
    pair_tensor = np.asarray(pair_tensor, dtype=np.float64)
    n_a, n_b, d2 = pair_tensor.shape
    logits = mlp_forward(scorer, pair_tensor.reshape(n_a * n_b, d2), cache=cache)
    if logits.shape[1] != 1:
        raise GeotrackError("pair scorer must produce one output per pair")
    return logits.reshape(n_a, n_b)


def _softmax_rows_with_null(block, delta):
    """Per-row softmax over each row's entries plus the null slot."""
    logits = np.concatenate([block, np.full((block.shape[0], 1), float(delta))], axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def augment_normalize(B, delta, sizes=None):
    """Append the null column/row at ``delta`` to the scorer logits ``B``
    and normalize each object's candidate set (DAN, Sun et al., TPAMI 2019).

    The rows of ``B`` are G groups of ``sizes`` rows each, stacked in order
    (one group of all rows when ``sizes`` is None), scored against the same
    columns. S1 = [B | delta] gains a null column and each group's block of
    S2 = [B ; delta] a null row. The bundle keeps their normalized forms:
    every row of S1n is a softmax over the columns plus the null option, and
    every column of a group's block of S2n a softmax over that group's rows
    plus its null row. S2n and fused hold every real row first, then the G
    null rows in group order, so one group has the frame-pair layout.

    Row softmaxes reduce each row on its own, so S1n has the same bits as
    per-group calls. Each group's column softmax runs on that group alone:
    ``np.add.reduceat`` over the stacked rows sums in another order and
    differs in the last bit.
    """
    B = np.asarray(B, dtype=np.float64)
    rows, cols = B.shape
    sizes = (rows,) if sizes is None else sizes
    if sum(sizes) != rows:
        raise GeotrackError(f"group sizes {list(sizes)} do not add up to {rows} rows")
    S1n = _softmax_rows_with_null(B, delta)
    S2n = np.empty((rows + len(sizes), cols))
    start = 0
    for k, size in enumerate(sizes):
        group = _softmax_rows_with_null(B[start:start + size].T, delta).T
        S2n[start:start + size] = group[:size]
        S2n[rows + k] = group[size]
        start += size

    fused = np.zeros((rows + len(sizes), cols + 1))
    fused[:rows, :cols] = 0.5 * (S1n[:, :cols] + S2n[:rows])
    fused[:rows, cols] = S1n[:, cols]
    fused[rows:, :cols] = S2n[rows:]
    return SimilarityBundle(S1n=S1n, S2n=S2n, fused=fused)


def loss_affinity(bundle, match, with_grad=False):
    """Symmetric matching cross-entropy (average of both directions).

    ``match`` must be (rows+1, cols+1) for a bundle of (rows, cols) logits;
    its row and column sums are checked where a ``PairSample`` is built.
    When ``with_grad`` is set, the gradient with respect to the logits is
    returned alongside the loss. Each row of S1n and column of S2n is one
    softmax group with target mass 1, so in each direction a logit's
    gradient is its normalized similarity minus its target, over twice that
    direction's number of groups.
    """
    n1, n2 = bundle.S1n.shape[0], bundle.S2n.shape[1]
    if match.shape != (n1 + 1, n2 + 1):
        raise GeotrackError(
            f"match matrix {match.shape} does not fit real counts ({n1}, {n2})"
        )
    grad = np.zeros((n1, n2)) if with_grad else None
    m_block = match[:n1, :n2].astype(np.float64)
    loss1 = 0.0
    if n1 > 0:
        m = match[:n1].astype(np.float64)
        with np.errstate(divide="ignore"):  # log 0 -> inf is the failure signal
            loss1 = -(m * np.log(np.where(m > 0, bundle.S1n, 1.0))).sum() / n1
        if with_grad:
            grad += (bundle.S1n[:, :n2] - m_block) / (2.0 * n1)
    loss2 = 0.0
    if n2 > 0:
        m = match[:, :n2].astype(np.float64)
        with np.errstate(divide="ignore"):
            loss2 = -(m * np.log(np.where(m > 0, bundle.S2n, 1.0))).sum() / n2
        if with_grad:
            grad += (bundle.S2n[:n1] - m_block) / (2.0 * n2)
    loss = float(0.5 * (loss1 + loss2))
    if with_grad:
        return loss, grad
    return loss


# --- descriptor chain, one frame side at a time ----------------------------------


def check_detections(detections, cfg):
    """DataError when one frame's ``scene.Detection``s do not fit a matcher
    of config ``cfg``: each needs an appearance vector of ``appearance_dim``
    values and, on the observation route, a pixel observation; with
    ``embed_dim`` > 0 each carries one feature map, all of one
    (H, W, embed_dim) shape."""
    for det in detections:
        if det.appearance is None:
            raise DataError("detection lacks an appearance vector")
        if np.shape(det.appearance) != (cfg.appearance_dim,):
            raise DataError(
                f"appearance vector has {np.size(det.appearance)} dims; "
                f"this matcher expects {cfg.appearance_dim}"
            )
        if not cfg.use_pose_head and det.observation is None:
            raise DataError("detection lacks the pixel observation needed for matching")
    if cfg.embed_dim > 0 and detections:
        shapes = {np.shape(det.feature_map) for det in detections}
        shape = next(iter(shapes)) if len(shapes) == 1 else ()
        if len(shape) != 3 or shape[2] != cfg.embed_dim or 0 in shape:
            raise DataError(
                f"embed_dim {cfg.embed_dim} needs one (H, W, {cfg.embed_dim}) feature "
                f"map per detection, all of one shape; this frame has {sorted(shapes)}"
            )


def _gather(detections, cfg):
    """The side's appearance rows (k, A) and feature maps (k, H, W, E) or
    None, once ``check_detections`` passes."""
    check_detections(detections, cfg)
    fmaps = None
    if cfg.embed_dim > 0 and detections:
        fmaps = np.array([det.feature_map for det in detections], dtype=np.float64)
    return np.array([det.appearance for det in detections], dtype=np.float64), fmaps


def _back_project(ctz, intrinsics):
    """Camera-frame translations of (c_x, c_y, T_z) rows:
    T_a = (c_a - p_a) * T_z / f_a for a in {x, y}; T_z passes through."""
    t = ctz.copy()
    t[:, :2] = (ctz[:, :2] - [intrinsics.p_x, intrinsics.p_y]) * ctz[:, 2:] \
        / [intrinsics.f_x, intrinsics.f_y]
    return t


def _apply(M, rows):
    """``M @ row`` for every row of a (k, n) stack, one matrix-vector
    product each (as a loop over the rows would compute them)."""
    return (M @ rows[:, :, None])[:, :, 0]


def _describe(detections, params, transform, intrinsics, targets=None):
    """One frame side's descriptor chain: the tape ``_backward_side`` reads
    and the (k, d) ``[geometry | appearance]`` rows, all mapped into the
    reference camera frame by ``transform``, the side's
    ``reference_transform(ego, ego_ref)``. ``targets`` holds each
    detection's pose target or None; the pose head's loss reads them (None:
    no detection has one)."""
    cfg = params.config
    k = len(detections)
    appearance, fmaps = _gather(detections, cfg)
    B, d_off, C = transform
    tape = SimpleNamespace(B=B, C=C, intrinsics=intrinsics, fmaps=fmaps,
                           pose_loss=np.zeros(0))
    if k == 0:
        return tape, np.zeros((0, cfg.descriptor_dim))

    embedding = np.zeros((k, cfg.embed_dim))
    if fmaps is not None:
        tape.attn = numerics.softmax_map(fmaps @ params.attention_w + params.attention_b[0])
        embedding = np.einsum("kij,kije->ke", tape.attn, fmaps) \
            / (fmaps.shape[1] * fmaps.shape[2])

    if cfg.use_pose_head:
        tape.head_cache = []
        out = mlp_forward(params.pose_head,
                          (embedding - params.head_shift) * params.head_scale,
                          cache=tape.head_cache)
        tape.ctz = out[:, :3] * np.array([*cfg.center_scale, cfg.depth_scale])
        with np.errstate(over="ignore"):  # an overflowing norm fails the check below
            tape.r_norm = numerics.row_norm(out[:, 3:5])
        if ((tape.r_norm <= 1e-12) | np.isinf(tape.r_norm)).any():
            raise NonFiniteLossError("pose head gave a zero or overflowing facing direction")
        tape.r_hat = out[:, 3:5] / tape.r_norm[:, None]
        t_ref = _apply(B, _back_project(tape.ctz, intrinsics)) + d_off
        r_ref = _apply(C, tape.r_hat)
        tape.targeted = np.array([t is not None for t in targets or [None] * k])
        if tape.targeted.any():  # target rows (c_x, c_y, T_z, R_x, R_y)
            tape.target = np.array([[*c, tz, *r] for c, tz, r in (
                t for t in targets if t is not None)], dtype=np.float64)
            tape.pose_loss = \
                numerics.loss_rot(tape.target[:, 3:], tape.r_hat[tape.targeted]) \
                + cfg.beta * numerics.loss_trans(tape.target[:, :3], tape.ctz[tape.targeted])
    else:
        observations = [det.observation for det in detections]
        r_obs = np.array([o.R for o in observations])
        # huge observations overflow here; the check below makes them a DataError
        with np.errstate(over="ignore", invalid="ignore"):
            r_norm = numerics.row_norm(r_obs)
            t_cam = np.array([recover_translation(o, intrinsics) for o in observations])
            t_ref = _apply(B, t_cam) + d_off
        bad = ~(np.isfinite(t_ref).all(axis=1) & np.isfinite(r_norm) & (r_norm > 1e-12))
        if bad.any():
            raise DataError(f"detection {int(np.argmax(bad))}: observation geometry "
                              f"is not finite or faces no direction")
        r_ref = _apply(C, r_obs / r_norm[:, None])
        r_ref = r_ref / numerics.row_norm(r_ref)[:, None]
    return tape, np.concatenate(
        [t_ref, r_ref, np.zeros((k, 1)), embedding, appearance], axis=1)


def _input_rows(detections, params, transform, intrinsics, targets=None):
    """``_describe``'s rows for detections read from data under parameters
    that are not being trained: a pose head that cannot describe them, or a
    row that overflows, means the input values are bad (DataError)."""
    try:
        rows = _describe(detections, params, transform, intrinsics, targets)[1]
    except NonFiniteLossError as exc:
        raise DataError(f"detections the pose head cannot describe: {exc}") from exc
    if not np.isfinite(rows).all():
        raise DataError("detection values overflow the descriptors")
    return rows


def _add_rows(grads, name, rows):
    """Add the per-detection ``rows`` into ``grads[name]`` one after another
    in detection order, as a loop over the detections would."""
    stacked = np.concatenate([grads[name][None], rows])
    grads[name][...] = np.add.accumulate(stacked, axis=0)[-1]


def _backward_side(tape, d_geometry, pose_weight, params, grads):
    """Push one side's (k, 6 + E) descriptor-geometry gradients, and its
    pose losses weighted by ``pose_weight``, into the trainables."""
    cfg = params.config
    if len(d_geometry) == 0:
        return
    d_emb = d_geometry[:, GEOMETRY_PREFIX:]

    if cfg.use_pose_head:
        K, ctz, r_hat, hit = tape.intrinsics, tape.ctz, tape.r_hat, tape.targeted
        d_t_cam = _apply(tape.B.T, d_geometry[:, :3])
        d_r_hat = _apply(tape.C.T, d_geometry[:, 3:5])
        d_ctz = np.empty_like(ctz)
        f = np.array([K.f_x, K.f_y])
        d_ctz[:, :2] = d_t_cam[:, :2] * ctz[:, 2:] / f
        d_xy = d_t_cam[:, :2] * (ctz[:, :2] - [K.p_x, K.p_y]) / f
        d_ctz[:, 2] = d_xy[:, 0] + d_xy[:, 1] + d_t_cam[:, 2]
        if tape.pose_loss.size and pose_weight != 0.0:
            d_r_hat[hit] += pose_weight * numerics.loss_rot_grad(tape.target[:, 3:],
                                                                 r_hat[hit])
            d_ctz[hit] += pose_weight * cfg.beta * numerics.loss_trans_grad(
                tape.target[:, :3], ctz[hit])
        radial = (r_hat[:, None, :] @ d_r_hat[:, :, None])[:, 0]
        d_out = np.column_stack([d_ctz * np.array([*cfg.center_scale, cfg.depth_scale]),
                                 (d_r_hat - r_hat * radial) / tape.r_norm[:, None]])
        # one pass per layer with each detection's gradients kept apart: the
        # weight gradients add up in detection order, and each input
        # gradient is the one-row product (gemv) a loop over the rows takes
        grad = d_out
        for i in range(len(params.pose_head) - 1, -1, -1):
            layer, (h, z) = params.pose_head[i], tape.head_cache[i]
            dz = grad * numerics._ACTS[layer.act][1](z)
            _add_rows(grads, f"pose_head.{i}.w", np.einsum("ki,kj->kij", h, dz))
            _add_rows(grads, f"pose_head.{i}.b", dz)
            grad = (dz[:, None, :] @ layer.w.T)[:, 0]
        d_emb = d_emb + grad * params.head_scale

    if tape.fmaps is not None:
        fmaps, attn = tape.fmaps, tape.attn
        d_attn = np.einsum("kije,ke->kij", fmaps, d_emb) / (fmaps.shape[1] * fmaps.shape[2])
        d_logits = attn * (d_attn - (attn * d_attn).sum(axis=(1, 2), keepdims=True))
        _add_rows(grads, "attention.w", np.einsum("kij,kije->ke", d_logits, fmaps))
        _add_rows(grads, "attention.b", d_logits.sum(axis=(1, 2))[:, None])


# --- full pair forward/backward --------------------------------------------------------


def _trainable_slots(params):
    """``(name, owner, attribute)`` of every trainable array of ``params``:
    ``scorer.{i}.w|b``, ``pose_head.{i}.w|b`` and ``attention.w|b``."""
    for group in ("scorer", "pose_head"):
        for i, layer in enumerate(getattr(params, group) or ()):
            yield f"{group}.{i}.w", layer, "w"
            yield f"{group}.{i}.b", layer, "b"
    if params.attention_w is not None:
        yield "attention.w", params, "attention_w"
        yield "attention.b", params, "attention_b"


def _named_arrays(params):
    """Every trainable array by name, in ``_trainable_slots`` order.
    Gradients use the same keys."""
    return {name: getattr(owner, attr) for name, owner, attr in _trainable_slots(params)}


def _reference_transforms(sample):
    """The ``reference_transform`` of each side of ``sample``; it depends only
    on the frames' ego poses, so a training run takes it once per sample."""
    return tuple(reference_transform(frame.ego, sample.ego_ref)
                 for frame in (sample.frame_a, sample.frame_b))


def _describe_sides(sample, params, describe, transforms=None):
    """``describe`` (``_describe`` or ``_input_rows``) of a sample's two
    frames, each with its detections' pose targets. ``transforms``, when
    given, is the sample's ``_reference_transforms``."""
    transforms = transforms or _reference_transforms(sample)
    return tuple(describe(frame.detections, params, transform, frame.intrinsics, targets)
                 for frame, targets, transform in (
                     (sample.frame_a, sample.targets_a, transforms[0]),
                     (sample.frame_b, sample.targets_b, transforms[1])))


def _add_layer_grads(grads, group, layer_grads):
    """Add ``mlp_backward``'s per-layer (dW, db) into the named gradients."""
    for i, (dw, db) in enumerate(layer_grads):
        grads[f"{group}.{i}.w"] += dw
        grads[f"{group}.{i}.b"] += db


def _score(feats_a, feats_b, params, cache=None, sizes=None):
    """Similarity bundle between two descriptor matrices, the rows in groups
    of ``sizes`` as in ``augment_normalize``.

    An empty side has no pairs to score and leaves only the null options.
    When ``cache`` is a list it receives the scorer's forward pass over the
    pair tensor for ``mlp_backward``, in one call. Without it the first
    layer is split by side, ``[a; b] W1 + b1 = (a W1[:d] + b1) + b W1[d:]``:
    one product per side, then one broadcast add per pair, in chunks of at
    most ``SCORER_CHUNK_PAIRS`` pairs (one row at least). Every product
    gives a row the same bits in any batch, so the logits are those of one
    call; they differ from the concatenated layer's in the last bits.
    """
    delta = params.config.delta
    n1, n2 = len(feats_a), len(feats_b)
    if n1 == 0 or n2 == 0:
        return augment_normalize(np.zeros((n1, n2)), delta, sizes)
    rows = [np.asarray(f, dtype=np.float64) for f in (feats_a, feats_b)]
    for name in ("shift", "scale"):
        vector = getattr(params, f"input_{name}")
        for side in rows:
            if vector.shape != side.shape[1:]:
                raise GeotrackError(f"input {name} of width {len(vector)} does not "
                                    f"match descriptor width {side.shape[-1]}")
    # Shift and scale act per column, so standardizing each side's rows once
    # gives the pair tensor the same bits as standardizing every pair.
    feats_a, feats_b = ((side - params.input_shift) * params.input_scale for side in rows)
    if cache is not None:
        return augment_normalize(score_pair_logits(
            build_pair_tensor(feats_a, feats_b), params.scorer, cache=cache), delta, sizes)
    first, d = params.scorer[0], feats_a.shape[1]
    left = numerics._layer_product(feats_a, first.w[:d], taped=False)
    left += first.b
    right = numerics._layer_product(feats_b, first.w[d:], taped=False)
    activate = numerics._ACTS[first.act][0]
    step = max(1, SCORER_CHUNK_PAIRS // n2)
    logits = np.empty((n1, n2))
    for start in range(0, n1, step):
        h = left[start:start + step, None, :] + right[None]
        logits[start:start + step] = score_pair_logits(activate(h, out=h), params.scorer[1:])
    return augment_normalize(logits, delta, sizes)


def forward_pair(sample, params, with_grad=False, pose_only=False, rows=None,
                 transforms=None, grads=None):
    """Joint loss (and gradients) of one training pair.

    Returns a dict with the affinity loss, pose losses, joint loss, the
    similarity bundle, and — when ``with_grad`` — ``grads`` keyed like
    ``_named_arrays``: ``scorer.{i}.w|b``, ``pose_head.{i}.w|b`` and
    ``attention.w|b``, each present whenever the params hold it. With
    ``pose_only`` the scorer never runs: the objective is the mean pose loss
    alone (the pose-head pretraining phase).

    Without ``with_grad`` the pair is scored tapeless, as ``Matcher.bundle``
    scores it; with it the scorer's forward pass is taped for the backward
    pass (see ``numerics.mlp_forward`` for how the two products differ).

    ``rows``, when given, is the sample's ``(rows_a, rows_b)`` as
    ``_describe`` builds them; it is valid only while nothing upstream of the
    descriptors trains (no attention, hence no pose head, which needs
    ``embed_dim`` >= 1), so that the rows cannot change between calls.
    ``transforms``, when given, is the sample's ``_reference_transforms``.
    ``grads``, when given, holds zeroed arrays keyed like ``_named_arrays``
    that the gradients are added into (a training run passes views into its
    flat gradient vector).
    """
    cfg = params.config
    n1, n2 = len(sample.frame_a.detections), len(sample.frame_b.detections)
    if max(n1, n2) > cfg.capacity:
        raise GeotrackError(
            f"pair has {max(n1, n2)} detections; capacity is {cfg.capacity}"
        )
    if rows is None:
        tapes, rows = zip(*_describe_sides(sample, params, _describe, transforms))
        pose_losses = np.concatenate([tape.pose_loss for tape in tapes]).tolist()
    else:
        tapes, pose_losses = None, []  # no pose head: no pose loss
    feats_a, feats_b = rows
    mean_pose = float(np.mean(pose_losses)) if pose_losses else 0.0

    if pose_only:
        out = {"affinity": float("nan"), "pose_losses": pose_losses,
               "joint": mean_pose, "bundle": None}
        pose_weight = 1.0
    else:
        cache = [] if with_grad else None
        bundle = _score(feats_a, feats_b, params, cache)
        if with_grad:
            affinity, d_logits = loss_affinity(bundle, sample.match, with_grad=True)
        else:
            affinity = loss_affinity(bundle, sample.match)
        out = {"affinity": affinity, "pose_losses": pose_losses,
               "joint": affinity + cfg.lam * mean_pose, "bundle": bundle}
        pose_weight = cfg.lam
    if not with_grad:
        return out

    if grads is None:
        grads = {name: np.zeros_like(a) for name, a in _named_arrays(params).items()}
    # attention (and the pose head, which needs it) shapes the descriptors
    upstream = params.attention_w is not None
    scored = not pose_only and n1 > 0 and n2 > 0
    if scored:
        scorer_grads, d_x = mlp_backward(
            params.scorer, cache, d_logits.reshape(n1 * n2, 1), input_grad=upstream
        )
        _add_layer_grads(grads, "scorer", scorer_grads)
    if upstream:
        geom_width = GEOMETRY_PREFIX + cfg.embed_dim
        if scored:
            scale2 = np.concatenate([params.input_scale, params.input_scale])
            d_pairs = (d_x * scale2).reshape(n1, n2, -1)
            d = cfg.descriptor_dim
            d_geometry = np.concatenate([
                d_pairs[:, :, :d].sum(axis=1), d_pairs[:, :, d:].sum(axis=0)
            ])[:, :geom_width]
        else:
            # no scorer gradient reaches the descriptors
            d_geometry = np.zeros((n1 + n2, geom_width))
        weight = pose_weight / len(pose_losses) if pose_losses else 0.0
        _backward_side(tapes[0], d_geometry[:n1], weight, params, grads)
        _backward_side(tapes[1], d_geometry[n1:], weight, params, grads)
    out["grads"] = grads
    return out


# --- training loop --------------------------------------------------------------------


def _input_statistics(samples, params, transforms=None):
    """Every sample's ``(rows_a, rows_b)`` descriptor rows, and all of them
    stacked with their column mean and standard deviation (None without
    detections). ``transforms``, when given, holds each sample's
    ``_reference_transforms``. Detection values whose descriptors or
    statistics leave the float range are bad data (DataError)."""
    transforms = transforms or [_reference_transforms(sample) for sample in samples]
    rows = [_describe_sides(sample, params, _input_rows, transform)
            for sample, transform in zip(samples, transforms)]
    sides = [side for pair in rows for side in pair]
    if not sum(map(len, sides)):
        return rows, None
    block = np.concatenate(sides)
    shift, std = block.mean(axis=0), block.std(axis=0)
    if not (np.isfinite(shift).all() and np.isfinite(std).all()):
        raise DataError("detection values overflow the input standardization")
    return rows, (block, shift, std)


def _set_standardization(params, stats):
    """Freeze the standardization vectors from ``_input_statistics``'s
    stacked rows and column statistics: ``_score`` maps each descriptor row
    to (row - shift) * scale before pairing, which puts meter-scale geometry
    and unit-scale appearance on comparable footing, and a pose head's
    embedding input is whitened the same way. All four vectors ride along
    in the checkpoint."""
    if stats is None:
        return
    block, shift, std = stats
    params.input_shift = shift
    params.input_scale = 1.0 / np.clip(std, 0.05, None)
    if params.pose_head is not None:
        emb = block[:, GEOMETRY_PREFIX:GEOMETRY_PREFIX + params.config.embed_dim]
        params.head_shift = emb.mean(axis=0)
        params.head_scale = 1.0 / np.clip(emb.std(axis=0), 1e-3, None)


@dataclass
class EpochStats:
    epoch: int
    affinity: float
    pose: float
    accuracy: float


# Segments of the flat trainable vector, in order: ``scorer.b`` stands for
# every ``scorer.{i}.b``. Weight decay then covers one slice (scorer.0.w to
# the last pose_head.*.w), the pose head's step size one slice, and a
# pose-only epoch updates one slice (pose_head.0.w to the end).
_FLAT_ORDER = ("scorer.b", "scorer.w", "pose_head.w", "pose_head.b",
               "attention.w", "attention.b")


class _FlatTrainables:
    """A training run's trainables in one float64 vector ``theta``, with a
    gradient vector ``grad`` and a velocity vector of the same layout, so an
    SGD step is a few whole-vector operations (the ``FlatParameter`` of
    PyTorch FSDP, Zhao et al., VLDB 2023).

    Building it rebinds every trainable array of ``params`` to a reshaped
    view into ``theta``. ``grads`` holds the same views into ``grad``, keyed
    and ordered like ``_named_arrays``, for ``forward_pair`` to add into.
    """

    def __init__(self, params):
        slots = list(_trainable_slots(params))
        bounds, begin, offset = {}, {}, 0
        for kind in _FLAT_ORDER:
            group, part = kind.split(".")
            begin[kind] = offset
            for name, owner, attr in slots:
                if name.startswith(group + ".") and name.endswith("." + part):
                    bounds[name] = (offset, offset + getattr(owner, attr).size)
                    offset = bounds[name][1]
        self.decay = slice(begin["scorer.w"], begin["pose_head.b"])
        self.pose_head = slice(begin["pose_head.w"], begin["attention.w"])
        self.upstream = begin["pose_head.w"]
        self.theta = np.empty(offset)
        self.spans = {}  # in _named_arrays order, which the clip norm sums in
        for name, owner, attr in slots:
            (lo, hi), array = bounds[name], getattr(owner, attr)
            self.theta[lo:hi] = array.ravel()
            setattr(owner, attr, self.theta[lo:hi].reshape(array.shape))
            self.spans[name] = (lo, hi, array.shape)
        self.grad = np.zeros_like(self.theta)
        self.grads = {name: self.grad[lo:hi].reshape(shape)
                      for name, (lo, hi, shape) in self.spans.items()}
        self.velocity = np.zeros_like(self.theta)
        # the updated segments' bounds within grad[lo:], without and with
        # pose_only, in the order the clip norm sums them
        self.clip_spans = {pose_only: [(a - lo, b - lo) for a, b, _ in self.spans.values()
                                       if a >= lo]
                           for pose_only, lo in ((False, 0), (True, self.upstream))}

    def update(self, config, steps, pose_only):
        """One SGD-with-momentum step from ``grad`` with per-element step
        sizes ``steps``, on every segment or, with ``pose_only``, on the pose
        head's and attention's alone.

        The clip norm sums each segment's squares on its own and adds the
        sums as Python floats in ``_named_arrays`` order, as a loop over the
        arrays does; one sum over the whole vector rounds differently. Weight
        decay is added on its slice rather than through a 0/1 mask, which
        would turn a -0.0 gradient into +0.0.
        """
        lo = self.upstream if pose_only else 0
        grad = self.grad[lo:]
        if config.grad_clip:
            squares = grad ** 2  # np.add.reduce: np.sum without its wrapper
            norm = np.sqrt(sum([float(np.add.reduce(squares[a:b]))
                                for a, b in self.clip_spans[pose_only]]))
            if norm > config.grad_clip:
                grad *= config.grad_clip / norm
        decay = slice(max(lo, self.decay.start), self.decay.stop)
        self.grad[decay] += config.weight_decay * self.theta[decay]
        velocity = self.velocity[lo:]
        velocity *= config.momentum
        velocity -= steps[lo:] * grad
        self.theta[lo:] += velocity


def _sgd_epoch(samples, fixed, params, flat, config, rng, lr, pose_only=False):
    """One pass over the samples; returns (mean affinity, mean pose loss).
    ``fixed`` holds each sample's ``forward_pair`` rows (or None) and
    reference transforms; ``flat`` holds the trainables."""
    steps = np.full(len(flat.theta), lr)
    steps[flat.pose_head] = lr * config.pose_lr_scale
    order = rng.permutation(len(samples))
    affinity_sum = 0.0
    pose_sum = 0.0
    pose_count = 0
    for idx in order:
        rows, transforms = fixed[idx]
        flat.grad.fill(0.0)
        result = forward_pair(samples[idx], params, with_grad=True, pose_only=pose_only,
                              rows=rows, transforms=transforms, grads=flat.grads)
        if not np.isfinite(result["joint"]):
            raise NonFiniteLossError(
                f"non-finite loss at epoch {params.epochs_trained}, sample {idx}: "
                f"affinity={result['affinity']}, pose={result['pose_losses']}"
            )
        if not pose_only:
            affinity_sum += result["affinity"]
        pose_sum += sum(result["pose_losses"])
        pose_count += len(result["pose_losses"])
        flat.update(config, steps, pose_only)
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

    The trainables live in one flat vector for the run (``_FlatTrainables``);
    the returned params' arrays are views into it. Each sample side's
    reference transform is taken once per call. When only the scorer trains
    (no pose head, ``embed_dim`` 0), each sample side's descriptor rows are
    built once per call too — the training rows by the input-statistics
    pass, the held-out rows before the first epoch — and every SGD step and
    accuracy pass reuses them. With a pose head or attention the rows change
    on every step and are rebuilt each time.
    """
    samples = list(samples)
    if not samples:
        raise ConfigError("training needs at least one pair sample")
    rng = np.random.default_rng(config.seed)
    pretrain = 0
    fresh = params is None
    if fresh:
        params = init_matcher_params(config, rng)
        if config.use_pose_head:
            pretrain = (config.pose_pretrain_epochs
                        if config.pose_pretrain_epochs is not None
                        else config.epochs // 3)
    transforms = [_reference_transforms(sample) for sample in samples]
    # A resumed run keeps the checkpoint's standardization frozen; its data
    # gets the same check a fresh run's fit makes, so overflowing values are
    # bad data here too rather than a diverging loss.
    rows, stats = _input_statistics(samples, params, transforms)
    if fresh:
        _set_standardization(params, stats)
    del stats  # the stacked copy of the rows is not needed past the fit
    flat = _FlatTrainables(params)
    # with a pose head or attention training, the descriptors change with
    # every step
    static = params.attention_w is None
    fixed = [(sample_rows if static else None, transform)
             for sample_rows, transform in zip(rows, transforms)]
    eval_samples, eval_fixed = samples, fixed
    if heldout:
        eval_samples, eval_fixed = heldout, []
        for sample in heldout:
            transform = _reference_transforms(sample)
            sample_rows = tuple(side[1] for side in _describe_sides(
                sample, params, _describe, transform)) if static else None
            eval_fixed.append((sample_rows, transform))
    cutoff = int(np.floor(config.epochs * 2 / 3))
    schedule = [(True, config.learning_rate)] * pretrain + [
        (False, config.learning_rate * (config.lr_decay if epoch >= cutoff else 1.0))
        for epoch in range(config.epochs)
    ]
    history = []
    for pose_only, lr in schedule:
        affinity_mean, pose_mean = _sgd_epoch(
            samples, fixed, params, flat, config, rng, lr, pose_only=pose_only
        )
        accuracy = pair_accuracy(eval_samples, params, fixed=eval_fixed)
        history.append(EpochStats(epoch=params.epochs_trained, affinity=affinity_mean,
                                  pose=pose_mean, accuracy=accuracy))
        params.epochs_trained += 1
    return params, history


# --- evaluation helpers ------------------------------------------------------------------


def pair_accuracy(samples, params, fixed=None):
    """Fraction of per-object assignment decisions (argmax incl. the null
    option, both directions) that agree with the ground-truth matrix. Each
    pair is scored tapeless, as ``Matcher.bundle`` scores it.

    ``fixed``, when given, holds each sample's ``forward_pair`` rows (or
    None) and reference transforms: a training run passes what it built
    once, so a run that only trains the scorer describes no sample again.
    Without it every sample is described on every call.
    """
    correct = 0
    total = 0
    for i, sample in enumerate(samples):
        rows, transforms = fixed[i] if fixed else (None, None)
        bundle = forward_pair(sample, params, rows=rows, transforms=transforms)["bundle"]
        fused, match = bundle.fused, sample.match
        n1, n2 = fused.shape[0] - 1, fused.shape[1] - 1
        correct += np.count_nonzero(fused[:n1].argmax(axis=1) == match[:n1].argmax(axis=1))
        correct += np.count_nonzero(
            fused[:, :n2].argmax(axis=0) == match[:, :n2].argmax(axis=0))
        total += n1 + n2
    return float(correct / total) if total else 0.0


# --- inference wrapper ---------------------------------------------------------------------


class Matcher:
    """Bound (params, config) pair exposing the inference interface.

    The parameters are fixed and finite, so a descriptor or similarity that
    leaves the float range can only come from input values out of all
    proportion (a coordinate near 1e308, say): both calls report that as
    bad data (DataError).
    """

    def __init__(self, params):
        self.params = params
        self.config = params.config

    def descriptors(self, detections, ego, ego_ref, intrinsics):
        """(k, d) descriptor rows of one frame's ``scene.Detection``s,
        reference frame."""
        return _input_rows(detections, self.params, reference_transform(ego, ego_ref),
                           intrinsics)

    def bundle(self, desc_rows, desc_cols, sizes=None):
        """Similarity bundle between two stacked descriptor matrices, the
        rows in groups of ``sizes`` (see ``augment_normalize``)."""
        with np.errstate(over="ignore", invalid="ignore"):  # fails the check below
            bundle = _score(desc_rows, desc_cols, self.params, sizes=sizes)
        if not np.isfinite(bundle.fused).all():
            raise DataError("descriptor values overflow the pair scorer")
        return bundle


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

    Raises DataError naming the field when one is missing, has the wrong
    type or shape for the stored config, or holds NaN or inf.
    """
    if not isinstance(doc, dict) or type(doc.get("format")) is not int or doc["format"] != 1:
        raise DataError('checkpoint must be a JSON object with "format": 1')
    try:
        config = MatcherConfig.from_dict(doc.get("config"))
    except ConfigError as exc:
        raise DataError(f"checkpoint config: {exc}") from exc
    missing = sorted({f.name for f in fields(MatcherConfig)} - set(doc["config"]))
    if missing:
        raise DataError(f"checkpoint config lacks {missing}")
    if type(doc.get("epochs_trained")) is not int:
        raise DataError("checkpoint epochs_trained must be an integer")

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
        raise DataError(f"{path}: {exc.msg} (line {exc.lineno})") from exc
    except OSError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    return params_from_doc(doc)
