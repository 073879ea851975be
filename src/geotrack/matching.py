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

Two descriptor routes exist; both lift (c_x, c_y, T_z) into the camera frame
by one pinhole model (``geometry.recover_translation``):

- observation route (default): geometry comes from provider-supplied pixel
  observations via projective recovery; only the scorer is trained.
- pose-head route (``use_pose_head``): a trainable head regresses
  (c_x, c_y, T_z, R) from the attention-pooled embedding of a provided
  feature map, and the geometry features are derived from those estimates,
  so the matching loss backpropagates into the pose head. This is the
  coupling that makes joint training meaningful.

Both routes read a frame's ``scene.Detection`` objects as they are (one
without an appearance vector is a DataError). What they read of a frame
side and its reference transform do not change as the parameters train,
so a training run gathers them once per sample list (``_SideTable``).
Either route runs once over a stack of frame sides, every side's detections
one after another as (n, ...) arrays (``_describe`` forward,
``_backward_stack`` backward): an SGD step stacks its sample's two sides,
inference and the statistics and accuracy passes one side at a time. The
chain reproduces bit for bit a loop over the detections: each row's
reductions are those a single vector would get, each row's transform
product takes a C-contiguous per-row copy of its side's matrix, and the pose
head's weight gradients add up in row order. With ``embed_dim`` > 0 every
detection of a frame carries one feature map, all of one (H, W, embed_dim)
shape; sides whose maps differ in (H, W) pool in separate blocks.
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
# slot swamps or vanishes from every softmax.
DELTA_BOUND = math.log(np.finfo(np.float64).max)

# the smallest normal float64: the matching loss floors a probability here before its log
_TINY = np.finfo(np.float64).tiny

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
        if not self.scorer_hidden:  # the scorer's first layer is split by side
            raise ConfigError("scorer_hidden must hold at least one width, got []")
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

# Most (row, column) pairs one tapeless scorer pass takes, and most rows one
# side product of its first layer takes. Each layer's output, the first
# layer's pair sums too, is then at most this many rows of 64 float32s,
# which stays in a 2 MiB L2 cache; one pass over thousands of pairs spills it
# and runs slower. Tracking the six seed-1 perfbench track-dense scenes (one
# pinned core of a 2-vCPU AVX-512 Xeon VM, one BLAS thread, best and median
# of 5), with the contiguous elementwise passes, took 0.483/0.557 s in
# chunks of 300 pairs, 0.487/0.499 s in 450, 0.461/0.486 s in 600,
# 0.474/0.506 s in 1,200 and 0.546/0.571 s in 2,400. Row invariance of the
# scorer is swept up to 600 rows (tests/test_numerics.py), so keep this at
# most 600 or widen the sweep; a row wider than this is cut into column
# runs (``_strips``). An accuracy sweep packs many small training pairs into
# one chunk; a pair of 30 x 30 detections (``capacity`` 30) spans two, of 20
# rows and 10.
SCORER_CHUNK_PAIRS = 600


def score_pair_logits(pair_tensor, scorer, cache=None):
    """The (n_a, n_b) logits of ``scorer`` over an (n_a, n_b, width) tensor
    of per-pair inputs; ``cache`` as in ``mlp_forward``, and like it in the
    precision of the input. Training's taped pass gives it the float64 pair
    tensor of standardized rows and the whole scorer; the tapeless pass
    (``_tapeless_logits``) gives it one chunk of the first layer's float32
    activations as a (pairs, 1, width) tensor and float32 copies of the
    layers after it."""
    pair_tensor = numerics.as_floats(pair_tensor)
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


def loss_affinity(bundle, match):
    """Symmetric matching cross-entropy (average of both directions) and its
    gradient with respect to the logits, as ``(loss, grad)``.

    ``match`` must be (rows+1, cols+1) for a bundle of (rows, cols) logits;
    its row and column sums are checked where a ``PairSample`` is built.
    Each row of S1n and column of S2n is one softmax group with target mass
    1, so in each direction a logit's gradient is its normalized similarity
    minus its target, over twice that direction's number of groups. A
    probability that underflowed is floored at ``_TINY`` before its log.
    """
    n1, n2 = bundle.S1n.shape[0], bundle.S2n.shape[1]
    if match.shape != (n1 + 1, n2 + 1):
        raise GeotrackError(
            f"match matrix {match.shape} does not fit real counts ({n1}, {n2})"
        )
    grad = np.zeros((n1, n2))
    m_block = match[:n1, :n2].astype(np.float64)
    loss1 = 0.0
    if n1 > 0:
        m = match[:n1].astype(np.float64)
        loss1 = -(m * np.log(np.where(m > 0, np.maximum(bundle.S1n, _TINY), 1.0))).sum() / n1
        grad += (bundle.S1n[:, :n2] - m_block) / (2.0 * n1)
    loss2 = 0.0
    if n2 > 0:
        m = match[:, :n2].astype(np.float64)
        loss2 = -(m * np.log(np.where(m > 0, np.maximum(bundle.S2n, _TINY), 1.0))).sum() / n2
        grad += (bundle.S2n[:n1] - m_block) / (2.0 * n2)
    return float(0.5 * (loss1 + loss2)), grad


# --- descriptor chain, over a stack of frame sides --------------------------------


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


def _side_inputs(detections, intrinsics, cfg):
    """What the descriptor chain reads of one frame side, none of which the
    trainables change, once ``check_detections`` passes: the side's k
    detections' feature maps ``fmaps`` (k, H, W, E) or None, and ``rows``,
    its arrays that a stack joins: the ``appearance`` rows (k, A), the
    frame's (f_x, f_y, p_x, p_y) as (k, 4) ``intrinsics`` rows that
    ``_describe`` lifts each (c_x, c_y, T_z) with, and, on the pose-head
    route, no pose target (``_with_targets``); on the observation route, the
    pixel observations' (c_x, c_y, T_z) rows ``ctz`` (k, 3), facing
    directions ``r_obs`` (k, 2) and their norms ``r_norm`` (k,)."""
    check_detections(detections, cfg)
    k = len(detections)
    rows = {"appearance": np.array([det.appearance for det in detections],
                                   dtype=np.float64).reshape(k, cfg.appearance_dim)}
    fmaps = None
    if cfg.embed_dim > 0 and k:
        fmaps = np.array([det.feature_map for det in detections], dtype=np.float64)
    rows["intrinsics"] = np.array([[intrinsics.f_x, intrinsics.f_y, intrinsics.p_x,
                                    intrinsics.p_y]]).repeat(k, axis=0)
    if cfg.use_pose_head:
        rows["targeted"], rows["target"] = np.zeros(k, dtype=bool), np.zeros((0, 5))
    else:
        observations = [det.observation for det in detections]
        rows["ctz"] = np.array([[*o.c, o.T_z] for o in observations],
                               dtype=np.float64).reshape(k, 3)
        rows["r_obs"] = np.array([o.R for o in observations], dtype=np.float64).reshape(k, 2)
        # huge facing directions overflow here; _describe makes them a DataError
        with np.errstate(over="ignore"):
            rows["r_norm"] = numerics.row_norm(rows["r_obs"])
    return SimpleNamespace(k=k, fmaps=fmaps, rows=rows)


def _with_targets(side, targets, cfg):
    """A pose-head route ``side`` (``_side_inputs``) with its detections'
    pose targets ``targets``, one (c*, T_z*, R*) or None each (None: no
    detection has one): the ``targeted`` mask (k,) of the detections that
    hold one and their ``target`` rows (c_x, c_y, T_z, R_x, R_y), each of
    which must not overflow the pose loss (DataError). The observation route
    reads no targets and keeps ``side``."""
    if not cfg.use_pose_head:
        return side
    targets = targets or [None] * side.k
    targeted = np.array([t is not None for t in targets], dtype=bool)
    target = np.array([[*c, tz, *r] for c, tz, r in (t for t in targets if t is not None)],
                      dtype=np.float64).reshape(-1, 5)
    with np.errstate(over="ignore"):  # an overflowing norm fails the check below
        bad = ~np.isfinite(numerics.row_norm(target[:, :3]))
    if bad.any():
        raise DataError(f"detection {int(np.flatnonzero(targeted)[np.argmax(bad)])}: its "
                        f"pose target's (c_x, c_y, T_z) overflows the pose loss")
    return SimpleNamespace(k=side.k, fmaps=side.fmaps,
                           rows={**side.rows, "targeted": targeted, "target": target})


def _joined(parts):
    """The arrays ``parts`` concatenated, or the one array itself."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _stack(sides, transforms):
    """The rows of frame sides ``sides`` (``_side_inputs``), one side after
    another, as the descriptor chain reads them: the sides' ``rows`` arrays
    joined, and the ``reference_transform(ego, ego_ref)`` pieces ``B``,
    ``d_off`` and ``C`` of each side from ``transforms``. A one-side stack
    keeps its side's own arrays and matrices, which broadcast over its rows;
    with more sides each matrix is repeated per row into C-contiguous
    (n, 3, 3), (n, 3) and (n, 2, 2) stacks. A row's product with a
    C-contiguous stack has the bits of its side's own matrix; one with a
    stack joined from broadcast views, which is not C-contiguous, can differ
    in the last bit. Feature maps stay in ``fmaps`` blocks, one per run of
    sides whose maps share an (H, W)."""
    counts = [side.k for side in sides]
    if len(sides) == 1:
        rows, (B, d_off, C) = sides[0].rows, transforms[0]
    else:
        rows = {name: np.concatenate([side.rows[name] for side in sides])
                for name in sides[0].rows}
        B, d_off, C = (np.array(part).repeat(counts, axis=0) for part in zip(*transforms))
    blocks = []
    for side in sides:
        if side.fmaps is None:
            continue
        if blocks and blocks[-1][-1].shape[1:] == side.fmaps.shape[1:]:
            blocks[-1].append(side.fmaps)
        else:
            blocks.append([side.fmaps])
    return SimpleNamespace(n=sum(counts), B=B, d_off=d_off, C=C,
                           fmaps=[_joined(block) for block in blocks], **rows)


def _apply(M, rows):
    """``M @ row`` for every row of a (k, n) stack, ``M`` one (m, n) matrix
    or a (k, m, n) stack of one per row: one matrix-vector product each (as
    a loop over the rows would compute them)."""
    return (M @ rows[:, :, None])[:, :, 0]


def _describe(stack, params):
    """The descriptor chain over a ``_stack`` of frame sides: the tape
    ``_backward_stack`` reads and the (n, d) ``[geometry | appearance]``
    rows, each mapped into the reference camera frame by its side's
    transform. Both routes lift their (c_x, c_y, T_z) rows, estimated or
    observed, with one ``recover_translation`` call. The pose head's loss
    reads the stack's pose targets. Each step runs once over all n rows,
    whatever side they come from."""
    cfg = params.config
    n = stack.n
    tape = SimpleNamespace(stack=stack, pose_loss=np.zeros(0), attn=[
        numerics.softmax_map(fmaps @ params.attention_w + params.attention_b[0])
        for fmaps in stack.fmaps])
    if n == 0:
        return tape, np.zeros((0, cfg.descriptor_dim))

    embedding = np.zeros((n, cfg.embed_dim))
    if stack.fmaps:
        embedding = _joined([np.einsum("kij,kije->ke", attn, fmaps)
                             / (fmaps.shape[1] * fmaps.shape[2])
                             for attn, fmaps in zip(tape.attn, stack.fmaps)])

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
        r_ref = _apply(stack.C, tape.r_hat)
        if len(stack.target):
            hit = stack.targeted
            tape.pose_loss = numerics.loss_rot(stack.target[:, 3:], tape.r_hat[hit]) \
                + cfg.beta * numerics.loss_trans(stack.target[:, :3], tape.ctz[hit])
        ctz, overflow = tape.ctz, {}
    else:
        # an observation that overflows fails the check below
        ctz, overflow = stack.ctz, {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**overflow):
        t_ref = _apply(stack.B, recover_translation(ctz, stack.intrinsics)) + stack.d_off
    if not cfg.use_pose_head:
        r_norm = stack.r_norm
        bad = ~(np.isfinite(t_ref).all(axis=1) & np.isfinite(r_norm) & (r_norm > 1e-12))
        if bad.any():
            raise DataError(f"detection {int(np.argmax(bad))}: observation geometry "
                              f"is not finite or faces no direction")
        r_ref = _apply(stack.C, stack.r_obs / r_norm[:, None])
        r_ref = r_ref / numerics.row_norm(r_ref)[:, None]
    return tape, np.concatenate(
        [t_ref, r_ref, np.zeros((n, 1)), embedding, stack.appearance], axis=1)


def _input_rows(stack, params):
    """``_describe``'s rows for detections read from data under parameters
    that are not being trained: a pose head that cannot describe them, or a
    row that overflows, means the input values are bad (DataError)."""
    try:
        rows = _describe(stack, params)[1]
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


def _backward_stack(tape, d_geometry, pose_weight, params, grads):
    """Push a stack's (n, 6 + E) descriptor-geometry gradients, and its pose
    losses weighted by ``pose_weight``, into the trainables."""
    cfg = params.config
    if len(d_geometry) == 0:
        return
    stack = tape.stack
    d_emb = d_geometry[:, GEOMETRY_PREFIX:]

    if cfg.use_pose_head:
        K, ctz, r_hat, hit = stack.intrinsics, tape.ctz, tape.r_hat, stack.targeted
        d_t_cam = _apply(np.swapaxes(stack.B, -1, -2), d_geometry[:, :3])
        d_r_hat = _apply(np.swapaxes(stack.C, -1, -2), d_geometry[:, 3:5])
        d_ctz = np.empty_like(ctz)
        d_ctz[:, :2] = d_t_cam[:, :2] * ctz[:, 2:] / K[:, :2]
        d_xy = d_t_cam[:, :2] * (ctz[:, :2] - K[:, 2:]) / K[:, :2]
        d_ctz[:, 2] = d_xy[:, 0] + d_xy[:, 1] + d_t_cam[:, 2]
        if tape.pose_loss.size and pose_weight != 0.0:
            d_r_hat[hit] += pose_weight * numerics.loss_rot_grad(stack.target[:, 3:],
                                                                 r_hat[hit])
            d_ctz[hit] += pose_weight * cfg.beta * numerics.loss_trans_grad(
                stack.target[:, :3], ctz[hit])
        radial = (r_hat[:, None, :] @ d_r_hat[:, :, None])[:, 0]
        d_out = np.column_stack([d_ctz * np.array([*cfg.center_scale, cfg.depth_scale]),
                                 (d_r_hat - r_hat * radial) / tape.r_norm[:, None]])
        # one pass per layer with each detection's gradients kept apart: the
        # weight gradients add up in detection order, and each input
        # gradient is the one-row product (gemv) a loop over the rows takes
        grad = d_out
        for i in range(len(params.pose_head) - 1, -1, -1):
            layer, (h, z) = params.pose_head[i], tape.head_cache[i]
            dz = grad * numerics._ACTS[layer.act](z)
            _add_rows(grads, f"pose_head.{i}.w", np.einsum("ki,kj->kij", h, dz))
            _add_rows(grads, f"pose_head.{i}.b", dz)
            grad = (dz[:, None, :] @ layer.w.T)[:, 0]
        d_emb = d_emb + grad * params.head_scale

    start = 0
    for fmaps, attn in zip(stack.fmaps, tape.attn):
        d_block = d_emb[start:start + len(fmaps)]
        start += len(fmaps)
        d_attn = np.einsum("kije,ke->kij", fmaps, d_block) / (fmaps.shape[1] * fmaps.shape[2])
        d_logits = attn * (d_attn - (attn * d_attn).sum(axis=(1, 2), keepdims=True))
        _add_rows(grads, "attention.w", np.einsum("kij,kije->ke", d_logits, fmaps))
        _add_rows(grads, "attention.b", d_logits.sum(axis=(1, 2))[:, None])


# --- full pair forward/backward --------------------------------------------------------


def _trainable_slots(params):
    """``(name, owner, attribute)`` of every trainable array of ``params``:
    ``scorer.{i}.w|b``, ``pose_head.{i}.w|b`` and ``attention.w|b``.
    Gradients use the same names."""
    for group in ("scorer", "pose_head"):
        for i, layer in enumerate(getattr(params, group) or ()):
            yield f"{group}.{i}.w", layer, "w"
            yield f"{group}.{i}.b", layer, "b"
    if params.attention_w is not None:
        yield "attention.w", params, "attention_w"
        yield "attention.b", params, "attention_b"


class _SideTable:
    """The frame sides of a list of pair samples, gathered once: the
    ``_side_inputs`` of each distinct frame, the ``reference_transform`` of
    each distinct (frame, reference ego), and each sample's side a and side
    b as its pose targets and a key into both. None of it changes as the
    parameters train. A side's targets are converted when an SGD step first
    stacks it, once per distinct (frame, targets); a table that is only
    described (``rows``), such as a held-out one, converts none. The keys
    are object ids, which stay unique while the table holds the samples."""

    def __init__(self, samples, cfg):
        self.samples, self.cfg, self.sides = samples, cfg, []
        self.inputs, self.transforms, self.targeted = {}, {}, {}
        for sample in samples:
            sides = []
            for frame, targets in ((sample.frame_a, sample.targets_a),
                                   (sample.frame_b, sample.targets_b)):
                ref = (id(frame), id(sample.ego_ref))
                if id(frame) not in self.inputs:
                    self.inputs[id(frame)] = _side_inputs(frame.detections, frame.intrinsics,
                                                          cfg)
                if ref not in self.transforms:
                    self.transforms[ref] = reference_transform(frame.ego, sample.ego_ref)
                sides.append((targets, ref))
            self.sides.append(sides)

    def stack(self, i):
        """The ``_stack`` of sample ``i``'s two sides, a then b, each with
        its detections' pose targets."""
        sides = []
        for targets, (frame, _) in self.sides[i]:
            key = (frame, id(targets))
            if key not in self.targeted:
                self.targeted[key] = _with_targets(self.inputs[frame], targets, self.cfg)
            sides.append(self.targeted[key])
        return _stack(sides, [self.transforms[ref] for _, ref in self.sides[i]])

    def rows(self, params, describe):
        """Every sample's ``(rows_a, rows_b)``: ``describe`` (``_input_rows``
        or ``_describe_rows``) of a one-side stack without pose targets, once
        per (frame, reference ego) and in sample order, shared by every
        sample that holds it. A frame's rows depend only on it, the
        parameters and the reference ego, so no pose loss is computed."""
        described = {}
        for sides in self.sides:
            for _, ref in sides:
                if ref not in described:
                    described[ref] = describe(
                        _stack([self.inputs[ref[0]]], [self.transforms[ref]]), params)
        return [tuple(described[ref] for _, ref in sides) for sides in self.sides]


def _describe_rows(stack, params):
    """``_describe``'s descriptor rows alone."""
    return _describe(stack, params)[1]


def _add_layer_grads(grads, group, layer_grads):
    """Add ``mlp_backward``'s per-layer (dW, db) into the named gradients."""
    for i, (dw, db) in enumerate(layer_grads):
        grads[f"{group}.{i}.w"] += dw
        grads[f"{group}.{i}.b"] += db


def _standardized(rows, params):
    """Descriptor rows mapped to ``(rows - input_shift) * input_scale`` in
    float64. Shift and scale act per column, so standardizing each side's
    rows once gives the pair tensor the same bits as standardizing every
    pair."""
    rows = np.asarray(rows, dtype=np.float64)
    for name in ("shift", "scale"):
        vector = getattr(params, f"input_{name}")
        if vector.shape != rows.shape[1:]:
            raise GeotrackError(f"input {name} of width {len(vector)} does not "
                                f"match descriptor width {rows.shape[-1]}")
    return (rows - params.input_shift) * params.input_scale


def _float32_scorer(params):
    """Float32 copies of the scorer's layers, which the tapeless pass runs
    on (mixed precision, Micikevicius et al., ICLR 2018: the float64
    parameters are the master copy). A weight past float32's range becomes
    inf and fails the caller's finiteness check. ``_reserve`` gives the
    copies their bias rows and zero buffer, sized for the chunks scored."""
    with np.errstate(over="ignore"):
        return [numerics.Layer(layer.w.astype(np.float32), layer.b.astype(np.float32),
                               layer.act) for layer in params.scorer]


def _reserve(scorer, pairs):
    """Grows the float32 ``scorer``'s blocks (see ``numerics.Layer``) to at
    least ``pairs`` rows: every layer after the first gets its bias tiled
    into rows, and all layers share one flat zero buffer, ``pairs`` rows of
    the widest layer. Each copy keeps its blocks, so they are built again
    only when a chunk holds more pairs than any before it: tiling them per
    chunk would cost what the contiguous passes save."""
    if scorer[-1].bias_rows is not None and len(scorer[-1].bias_rows) >= pairs:
        return
    zeros = np.zeros(pairs * max(layer.w.shape[1] for layer in scorer), dtype=np.float32)
    scorer[0].zeros = zeros
    for layer in scorer[1:]:
        layer.bias_rows, layer.zeros = np.tile(layer.b, (pairs, 1)), zeros


def _side_product(rows, w):
    """``rows @ w`` through ``numerics._layer_product``'s tapeless rule, in
    row chunks of at most ``SCORER_CHUNK_PAIRS`` rows, the batch sizes that
    the row-invariance sweep covers."""
    products = [numerics._layer_product(rows[start:start + SCORER_CHUNK_PAIRS], w, taped=False)
                for start in range(0, len(rows), SCORER_CHUNK_PAIRS)]
    return products[0] if len(products) == 1 else np.concatenate(products)


def _strips(shapes):
    """The blocks of ``shapes[k]`` = (n_a, n_b) pairs as ``(a, a_end, b,
    b_end)`` strips, the blocks' rows stacked side by side: a block at most
    ``SCORER_CHUNK_PAIRS`` wide is one strip; a wider one is cut, row by
    row, into column runs of that many pairs, the last one shorter."""
    a = b = 0
    for n_a, n_b in shapes:
        if n_b <= SCORER_CHUNK_PAIRS:
            yield a, a + n_a, b, b + n_b
        else:
            for row in range(a, a + n_a):
                for run in range(b, b + n_b, SCORER_CHUNK_PAIRS):
                    yield row, row + 1, run, min(run + SCORER_CHUNK_PAIRS, b + n_b)
        a, b = a + n_a, b + n_b


def _pair_chunks(shapes):
    """The chunks of the tapeless pass over blocks of ``shapes[k]`` =
    (n_a, n_b) pairs: each chunk is its pair count and its ``(a, a_end, b,
    b_end)`` segments, each pairing stacked rows ``a:a_end`` with
    ``b:b_end``. A chunk takes the ``_strips`` in order, whole rows of each,
    up to ``SCORER_CHUNK_PAIRS`` pairs, so that no chunk holds more; a
    single block at most that wide is cut every ``SCORER_CHUNK_PAIRS //
    n_b`` rows. The pairs come in row-major order of the blocks."""
    segments, used = [], 0
    for a, end, b, b_end in _strips(shapes):
        width = b_end - b
        while a < end:
            fit = (SCORER_CHUNK_PAIRS - used) // width
            if fit < 1:
                yield used, segments
                segments, used, fit = [], 0, SCORER_CHUNK_PAIRS // width
            stop = min(end, a + fit)
            segments.append((a, stop, b, b_end))
            used += (stop - a) * width
            a = stop
    if segments:
        yield used, segments


def _tapeless_logits(scorer, rows_a, rows_b, shapes):
    """The float64 logits of the float32 ``scorer`` over blocks of pairs:
    block k pairs the next ``shapes[k][0]`` rows of ``rows_a`` with the next
    ``shapes[k][1]`` rows of ``rows_b`` (standardized float64 descriptor
    rows, every count at least 1). Returns every block's (n_a, n_b) logits
    flattened, one block after another.

    The rows are cast to float32 once; a value past float32's range becomes
    inf and fails the caller's finiteness check. The first layer is split
    by side, ``[a; b] W1 + b1 = (a W1[:d] + b1) + b W1[d:]``: one product
    per side over all blocks, then one sum per pair, built chunk by chunk
    (``_pair_chunks``) so that only one chunk's activations exist at a
    time. The adds and the ReLUs run over contiguous operands rather than
    a short one broadcast once per pair, which numpy loops over one
    width-long row at a time:

    - a segment's pair sums start as its rows of the left side, each
      copied once per column into place (the array ``np.repeat`` builds,
      without the temporary), and then take its column run of the right
      side in one add, broadcast over the segment's rows only, so that
      each inner loop runs over a whole contiguous (columns, width) block.
      Tiling that run into rows first measured no faster: the tile costs
      what the add saves, and more where a sweep's small blocks each need
      their own;
    - the ReLU takes the maximum against the scorer copy's zero buffer;
    - each chunk then goes through ``score_pair_logits`` as one (pairs, 1,
      width) tensor, whose layers add their bias rows (``_reserve`` sizes
      both blocks for the chunk).

    These are the IEEE operations of the broadcast forms, so the bits are
    theirs. Every product gives a row the same bits in any batch, so each
    logit has the bits of its block scored alone. The logits land in
    float64, exactly."""
    with np.errstate(over="ignore"):
        rows_a, rows_b = (rows.astype(np.float32) for rows in (rows_a, rows_b))
    first, d = scorer[0], rows_a.shape[1]
    left = _side_product(rows_a, first.w[:d])
    left += first.b
    right = _side_product(rows_b, first.w[d:])
    logits = np.empty(sum(n_a * n_b for n_a, n_b in shapes))
    done = 0
    for pairs, segments in _pair_chunks(shapes):
        _reserve(scorer, pairs)
        h = np.empty((pairs, left.shape[1]), dtype=left.dtype)
        used = 0
        for a, a_end, b, b_end in segments:
            n = (a_end - a) * (b_end - b)
            pairs_h = h[used:used + n].reshape(a_end - a, b_end - b, -1)
            pairs_h[...] = left[a:a_end, None]
            pairs_h += right[b:b_end]
            used += n
        logits[done:done + pairs] = score_pair_logits(first.activate(h, out=h)[:, None],
                                                      scorer[1:])[:, 0]
        done += pairs
    return logits


def _pair_counts(sample, cfg):
    """A sample's two detection counts; GeotrackError when one passes the
    matcher's ``capacity``."""
    n1, n2 = len(sample.frame_a.detections), len(sample.frame_b.detections)
    if max(n1, n2) > cfg.capacity:
        raise GeotrackError(f"pair has {max(n1, n2)} detections; capacity is {cfg.capacity}")
    return n1, n2


def forward_pair(sample, params, grads, pose_only=False, rows=None, stack=None):
    """Joint loss and gradients of one training pair: one SGD step.

    Returns a dict with the affinity loss, pose losses, joint loss and the
    similarity bundle, and adds the gradients into ``grads``, zeroed arrays
    keyed like ``_trainable_slots`` (a training run passes views into its flat
    gradient vector). With ``pose_only`` the scorer never runs: the
    objective is the mean pose loss alone (the pose-head pretraining phase).

    Each side's rows are standardized in float64 (``_standardized``) and the
    scorer's float64 forward pass over their pair tensor is taped in one
    call for ``mlp_backward`` (``numerics.mlp_forward`` says how its product
    differs from the tapeless pass). An empty side leaves only the null
    options.

    ``rows``, when given, is the sample's ``(rows_a, rows_b)`` as
    ``_describe`` builds them; it is valid only while nothing upstream of the
    descriptors trains (no attention, hence no pose head, which needs
    ``embed_dim`` >= 1), so that the rows cannot change between calls.
    Otherwise both sides are described in one ``_describe`` call over
    ``stack``, the sample's ``_SideTable.stack``, and pushed back in one
    ``_backward_stack`` call.
    """
    cfg = params.config
    n1, n2 = _pair_counts(sample, cfg)
    if rows is None:
        tape, described = _describe(stack, params)
        rows = described[:n1], described[n1:]
        pose_losses = tape.pose_loss.tolist()
    else:
        tape, pose_losses = None, []  # no pose head: no pose loss
    mean_pose = float(np.mean(pose_losses)) if pose_losses else 0.0
    scored = not pose_only and n1 > 0 and n2 > 0

    if pose_only:
        out = {"affinity": float("nan"), "pose_losses": pose_losses,
               "joint": mean_pose, "bundle": None}
        pose_weight = 1.0
    else:
        logits, cache = np.zeros((n1, n2)), []
        if scored:
            feats_a, feats_b = (_standardized(side, params) for side in rows)
            logits = score_pair_logits(build_pair_tensor(feats_a, feats_b), params.scorer,
                                       cache=cache)
        bundle = augment_normalize(logits, cfg.delta)
        affinity, d_logits = loss_affinity(bundle, sample.match)
        out = {"affinity": affinity, "pose_losses": pose_losses,
               "joint": affinity + cfg.lam * mean_pose, "bundle": bundle}
        pose_weight = cfg.lam

    # attention (and the pose head, which needs it) shapes the descriptors
    upstream = params.attention_w is not None
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
        _backward_stack(tape, d_geometry, weight, params, grads)
    out["grads"] = grads
    return out


# --- training loop --------------------------------------------------------------------


def _input_statistics(table, params):
    """Every ``(rows_a, rows_b)`` of the samples of ``_SideTable``
    ``table``, and all of them stacked with their column mean and standard
    deviation (None without detections). Each (frame, reference ego) is
    described once, and the stack holds every sample's sides, the repeats
    included. Detection values whose descriptors or statistics leave the
    float range are bad data (DataError)."""
    rows = table.rows(params, _input_rows)
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
    stacked rows and column statistics: ``_standardized`` maps each
    descriptor row to (row - shift) * scale before pairing, wherever a pair
    is scored (``forward_pair``, ``pair_accuracy`` and ``Matcher.bundle``),
    which puts meter-scale geometry and unit-scale appearance on comparable
    footing, and a pose head's embedding input is whitened the same way. All
    four vectors ride along in the checkpoint."""
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
    and ordered like ``_trainable_slots``, for ``forward_pair`` to add into.
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
        self.spans = {}  # in _trainable_slots order, which the clip norm sums in
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
        sums as Python floats in ``_trainable_slots`` order, as a loop over the
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


def _sgd_epoch(table, rows, params, flat, config, rng, lr, pose_only=False):
    """One pass over the samples of ``_SideTable`` ``table``; returns (mean
    affinity, mean pose loss). ``rows`` holds each sample's ``forward_pair``
    rows, or is None when the descriptors train: each step then describes
    its sample's ``table.stack``. ``flat`` holds the trainables."""
    samples = table.samples
    steps = np.full(len(flat.theta), lr)
    steps[flat.pose_head] = lr * config.pose_lr_scale
    order = rng.permutation(len(samples))
    affinity_sum = 0.0
    pose_sum = 0.0
    pose_count = 0
    for idx in order:
        flat.grad.fill(0.0)
        result = forward_pair(samples[idx], params, flat.grads, pose_only=pose_only,
                              rows=rows[idx] if rows else None,
                              stack=None if rows else table.stack(idx))
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
    the returned params' arrays are views into it. The frame sides are
    gathered once per call, into one ``_SideTable`` for ``samples`` and one
    for ``heldout``: each distinct frame's inputs and each (frame, reference
    ego)'s transform. When only the scorer trains (no pose head,
    ``embed_dim`` 0), the descriptor rows are built once per call too — the
    training rows by the input-statistics pass, the held-out rows before the
    first epoch — and every SGD step and accuracy sweep reuses them. With a
    pose head or attention the rows change on every step: each step
    describes both sides of its sample in one stacked pass
    (``_SideTable.stack``), and each accuracy sweep describes each (frame,
    reference ego) of its table once.
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
    table = _SideTable(samples, params.config)
    # A resumed run keeps the checkpoint's standardization frozen; its data
    # gets the same check a fresh run's fit makes, so overflowing values are
    # bad data here too rather than a diverging loss.
    rows, stats = _input_statistics(table, params)
    if fresh:
        _set_standardization(params, stats)
    del stats  # the stacked copy of the rows is not needed past the fit
    flat = _FlatTrainables(params)
    # with a pose head or attention training, the descriptors change with
    # every step, so each step and sweep describes them afresh
    if params.attention_w is not None:
        rows = None
    evaluated, eval_rows = table, rows
    if heldout:
        evaluated = _SideTable(list(heldout), params.config)
        eval_rows = evaluated.rows(params, _describe_rows) if rows else None
    cutoff = int(np.floor(config.epochs * 2 / 3))
    schedule = [(True, config.learning_rate)] * pretrain + [
        (False, config.learning_rate * (config.lr_decay if epoch >= cutoff else 1.0))
        for epoch in range(config.epochs)
    ]
    history = []
    for pose_only, lr in schedule:
        affinity_mean, pose_mean = _sgd_epoch(
            table, rows, params, flat, config, rng, lr, pose_only=pose_only
        )
        accuracy = pair_accuracy(evaluated.samples, params,
                                 rows=eval_rows or evaluated.rows(params, _describe_rows))
        history.append(EpochStats(epoch=params.epochs_trained, affinity=affinity_mean,
                                  pose=pose_mean, accuracy=accuracy))
        params.epochs_trained += 1
    return params, history


# --- evaluation helpers ------------------------------------------------------------------


def pair_accuracy(samples, params, rows=None):
    """Fraction of per-object assignment decisions (argmax incl. the null
    option, both directions) that agree with the ground-truth matrix. Each
    pair is scored tapeless, with the bits of one ``Matcher.bundle`` call
    per sample.

    ``rows``, when given, holds each sample's ``(rows_a, rows_b)`` as
    ``_describe`` builds them under ``params``: a training run passes those
    of its ``_SideTable``s, so a run that only trains the scorer describes
    no sample again. Without them the samples' own table is built here, and
    each (frame, reference ego) is described once.

    One sweep scores every sample: the float32 scorer is copied once, and
    ``_tapeless_logits`` scores all samples' pairs in shared chunks. A scorer
    weight past float32's range is a diverged run (NonFiniteLossError), even
    with a finite float64 loss; past that, a non-finite logit is bad input
    data, as in ``Matcher.bundle`` (DataError).
    """
    cfg = params.config
    for sample in samples:
        _pair_counts(sample, cfg)
    if rows is None:
        rows = _SideTable(samples, cfg).rows(params, _describe_rows)
    scored = [pair for pair in rows if len(pair[0]) and len(pair[1])]
    logits = np.zeros(0)  # every sample's logits, flattened; none for an empty side
    if scored:
        scorer = _float32_scorer(params)
        if not all(np.isfinite(a).all() for layer in scorer for a in (layer.w, layer.b)):
            raise NonFiniteLossError("scorer weights overflow float32")
        with np.errstate(over="ignore", invalid="ignore"):  # fails the check below
            logits = _tapeless_logits(
                scorer,
                *(_standardized(np.concatenate(side), params) for side in zip(*scored)),
                [(len(rows_a), len(rows_b)) for rows_a, rows_b in scored])
        if not np.isfinite(logits).all():
            raise DataError("descriptor values overflow the pair scorer")
    correct = total = done = 0
    for sample, (rows_a, rows_b) in zip(samples, rows):
        n1, n2 = len(rows_a), len(rows_b)
        fused = augment_normalize(logits[done:done + n1 * n2].reshape(n1, n2), cfg.delta).fused
        done += n1 * n2
        match = sample.match
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
    bad data (DataError). Being fixed, the scorer's float32 copy is made
    once, here, for every ``bundle`` call.
    """

    def __init__(self, params):
        self.params = params
        self.config = params.config
        self._scorer = _float32_scorer(params)

    def descriptors(self, detections, ego, ego_ref, intrinsics):
        """(k, d) descriptor rows of one frame's ``scene.Detection``s,
        reference frame."""
        side = _side_inputs(detections, intrinsics, self.config)
        return _input_rows(_stack([side], [reference_transform(ego, ego_ref)]), self.params)

    def bundle(self, desc_rows, desc_cols, sizes=None):
        """Similarity bundle between two stacked descriptor matrices, the
        rows in groups of ``sizes`` (see ``augment_normalize``).

        Each side's rows are standardized in float64 (``_standardized``) and
        their pairs go through ``_tapeless_logits`` on the scorer's float32
        copy. On the stored checkpoint's dense tracking the float32 logits
        differ from the float64 concatenated layer's by at most 5e-6, and no
        decision changes."""
        n1, n2 = len(desc_rows), len(desc_cols)
        logits = np.zeros((n1, n2))  # an empty side leaves only the null options
        with np.errstate(over="ignore", invalid="ignore"):  # fails the check below
            if n1 and n2:
                logits = _tapeless_logits(self._scorer, *(
                    _standardized(side, self.params) for side in (desc_rows, desc_cols)),
                    [(n1, n2)]).reshape(n1, n2)
            bundle = augment_normalize(logits, self.config.delta, sizes)
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
