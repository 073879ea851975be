"""Dense-tensor kernel: the attention softmax, losses, and small MLPs.

Everything runs on 64-bit numpy arrays except the pair scorer's inference
pass (``matching._tapeless_logits``), which gives the MLP forward float32
layers and input; the forward keeps those in float32. The MLP layers implement exact
backpropagation for the fixed compositions used by the pose head and the
pair scorer.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GeotrackError

LOG2 = float(np.log(2.0))


# --- softmax -------------------------------------------------------------------


def softmax_map(a):
    """Softmax over all entries of each 2-D map in the last two axes
    (max-subtracted for stability); a (k, H, W) stack gives k maps."""
    a = np.asarray(a, dtype=np.float64)
    e = np.exp(a - a.max(axis=(-2, -1), keepdims=True))
    return e / e.sum(axis=(-2, -1), keepdims=True)


def row_norm(x):
    """Euclidean norms over the last axis. Each is the one dot product
    ``np.linalg.norm`` takes of a single vector, so a stack of rows gives
    bit for bit the norms of its rows taken one at a time."""
    x = np.asarray(x, dtype=np.float64)
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


# --- losses (row-wise: vectors in the last axis, one loss per row) ---------------


def loss_trans(t, t_hat):
    """Euclidean distance between translation (or regression-target) vectors."""
    return row_norm(np.asarray(t, dtype=np.float64) - np.asarray(t_hat, dtype=np.float64))


def loss_trans_grad(t, t_hat):
    """Gradient of loss_trans in t_hat (zero subgradient at coincidence)."""
    d = np.asarray(t_hat, dtype=np.float64) - np.asarray(t, dtype=np.float64)
    norm = row_norm(d)[..., None]
    return np.divide(d, norm, out=np.zeros_like(d), where=norm != 0.0)


def _logcosh(x):
    # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log 2, stable for large |x|
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - LOG2


def loss_rot(r, r_hat):
    """Sum of log-cosh errors over the two facing-direction components."""
    d = np.asarray(r, dtype=np.float64) - np.asarray(r_hat, dtype=np.float64)
    return np.sum(_logcosh(d), axis=-1)


def loss_rot_grad(r, r_hat):
    d = np.asarray(r_hat, dtype=np.float64) - np.asarray(r, dtype=np.float64)
    return np.tanh(d)


# --- MLP -------------------------------------------------------------------------


def as_floats(x):
    """``x`` as an array: float32 stays float32, anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


# activation -> its derivative in the pre-activation z (``Layer.activate``
# is the function)
_ACTS = {
    "linear": lambda z: np.ones_like(z),
    "relu": lambda z: (z > 0).astype(np.float64),
}


@dataclass
class Layer:
    """One dense layer: weights (fan_in, fan_out), bias, activation tag.
    Float32 arrays stay float32 (see ``as_floats``).

    ``bias_rows`` and ``zeros`` serve tapeless forwards only, and are None
    elsewhere: ``b`` tiled into at least as many rows as a batch has, and a
    flat zero buffer at least as long as the layer's output, which a ReLU
    reshapes to the output's shape. ``matching._reserve`` sets them on the
    tapeless scorer's float32 copies, so that adding the bias and taking the
    ReLU run over contiguous operands rather than broadcasting a short one
    per row: the same IEEE operations, so the same bits, in about half the
    time."""

    w: np.ndarray
    b: np.ndarray
    act: str = "linear"
    bias_rows: np.ndarray | None = None
    zeros: np.ndarray | None = None

    def __post_init__(self):
        self.w = as_floats(self.w)
        self.b = as_floats(self.b).reshape(-1)
        if self.w.ndim != 2 or self.w.shape[1] != self.b.shape[0]:
            raise GeotrackError(
                f"layer weights {self.w.shape} do not match bias {self.b.shape}"
            )
        if self.act not in _ACTS:
            raise GeotrackError(f"unknown activation {self.act!r}")

    def activate(self, z, out=None):
        """The activation of the pre-activation ``z``, into ``out`` when
        given (``out=z``: in place). A ReLU takes the maximum against this
        layer's zero buffer when it has one, else against the scalar 0.0;
        both give +0.0 for -0.0 and keep a NaN."""
        if self.act == "linear":
            return z
        zeros = 0.0 if self.zeros is None else self.zeros[:z.size].reshape(z.shape)
        return np.maximum(z, zeros, out=out)


def init_mlp(sizes, activations, rng):
    """Glorot-uniform initialized MLP: weights in +-sqrt(6/(fan_in+fan_out))."""
    if len(activations) != len(sizes) - 1:
        raise GeotrackError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append(
            Layer(rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                  np.zeros(fan_out), act)
        )
    return layers


def _check_chain(layers, x):
    if x.shape[-1] != layers[0].w.shape[0]:
        raise GeotrackError(
            f"input dim {x.shape[-1]} != first layer fan-in {layers[0].w.shape[0]}"
        )
    for prev, nxt in zip(layers[:-1], layers[1:]):
        if prev.w.shape[1] != nxt.w.shape[0]:
            raise GeotrackError(
                f"layer dims {prev.w.shape} -> {nxt.w.shape} do not chain"
            )


# A tapeless forward multiplies a layer through BLAS gemm when its output
# width is a multiple of this. OpenBLAS (0.3.31) picks its kernel from the
# CPU at load time. Its SkylakeX kernel, which an AVX-512 Xeon gets, gives
# each row the same bits at every batch size in dgemm; widths 1-3, 9-12
# and 17-20 each change a row's bits with the batch size at some fan-in,
# so no width threshold would do. The rule holds for sgemm at every layer
# shape in use, but not at every shape: there widths 8 and multiples of 16
# keep a row's bits, while 24, 40, 56, 72 and 88 change them once rows x
# fan-in x width passes about 10^6 (at fan-in 64 and width 24, past 600
# rows). The Haswell kernel (an AVX2 CPU without AVX-512, or
# OPENBLAS_CORETYPE=Haswell) breaks the rule at nearly every shape in use:
# see ROADMAP item 24. tests/test_numerics.py sweeps every layer shape in
# use in both precisions.
GEMM_WIDTH_STEP = 8


def _layer_product(h, w, taped):
    """``h @ w`` for one layer: through einsum when ``taped`` or when the
    width is not a multiple of ``GEMM_WIDTH_STEP``, else through BLAS gemm.
    One row is padded to two for gemm: OpenBLAS sends a single row down its
    gemv path, whose bits differ."""
    if taped or w.shape[1] % GEMM_WIDTH_STEP:
        return np.einsum("nd,dk->nk", h, w)
    if len(h) == 1:
        return (np.concatenate([h, h]) @ w)[:1]
    return h @ w


def mlp_forward(layers, x, cache=None):
    """Forward pass; x is a single vector or a (batch, fan_in) matrix.

    It runs in the precision of ``x`` and the layers: float32 input stays
    float32, any other becomes float64 (see ``as_floats``). The tapeless
    pair scorer (``matching._tapeless_logits``) passes float32 input and
    layers; everything else passes float64.

    Each output row is independent of the batch around it, bit for bit, so
    batched and row-at-a-time calls agree exactly. Which product gives that:

    - With ``cache`` a list (an SGD step), it is filled with the per-layer
      inputs and pre-activations needed by mlp_backward, and every layer
      multiplies through einsum, which reduces each row in a fixed order.
    - Without it (the tracker's pair scorer, and training's accuracy
      passes, which score as the tracker does), each layer whose width is
      a multiple of ``GEMM_WIDTH_STEP`` multiplies through BLAS gemm, about
      ten times faster at the scorer's sizes; other layers, such as the
      scorer's 1-wide output, keep einsum. Row invariance of gemm, in
      float32 as in float64, is a property of the BLAS kernel, pinned by
      the sweep test in tests/test_numerics.py. The scorer's first layer
      does not come here: ``matching._tapeless_logits`` splits it by side
      through ``_layer_product``.

    Each layer's product is a fresh array that takes the bias in place.
    Without ``cache`` the ReLU runs in place on it too, as nothing reads the
    pre-activation again; with it, each layer keeps its own ``z`` and ``h``
    for mlp_backward. Neither touches ``x`` or the layers. A layer that
    carries ``bias_rows`` and ``zeros`` (the tapeless scorer's float32
    copies) adds its first ``len(z)`` bias rows and takes the ReLU against
    its zero buffer, over contiguous operands; any other adds ``b`` by
    broadcasting and takes the ReLU against the scalar 0.0. The bits are
    the same.

    SGD steps keep einsum only so that training reproduces the stored
    benchmark checkpoint bit for bit. Once a benchmark change regenerates
    that checkpoint, they can move to gemm too and the tape branch can go.
    """
    x = as_floats(x)
    single = x.ndim == 1
    h = x.reshape(1, -1) if single else x
    _check_chain(layers, h)
    taped = cache is not None
    for layer in layers:
        z = _layer_product(h, layer.w, taped)
        z += layer.b if layer.bias_rows is None else layer.bias_rows[:len(z)]
        if taped:
            cache.append((h, z))
        h = layer.activate(z, out=None if taped else z)
    return h[0] if single else h


def mlp_backward(layers, cache, upstream, input_grad=True):
    """Exact gradients for a cached forward pass.

    Returns (grads, dx): grads is a list of (dW, db) matching ``layers``,
    dx the gradient with respect to the network input, or None when
    ``input_grad`` is false and the first layer's product is skipped.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    single = upstream.ndim == 1
    grad = upstream.reshape(1, -1) if single else upstream
    grads = [None] * len(layers)
    for idx in range(len(layers) - 1, -1, -1):
        h, z = cache[idx]
        layer = layers[idx]
        dz = grad * _ACTS[layer.act](z)
        grads[idx] = (h.T @ dz, dz.sum(axis=0))
        if idx == 0 and not input_grad:
            return grads, None
        grad = dz @ layer.w.T
    return grads, (grad[0] if single else grad)


# --- parameter checkpoints ------------------------------------------------------------


def layers_to_doc(layers):
    return [
        {"w": [[float(v) for v in row] for row in layer.w],
         "b": [float(v) for v in layer.b],
         "act": layer.act}
        for layer in layers
    ]


def is_number(x):
    """A finite JSON number; bools and ints past the float range are not."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def array_from_doc(value, name, shape):
    """Finite JSON numbers nested to exactly ``shape`` as a float64 array;
    DataError naming ``name`` for anything else, NaN and inf included."""
    values = np.array(value, dtype=object)
    if values.shape != shape or not all(map(is_number, values.flat)):
        raise DataError(f"{name} must be finite numbers of shape {shape}")
    return values.astype(np.float64)


def layers_from_doc(doc, sizes, name="layers"):
    """Inverse of layers_to_doc for an MLP with layer widths ``sizes``;
    DataError names the first layer field that does not fit."""
    if not isinstance(doc, list) or len(doc) != len(sizes) - 1:
        raise DataError(f"{name} must be a list of {len(sizes) - 1} layers")
    layers = []
    for i, d in enumerate(doc):
        where = f"{name}[{i}]."
        if not isinstance(d, dict) or d.get("act") not in list(_ACTS):
            raise DataError(f"{where}act must be one of {list(_ACTS)}")
        w = array_from_doc(d.get("w"), where + "w", (sizes[i], sizes[i + 1]))
        b = array_from_doc(d.get("b"), where + "b", (sizes[i + 1],))
        layers.append(Layer(w, b, d["act"]))
    return layers
