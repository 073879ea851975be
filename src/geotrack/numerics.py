"""Dense-tensor kernel: the attention softmax, losses, and small MLPs.

Everything runs on 64-bit numpy arrays. The MLP layers implement exact
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


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


# activation -> (function, derivative), both of the pre-activation z; the
# function writes into ``out`` when given (``out=z``: in place)
_ACTS = {
    "linear": (lambda z, out=None: z, lambda z: np.ones_like(z)),
    "relu": (_relu, lambda z: (z > 0).astype(np.float64)),
}


@dataclass
class Layer:
    """One dense layer: weights (fan_in, fan_out), bias, activation tag."""

    w: np.ndarray
    b: np.ndarray
    act: str = "linear"

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if self.w.ndim != 2 or self.w.shape[1] != self.b.shape[0]:
            raise GeotrackError(
                f"layer weights {self.w.shape} do not match bias {self.b.shape}"
            )
        if self.act not in _ACTS:
            raise GeotrackError(f"unknown activation {self.act!r}")


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
# width is a multiple of this. OpenBLAS (0.3.31, Haswell kernel) then gives
# each row the same bits at every batch size; widths 1-3, 9-12 and 17-20
# each change a row's bits with the batch size at some fan-in, so no width
# threshold would do. tests/test_numerics.py sweeps every layer shape in use.
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

    Each output row is independent of the batch around it, bit for bit, so
    batched and row-at-a-time calls agree exactly. Which product gives that:

    - With ``cache`` a list (an SGD step), it is filled with the per-layer
      inputs and pre-activations needed by mlp_backward, and every layer
      multiplies through einsum, which reduces each row in a fixed order.
    - Without it (the tracker's pair scorer, and training's accuracy
      passes, which score as the tracker does), each layer whose width is
      a multiple of ``GEMM_WIDTH_STEP`` multiplies through BLAS gemm, about
      ten times faster at the scorer's sizes; other layers, such as the
      scorer's 1-wide output, keep einsum. Row invariance of gemm is a
      property of the BLAS kernel, pinned by the sweep test in
      tests/test_numerics.py. The scorer's first layer does not come here:
      ``matching._score`` splits it by side through ``_layer_product``.

    Each layer's product is a fresh array that takes the bias in place.
    Without ``cache`` the ReLU runs in place on it too, as nothing reads the
    pre-activation again; with it, each layer keeps its own ``z`` and ``h``
    for mlp_backward. Neither touches ``x`` or the layers.

    SGD steps keep einsum only so that training reproduces the stored
    benchmark checkpoint bit for bit. Once a benchmark change regenerates
    that checkpoint, they can move to gemm too and the tape branch can go.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x.reshape(1, -1) if single else x
    _check_chain(layers, h)
    taped = cache is not None
    for layer in layers:
        z = _layer_product(h, layer.w, taped)
        z += layer.b
        if taped:
            cache.append((h, z))
        h = _ACTS[layer.act][0](z, out=None if taped else z)
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
        dz = grad * _ACTS[layer.act][1](z)
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
