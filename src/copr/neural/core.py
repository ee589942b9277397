"""Minimal deterministic feed-forward network framework.

Supports exactly what descriptor regression and the synthetic encoders
need: dense layers with GeLU or identity activations, reverse-mode
gradients for a mean-squared-error head or for an arbitrary output
gradient, and textbook Adam with bias correction.

All math runs in float64 so analytic gradients check cleanly against
central finite differences. One model type, :class:`MlpModel`, keeps every
parameter in one flat buffer with per-layer views. A constructed model is
immutable and safely shareable across threads. Training lays a private
model over a writable copy of that buffer (:meth:`MlpModel.on_buffer`), and
:class:`RawAdam`, the one optimizer, updates it in place from a flat
gradient buffer of the same layout.

Every kernel returns arrays it allocated itself, so no later call
overwrites what an earlier one returned. The exceptions are
:func:`backward_batch`'s ``grads`` and the ``out`` of :func:`infer_blocks`
and :func:`regress_nonlinear_batch`, which their callers pass in.

Inference without a cache (:func:`forward_batch` with ``keep_cache=False``,
:func:`regress_nonlinear_batch`, and :func:`infer_blocks`, which builds each
block's input rows on demand) runs its rows in even blocks of at most
``_BLOCK_ROWS`` (:func:`copr.blocks.even_blocks`, never a one-row block
unless the batch has one row) and copies each block's result into the one
output array. A block's (block, width) intermediates are its own and are
freed before the next block, so they stay cache-sized however many rows
are regressed (:func:`regress_nonlinear_batch` gathers only each block's
anchor rows). Each row's output is bit-identical to an unblocked pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from ..blocks import even_blocks, output_block
from ..errors import DimMismatch, InvalidConfig, RefusedNonFinite, ShapeMismatch

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_U64 = (1 << 64) - 1
# Rows per block of an uncached forward pass: four (rows, 39) arrays of the
# widest pinned regressor then hold 640 KiB.
_BLOCK_ROWS = 512
# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Activation(enum.Enum):
    """Layer activation; integer values double as the file-format codes."""

    GELU = 0
    IDENTITY = 1


def _gelu(z):
    """GeLU of ``z`` and its tanh term, as (activation, tanh).

    0.5 * z * (1 + tanh(sqrt(2/pi) * (z + 0.044715 * z^3))), with the cube
    taken as (z*z)*z: numpy's general ``power`` goes through libm ``pow``
    and is tens of times slower.
    """
    th = z * z
    th *= z
    th *= _GELU_A
    th += z
    th *= _GELU_C
    np.tanh(th, out=th)
    out = z * 0.5
    out *= th + 1.0
    return out, th


def gelu(x):
    """GeLU in its tanh approximation, the same kernel the network runs."""
    x = np.asarray(x, dtype=np.float64)
    return _gelu(x.reshape(-1))[0].reshape(x.shape)


@dataclass(frozen=True, eq=False)
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if w.ndim != 2 or w.shape[0] != b.shape[0]:
            raise ShapeMismatch(f"layer weights {w.shape} incompatible with bias {b.shape}")
        if 0 in w.shape:
            raise ShapeMismatch(f"layer weights {w.shape} have a zero dimension")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise RefusedNonFinite("layer parameters must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


def _layer_views(flat: np.ndarray, layers) -> list:
    """(weights, bias) views into a flat buffer laid out like ``layers``."""
    views = []
    offset = 0
    for l in layers:
        w_end = offset + l.weights.size
        b_end = w_end + l.bias.size
        views.append((flat[offset:w_end].reshape(l.weights.shape), flat[w_end:b_end]))
        offset = b_end
    return views


@dataclass(frozen=True, eq=False)
class MlpModel:
    """A stack of dense layers with chained dimensions.

    Every parameter lives in one float64 buffer ``flat``: per layer, the
    row-major weights followed by the bias. The layers' weights and biases
    are read-only views into it. Construction copies the given layers into
    a fresh read-only buffer, so a constructed model is immutable and safely
    shareable across threads; :meth:`on_buffer` lays a model over a buffer
    its caller owns, which is how a trainer updates a private model in place.
    """

    layers: tuple[Layer, ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise InvalidConfig("model needs at least one layer")
        layers = tuple(self.layers)
        for a, b in zip(layers, layers[1:]):
            if a.weights.shape[0] != b.weights.shape[1]:
                raise ShapeMismatch(
                    f"layer output dim {a.weights.shape[0]} does not feed layer input dim {b.weights.shape[1]}"
                )
        flat = np.concatenate([np.concatenate([l.weights.ravel(), l.bias]) for l in layers])
        flat.setflags(write=False)
        self._bind(flat, layers)

    def _bind(self, flat: np.ndarray, layers) -> None:
        object.__setattr__(self, "flat", flat)
        object.__setattr__(
            self,
            "layers",
            tuple(Layer(w, b, l.activation) for (w, b), l in zip(_layer_views(flat, layers), layers)),
        )

    def on_buffer(self, flat: np.ndarray) -> "MlpModel":
        """A model with these layers' shapes and activations whose parameters
        are views into ``flat``, a buffer laid out like ``self.flat``.

        ``flat`` is not copied: whoever can write it changes the model.
        """
        if flat.dtype != np.float64 or flat.shape != self.flat.shape or not flat.flags.c_contiguous:
            raise ShapeMismatch(f"parameter buffer {flat.dtype}{flat.shape} does not match {self.flat.shape}")
        model = object.__new__(MlpModel)
        model._bind(flat, self.layers)
        return model

    def views(self, buffer: np.ndarray) -> list:
        """Per-layer (weights, bias) views into a buffer laid out like ``flat``."""
        return _layer_views(buffer, self.layers)

    @property
    def input_dim(self) -> int:
        return int(self.layers[0].weights.shape[1])

    @property
    def output_dim(self) -> int:
        return int(self.layers[-1].weights.shape[0])

    def layer_widths(self) -> list[int]:
        """Input dim followed by every layer's output dim."""
        return [self.input_dim] + [int(l.weights.shape[0]) for l in self.layers]


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (output, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31), state


def init_mlp(widths, activations, seed: int) -> MlpModel:
    """Seeded Glorot-uniform initialization.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero.
    Each layer draws from its own SplitMix64-derived stream so layer
    initializations are independent of each other's sizes.
    """
    if len(activations) != len(widths) - 1:
        raise ShapeMismatch("need one activation per layer")
    state = int(seed) & _U64
    layers = []
    for i, act in enumerate(activations):
        fan_in, fan_out = widths[i], widths[i + 1]
        stream_seed, state = splitmix64(state)
        rng = np.random.Generator(np.random.PCG64(stream_seed))
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(Layer(weights=w, bias=np.zeros(fan_out), activation=act))
    return MlpModel(layers=tuple(layers))


def forward_batch(model: MlpModel, x: np.ndarray, keep_cache: bool = False):
    """Forward pass over a (batch, input_dim) matrix.

    Returns (output, cache); cache holds per-layer inputs,
    pre-activations, and the GeLU tanh terms so the backward pass never
    recomputes a tanh. Without a cache (``cache`` is None) the rows run in
    blocks.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DimMismatch(f"input shape {x.shape} does not match model input dim {model.input_dim}")
    if not keep_cache:
        return infer_blocks(model, len(x), x.__getitem__), None
    cache = ([x], [], [])
    return _layers(model, x, cache), cache


def infer_blocks(model: MlpModel, n: int, block_input, out=None) -> np.ndarray:
    """Uncached forward pass over ``n`` rows in even blocks of at most
    ``_BLOCK_ROWS``; ``block_input(rows)`` gives the input rows of the
    block ``rows`` (a slice). The rows are written into ``out``, an
    (n, output dim) float64 array, when given, and returned in it."""
    out = output_block(out, n, model.layers[-1].weights.shape[0])
    for rows in even_blocks(n, _BLOCK_ROWS):
        out[rows] = _layers(model, block_input(rows), None)
    return out


def _layers(model: MlpModel, x: np.ndarray, cache) -> np.ndarray:
    """The layers of :func:`forward_batch` over the rows ``x``; a cache, when
    given, lists every layer's output, pre-activation and tanh term."""
    a = x
    for layer in model.layers:
        z = np.matmul(a, layer.weights.T)
        z += layer.bias
        th = None
        if layer.activation is Activation.GELU:
            a, th = _gelu(z)
        else:
            a = z
        if cache is not None:
            cache[0].append(a)
            cache[1].append(z)
            cache[2].append(th)
    return a


def backward_batch(model: MlpModel, cache, d_output: np.ndarray, grads=None):
    """Reverse-mode pass from an output gradient.

    ``d_output`` is dLoss/dOutput of shape (batch, output_dim). Returns
    (grads, d_input) where grads is a list of (dW, db) per layer summed
    over the batch. The gradients are written into ``grads`` when given
    (e.g. a :class:`RawAdam`'s views) and into fresh arrays otherwise; the
    cache is only read.
    """
    activations, pre, tanhs = cache
    if grads is None:
        grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in model.layers]
    delta = np.asarray(d_output, dtype=np.float64)
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        if layer.activation is Activation.GELU:
            z = pre[li]
            th = tanhs[li]
            # GeLU'(z) = 0.5 * (1 + th) + 0.5 * z * (1 - th^2) * c * (1 + 3a * z^2)
            deriv = th + 1.0
            deriv *= 0.5
            term = z * 0.5
            term *= 1.0 - th * th
            term *= _GELU_C
            tmp = z * z
            tmp *= 3.0 * _GELU_A
            tmp += 1.0
            term *= tmp
            deriv += term
            delta = delta * deriv
        gw, gb = grads[li]
        np.matmul(delta.T, activations[li], out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        delta = np.matmul(delta, layer.weights)
    return grads, delta


def mse_batch_grad(model: MlpModel, x: np.ndarray, targets: np.ndarray, grads=None):
    """Gradients of the batch-mean MSE (averaged over the batch).

    ``grads`` is passed on to :func:`backward_batch`. The loss itself is
    not computed.
    """
    y, cache = forward_batch(model, x, keep_cache=True)
    d_out = y - targets
    d_out *= 2.0
    d_out /= d_out.size
    grads, _ = backward_batch(model, cache, d_out, grads=grads)
    return grads


class RawAdam:
    """Adam (Kingma & Ba, arXiv:1412.6980) with bias correction, in place.

    Holds the moments ``m`` and ``v`` and the gradient buffer ``grad``, all
    laid out like the model's ``flat``; ``grads`` lists the per-layer
    (dW, db) views into ``grad`` that :func:`backward_batch` writes. A step
    updates the moments and the parameters in place.
    """

    __slots__ = ("lr", "t", "m", "v", "grad", "grads")

    def __init__(self, net: MlpModel, lr: float):
        if not lr > 0.0:
            raise InvalidConfig("learning rate must be positive")
        if not net.flat.flags.writeable:
            raise InvalidConfig("Adam updates its model in place; pass a model on a writable buffer")
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)
        self.grad = np.zeros_like(net.flat)
        self.grads = net.views(self.grad)

    def step(self, net: MlpModel, grad: np.ndarray) -> None:
        """One update of ``net.flat`` from ``grad``, a flat gradient laid out like it."""
        self.t += 1
        self.m *= _BETA1
        self.m += grad * (1.0 - _BETA1)
        self.v *= _BETA2
        s = grad * grad
        s *= 1.0 - _BETA2
        self.v += s
        u = self.m / (1.0 - _BETA1**self.t)
        u *= self.lr
        s = np.sqrt(self.v / (1.0 - _BETA2**self.t))
        s += _EPS
        u /= s
        np.subtract(net.flat, u, out=net.flat)


def regressor_input(f_anchors: np.ndarray, dp_rows: np.ndarray) -> np.ndarray:
    """The regressor's input rows ``[f_anchor | dp]``, each anchor descriptor
    followed by its 7-component relative pose; the one builder of that layout."""
    return np.concatenate((f_anchors, dp_rows), axis=1)


def regress_nonlinear_batch(model: MlpModel, descriptors: np.ndarray, anchor_rows, dp_vectors, out=None) -> np.ndarray:
    """Regress descriptors at target poses, one row per (anchor, target).

    Row i runs the regressor on :func:`regressor_input` of anchor descriptor
    ``descriptors[anchor_rows[i]]``, a row of a map's (n, dim) block, and the
    7-component relative pose ``dp_vectors[i]``; the model input dim must
    equal dim + 7, its output dim the descriptor dim. Each block of rows
    gathers its own anchor rows into its own input rows, so no block of the
    whole batch is gathered. The rows go into ``out`` when given, as in
    :func:`infer_blocks`. Rows that do not pair with ``dp_vectors`` raise
    DimMismatch, rows that are not integers in [0, n) InvalidConfig.
    """
    f = np.asarray(descriptors, dtype=np.float64)
    rows = np.asarray(anchor_rows)
    dp = np.asarray(dp_vectors, dtype=np.float64)
    if f.ndim != 2 or dp.ndim != 2 or rows.shape != (len(dp),):
        raise DimMismatch(f"anchor rows {rows.shape} and relative-pose block {dp.shape} do not pair row by row")
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(f)):
        raise InvalidConfig(f"anchor rows must be integers in [0, {len(f)})")
    width = f.shape[1] + dp.shape[1]
    if width != model.input_dim:
        raise DimMismatch(f"stacked input length {width} does not match regressor input dim {model.input_dim}")
    if model.output_dim != width - 7:
        raise DimMismatch(f"regressor output dim {model.output_dim} does not match descriptor dim {width - 7}")
    return infer_blocks(model, len(dp), lambda b: regressor_input(f[rows[b]], dp[b]), out=out)
