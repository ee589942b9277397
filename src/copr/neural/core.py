"""Minimal deterministic feed-forward network framework.

Supports exactly what descriptor regression and the synthetic encoders
need: dense layers with GeLU or identity activations, reverse-mode
gradients for a mean-squared-error head or for an arbitrary output
gradient, and textbook Adam with bias correction.

All math runs in float64 so analytic gradients check cleanly against
central finite differences. Exported models (:class:`MlpModel`) are
immutable and safely shareable across threads. Training runs on a
:class:`RawNet` and a :class:`RawAdam` instead, which update parameters,
gradients and moments in place in flat buffers.

Buffer ownership: :func:`forward_batch` and :func:`backward_batch` allocate
fresh arrays unless given a :class:`Workspace`. Only the caller that owns
every array those calls return may pass one (the regressor trainer does,
for its own batches), because the next call reuses the arrays. An array
handed to anyone else, such as densified descriptors or encoder outputs,
always comes from a call without a workspace and is never overwritten.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DimMismatch, InvalidConfig, RefusedNonFinite, ShapeMismatch

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_U64 = (1 << 64) - 1


class Activation(enum.Enum):
    """Layer activation; integer values double as the file-format codes."""

    GELU = 0
    IDENTITY = 1


def _gelu_into(z, th, out, scratch):
    """GeLU of ``z`` written into ``out``; leaves the tanh term in ``th``.

    0.5 * z * (1 + tanh(sqrt(2/pi) * (z + 0.044715 * z^3))), with the cube
    taken as (z*z)*z: numpy's general ``power`` goes through libm ``pow``
    and is tens of times slower. ``scratch`` receives 1 + tanh.
    """
    np.multiply(z, z, out=th)
    th *= z
    th *= _GELU_A
    th += z
    th *= _GELU_C
    np.tanh(th, out=th)
    np.multiply(z, 0.5, out=out)
    out *= np.add(th, 1.0, out=scratch)
    return out


def gelu(x):
    """GeLU in its tanh approximation, the same kernel the network runs."""
    x = np.asarray(x, dtype=np.float64)
    return _gelu_into(x, np.empty_like(x), np.empty_like(x), np.empty_like(x))


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if w.ndim != 2 or w.shape[0] != b.shape[0]:
            raise ShapeMismatch(f"layer weights {w.shape} incompatible with bias {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise RefusedNonFinite("layer parameters must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class MlpModel:
    """A stack of dense layers with chained dimensions."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise InvalidConfig("model needs at least one layer")
        layers = tuple(self.layers)
        for a, b in zip(layers, layers[1:]):
            if a.weights.shape[0] != b.weights.shape[1]:
                raise ShapeMismatch(
                    f"layer output dim {a.weights.shape[0]} does not feed layer input dim {b.weights.shape[1]}"
                )
        object.__setattr__(self, "layers", layers)

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


class Workspace:
    """Scratch arrays reused across calls, one per (name, shape).

    Only code that owns every array a call returns may pass a workspace to
    :func:`forward_batch`, :func:`backward_batch` or :func:`mse_batch_grad`:
    the next call with the same workspace and batch shape overwrites the
    outputs, the cache and the gradients of the last one.
    """

    __slots__ = ("_arrays",)

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, shape) -> np.ndarray:
        key = (name, shape)
        arr = self._arrays.get(key)
        if arr is None:
            arr = self._arrays[key] = np.empty(shape)
        return arr


def _fresh(name, shape) -> np.ndarray:
    return np.empty(shape)


def forward_batch(model: MlpModel, x: np.ndarray, keep_cache: bool = False, work: Workspace | None = None):
    """Forward pass over a (batch, input_dim) matrix.

    Returns (output, cache); cache holds per-layer inputs,
    pre-activations, and the GeLU tanh terms so the backward pass never
    recomputes a tanh. Every array is fresh unless ``work`` is given.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DimMismatch(f"input shape {x.shape} does not match model input dim {model.input_dim}")
    take = _fresh if work is None else work
    cache = ([x], [], []) if keep_cache else None
    a = x
    for li, layer in enumerate(model.layers):
        shape = (x.shape[0], layer.weights.shape[0])
        z = np.matmul(a, layer.weights.T, out=take(("z", li), shape))
        z += layer.bias
        th = None
        if layer.activation is Activation.GELU:
            th = take(("th", li), shape)
            a = _gelu_into(z, th, take(("a", li), shape), take("scratch", shape))
        else:
            a = z
        # Without a cache, this layer's arrays are dropped once the next
        # layer has consumed ``a``.
        if cache is not None:
            cache[0].append(a)
            cache[1].append(z)
            cache[2].append(th)
    return a, cache


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Forward pass for a single input vector."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    y, _ = forward_batch(model, x)
    return y[0]


def backward_batch(model: MlpModel, cache, d_output: np.ndarray, grads=None, work: Workspace | None = None):
    """Reverse-mode pass from an output gradient.

    ``d_output`` is dLoss/dOutput of shape (batch, output_dim). Returns
    (grads, d_input) where grads is a list of (dW, db) per layer summed
    over the batch. The gradients are written into ``grads`` when given
    (e.g. a :class:`RawNet`'s views) and into fresh arrays otherwise; the
    cache is only read.
    """
    activations, pre, tanhs = cache
    take = _fresh if work is None else work
    if grads is None:
        grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in model.layers]
    delta = np.asarray(d_output, dtype=np.float64)
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        if layer.activation is Activation.GELU:
            z = pre[li]
            th = tanhs[li]
            # GeLU'(z) = 0.5 * (1 + th) + 0.5 * z * (1 - th^2) * c * (1 + 3a * z^2)
            deriv = np.add(th, 1.0, out=take("deriv", z.shape))
            deriv *= 0.5
            term = np.multiply(z, 0.5, out=take("term", z.shape))
            tmp = np.multiply(th, th, out=take("tmp", z.shape))
            term *= np.subtract(1.0, tmp, out=tmp)
            term *= _GELU_C
            np.multiply(z, z, out=tmp)
            tmp *= 3.0 * _GELU_A
            tmp += 1.0
            term *= tmp
            deriv += term
            delta = np.multiply(delta, deriv, out=deriv)
        gw, gb = grads[li]
        np.matmul(delta.T, activations[li], out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        delta = np.matmul(delta, layer.weights, out=take(("delta", li), activations[li].shape))
    return grads, delta


def mlp_grad(model: MlpModel, x, target):
    """Loss and parameter gradients for one (input, target) pair.

    The loss is the mean over output dimensions of the squared error;
    gradients come from reverse-mode differentiation.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    t = np.asarray(target, dtype=np.float64).reshape(1, -1)
    if t.shape[1] != model.output_dim:
        raise DimMismatch(f"target dim {t.shape[1]} does not match model output dim {model.output_dim}")
    y, cache = forward_batch(model, x, keep_cache=True)
    resid = y - t
    loss = float(np.mean(resid**2))
    d_out = 2.0 * resid / resid.shape[1]
    grads, _ = backward_batch(model, cache, d_out)
    return loss, grads


def mse_batch_grad(model: MlpModel, x: np.ndarray, targets: np.ndarray, grads=None, work: Workspace | None = None):
    """Gradients of the batch-mean MSE (averaged over the batch).

    ``grads`` and ``work`` are passed on to :func:`backward_batch` and
    :func:`forward_batch`. The loss itself is not computed.
    """
    y, cache = forward_batch(model, x, keep_cache=True, work=work)
    take = _fresh if work is None else work
    d_out = np.subtract(y, targets, out=take("d_out", y.shape))
    d_out *= 2.0
    d_out /= d_out.size
    grads, _ = backward_batch(model, cache, d_out, grads=grads, work=work)
    return grads


@dataclass(frozen=True)
class AdamState:
    """Adam accumulators shaped like the model they optimize."""

    lr: float
    step_count: int
    m: tuple
    v: tuple
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(model: MlpModel, lr: float) -> AdamState:
    if lr <= 0.0:
        raise InvalidConfig("learning rate must be positive")
    zeros = tuple((np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers)
    return AdamState(lr=float(lr), step_count=0, m=zeros, v=zeros)


def adam_update_arrays(theta, m, v, g, lr, beta1, beta2, eps, t):
    """The Adam recurrence on one parameter array; returns (theta, m, v).

    m and v are the first and second moment running averages and t the
    1-based step count used for bias correction.
    """
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g**2
    theta = theta - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return theta, m, v


def adam_step(state: AdamState, model: MlpModel, grads) -> tuple[MlpModel, AdamState]:
    """One bias-corrected Adam update; returns (new model, new state)."""
    if len(grads) != len(model.layers):
        raise ShapeMismatch("gradient list does not match model layers")
    t = state.step_count + 1
    new_layers = []
    new_m = []
    new_v = []
    for layer, (mw, mb), (vw, vb), (gw, gb) in zip(model.layers, state.m, state.v, grads):
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise ShapeMismatch("gradient shapes do not match layer shapes")
        w, mw, vw = adam_update_arrays(layer.weights, mw, vw, gw, state.lr, state.beta1, state.beta2, state.eps, t)
        b, mb, vb = adam_update_arrays(layer.bias, mb, vb, gb, state.lr, state.beta1, state.beta2, state.eps, t)
        new_layers.append(Layer(weights=w, bias=b, activation=layer.activation))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    return MlpModel(layers=tuple(new_layers)), replace(
        state, step_count=t, m=tuple(new_m), v=tuple(new_v)
    )


class RawLayer:
    """Mutable duck-typed layer used inside training loops.

    Skips the frozen-dataclass validation that :class:`Layer` performs on
    every construction; forward/backward only touch the three attributes.
    """

    __slots__ = ("weights", "bias", "activation")

    def __init__(self, weights, bias, activation):
        self.weights = weights
        self.bias = bias
        self.activation = activation


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


class RawNet:
    """Mutable model view sharing :func:`forward_batch`/:func:`backward_batch`.

    All parameters live in one flat buffer ``flat`` and their gradients in
    a second one, ``grad``, of the same layout. Layer weights and biases are
    reshaped views into ``flat`` and ``grads`` lists the per-layer (dW, db)
    views into ``grad``, so backward_batch writes the gradient the optimizer
    reads, and the optimizer's in-place update is visible to the next
    forward pass, with no copying.
    """

    __slots__ = ("layers", "flat", "grad", "grads")

    def __init__(self, model: MlpModel):
        self.flat = np.concatenate([np.concatenate([l.weights.ravel(), l.bias]) for l in model.layers])
        self.layers = [
            RawLayer(w, b, l.activation) for (w, b), l in zip(_layer_views(self.flat, model.layers), model.layers)
        ]
        self.grad = np.zeros_like(self.flat)
        self.grads = self.views(self.grad)

    @classmethod
    def from_model(cls, model: MlpModel) -> "RawNet":
        return cls(model)

    @property
    def input_dim(self) -> int:
        return int(self.layers[0].weights.shape[1])

    @property
    def output_dim(self) -> int:
        return int(self.layers[-1].weights.shape[0])

    def views(self, flat: np.ndarray) -> list:
        """Per-layer (weights, bias) views into a buffer laid out like ``flat``."""
        return _layer_views(flat, self.layers)

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()

    def to_model(self, params: np.ndarray | None = None) -> MlpModel:
        flat = self.flat if params is None else params
        layers = [
            Layer(weights=w.copy(), bias=b.copy(), activation=l.activation)
            for (w, b), l in zip(self.views(flat), self.layers)
        ]
        return MlpModel(layers=tuple(layers))


class RawAdam:
    """In-place Adam over a :class:`RawNet`; same recurrence as adam_step.

    ``m``, ``v`` and the parameters are updated in place, with two scratch
    vectors for the temporaries, so a step allocates nothing.
    """

    __slots__ = ("lr", "beta1", "beta2", "eps", "t", "m", "v", "_s", "_u")

    def __init__(self, net: RawNet, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)
        self._s = np.empty_like(net.flat)
        self._u = np.empty_like(net.flat)

    def step(self, net: RawNet, grad: np.ndarray) -> None:
        """One update from ``grad``, a flat gradient laid out like ``net.flat``."""
        s, u = self._s, self._u
        self.t += 1
        self.m *= self.beta1
        self.m += np.multiply(grad, 1.0 - self.beta1, out=s)
        self.v *= self.beta2
        np.multiply(grad, grad, out=s)
        s *= 1.0 - self.beta2
        self.v += s
        np.divide(self.m, 1.0 - self.beta1**self.t, out=u)
        u *= self.lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        u /= s
        net.flat -= u


def regress_nonlinear(model: MlpModel, f_anchor, dp) -> np.ndarray:
    """Regress a descriptor at a target pose from one anchor.

    Stacks the anchor descriptor with the 7-component relative pose and
    runs the regressor; the model input dim must equal descriptor dim + 7.
    """
    f_anchor = np.asarray(f_anchor, dtype=np.float64).reshape(-1)
    x = np.concatenate([f_anchor, dp.as_vector()])
    if x.shape[0] != model.input_dim:
        raise DimMismatch(
            f"stacked input length {x.shape[0]} does not match regressor input dim {model.input_dim}"
        )
    if model.output_dim != f_anchor.shape[0]:
        raise DimMismatch(
            f"regressor output dim {model.output_dim} does not match descriptor dim {f_anchor.shape[0]}"
        )
    return mlp_forward(model, x)


def regress_nonlinear_batch(model: MlpModel, f_anchors: np.ndarray, dp_vectors: np.ndarray) -> np.ndarray:
    """Vectorized :func:`regress_nonlinear` over stacked rows."""
    x = np.hstack([f_anchors, dp_vectors])
    if x.shape[1] != model.input_dim:
        raise DimMismatch(
            f"stacked input length {x.shape[1]} does not match regressor input dim {model.input_dim}"
        )
    y, _ = forward_batch(model, x)
    return y
