"""Network framework tests: GeLU, the flat-buffer model, gradients vs
finite differences, Adam, the in-place training step and its reused
buffers, the regressor architecture, encoder losses, and model files."""

import gc
import math
import struct
import threading
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copr.errors import (
    CoprError,
    DimMismatch,
    EmptyTrainingSet,
    InsufficientScenes,
    InvalidConfig,
    RefusedNonFinite,
    ShapeMismatch,
    ZeroVector,
)
from copr.geometry import Pose, RelativePose, quat_multiply
from copr.neural import (
    Activation,
    MlpModel,
    TrainConfig,
    init_mlp,
    load_model,
    save_model,
    training,
)
from copr.neural.core import (
    Layer,
    RawAdam,
    backward_batch,
    forward_batch,
    gelu,
    mse_batch_grad,
    regress_nonlinear_batch,
    regressor_input,
    splitmix64,
)
from copr.neural.losses import distance_grads, relative_grads, triplet_grads
from copr.neural.training import (
    ENCODER_VARIANTS,
    EncoderDataset,
    TrainingPairs,
    build_training_pairs,
    init_regressor,
    mse_over,
    regressor_widths,
    train_encoder,
    train_encoder_full,
    train_regressor,
    train_regressor_full,
)
from copr.vpr_map import ReferenceMap


def _with_identity_dq(dt) -> np.ndarray:
    """(n, 7) relative-pose rows of translations ``dt`` with no rotation."""
    dt = np.asarray(dt, dtype=np.float64).reshape(-1, 3)
    return np.hstack([dt, np.tile([1.0, 0.0, 0.0, 0.0], (len(dt), 1))])


def _translation_pairs(rows) -> TrainingPairs:
    """Training pairs from (f_anchor, dt, f_target) rows with no rotation."""
    f_anchor, dt, f_target = map(np.array, zip(*rows))
    return TrainingPairs(f_anchor, _with_identity_dq(dt), f_target)


def _noise_pairs() -> TrainingPairs:
    """60 regressor pairs of unlearnable noise (36 train, 24 validation)."""
    rng = np.random.default_rng(6)
    rows = []
    for _ in range(60):
        t1, t2 = rng.standard_normal((2, 3))
        rows.append((rng.standard_normal(3), t2 - t1, rng.standard_normal(3)))
    return _translation_pairs(rows)


def _gelu_reference(x: float) -> float:
    # High-precision tanh-form evaluation, independent of numpy.
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        inner = mpmath.sqrt(2 / mpmath.pi) * (xm + mpmath.mpf("0.044715") * xm**3)
        return float(mpmath.mpf("0.5") * xm * (1 + mpmath.tanh(inner)))


def _rand_model(rng, max_layers=3, max_dim=8):
    widths = [int(rng.integers(1, max_dim + 1)) for _ in range(int(rng.integers(1, max_layers + 1)) + 1)]
    acts = [Activation.GELU if rng.random() < 0.7 else Activation.IDENTITY for _ in widths[1:]]
    acts[-1] = Activation.IDENTITY
    model = init_mlp(widths, acts, int(rng.integers(0, 2**32)))
    # Give biases nonzero values so the gradient check exercises them.
    layers = [
        Layer(weights=l.weights, bias=rng.standard_normal(l.bias.shape[0]) * 0.3, activation=l.activation)
        for l in model.layers
    ]
    return MlpModel(layers=tuple(layers))


def _flatten_params(model):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.bias]) for l in model.layers])


def _model_with_params(model, flat):
    layers = []
    i = 0
    for l in model.layers:
        w = flat[i : i + l.weights.size].reshape(l.weights.shape)
        i += l.weights.size
        b = flat[i : i + l.bias.size]
        i += l.bias.size
        layers.append(Layer(weights=w, bias=b, activation=l.activation))
    return MlpModel(layers=tuple(layers))


def _flatten_grads(grads):
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def _trainable(model):
    """A private copy of ``model`` on a writable buffer, as the trainers make."""
    return model.on_buffer(model.flat.copy())


def _forward_one(model, x):
    """The model's output for one input vector: a one-row batch."""
    y, _ = forward_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return y[0]


def adam_reference(theta, m, v, g, lr, beta1, beta2, eps, t):
    """The Adam recurrence on one parameter array; returns (theta, m, v).

    m and v are the first and second moment running averages and t the
    1-based step count used for bias correction.
    """
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g**2
    theta = theta - lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    return theta, m, v


def gradient_check(model, x, target, h=1e-6, tol=1e-6) -> float:
    """Max relative error of analytic gradients vs central differences.

    Runs the gradient and loss pair training uses (``mse_batch_grad``,
    ``mse_over``) on a one-row batch. Relative error uses a unit floor:
    |g - g_fd| / max(1, |g|, |g_fd|).
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    target = np.asarray(target, dtype=np.float64).reshape(1, -1)
    analytic = _flatten_grads(mse_batch_grad(model, x, target))
    flat = _flatten_params(model)
    worst = 0.0
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += h
        lp = mse_over(_model_with_params(model, bumped), x, target, [0])
        bumped[i] -= 2 * h
        lm = mse_over(_model_with_params(model, bumped), x, target, [0])
        fd = (lp - lm) / (2 * h)
        err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]), abs(fd))
        worst = max(worst, err)
    return worst


class TestGelu:
    def test_zero(self):
        assert gelu(0.0) == 0.0

    def test_asymptote(self):
        assert abs(gelu(10.0) - 10.0) <= 1e-6

    def test_one_matches_high_precision(self):
        assert abs(float(gelu(1.0)) - _gelu_reference(1.0)) <= 1e-12
        assert abs(float(gelu(1.0)) - 0.841192) <= 5e-7

    def test_grid_matches_high_precision(self):
        for x in (-3.0, -1.0, -0.5, 0.25, 2.0, 7.5):
            assert abs(float(gelu(x)) - _gelu_reference(x)) <= 1e-12

    def test_monotone_on_non_negative_grid(self):
        xs = np.arange(0.0, 10.0 + 1e-9, 0.01)
        ys = gelu(xs)
        assert np.all(np.diff(ys) >= -1e-12)

    def test_has_a_dip_below_zero(self):
        # The tanh-form GeLU is not monotone left of its minimum near
        # x ~ -0.75: it decreases from -3 toward the dip.
        assert gelu(-3.0) > gelu(-1.0)
        assert gelu(-1.0) < 0.0


class TestForward:
    def test_zero_weights_zero_output(self):
        model = MlpModel(
            layers=(
                Layer(weights=np.zeros((3, 2)), bias=np.zeros(3), activation=Activation.GELU),
                Layer(weights=np.zeros((2, 3)), bias=np.zeros(2), activation=Activation.IDENTITY),
            )
        )
        np.testing.assert_array_equal(_forward_one(model, [1.0, -2.0]), [0.0, 0.0])

    def test_identity_layer_returns_input(self):
        model = MlpModel(
            layers=(Layer(weights=np.eye(4), bias=np.zeros(4), activation=Activation.IDENTITY),)
        )
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(_forward_one(model, x), x)

    def test_single_gelu_layer(self):
        model = MlpModel(
            layers=(Layer(weights=np.array([[1.0]]), bias=np.zeros(1), activation=Activation.GELU),)
        )
        np.testing.assert_allclose(_forward_one(model, [1.0]), [_gelu_reference(1.0)], atol=1e-12)

    def test_dim_mismatch(self):
        model = init_mlp([3, 2], [Activation.IDENTITY], 0)
        with pytest.raises(DimMismatch):
            _forward_one(model, [1.0, 2.0])

    def test_without_cache_drops_each_layer_once_consumed(self):
        # The 8-layer regressor on 4000 rows: holding every layer's z, tanh
        # and activation until the return peaks at 22x the input's bytes,
        # dropping them at 5x.
        model = init_regressor(32, 0)
        x = np.random.default_rng(4).standard_normal((4000, 39))
        cached, _ = forward_batch(model, x, keep_cache=True)
        tracemalloc.start()
        try:
            out, cache = forward_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cache is None
        np.testing.assert_array_equal(out, cached)
        assert peak <= 10 * x.nbytes

    def test_buffers_shared_across_layers_keep_the_bits(self):
        # Consecutive identity layers of one width: a pass that shared one
        # set of buffers across layers would read and write the same array.
        acts = [Activation.GELU, Activation.IDENTITY, Activation.IDENTITY, Activation.GELU, Activation.IDENTITY]
        model = init_mlp([6, 6, 6, 6, 6, 3], acts, 7)
        x = np.random.default_rng(5).standard_normal((50, 6))
        cached, _ = forward_batch(model, x, keep_cache=True)
        assert forward_batch(model, x)[0].tobytes() == cached.tobytes()


class TestFlatModel:
    """One model type: every parameter in one flat buffer, layers as views."""

    def test_models_compare_and_hash_by_identity(self):
        a, b = init_regressor(4, 0), init_regressor(4, 0)
        assert a == a and a != b
        assert len({a, b, a}) == 2 and len({a.layers[0], b.layers[0]}) == 2
        assert {a: 1}[a] == 1

    def test_layers_are_read_only_views_into_flat(self):
        model = _rand_model(np.random.default_rng(30), max_layers=4)
        assert model.flat.tobytes() == _flatten_params(model).tobytes()
        assert not model.flat.flags.writeable
        for layer in model.layers:
            assert np.shares_memory(layer.weights, model.flat)
            assert np.shares_memory(layer.bias, model.flat)
            assert not layer.weights.flags.writeable

    def test_construction_copies_the_given_arrays(self):
        w = np.ones((2, 3))
        model = MlpModel(layers=(Layer(weights=w, bias=np.zeros(2), activation=Activation.IDENTITY),))
        assert not np.shares_memory(model.flat, w)

    def test_on_buffer_shares_the_buffer(self):
        model = init_mlp([3, 4, 2], [Activation.GELU, Activation.IDENTITY], 5)
        net = _trainable(model)
        net.flat[:] += 1.0
        np.testing.assert_array_equal(net.layers[0].weights, model.layers[0].weights + 1.0)
        np.testing.assert_array_equal(net.layers[1].bias, model.layers[1].bias + 1.0)
        with pytest.raises(ShapeMismatch):
            model.on_buffer(np.zeros(model.flat.size + 1))

    def test_forward_through_views_matches_separate_arrays(self):
        # The same bits as per-layer arrays allocated one by one.
        model = init_regressor(32, seed=3)
        separate = SimpleNamespace(
            input_dim=model.input_dim,
            layers=[
                SimpleNamespace(weights=l.weights.copy(), bias=l.bias.copy(), activation=l.activation)
                for l in model.layers
            ],
        )
        rng = np.random.default_rng(32)
        for rows in (1, 7, 64, 3000):
            x = rng.standard_normal((rows, model.input_dim))
            assert forward_batch(model, x)[0].tobytes() == forward_batch(separate, x)[0].tobytes()

    def test_trained_model_is_read_only(self):
        rng = np.random.default_rng(31)
        pairs = _translation_pairs(
            [(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3)) for _ in range(20)]
        )
        model = train_regressor(pairs, TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=0), 3)
        assert not model.flat.flags.writeable
        with pytest.raises(ValueError):
            model.flat[0] = 0.0


class TestGradients:
    def test_zero_loss_zero_gradients(self):
        rng = np.random.default_rng(1)
        model = _rand_model(rng)
        x = rng.standard_normal((1, model.input_dim))
        target, _ = forward_batch(model, x)
        assert mse_over(model, x, target, [0]) == 0.0
        for gw, gb in mse_batch_grad(model, x, target):
            np.testing.assert_array_equal(gw, 0.0)
            np.testing.assert_array_equal(gb, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            model = _rand_model(rng)
            x = rng.standard_normal(model.input_dim)
            target = rng.standard_normal(model.output_dim)
            assert gradient_check(model, x, target) <= 1e-6

    def test_quadratic_scaling_for_linear_model(self):
        model = MlpModel(
            layers=(Layer(weights=np.array([[2.0, 1.0]]), bias=np.zeros(1), activation=Activation.IDENTITY),)
        )
        x = np.array([[1.0, 1.0]])
        y, _ = forward_batch(model, x)
        l1 = mse_over(model, x, y + 0.5, [0])
        l2 = mse_over(model, x, y + 1.0, [0])
        np.testing.assert_allclose(l2, 4.0 * l1, rtol=1e-12)


def _one_weight_model(w):
    return MlpModel(layers=(Layer(weights=np.array([[w]]), bias=np.zeros(1), activation=Activation.IDENTITY),))


class TestAdam:
    """RawAdam, the one optimizer, against the Adam recurrence."""

    def test_zero_gradient_is_identity(self):
        model = init_mlp([2, 2], [Activation.IDENTITY], 7)
        net = _trainable(model)
        opt = RawAdam(net, 5e-4)
        for step in range(5):
            opt.step(net, np.zeros_like(net.flat))
            assert opt.t == step + 1
        assert net.flat.tobytes() == model.flat.tobytes()

    def test_first_step_hand_recurrence(self):
        lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
        net = _trainable(_one_weight_model(1.0))
        RawAdam(net, lr).step(net, np.array([1.0, 0.0]))
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        expected = 1.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        assert abs(net.layers[0].weights[0, 0] - expected) <= 1e-12
        assert abs((net.layers[0].weights[0, 0] - 1.0) + lr / (1 + eps)) <= 1e-12

    def test_two_steps_hand_recurrence(self):
        lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
        net = _trainable(_one_weight_model(0.5))
        opt = RawAdam(net, lr)
        g = 0.7
        theta, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            opt.step(net, np.array([g, 0.0]))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            assert abs(net.layers[0].weights[0, 0] - theta) <= 1e-12

    def test_raw_adam_matches_hand_recurrence(self):
        # Several steps with changing gradients, per layer array.
        lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(8)
        model = _rand_model(rng)
        net = _trainable(model)
        opt = RawAdam(net, lr)
        states = [[[l.weights, 0.0, 0.0], [l.bias, 0.0, 0.0]] for l in model.layers]
        for t in range(1, 6):
            grad = rng.standard_normal(net.flat.shape)
            opt.step(net, grad)
            for layer, layer_states, layer_grads in zip(net.layers, states, net.views(grad)):
                for state, g, actual in zip(layer_states, layer_grads, (layer.weights, layer.bias)):
                    state[:] = adam_reference(*state, g, lr, b1, b2, eps, t)
                    np.testing.assert_allclose(actual, state[0], rtol=0, atol=1e-12)

    def test_gradient_views_cover_the_flat_gradient(self):
        model = _rand_model(np.random.default_rng(9))
        opt = RawAdam(_trainable(model), 1e-3)
        for (gw, gb), layer in zip(opt.grads, model.layers):
            assert gw.shape == layer.weights.shape and gb.shape == layer.bias.shape
            assert np.shares_memory(gw, opt.grad) and np.shares_memory(gb, opt.grad)
        assert sum(gw.size + gb.size for gw, gb in opt.grads) == opt.grad.size

    def test_non_positive_learning_rate_is_typed(self):
        net = _trainable(init_mlp([2, 2], [Activation.IDENTITY], 0))
        for lr in (0.0, -1e-3, math.nan):
            with pytest.raises(InvalidConfig):
                RawAdam(net, lr)

    def test_read_only_model_is_refused(self):
        with pytest.raises(InvalidConfig):
            RawAdam(init_mlp([2, 2], [Activation.IDENTITY], 0), 1e-3)


class TestTrainingStep:
    """The in-place step the regressor trainer runs: gradients written into
    the optimizer's flat buffer."""

    def test_flat_gradients_match_backward_bitwise(self):
        rng = np.random.default_rng(21)
        model = _rand_model(rng, max_layers=4)
        x = rng.standard_normal((9, model.input_dim))
        t = rng.standard_normal((9, model.output_dim))
        net = _trainable(model)
        opt = RawAdam(net, 1e-3)
        mse_batch_grad(net, x, t, grads=opt.grads)
        y, cache = forward_batch(model, x, keep_cache=True)
        grads, _ = backward_batch(model, cache, 2.0 * (y - t) / y.size)
        assert opt.grad.tobytes() == _flatten_grads(grads).tobytes()

    def test_flat_gradients_match_central_differences(self):
        rng = np.random.default_rng(22)
        h = 1e-6
        for _ in range(5):
            model = _rand_model(rng)
            x = rng.standard_normal((6, model.input_dim))
            t = rng.standard_normal((6, model.output_dim))
            net = _trainable(model)
            opt = RawAdam(net, 1e-3)
            mse_batch_grad(net, x, t, grads=opt.grads)
            flat = _flatten_params(model)
            rows = np.arange(len(x))
            for i in range(len(flat)):
                bumped = flat.copy()
                bumped[i] += h
                lp = mse_over(_model_with_params(model, bumped), x, t, rows)
                bumped[i] -= 2 * h
                lm = mse_over(_model_with_params(model, bumped), x, t, rows)
                fd = (lp - lm) / (2 * h)
                assert abs(opt.grad[i] - fd) / max(1.0, abs(opt.grad[i]), abs(fd)) <= 1e-6

    def test_returned_arrays_survive_later_calls(self):
        rng = np.random.default_rng(24)
        model = init_regressor(8, seed=5)
        anchors, dps = rng.standard_normal((2, 16, 8)), rng.standard_normal((2, 16, 7))
        first = regress_nonlinear_batch(model, anchors[0], dps[0])
        kept = first.copy()
        regress_nonlinear_batch(model, anchors[1], dps[1])
        assert first.tobytes() == kept.tobytes()

        x = rng.standard_normal((2, 16, model.input_dim))
        y, cache = forward_batch(model, x[0], keep_cache=True)
        grads, d_in = backward_batch(model, cache, np.ones_like(y))
        held = [a.copy() for a in (y, d_in, *cache[0], *cache[1], *(g for pair in grads for g in pair))]
        y2, cache2 = forward_batch(model, x[1], keep_cache=True)
        backward_batch(model, cache2, np.ones_like(y2))
        now = [y, d_in, *cache[0], *cache[1], *(g for pair in grads for g in pair)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(held, now))


class TestRegressor:
    def test_architecture_widths(self):
        assert regressor_widths(8) == [15, 15, 15, 15, 15, 15, 15, 15, 8]
        assert regressor_widths(512)[0] == 512 + 7

    def test_init_architecture(self):
        model = init_regressor(8, seed=0)
        assert model.layer_widths() == [15, 15, 15, 15, 15, 15, 15, 15, 8]
        assert all(l.activation is Activation.GELU for l in model.layers[:-1])
        assert model.layers[-1].activation is Activation.IDENTITY

    def test_stacked_input_length(self):
        f = np.zeros((1, 512))
        dp = RelativePose(dt=[0, 0, 0], dq=[1, 0, 0, 0])
        x = regressor_input(f, dp.as_vector()[None])
        assert x.shape == (1, 519)
        np.testing.assert_array_equal(x[0, 512:], dp.as_vector())

    def test_zero_weight_model_regresses_zero(self):
        widths = regressor_widths(4)
        layers = tuple(
            Layer(
                weights=np.zeros((widths[i + 1], widths[i])),
                bias=np.zeros(widths[i + 1]),
                activation=Activation.GELU if i < 7 else Activation.IDENTITY,
            )
            for i in range(8)
        )
        model = MlpModel(layers=layers)
        dp = RelativePose(dt=[1, 0, 0], dq=[1, 0, 0, 0])
        out = regress_nonlinear_batch(model, np.ones((1, 4)), dp.as_vector()[None])
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_dim_mismatch(self):
        model = init_regressor(4, seed=0)
        dp = RelativePose(dt=[0, 0, 0], dq=[1, 0, 0, 0])
        with pytest.raises(DimMismatch):
            regress_nonlinear_batch(model, np.ones((1, 5)), dp.as_vector()[None])
        wide = init_mlp([11, 5], [Activation.IDENTITY], 0)
        with pytest.raises(DimMismatch):
            regress_nonlinear_batch(wide, np.ones((1, 4)), dp.as_vector()[None])

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf])
    def test_config_refuses_a_non_finite_lr(self, lr):
        with pytest.raises(InvalidConfig, match="lr must be finite"):
            TrainConfig(lr=lr)

    def test_empty_training_set(self):
        empty = TrainingPairs(np.zeros((0, 4)), np.zeros((0, 7)), np.zeros((0, 4)))
        with pytest.raises(EmptyTrainingSet):
            train_regressor(empty, TrainConfig(seed=0), 4)

    def test_validation_improves_and_affine_learnable(self):
        rng = np.random.default_rng(55)
        n = 4
        a = rng.standard_normal((n, 3)) * 0.5
        b = rng.standard_normal(n)

        def field(t):
            return a @ t + b

        rows = []
        for _ in range(600):
            t1 = rng.uniform(-1, 1, 3)
            t2 = t1 + rng.uniform(-0.5, 0.5, 3)
            rows.append((field(t1), t2 - t1, field(t2)))
        pairs = _translation_pairs(rows)
        cfg = TrainConfig(lr=5e-3, epochs=300, batch_size=32, seed=9, validation_fraction=0.4, early_stop_patience=50)
        res = train_regressor_full(pairs, cfg, n)
        assert res.best_val_loss < res.initial_val_loss
        held = []
        for _ in range(100):
            t1 = rng.uniform(-1, 1, 3)
            t2 = t1 + rng.uniform(-0.5, 0.5, 3)
            pred = regress_nonlinear_batch(res.model, field(t1)[None], _with_identity_dq(t2 - t1))[0]
            held.append(np.mean((pred - field(t2)) ** 2))
        assert float(np.mean(held)) <= 1e-3

    def test_training_is_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(50):
            t1, t2 = rng.standard_normal((2, 3))
            rows.append((rng.standard_normal(3), t2 - t1, rng.standard_normal(3)))
        pairs = _translation_pairs(rows)
        cfg = TrainConfig(lr=1e-3, epochs=5, batch_size=8, seed=42, validation_fraction=0.4, early_stop_patience=5)
        m1 = train_regressor(pairs, cfg, 3)
        m2 = train_regressor(pairs, cfg, 3)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert l1.weights.tobytes() == l2.weights.tobytes()
            assert l1.bias.tobytes() == l2.bias.tobytes()

    def test_result_records_epochs_and_stop_reason(self):
        pairs = _noise_pairs()
        full = train_regressor_full(pairs, TrainConfig(lr=1e-3, epochs=3, batch_size=8, seed=1, early_stop_patience=5), 3)
        assert (full.epochs_run, full.stop_reason) == (3, "max_epochs")
        # Unlearnable noise at a huge step size: validation stops improving.
        cfg = TrainConfig(lr=1.0, epochs=50, batch_size=8, seed=1, early_stop_patience=2)
        stopped = train_regressor_full(pairs, cfg, 3)
        assert stopped.stop_reason == "early_stop"
        assert cfg.early_stop_patience <= stopped.epochs_run < cfg.epochs


def _map(descriptors, translations, quaternions) -> ReferenceMap:
    n = len(translations)
    return ReferenceMap(tuple(f"a{i}" for i in range(n)), np.asarray(descriptors), translations, quaternions)


class TestBuildTrainingPairs:
    def test_cap_and_count(self):
        m = _map(np.arange(5.0)[:, None], np.c_[np.arange(5.0), np.zeros((5, 2))], np.tile([1.0, 0, 0, 0], (5, 1)))
        pairs = build_training_pairs(m, max_translation=1.5, max_pairs=100, seed=0)
        # Ordered pairs at distance 1.0 only: (i, i+1) and (i+1, i).
        assert len(pairs) == 8
        assert np.all(np.linalg.norm(pairs.dp[:, :3], axis=1) <= 1.5)

    def test_subsampling_deterministic(self):
        rng = np.random.default_rng(8)
        draws = [(rng.standard_normal(2), rng.standard_normal(3)) for _ in range(30)]
        m = _map([d for d, _ in draws], [t for _, t in draws], np.tile([1.0, 0, 0, 0], (30, 1)))
        p1 = build_training_pairs(m, 10.0, 50, seed=4)
        p2 = build_training_pairs(m, 10.0, 50, seed=4)
        assert len(p1) == 50
        for block in ("f_anchor", "dp", "f_target"):
            assert getattr(p1, block).tobytes() == getattr(p2, block).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 25), st.integers(1, 400))
    def test_rows_equal_the_per_pair_construction_bitwise(self, seed, n, max_pairs):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        poses = [Pose(t=rng.standard_normal(3), q=rng.standard_normal(4)) for _ in range(n)]
        m = _map([rng.standard_normal(dim) for _ in poses], [p.t for p in poses], [p.q for p in poses])
        cap = float(rng.uniform(0.5, 3.0))
        # The per-pair construction the blocks replaced: every ordered pair
        # within the cap, a seeded subsample of them, and one
        # concatenate(f_anchor, dp) row each, dp the RelativePose of the
        # translation gap and the raw Hamilton product conj(q_a) * q_b.
        dist = [[np.linalg.norm(t_a - t_b) for t_b in m.translations] for t_a in m.translations]
        kept = [(a, b) for a in range(n) for b in range(n) if a != b and dist[a][b] <= cap]
        if not kept:
            with pytest.raises(EmptyTrainingSet):
                build_training_pairs(m, cap, max_pairs, seed=seed)
            return
        pairs = build_training_pairs(m, cap, max_pairs, seed=seed)
        if len(kept) > max_pairs:
            keep = np.sort(np.random.default_rng(seed).choice(len(kept), size=max_pairs, replace=False))
            kept = [kept[k] for k in keep]
        x = []
        for a, b in kept:
            pa, pb = poses[a], poses[b]
            dq = quat_multiply(pa.q * [1, -1, -1, -1], pb.q)
            x.append(np.concatenate([m.descriptors[a], RelativePose(dt=pb.t - pa.t, dq=dq).as_vector()]))
        y = [m.descriptors[b] for _, b in kept]
        assert len(pairs) == len(kept)
        assert regressor_input(pairs.f_anchor, pairs.dp).tobytes() == np.array(x).tobytes()
        assert pairs.f_target.tobytes() == np.array(y).tobytes()

    def test_blocks_must_align(self):
        ok = TrainingPairs(np.zeros((3, 2)), np.zeros((3, 7)), np.zeros((3, 2)))
        assert len(ok) == 3 and ok
        for f_anchor, dp, f_target in (
            (np.zeros((3, 2)), np.zeros((3, 6)), np.zeros((3, 2))),
            (np.zeros((3, 2)), np.zeros((2, 7)), np.zeros((3, 2))),
            (np.zeros((3, 2)), np.zeros((3, 7)), np.zeros((3, 3))),
            (np.zeros(3), np.zeros((3, 7)), np.zeros(3)),
        ):
            with pytest.raises(DimMismatch):
                TrainingPairs(f_anchor, dp, f_target)
        with pytest.raises(DimMismatch):
            train_regressor(ok, TrainConfig(epochs=1), 3)


def _central_differences(loss, arrays, h=1e-6):
    """dLoss/dArray for each array by central differences, one entry at a time."""
    out = []
    for a in arrays:
        g = np.empty_like(a)
        for idx in np.ndindex(a.shape):
            keep = a[idx]
            a[idx] = keep + h
            lp = loss()
            a[idx] = keep - h
            lm = loss()
            a[idx] = keep
            g[idx] = (lp - lm) / (2 * h)
        out.append(g)
    return out


def _unit_pair_with_chord(chord, dim=4):
    # Two unit vectors at exactly the requested Euclidean chord length.
    theta = 2.0 * math.asin(chord / 2.0)
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[0] = math.cos(theta)
    v[1] = math.sin(theta)
    return u, v


class TestLosses:
    """The batched losses encoder training runs: one-row values against hand
    values, properties over batches, and gradients against central differences."""

    def test_triplet_satisfied_margin_zero(self):
        q, n = _unit_pair_with_chord(0.8)
        loss, gq, gp, gn = triplet_grads(q[None], q[None], n[None], margin=0.3)
        assert loss == 0.0
        for g in (gq, gp, gn):
            np.testing.assert_array_equal(g, 0.0)

    def test_triplet_hand_value(self):
        q, p = _unit_pair_with_chord(0.5)
        _, n = _unit_pair_with_chord(0.4)
        # Scaling inputs must not matter: the loss normalizes internally.
        rows = np.array([[1.0], [3.0], [0.25]])
        loss = triplet_grads(rows * q, rows * p, rows[::-1] * 7.0 * n, margin=0.3)[0]
        np.testing.assert_allclose(loss, 0.5 - 0.4 + 0.3, atol=1e-12)

    def test_triplet_equal_pos_neg_gives_margin(self):
        q, p = _unit_pair_with_chord(0.7)
        assert triplet_grads(q[None], p[None], p[None].copy(), margin=0.3)[0] == pytest.approx(0.3, abs=1e-15)

    def test_triplet_zero_vector(self):
        f = np.ones((2, 3))
        z = f.copy()
        z[1] = 0.0
        with pytest.raises(ZeroVector):
            triplet_grads(z, f, f, margin=0.3)
        with pytest.raises(DimMismatch):
            triplet_grads(f, f, np.ones((2, 4)), margin=0.3)

    def test_relative_zero_and_unit(self):
        v = np.arange(14.0).reshape(2, 7)
        loss, g = relative_grads(v, v.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(g, 0.0)
        e = np.zeros((2, 7))
        e[0, 0] = 1.0
        e[1, 6] = -1.0
        assert relative_grads(v + e, v)[0] == 1.0

    def test_relative_hand_norm(self):
        v = np.zeros((3, 7))
        np.testing.assert_allclose(relative_grads(v + 0.1, v)[0], math.sqrt(7 * 0.01), atol=1e-12)

    def test_relative_length_check(self):
        with pytest.raises(DimMismatch):
            relative_grads(np.zeros((2, 6)), np.zeros((2, 6)))
        with pytest.raises(DimMismatch):
            relative_grads(np.zeros((2, 7)), np.zeros((3, 7)))

    def test_distance_cases(self):
        f = np.array([[1.0, 0.0]])
        t = np.zeros((1, 3))
        assert distance_grads(f, f.copy(), t, t.copy())[0] == 0.0
        d = distance_grads(np.array([[0.5, 0.0]]), np.zeros((1, 2)), t, np.array([[0.2, 0.0, 0.0]]))[0]
        np.testing.assert_allclose(d, 0.3, atol=1e-12)
        with pytest.raises(DimMismatch):
            distance_grads(np.zeros((1, 2)), np.zeros((1, 3)), t, t)

    def test_distance_symmetric_in_pairs(self):
        rng = np.random.default_rng(6)
        f1, f2 = rng.standard_normal((2, 4, 5))
        t1, t2 = rng.standard_normal((2, 4, 3))
        l12, g1, g2 = distance_grads(f1, f2, t1, t2)
        l21, h2, h1 = distance_grads(f2, f1, t2, t1)
        assert l12 == l21
        np.testing.assert_array_equal(g1, h1)
        np.testing.assert_array_equal(g2, h2)

    @settings(max_examples=80)
    @given(st.integers(0, 2**31 - 1))
    def test_losses_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((3, 5, 4)) + 0.01
        t = rng.standard_normal((2, 5, 3))
        assert triplet_grads(f[0], f[1], f[2], margin=0.3)[0] >= 0.0
        assert relative_grads(rng.standard_normal((5, 7)), rng.standard_normal((5, 7)))[0] >= 0.0
        assert distance_grads(f[0], f[1], t[0], t[1])[0] >= 0.0

    def test_triplet_gradients_match_central_differences(self):
        rng = np.random.default_rng(40)
        f = rng.standard_normal((3, 16, 4))
        raw = _triplet_raw(f, 0.3)
        # Rows on both sides of the hinge, none near its kink.
        f = f[:, np.abs(raw) > 1e-3]
        assert np.any(raw > 1e-3) and np.any(raw < -1e-3)
        analytic = triplet_grads(f[0], f[1], f[2], 0.3)[1:]
        numeric = _central_differences(lambda: triplet_grads(f[0], f[1], f[2], 0.3)[0], f)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, rtol=0, atol=1e-7)

    def test_relative_gradients_match_central_differences(self):
        rng = np.random.default_rng(41)
        dp_hat, dp_gt = rng.standard_normal((2, 8, 7))
        (numeric,) = _central_differences(lambda: relative_grads(dp_hat, dp_gt)[0], [dp_hat])
        np.testing.assert_allclose(relative_grads(dp_hat, dp_gt)[1], numeric, rtol=0, atol=1e-7)

    def test_distance_gradients_match_central_differences(self):
        rng = np.random.default_rng(42)
        f = rng.standard_normal((2, 16, 5))
        t = rng.standard_normal((2, 16, 3))
        gap = np.linalg.norm(f[0] - f[1], axis=1) - np.linalg.norm(t[0] - t[1], axis=1)
        # Rows on both sides of the |gap| kink, none near it.
        f = f[:, np.abs(gap) > 1e-3]
        t = t[:, np.abs(gap) > 1e-3]
        assert np.any(gap > 1e-3) and np.any(gap < -1e-3)
        _, g1, g2 = distance_grads(f[0], f[1], t[0], t[1])
        numeric = _central_differences(lambda: distance_grads(f[0], f[1], t[0], t[1])[0], f)
        for a, n in zip((g1, g2), numeric):
            np.testing.assert_allclose(a, n, rtol=0, atol=1e-7)


def _triplet_raw(f, margin):
    u = f / np.linalg.norm(f, axis=2, keepdims=True)
    return np.linalg.norm(u[0] - u[1], axis=1) - np.linalg.norm(u[0] - u[2], axis=1) + margin


def _toy_dataset(n_scenes=2, per_scene=12, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    obs, ts, qs, labels = [], [], [], []
    for s in range(n_scenes):
        center = np.array([10.0 * s, 0.0, 0.0])
        for _ in range(per_scene):
            t = center + rng.uniform(-1, 1, 3)
            obs.append(np.concatenate([t * 0.5 + s, rng.normal(0, 0.1, 4 * dim - 3)]))
            ts.append(t)
            qs.append([1.0, 0.0, 0.0, 0.0])
            labels.append(s)
    return EncoderDataset(
        observations=np.asarray(obs),
        translations=np.asarray(ts),
        quaternions=np.asarray(qs),
        labels=tuple(labels),
        descriptor_dim=dim,
    )


class TestTrainEncoder:
    def test_unknown_variant(self):
        with pytest.raises(InvalidConfig):
            train_encoder(_toy_dataset(), "contrastive", TrainConfig(lr=1e-3, epochs=2, seed=0))

    def test_triplet_needs_two_scenes(self):
        with pytest.raises(InsufficientScenes):
            train_encoder(_toy_dataset(n_scenes=1), "triplet", TrainConfig(lr=1e-3, epochs=2, seed=0))

    def test_each_variant_improves_validation(self):
        ds = _toy_dataset()
        for variant, lr in (("triplet", 1e-3), ("relative", 1e-3), ("distance", 1e-3)):
            cfg = TrainConfig(lr=lr, epochs=12, batch_size=16, seed=1, validation_fraction=0.4, early_stop_patience=12)
            res = train_encoder_full(ds, variant, cfg)
            assert res.best_val_loss < res.initial_val_loss, variant
            assert res.model.output_dim == ds.descriptor_dim
            assert res.model.input_dim == ds.observation_dim

    def test_result_records_epochs_and_stop_reason(self):
        ds = _toy_dataset()
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=16, seed=1, early_stop_patience=5)
        full = train_encoder_full(ds, "distance", cfg)
        assert (full.epochs_run, full.stop_reason) == (2, "max_epochs")
        cfg = TrainConfig(lr=1.0, epochs=50, batch_size=16, seed=1, early_stop_patience=2)
        stopped = train_encoder_full(ds, "relative", cfg)
        assert stopped.stop_reason == "early_stop"
        assert cfg.early_stop_patience <= stopped.epochs_run < cfg.epochs

    def test_non_finite_observations_are_typed(self):
        ds = _toy_dataset()
        obs = ds.observations.copy()
        obs[0, 0] = np.nan
        with pytest.raises(RefusedNonFinite):
            EncoderDataset(obs, ds.translations, ds.quaternions, ds.labels, ds.descriptor_dim)

    @pytest.mark.parametrize(
        "variant, error, message",
        [
            ("triplet", InsufficientScenes, "no scene has two observations to form a positive pair"),
            ("relative", EmptyTrainingSet, "no scene has two observations to pair"),
            ("distance", EmptyTrainingSet, "no scene has two observations to pair"),
        ],
    )
    def test_scenes_of_one_observation_are_refused(self, variant, error, message):
        ds = _toy_dataset(n_scenes=3, per_scene=1)
        with pytest.raises(error, match=f"^{message}$"):
            train_encoder(ds, variant, TrainConfig(lr=1e-3, epochs=2, seed=0))

    @pytest.mark.parametrize("variant", ENCODER_VARIANTS)
    def test_bitwise_deterministic(self, variant):
        ds = _toy_dataset()
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=16, seed=11, validation_fraction=0.4, early_stop_patience=3)
        m1 = train_encoder(ds, variant, cfg)
        m2 = train_encoder(ds, variant, cfg)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert l1.weights.tobytes() == l2.weights.tobytes()
            assert l1.bias.tobytes() == l2.bias.tobytes()


_fit = training._fit  # the loop itself, for tests that wrap its arguments

# One config per stop reason; each of the four trainers ends by it.
_FIT_CONFIGS = {
    "max_epochs": TrainConfig(lr=1e-3, epochs=4, batch_size=64, seed=3, early_stop_patience=10),
    "early_stop": TrainConfig(lr=0.3, epochs=40, batch_size=64, seed=1, early_stop_patience=3),
}


def _fit_counting_batches(monkeypatch, kind, cfg, batches, val_loss_wrapper=None):
    """Train ``kind`` (the regressor or an encoder variant) under ``cfg``,
    appending one to ``batches`` per ``batch_grads`` call."""

    def fit(n, cfg, rng, trained, batch_grads, val_loss):
        def counted(rows):
            batches.append(1)
            return batch_grads(rows)

        return _fit(n, cfg, rng, trained, counted, val_loss_wrapper(val_loss) if val_loss_wrapper else val_loss)

    monkeypatch.setattr(training, "_fit", fit)
    if kind == "regressor":
        return train_regressor_full(_noise_pairs(), cfg, 3)
    return train_encoder_full(_toy_dataset(), kind, cfg)


class TestValidation:
    """The loop scores the validation rows once before training and once per
    epoch, on the calling thread, stops by its rule after whole epochs and
    returns the best-scoring snapshot."""

    @pytest.mark.parametrize("stop", sorted(_FIT_CONFIGS))
    @pytest.mark.parametrize("kind", ("regressor", *ENCODER_VARIANTS))
    def test_stops_by_its_rule_after_whole_epochs(self, monkeypatch, kind, stop):
        cfg = _FIT_CONFIGS[stop]
        batches, scored = [], []

        def recording(val_loss):
            def score(rows):
                scored.append(val_loss(rows))
                return scored[-1]

            return score

        result = _fit_counting_batches(monkeypatch, kind, cfg, batches, recording)
        assert result.stop_reason == stop
        assert list(result.val_curve) == scored
        assert len(result.val_curve) == result.epochs_run + 1
        assert result.initial_val_loss == result.val_curve[0]
        assert result.best_val_loss == min(result.val_curve)
        best = result.val_curve.index(result.best_val_loss)
        if stop == "early_stop":
            assert result.epochs_run < cfg.epochs
            assert best == result.epochs_run - cfg.early_stop_patience
        else:
            assert result.epochs_run == cfg.epochs
            assert result.epochs_run - best < cfg.early_stop_patience
        n = len(_noise_pairs()) if kind == "regressor" else training._ENCODER_POOL
        n_train = n - round(cfg.validation_fraction * n)
        per_epoch = math.ceil(n_train / cfg.batch_size)
        assert len(batches) == result.epochs_run * per_epoch

    @pytest.mark.parametrize("stop", sorted(_FIT_CONFIGS))
    def test_returns_the_snapshot_that_scored_best(self, monkeypatch, stop):
        val_rows = []

        def recording(val_loss):
            def score(rows):
                val_rows.append(rows)
                return val_loss(rows)

            return score

        pairs = _noise_pairs()
        result = _fit_counting_batches(monkeypatch, "regressor", _FIT_CONFIGS[stop], [], recording)
        x = training.regressor_input(pairs.f_anchor, pairs.dp)
        assert mse_over(result.model, x, pairs.f_target, val_rows[0]) == result.best_val_loss

    def test_validation_runs_on_the_calling_thread(self, monkeypatch):
        scoring_threads = set()

        def recording(val_loss):
            def score(rows):
                scoring_threads.add(threading.get_ident())
                return val_loss(rows)

            return score

        _fit_counting_batches(monkeypatch, "regressor", _FIT_CONFIGS["max_epochs"], [], recording)
        assert scoring_threads == {threading.get_ident()}

    @pytest.mark.parametrize("kind", ("regressor", *ENCODER_VARIANTS))
    def test_training_state_is_freed_without_the_cycle_collector(self, kind):
        # State left to the cycle collector keeps the fit's data and buffers
        # alive after it returns, which raises peak memory.
        gc.collect()
        gc.disable()
        try:
            if kind == "regressor":
                train_regressor_full(_noise_pairs(), _FIT_CONFIGS["max_epochs"], 3)
            else:
                train_encoder_full(_toy_dataset(), kind, _FIT_CONFIGS["max_epochs"])
            assert not [o for o in gc.get_objects() if isinstance(o, RawAdam)]
        finally:
            gc.enable()

    def test_failing_validation_raises_its_own_error(self, monkeypatch):
        def failing_after_the_first(val_loss):
            calls = []

            def score(rows):
                calls.append(1)
                if len(calls) == 2:
                    raise RefusedNonFinite("validation loss failed")
                return val_loss(rows)

            return score

        with pytest.raises(RefusedNonFinite, match="validation loss failed"):
            _fit_counting_batches(monkeypatch, "regressor", _FIT_CONFIGS["max_epochs"], [], failing_after_the_first)


class TestModelIo:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_regressor(4, seed=99)
        path = tmp_path / "h.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert len(loaded.layers) == len(model.layers)
        for l1, l2 in zip(loaded.layers, model.layers):
            assert l1.activation == l2.activation
            np.testing.assert_array_equal(
                l1.weights.astype("<f4").tobytes(), l2.weights.astype("<f4").tobytes()
            )
        save_model(loaded, tmp_path / "h2.bin")
        assert (tmp_path / "h2.bin").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"XXXX" + b"\x00" * 8)
        from copr.errors import BadMagic

        with pytest.raises(BadMagic):
            load_model(tmp_path / "bad.bin")

    def test_truncated(self, tmp_path):
        model = init_regressor(2, seed=1)
        path = tmp_path / "h.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        from copr.errors import ParseError

        with pytest.raises(ParseError):
            load_model(path)

    def test_zero_layers_is_typed(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(struct.pack("<4sII", b"CPRM", 1, 0))
        with pytest.raises(InvalidConfig):
            load_model(path)

    def test_nan_weight_is_typed(self, tmp_path):
        path = tmp_path / "h.bin"
        save_model(init_regressor(2, seed=1), path)
        blob = bytearray(path.read_bytes())
        # First weight of the first layer, after the file and layer headers.
        blob[24:28] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(RefusedNonFinite) as caught:
            load_model(path)
        assert isinstance(caught.value, CoprError)

    @pytest.mark.parametrize("in_dim, out_dim", [(5, 0), (0, 5), (0, 0)])
    def test_zero_width_layer_is_typed(self, tmp_path, in_dim, out_dim):
        path = tmp_path / "h.bin"
        header = struct.pack("<4sII", b"CPRM", 1, 1) + struct.pack("<III", in_dim, out_dim, 1)
        path.write_bytes(header + bytes(4 * (in_dim * out_dim + out_dim)))
        with pytest.raises(ShapeMismatch):
            load_model(path)
        with pytest.raises(ShapeMismatch):
            Layer(weights=np.zeros((out_dim, in_dim)), bias=np.zeros(out_dim), activation=Activation.IDENTITY)


_FUZZ_MODEL = init_mlp([3, 4, 2], [Activation.GELU, Activation.IDENTITY], seed=7)


class TestCorruptedModelFuzz:
    """A corrupted model file loads as a valid model or raises a CoprError."""

    def _load(self, path):
        try:
            model = load_model(path)
        except CoprError:
            return
        widths = model.layer_widths()
        assert all(w > 0 for w in widths)
        for layer, (w_in, w_out) in zip(model.layers, zip(widths, widths[1:])):
            assert layer.weights.shape == (w_out, w_in) and layer.bias.shape == (w_out,)
            assert np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), min_size=1, max_size=6), st.integers(-12, 12))
    def test_corrupted_bytes(self, tmp_path_factory, edits, resize):
        path = tmp_path_factory.mktemp("model") / "h.bin"
        save_model(_FUZZ_MODEL, path)
        blob = bytearray(path.read_bytes())
        for offset, value in edits:
            blob[offset % len(blob)] = value
        blob = blob[: len(blob) + resize] if resize < 0 else blob + bytes(resize)
        path.write_bytes(bytes(blob))
        self._load(path)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.sampled_from([0, 1, 2, 3, 4, 5, 7, 2**31, 2**32 - 1]), st.integers(0, 40))
    def test_corrupted_header_fields(self, tmp_path_factory, field, value, keep):
        # Fields: layer count, then the first layer's in dim, out dim and
        # activation code; the file may also lose its tail.
        path = tmp_path_factory.mktemp("model") / "h.bin"
        save_model(_FUZZ_MODEL, path)
        blob = bytearray(path.read_bytes())
        offset = (8, 12, 16, 20)[field]
        blob[offset : offset + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(blob[: len(blob) - keep]))
        self._load(path)


class TestInit:
    def test_splitmix_deterministic(self):
        v1, s1 = splitmix64(12345)
        v2, s2 = splitmix64(12345)
        assert v1 == v2 and s1 == s2
        assert 0 <= v1 < 2**64

    def test_glorot_limits(self):
        model = init_mlp([10, 20], [Activation.IDENTITY], seed=5)
        limit = math.sqrt(6.0 / 30.0)
        assert np.all(np.abs(model.layers[0].weights) <= limit)
        np.testing.assert_array_equal(model.layers[0].bias, 0.0)

    def test_same_seed_same_weights(self):
        a = init_mlp([4, 3, 2], [Activation.GELU, Activation.IDENTITY], seed=77)
        b = init_mlp([4, 3, 2], [Activation.GELU, Activation.IDENTITY], seed=77)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
