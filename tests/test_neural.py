"""Network framework tests: GeLU, gradients vs finite differences, Adam,
the in-place training step and its reused buffers, the regressor
architecture, encoder losses, and model files."""

import math
import struct
import tracemalloc

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
    ZeroVector,
)
from copr.geometry import RelativePose
from copr.neural import (
    Activation,
    MlpModel,
    TrainConfig,
    adam_step,
    gelu,
    init_adam,
    init_mlp,
    load_model,
    loss_distance,
    loss_relative,
    loss_triplet,
    mlp_forward,
    mlp_grad,
    regress_nonlinear,
    save_model,
)
from copr.neural.core import (
    Layer,
    RawAdam,
    RawNet,
    Workspace,
    adam_update_arrays,
    backward_batch,
    forward_batch,
    mse_batch_grad,
    regress_nonlinear_batch,
    splitmix64,
)
from copr.neural.training import (
    EncoderDataset,
    build_training_pairs,
    init_regressor,
    regressor_widths,
    train_encoder,
    train_encoder_full,
    train_regressor,
    train_regressor_full,
)
from copr.vpr_map import Origin, ReferenceMap
from copr.geometry import Pose


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


def gradient_check(model, x, target, h=1e-6, tol=1e-6) -> float:
    """Max relative error of analytic gradients vs central differences.

    Relative error uses a unit floor: |g - g_fd| / max(1, |g|, |g_fd|).
    """
    _, grads = mlp_grad(model, x, target)
    analytic = _flatten_grads(grads)
    flat = _flatten_params(model)
    worst = 0.0
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += h
        lp, _ = mlp_grad(_model_with_params(model, bumped), x, target)
        bumped[i] -= 2 * h
        lm, _ = mlp_grad(_model_with_params(model, bumped), x, target)
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
        np.testing.assert_array_equal(mlp_forward(model, [1.0, -2.0]), [0.0, 0.0])

    def test_identity_layer_returns_input(self):
        model = MlpModel(
            layers=(Layer(weights=np.eye(4), bias=np.zeros(4), activation=Activation.IDENTITY),)
        )
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(mlp_forward(model, x), x)

    def test_single_gelu_layer(self):
        model = MlpModel(
            layers=(Layer(weights=np.array([[1.0]]), bias=np.zeros(1), activation=Activation.GELU),)
        )
        np.testing.assert_allclose(mlp_forward(model, [1.0]), [_gelu_reference(1.0)], atol=1e-12)

    def test_dim_mismatch(self):
        model = init_mlp([3, 2], [Activation.IDENTITY], 0)
        with pytest.raises(DimMismatch):
            mlp_forward(model, [1.0, 2.0])

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


class TestGradients:
    def test_zero_loss_zero_gradients(self):
        rng = np.random.default_rng(1)
        model = _rand_model(rng)
        x = rng.standard_normal(model.input_dim)
        target = mlp_forward(model, x)
        loss, grads = mlp_grad(model, x, target)
        assert loss == 0.0
        for gw, gb in grads:
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
        x = np.array([1.0, 1.0])
        y = mlp_forward(model, x)
        l1, _ = mlp_grad(model, x, y + 0.5)
        l2, _ = mlp_grad(model, x, y + 1.0)
        np.testing.assert_allclose(l2, 4.0 * l1, rtol=1e-12)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        model = init_mlp([2, 2], [Activation.IDENTITY], 7)
        state = init_adam(model, 5e-4)
        zeros = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers]
        current = model
        for step in range(5):
            current, state = adam_step(state, current, zeros)
            assert state.step_count == step + 1
        for before, after in zip(model.layers, current.layers):
            np.testing.assert_array_equal(before.weights, after.weights)
            np.testing.assert_array_equal(before.bias, after.bias)

    def test_first_step_hand_recurrence(self):
        lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
        model = MlpModel(
            layers=(Layer(weights=np.array([[1.0]]), bias=np.zeros(1), activation=Activation.IDENTITY),)
        )
        state = init_adam(model, lr)
        grads = [(np.array([[1.0]]), np.zeros(1))]
        stepped, state = adam_step(state, model, grads)
        m = (1 - b1) * 1.0
        v = (1 - b2) * 1.0
        expected = 1.0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        assert abs(stepped.layers[0].weights[0, 0] - expected) <= 1e-12
        assert abs((stepped.layers[0].weights[0, 0] - 1.0) + lr / (1 + eps)) <= 1e-12

    def test_two_steps_hand_recurrence(self):
        lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
        model = MlpModel(
            layers=(Layer(weights=np.array([[0.5]]), bias=np.zeros(1), activation=Activation.IDENTITY),)
        )
        state = init_adam(model, lr)
        g = 0.7
        grads = [(np.array([[g]]), np.zeros(1))]
        theta, m, v = 0.5, 0.0, 0.0
        current = model
        for t in (1, 2):
            current, state = adam_step(state, current, grads)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            assert abs(current.layers[0].weights[0, 0] - theta) <= 1e-12

    def test_raw_adam_matches_hand_recurrence(self):
        # RawAdam is the optimizer training runs; check it against the
        # per-array recurrence over several steps with changing gradients.
        lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(8)
        model = _rand_model(rng)
        net = RawNet(model)
        opt = RawAdam(net, lr)
        states = [[[l.weights, 0.0, 0.0], [l.bias, 0.0, 0.0]] for l in model.layers]
        for t in range(1, 6):
            grad = rng.standard_normal(net.flat.shape)
            opt.step(net, grad)
            for layer, layer_states, layer_grads in zip(net.layers, states, net.views(grad)):
                for state, g, actual in zip(layer_states, layer_grads, (layer.weights, layer.bias)):
                    state[:] = adam_update_arrays(*state, g, lr, b1, b2, eps, t)
                    np.testing.assert_allclose(actual, state[0], rtol=0, atol=1e-12)

    def test_non_positive_learning_rate_is_typed(self):
        with pytest.raises(InvalidConfig):
            init_adam(init_mlp([2, 2], [Activation.IDENTITY], 0), 0.0)


def _batch_mse(model, x, t) -> float:
    y, _ = forward_batch(model, x)
    return float(np.mean((y - t) ** 2))


class TestTrainingStep:
    """The in-place step the regressor trainer runs: gradients written into
    a RawNet's flat buffer, with per-batch buffers reused between calls."""

    def test_flat_gradients_match_backward_bitwise(self):
        rng = np.random.default_rng(21)
        model = _rand_model(rng, max_layers=4)
        x = rng.standard_normal((9, model.input_dim))
        t = rng.standard_normal((9, model.output_dim))
        net = RawNet(model)
        mse_batch_grad(net, x, t, grads=net.grads, work=Workspace())
        y, cache = forward_batch(model, x, keep_cache=True)
        grads, _ = backward_batch(model, cache, 2.0 * (y - t) / y.size)
        assert net.grad.tobytes() == _flatten_grads(grads).tobytes()

    def test_flat_gradients_match_central_differences(self):
        rng = np.random.default_rng(22)
        h = 1e-6
        for _ in range(5):
            model = _rand_model(rng)
            x = rng.standard_normal((6, model.input_dim))
            t = rng.standard_normal((6, model.output_dim))
            net = RawNet(model)
            mse_batch_grad(net, x, t, grads=net.grads, work=Workspace())
            flat = _flatten_params(model)
            for i in range(len(flat)):
                bumped = flat.copy()
                bumped[i] += h
                lp = _batch_mse(_model_with_params(model, bumped), x, t)
                bumped[i] -= 2 * h
                lm = _batch_mse(_model_with_params(model, bumped), x, t)
                fd = (lp - lm) / (2 * h)
                assert abs(net.grad[i] - fd) / max(1.0, abs(net.grad[i]), abs(fd)) <= 1e-6

    def test_reused_buffers_match_fresh_across_batch_sizes(self):
        rng = np.random.default_rng(23)
        model = init_regressor(8, seed=4)
        reused, fresh = RawNet(model), RawNet(model)
        reused_opt, fresh_opt = RawAdam(reused, 1e-3), RawAdam(fresh, 1e-3)
        work = Workspace()
        for rows in (64, 1, 64):
            x = rng.standard_normal((rows, model.input_dim))
            t = rng.standard_normal((rows, model.output_dim))
            mse_batch_grad(reused, x, t, grads=reused.grads, work=work)
            fresh_grads = mse_batch_grad(fresh, x, t)
            assert reused.grad.tobytes() == _flatten_grads(fresh_grads).tobytes()
            reused_opt.step(reused, reused.grad)
            fresh_opt.step(fresh, _flatten_grads(fresh_grads))
            assert reused.flat.tobytes() == fresh.flat.tobytes()

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
        f = np.zeros(512)
        dp = RelativePose(dt=[0, 0, 0], dq=[1, 0, 0, 0])
        assert np.concatenate([f, dp.as_vector()]).shape == (519,)

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
        np.testing.assert_array_equal(regress_nonlinear(model, np.ones(4), dp), np.zeros(4))

    def test_dim_mismatch(self):
        model = init_regressor(4, seed=0)
        dp = RelativePose(dt=[0, 0, 0], dq=[1, 0, 0, 0])
        with pytest.raises(DimMismatch):
            regress_nonlinear(model, np.ones(5), dp)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_regressor([], TrainConfig(seed=0), 4)

    def test_validation_improves_and_affine_learnable(self):
        rng = np.random.default_rng(55)
        n = 4
        a = rng.standard_normal((n, 3)) * 0.5
        b = rng.standard_normal(n)

        def field(t):
            return a @ t + b

        pairs = []
        for _ in range(600):
            t1 = rng.uniform(-1, 1, 3)
            t2 = t1 + rng.uniform(-0.5, 0.5, 3)
            dp = RelativePose(dt=t2 - t1, dq=[1, 0, 0, 0])
            pairs.append((field(t1), dp, field(t2)))
        cfg = TrainConfig(lr=5e-3, epochs=300, batch_size=32, seed=9, validation_fraction=0.4, early_stop_patience=50)
        res = train_regressor_full(pairs, cfg, n)
        assert res.best_val_loss < res.initial_val_loss
        held = []
        for _ in range(100):
            t1 = rng.uniform(-1, 1, 3)
            t2 = t1 + rng.uniform(-0.5, 0.5, 3)
            dp = RelativePose(dt=t2 - t1, dq=[1, 0, 0, 0])
            pred = regress_nonlinear(res.model, field(t1), dp)
            held.append(np.mean((pred - field(t2)) ** 2))
        assert float(np.mean(held)) <= 1e-3

    def test_training_is_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        pairs = []
        for _ in range(50):
            t1, t2 = rng.standard_normal((2, 3))
            dp = RelativePose(dt=t2 - t1, dq=[1, 0, 0, 0])
            pairs.append((rng.standard_normal(3), dp, rng.standard_normal(3)))
        cfg = TrainConfig(lr=1e-3, epochs=5, batch_size=8, seed=42, validation_fraction=0.4, early_stop_patience=5)
        m1 = train_regressor(pairs, cfg, 3)
        m2 = train_regressor(pairs, cfg, 3)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert l1.weights.tobytes() == l2.weights.tobytes()
            assert l1.bias.tobytes() == l2.bias.tobytes()

    def test_result_records_epochs_and_stop_reason(self):
        rng = np.random.default_rng(6)
        pairs = []
        for _ in range(60):
            t1, t2 = rng.standard_normal((2, 3))
            pairs.append((rng.standard_normal(3), RelativePose(dt=t2 - t1, dq=[1, 0, 0, 0]), rng.standard_normal(3)))
        full = train_regressor_full(pairs, TrainConfig(lr=1e-3, epochs=3, batch_size=8, seed=1, early_stop_patience=5), 3)
        assert (full.epochs_run, full.stop_reason) == (3, "max_epochs")
        # Unlearnable noise at a huge step size: validation stops improving.
        cfg = TrainConfig(lr=1.0, epochs=50, batch_size=8, seed=1, early_stop_patience=2)
        stopped = train_regressor_full(pairs, cfg, 3)
        assert stopped.stop_reason == "early_stop"
        assert cfg.early_stop_patience <= stopped.epochs_run < cfg.epochs


class TestBuildTrainingPairs:
    def test_cap_and_count(self):
        entries = [
            (f"a{i}", np.array([float(i)]), Pose(t=[i * 1.0, 0, 0], q=[1, 0, 0, 0]), Origin.ANCHOR)
            for i in range(5)
        ]
        m = ReferenceMap.from_entries(entries)
        pairs = build_training_pairs(m, max_translation=1.5, max_pairs=100, seed=0)
        # Ordered pairs at distance 1.0 only: (i, i+1) and (i+1, i).
        assert len(pairs) == 8
        for f_a, dp, f_t in pairs:
            assert np.linalg.norm(dp.dt) <= 1.5

    def test_subsampling_deterministic(self):
        rng = np.random.default_rng(8)
        entries = [
            (f"a{i}", rng.standard_normal(2), Pose(t=rng.standard_normal(3), q=[1, 0, 0, 0]), Origin.ANCHOR)
            for i in range(30)
        ]
        m = ReferenceMap.from_entries(entries)
        p1 = build_training_pairs(m, 10.0, 50, seed=4)
        p2 = build_training_pairs(m, 10.0, 50, seed=4)
        assert len(p1) == 50
        for (a1, d1, t1), (a2, d2, t2) in zip(p1, p2):
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(d1.as_vector(), d2.as_vector())


class TestLosses:
    def _unit_pair_with_chord(self, chord, dim=4):
        # Two unit vectors at exactly the requested Euclidean chord length.
        theta = 2.0 * math.asin(chord / 2.0)
        u = np.zeros(dim)
        u[0] = 1.0
        v = np.zeros(dim)
        v[0] = math.cos(theta)
        v[1] = math.sin(theta)
        return u, v

    def test_triplet_satisfied_margin_zero(self):
        q, n = self._unit_pair_with_chord(0.8)
        assert loss_triplet(q, q, n, margin=0.3) == 0.0

    def test_triplet_hand_value(self):
        q, p = self._unit_pair_with_chord(0.5)
        _, n = self._unit_pair_with_chord(0.4)
        # Scaling inputs must not matter: the loss normalizes internally.
        val = loss_triplet(3.0 * q, 0.5 * p, 7.0 * n, margin=0.3)
        np.testing.assert_allclose(val, 0.5 - 0.4 + 0.3, atol=1e-12)

    def test_triplet_equal_pos_neg_gives_margin(self):
        q, p = self._unit_pair_with_chord(0.7)
        assert loss_triplet(q, p, p.copy(), margin=0.3) == pytest.approx(0.3, abs=1e-15)

    def test_triplet_zero_vector(self):
        with pytest.raises(ZeroVector):
            loss_triplet(np.zeros(3), np.ones(3), np.ones(3), margin=0.3)

    def test_relative_zero_and_unit(self):
        v = np.arange(7.0)
        assert loss_relative(v, v) == 0.0
        e = np.zeros(7)
        e[0] = 1.0
        assert loss_relative(v + e, v) == 1.0

    def test_relative_hand_norm(self):
        v = np.zeros(7)
        np.testing.assert_allclose(loss_relative(v + 0.1, v), math.sqrt(7 * 0.01), atol=1e-12)

    def test_relative_length_check(self):
        with pytest.raises(DimMismatch):
            loss_relative(np.zeros(6), np.zeros(6))

    def test_distance_cases(self):
        f = np.array([1.0, 0.0])
        assert loss_distance(f, f, [0, 0, 0], [0, 0, 0]) == 0.0
        d = loss_distance([0.5, 0.0], [0.0, 0.0], [0, 0, 0], [0.2, 0, 0])
        np.testing.assert_allclose(d, 0.3, atol=1e-12)

    def test_distance_symmetric_in_pairs(self):
        rng = np.random.default_rng(6)
        f1, f2 = rng.standard_normal((2, 5))
        t1, t2 = rng.standard_normal((2, 3))
        assert loss_distance(f1, f2, t1, t2) == loss_distance(f2, f1, t2, t1)

    @settings(max_examples=80)
    @given(st.integers(0, 2**31 - 1))
    def test_losses_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((3, 4)) + 0.01
        t = rng.standard_normal((2, 3))
        assert loss_triplet(f[0], f[1], f[2], margin=0.3) >= 0.0
        assert loss_relative(rng.standard_normal(7), rng.standard_normal(7)) >= 0.0
        assert loss_distance(f[0], f[1], t[0], t[1]) >= 0.0


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
            train_encoder(_toy_dataset(), "contrastive")

    def test_triplet_needs_two_scenes(self):
        with pytest.raises(InsufficientScenes):
            train_encoder(_toy_dataset(n_scenes=1), "triplet", TrainConfig(lr=1e-3, epochs=2, seed=0))

    def test_each_variant_improves_validation(self):
        ds = _toy_dataset()
        for variant, lr in (("triplet", 1e-3), ("relative", 1e-3), ("distance", 1e-3)):
            cfg = TrainConfig(lr=lr, epochs=12, batch_size=16, seed=1, validation_fraction=0.4, early_stop_patience=12)
            res = train_encoder_full(ds, variant, cfg, pool_size=300)
            assert res.best_val_loss < res.initial_val_loss, variant
            assert res.model.output_dim == ds.descriptor_dim
            assert res.model.input_dim == ds.observation_dim

    def test_result_records_epochs_and_stop_reason(self):
        ds = _toy_dataset()
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=16, seed=1, early_stop_patience=5)
        full = train_encoder_full(ds, "distance", cfg, pool_size=100)
        assert (full.epochs_run, full.stop_reason) == (2, "max_epochs")
        cfg = TrainConfig(lr=1.0, epochs=50, batch_size=16, seed=1, early_stop_patience=2)
        stopped = train_encoder_full(ds, "relative", cfg, pool_size=100)
        assert stopped.stop_reason == "early_stop"
        assert cfg.early_stop_patience <= stopped.epochs_run < cfg.epochs

    def test_non_finite_observations_are_typed(self):
        ds = _toy_dataset()
        obs = ds.observations.copy()
        obs[0, 0] = np.nan
        with pytest.raises(RefusedNonFinite):
            EncoderDataset(obs, ds.translations, ds.quaternions, ds.labels, ds.descriptor_dim)

    def test_bitwise_deterministic(self):
        ds = _toy_dataset()
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=16, seed=11, validation_fraction=0.4, early_stop_patience=3)
        m1 = train_encoder(ds, "distance", cfg, pool_size=200)
        m2 = train_encoder(ds, "distance", cfg, pool_size=200)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert l1.weights.tobytes() == l2.weights.tobytes()
            assert l1.bias.tobytes() == l2.bias.tobytes()


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
