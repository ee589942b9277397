"""Training loops for the descriptor regressor and the synthetic encoders.

Everything here is deterministic given the config seed: weight init draws
from SplitMix64-derived per-layer streams, and all sampling/shuffling uses
one seeded generator consumed in a fixed order. Two runs with the same
config produce bitwise-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimMismatch, EmptyTrainingSet, InsufficientScenes, InvalidConfig, RefusedNonFinite
from ..geometry import RelativePose  # noqa: F401  (perfbench/tracer.py wraps copr.neural.training.RelativePose)
from ..geometry import relative_pose_rows
from .core import (
    Activation,
    MlpModel,
    RawAdam,
    Workspace,
    backward_batch,
    forward_batch,
    init_mlp,
    mse_batch_grad,
    regressor_input,
    splitmix64,
)
from .losses import distance_grads, relative_grads, triplet_grads

ENCODER_VARIANTS = ("triplet", "relative", "distance")
# Each variant's Adam learning rate when a config leaves ``lr`` unset.
ENCODER_DEFAULT_LR = {"triplet": 1e-5, "relative": 1e-4, "distance": 5e-5}
REGRESSOR_DEFAULT_LR = 5e-4
DEFAULT_TRIPLET_MARGIN = 0.3
# Triplets (or same-scene pairs) sampled for one encoder training run.
_ENCODER_POOL = 3000


@dataclass(frozen=True)
class TrainConfig:
    lr: float = REGRESSOR_DEFAULT_LR
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.4
    early_stop_patience: int = 20

    def __post_init__(self):
        if self.lr <= 0 or self.epochs <= 0 or self.batch_size <= 0 or self.early_stop_patience <= 0:
            raise InvalidConfig("lr, epochs, batch_size and early_stop_patience must be positive")
        if not (0.0 < self.validation_fraction < 1.0):
            raise InvalidConfig("validation_fraction must lie in (0, 1)")


def regressor_widths(descriptor_dim: int) -> list[int]:
    """Layer widths of the non-linear regressor for a given descriptor dim.

    Input and the 7 hidden layers are all descriptor_dim + 7 wide; the
    output layer is descriptor_dim wide.
    """
    wide = descriptor_dim + 7
    return [wide] * 8 + [descriptor_dim]


def init_regressor(descriptor_dim: int, seed: int) -> MlpModel:
    widths = regressor_widths(descriptor_dim)
    acts = [Activation.GELU] * 7 + [Activation.IDENTITY]
    return init_mlp(widths, acts, seed)


def _split_indices(n: int, fraction: float, rng: np.random.Generator):
    perm = rng.permutation(n)
    n_val = int(round(fraction * n))
    if n >= 2:
        n_val = min(max(n_val, 1), n - 1)
    else:
        n_val = 0
    return perm[n_val:], perm[:n_val]


def mse_over(model: MlpModel, x: np.ndarray, y: np.ndarray, work: Workspace | None = None) -> float:
    """Mean squared error of the model over a stacked evaluation set."""
    out, _ = forward_batch(model, x, work=work)
    return float(np.mean((out - y) ** 2))


def _minibatches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


@dataclass(frozen=True)
class TrainResult:
    """A trained snapshot, the validation losses bracketing the run, and
    how the run ended: ``epochs_run`` epochs, then ``stop_reason``
    (``"early_stop"`` after ``early_stop_patience`` epochs without a better
    validation loss, else ``"max_epochs"``)."""

    model: MlpModel
    initial_val_loss: float
    best_val_loss: float
    epochs_run: int
    stop_reason: str


def _trainable(model: MlpModel) -> MlpModel:
    """A private copy of ``model`` on a writable buffer, for in-place training."""
    return model.on_buffer(model.flat.copy())


def _fit(net: MlpModel, cfg: TrainConfig, run_epoch, val_loss) -> TrainResult:
    """Run epochs until ``cfg.epochs`` or early stopping; keep the snapshot
    with the best validation loss (the untrained init if none improves) and
    export it as a read-only model."""
    initial_val = val_loss()
    best_val = initial_val
    best_params = net.flat.copy()
    stale = 0
    stop_reason = "max_epochs"
    for epochs_run in range(1, cfg.epochs + 1):
        run_epoch()
        val = val_loss()
        if val < best_val:
            best_val = val
            best_params = net.flat.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                stop_reason = "early_stop"
                break
    best_params.setflags(write=False)
    return TrainResult(net.on_buffer(best_params), initial_val, best_val, epochs_run, stop_reason)


@dataclass(frozen=True)
class TrainingPairs:
    """Regressor training pairs as row-aligned blocks: pair i regresses
    ``f_target[i]`` (n, dim) from ``f_anchor[i]`` (n, dim) and the relative
    pose ``dp[i]`` (n, 7) from the anchor to the target, in the (dt, dq)
    layout of :func:`copr.geometry.relative_pose_rows`."""

    f_anchor: np.ndarray
    dp: np.ndarray
    f_target: np.ndarray

    def __post_init__(self):
        f_anchor, dp, f_target = (np.asarray(a, dtype=np.float64) for a in (self.f_anchor, self.dp, self.f_target))
        if f_anchor.ndim != 2 or f_target.shape != f_anchor.shape or dp.shape != (len(f_anchor), 7):
            shapes = f"{f_anchor.shape}, {dp.shape}, {f_target.shape}"
            raise DimMismatch(f"training pair blocks {shapes} are not (n, dim), (n, 7), (n, dim)")
        object.__setattr__(self, "f_anchor", f_anchor)
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "f_target", f_target)

    def __len__(self) -> int:
        return len(self.f_anchor)


def train_regressor_full(pairs: TrainingPairs, cfg: TrainConfig, descriptor_dim: int) -> TrainResult:
    """Train the non-linear descriptor regressor on (anchor, dp, target) pairs.

    Uses mean-squared error with Adam, a validation split for early
    stopping, and keeps the snapshot with the best validation MSE (which
    is the untrained init if training never improves on it).
    """
    if len(pairs) == 0:
        raise EmptyTrainingSet("no regressor training pairs")
    if pairs.f_anchor.shape[1] != descriptor_dim:
        raise DimMismatch(f"training pair descriptor dim {pairs.f_anchor.shape[1]} is not {descriptor_dim}")
    x = regressor_input(pairs.f_anchor, pairs.dp)
    y = pairs.f_target

    init_seed, rng_seed = splitmix64(cfg.seed)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    net = _trainable(init_regressor(descriptor_dim, init_seed))
    opt = RawAdam(net, cfg.lr)

    train_idx, val_idx = _split_indices(len(pairs), cfg.validation_fraction, rng)
    if len(val_idx) == 0:
        val_idx = train_idx
    x_tr, y_tr = x[train_idx], y[train_idx]
    x_va, y_va = x[val_idx], y[val_idx]

    # This trainer owns every array its forward/backward passes return, so
    # each batch shape's arrays are allocated once and reused.
    work = Workspace()

    def run_epoch():
        order = rng.permutation(len(x_tr))
        for batch in _minibatches(order, cfg.batch_size):
            xb = np.take(x_tr, batch, axis=0, out=work("x", (len(batch), x_tr.shape[1])))
            yb = np.take(y_tr, batch, axis=0, out=work("y", (len(batch), y_tr.shape[1])))
            mse_batch_grad(net, xb, yb, grads=opt.grads, work=work)
            opt.step(net, opt.grad)

    return _fit(net, cfg, run_epoch, lambda: mse_over(net, x_va, y_va, work))


def train_regressor(pairs: TrainingPairs, cfg: TrainConfig, descriptor_dim: int) -> MlpModel:
    """Best-validation regressor snapshot; see :func:`train_regressor_full`."""
    return train_regressor_full(pairs, cfg, descriptor_dim).model


def build_training_pairs(ref_map, max_translation: float, max_pairs: int, seed: int) -> TrainingPairs:
    """Ordered (f_anchor, dp, f_target) pairs from one trajectory map.

    Keeps all ordered pairs whose relative translation stays at or below
    ``max_translation`` (matching the span the regressor will be asked to
    cover), then subsamples to ``max_pairs`` with a seeded draw.
    """
    n = len(ref_map)
    if n < 2:
        raise EmptyTrainingSet("need at least two map entries to form pairs")
    t = ref_map.translations
    diff = t[:, None, :] - t[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    ii, jj = np.nonzero((dist <= max_translation) & ~np.eye(n, dtype=bool))
    if len(ii) == 0:
        closest = dist[~np.eye(n, dtype=bool)].min()
        raise EmptyTrainingSet(f"no pairs within {max_translation} m; the closest pair is {closest:.3g} m apart")
    if len(ii) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(ii), size=max_pairs, replace=False)
        keep.sort()
        ii, jj = ii[keep], jj[keep]
    q = ref_map.quaternions
    dp = relative_pose_rows(t[ii], q[ii], t[jj], q[jj])
    return TrainingPairs(ref_map.descriptors[ii], dp, ref_map.descriptors[jj])


@dataclass(frozen=True)
class EncoderDataset:
    """Observations with poses and scene labels for encoder training."""

    observations: np.ndarray  # (n, obs_dim) float64
    translations: np.ndarray  # (n, 3)
    quaternions: np.ndarray  # (n, 4)
    labels: tuple[int, ...]
    descriptor_dim: int

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=np.float64)
        n = obs.shape[0]
        if len(self.labels) != n or self.translations.shape[0] != n or self.quaternions.shape[0] != n:
            raise DimMismatch("dataset arrays disagree in length")
        if not np.all(np.isfinite(obs)):
            raise RefusedNonFinite("observations must be finite")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))

    def __len__(self) -> int:
        return self.observations.shape[0]

    @property
    def observation_dim(self) -> int:
        return int(self.observations.shape[1])


def encoder_widths(observation_dim: int, descriptor_dim: int) -> list[int]:
    return [observation_dim, 2 * descriptor_dim, 2 * descriptor_dim, descriptor_dim]


def init_encoder(observation_dim: int, descriptor_dim: int, seed: int) -> MlpModel:
    widths = encoder_widths(observation_dim, descriptor_dim)
    return init_mlp(widths, [Activation.GELU, Activation.GELU, Activation.IDENTITY], seed)


def init_rpe_head(descriptor_dim: int, seed: int) -> MlpModel:
    widths = [2 * descriptor_dim, 2 * descriptor_dim, 7]
    return init_mlp(widths, [Activation.GELU, Activation.IDENTITY], seed)


def _sample_triplets(dataset: EncoderDataset, count: int, rng: np.random.Generator):
    labels = np.asarray(dataset.labels)
    by_label = {lab: np.nonzero(labels == lab)[0] for lab in sorted(set(dataset.labels))}
    if len(by_label) < 2:
        raise InsufficientScenes("triplet training needs at least two scenes for negatives")
    anchor_labels = [lab for lab, idx in by_label.items() if len(idx) >= 2]
    if not anchor_labels:
        raise InsufficientScenes("no scene has two observations to form a positive pair")
    all_labels = sorted(by_label)
    out = np.empty((count, 3), dtype=np.int64)
    for r in range(count):
        lab = anchor_labels[rng.integers(len(anchor_labels))]
        members = by_label[lab]
        qi, pi = rng.choice(len(members), size=2, replace=False)
        neg_lab = lab
        while neg_lab == lab:
            neg_lab = all_labels[rng.integers(len(all_labels))]
        ni = rng.integers(len(by_label[neg_lab]))
        out[r] = (members[qi], members[pi], by_label[neg_lab][ni])
    return out


def _sample_same_scene_pairs(dataset: EncoderDataset, count: int, rng: np.random.Generator):
    labels = np.asarray(dataset.labels)
    by_label = {lab: np.nonzero(labels == lab)[0] for lab in sorted(set(dataset.labels))}
    usable = [lab for lab, idx in by_label.items() if len(idx) >= 2]
    if not usable:
        raise EmptyTrainingSet("no scene has two observations to pair")
    out = np.empty((count, 2), dtype=np.int64)
    for r in range(count):
        lab = usable[rng.integers(len(usable))]
        members = by_label[lab]
        i, j = rng.choice(len(members), size=2, replace=False)
        out[r] = (members[i], members[j])
    return out


def train_encoder_full(dataset: EncoderDataset, variant: str, cfg: TrainConfig) -> TrainResult:
    """Train a synthetic feature encoder with one of three objectives.

    ``triplet`` pulls same-scene observations together against other-scene
    negatives (needs at least two scenes); ``relative`` trains the encoder
    jointly with a relative-pose head that is discarded afterwards;
    ``distance`` matches descriptor distances to physical distances on
    same-scene pairs. Each samples ``_ENCODER_POOL`` triplets or pairs
    once. Returns the best-validation encoder snapshot.
    """
    if variant not in ENCODER_VARIANTS:
        raise InvalidConfig(f"unknown encoder variant {variant!r}")
    if len(dataset) == 0:
        raise EmptyTrainingSet("empty encoder dataset")

    seed_a, state = splitmix64(cfg.seed)
    seed_b, state = splitmix64(state)
    seed_c, _ = splitmix64(state)
    rng = np.random.Generator(np.random.PCG64(seed_b))
    encoder = _trainable(init_encoder(dataset.observation_dim, dataset.descriptor_dim, seed_a))
    enc_opt = RawAdam(encoder, cfg.lr)
    head = head_opt = None
    if variant == "relative":
        head = _trainable(init_rpe_head(dataset.descriptor_dim, seed_c))
        head_opt = RawAdam(head, cfg.lr)

    if variant == "triplet":
        samples = _sample_triplets(dataset, _ENCODER_POOL, rng)
    else:
        samples = _sample_same_scene_pairs(dataset, _ENCODER_POOL, rng)
    train_idx, val_idx = _split_indices(len(samples), cfg.validation_fraction, rng)
    if len(val_idx) == 0:
        val_idx = train_idx
    obs = dataset.observations
    # Gradients of the second and later backward passes of a batch, summed
    # into enc_opt.grad.
    part = np.empty_like(enc_opt.grad)
    part_grads = encoder.views(part)

    def backward_sum(terms):
        (cache, g), *rest = terms
        backward_batch(encoder, cache, g, grads=enc_opt.grads)
        for cache, g in rest:
            backward_batch(encoder, cache, g, grads=part_grads)
            enc_opt.grad += part

    def batch_loss(rows, with_grads):
        """Batch loss; with ``with_grads`` also the gradients, in enc_opt.grad
        (and head_opt.grad)."""
        if variant == "triplet":
            xq, xp, xn = obs[rows[:, 0]], obs[rows[:, 1]], obs[rows[:, 2]]
            fq, cq = forward_batch(encoder, xq, keep_cache=with_grads)
            fp, cp = forward_batch(encoder, xp, keep_cache=with_grads)
            fn, cn = forward_batch(encoder, xn, keep_cache=with_grads)
            loss, gq, gp, gn = triplet_grads(fq, fp, fn, DEFAULT_TRIPLET_MARGIN)
            if with_grads:
                backward_sum(((cq, gq), (cp, gp), (cn, gn)))
            return loss
        xa, xb = obs[rows[:, 0]], obs[rows[:, 1]]
        fa, ca = forward_batch(encoder, xa, keep_cache=with_grads)
        fb, cb = forward_batch(encoder, xb, keep_cache=with_grads)
        if variant == "relative":
            stacked = np.hstack([fa, fb])
            dp_hat, ch = forward_batch(head, stacked, keep_cache=with_grads)
            a, b = rows[:, 0], rows[:, 1]
            dp_gt = relative_pose_rows(
                dataset.translations[a], dataset.quaternions[a], dataset.translations[b], dataset.quaternions[b]
            )
            loss, g_dp = relative_grads(dp_hat, dp_gt)
            if with_grads:
                _, g_stacked = backward_batch(head, ch, g_dp, grads=head_opt.grads)
                n = dataset.descriptor_dim
                backward_sum(((ca, g_stacked[:, :n]), (cb, g_stacked[:, n:])))
            return loss
        loss, g1, g2 = distance_grads(fa, fb, dataset.translations[rows[:, 0]], dataset.translations[rows[:, 1]])
        if with_grads:
            backward_sum(((ca, g1), (cb, g2)))
        return loss

    def run_epoch():
        order = rng.permutation(len(train_idx))
        for batch in _minibatches(order, cfg.batch_size):
            batch_loss(samples[train_idx[batch]], with_grads=True)
            enc_opt.step(encoder, enc_opt.grad)
            if head is not None:
                head_opt.step(head, head_opt.grad)

    return _fit(encoder, cfg, run_epoch, lambda: batch_loss(samples[val_idx], with_grads=False))


def train_encoder(dataset: EncoderDataset, variant: str, cfg: TrainConfig) -> MlpModel:
    """Best-validation encoder snapshot; see :func:`train_encoder_full`."""
    return train_encoder_full(dataset, variant, cfg).model
