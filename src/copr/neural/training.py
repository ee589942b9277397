"""Training of the descriptor regressor and the synthetic encoders, through
one loop (:func:`_fit`) that owns the validation split, the shuffle, the
minibatches, the Adam steps and the early stop.

Validation scores the validation rows on the calling thread, before
training and after each epoch. Keep it there: perfbench's tracer keeps one
span stack per process, so training code on a second thread would corrupt
its spans and counts.

Everything here is deterministic given the config seed: weight init draws
from SplitMix64-derived per-layer streams, and all sampling/shuffling uses
one seeded generator consumed in a fixed order. Two runs with the same
config produce bitwise-identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..blocks import even_blocks
from ..errors import DimMismatch, EmptyTrainingSet, InsufficientScenes, InvalidConfig, RefusedNonFinite
from ..geometry import RelativePose  # noqa: F401  (perfbench/tracer.py wraps copr.neural.training.RelativePose)
from ..geometry import relative_pose_rows
from .core import (
    _BLOCK_ROWS,
    Activation,
    MlpModel,
    RawAdam,
    backward_batch,
    forward_batch,
    infer_blocks,
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
# build_training_pairs holds at most about this many translation-difference
# elements at once: a block of rows of the (n, n, 3) difference array.
_PAIR_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    lr: float = REGRESSOR_DEFAULT_LR
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.4
    early_stop_patience: int = 20

    def __post_init__(self):
        if not math.isfinite(self.lr):
            raise InvalidConfig(f"lr must be finite, got {self.lr!r}")
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


def mse_over(model: MlpModel, pairs: TrainingPairs, rows) -> float:
    """Mean squared error of the model over the training pairs ``rows``.
    Each row block builds its own input rows and subtracts its own target
    rows (:meth:`TrainingPairs.inputs`, :meth:`TrainingPairs.targets`), so
    no (rows, dim) gather is made beyond the error block, which is squared
    in place."""
    rows = np.asarray(rows)
    err = infer_blocks(model, len(rows), lambda block: pairs.inputs(rows[block]))
    for block in even_blocks(len(rows), _BLOCK_ROWS):
        err[block] -= pairs.targets(rows[block])
    err *= err
    return float(np.mean(err))


@dataclass(frozen=True)
class TrainResult:
    """A trained snapshot, the validation losses bracketing the run, and
    how the run ended: ``epochs_run`` epochs, then ``stop_reason``
    (``"early_stop"`` after ``early_stop_patience`` epochs without a better
    validation loss, else ``"max_epochs"``). ``val_curve`` holds every
    validation loss in order: the initial one, then one per epoch run."""

    model: MlpModel
    initial_val_loss: float
    best_val_loss: float
    epochs_run: int
    stop_reason: str
    val_curve: tuple[float, ...]


def _trainable(model: MlpModel) -> MlpModel:
    """A private copy of ``model`` on a writable buffer, for in-place training."""
    return model.on_buffer(model.flat.copy())


def _fit(n: int, cfg: TrainConfig, rng: np.random.Generator, trained, batch_grads, val_loss) -> TrainResult:
    """The one training loop. Splits ``n`` sample rows into training and
    validation rows (validating on the training rows if the split leaves
    none); per epoch shuffles the training rows and, per minibatch, has
    ``batch_grads(rows)`` fill the gradient buffer of every ``(model,
    RawAdam)`` pair in ``trained`` and steps each model.
    ``val_loss(rows)`` scores the validation rows on the trained models,
    before training and after each epoch. Runs until ``cfg.epochs`` or early
    stopping and exports the first model's best snapshot (the untrained
    init if none improves), read-only."""
    perm = rng.permutation(n)
    n_val = min(max(int(round(cfg.validation_fraction * n)), 1), n - 1) if n >= 2 else 0
    train_idx = perm[n_val:]
    val_idx = perm[:n_val] if n_val else train_idx
    net = trained[0][0]

    best_val = val_loss(val_idx)
    best_params = net.flat.copy()
    curve = [best_val]
    stale = 0
    stop_reason = "max_epochs"
    epochs_run = 0
    while epochs_run < cfg.epochs:
        order = train_idx[rng.permutation(len(train_idx))]
        for start in range(0, len(order), cfg.batch_size):
            batch_grads(order[start : start + cfg.batch_size])
            for model, opt in trained:
                opt.step(model, opt.grad)
        epochs_run += 1
        val = val_loss(val_idx)
        curve.append(val)
        if val < best_val:
            best_val, best_params, stale = val, net.flat.copy(), 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                stop_reason = "early_stop"
                break
    best_params.setflags(write=False)
    return TrainResult(net.on_buffer(best_params), curve[0], best_val, epochs_run, stop_reason, tuple(curve))


@dataclass(frozen=True)
class TrainingPairs:
    """Regressor training pairs as rows into one descriptor block: pair i
    regresses ``descriptors[target_rows[i]]`` from
    ``descriptors[anchor_rows[i]]`` and the relative pose ``dp[i]`` from the
    anchor to the target, in the (dt, dq) layout of
    :func:`copr.geometry.relative_pose_rows`.

    ``descriptors`` is an (m, dim) block, a traverse map's own, held and not
    copied; ``anchor_rows`` and ``target_rows`` are (n,) integer blocks of
    rows into it and ``dp`` is (n, 7). So pairs cost O(n) however wide the
    descriptors. A caller with raw (n, dim) anchor and target blocks passes
    their ``np.vstack`` with rows ``arange(n)`` and ``n + arange(n)``.
    Blocks that do not pair row by row raise DimMismatch, rows that are not
    integers in [0, m) InvalidConfig.
    """

    descriptors: np.ndarray
    anchor_rows: np.ndarray
    target_rows: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        f, dp = np.asarray(self.descriptors, dtype=np.float64), np.asarray(self.dp, dtype=np.float64)
        anchor_rows, target_rows = np.asarray(self.anchor_rows), np.asarray(self.target_rows)
        if f.ndim != 2 or dp.ndim != 2 or dp.shape[1] != 7 or not anchor_rows.shape == target_rows.shape == (len(dp),):
            shapes = f"{f.shape}, {anchor_rows.shape}, {target_rows.shape}, {dp.shape}"
            raise DimMismatch(f"training pair blocks {shapes} are not (m, dim), (n,), (n,), (n, 7)")
        for rows in (anchor_rows, target_rows):
            if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(f)):
                raise InvalidConfig(f"training pair rows must be integers in [0, {len(f)})")
        object.__setattr__(self, "descriptors", f)
        object.__setattr__(self, "anchor_rows", anchor_rows.astype(np.intp, copy=False))
        object.__setattr__(self, "target_rows", target_rows.astype(np.intp, copy=False))
        object.__setattr__(self, "dp", dp)

    def __len__(self) -> int:
        return len(self.dp)

    # The gathers use ``take``: the rows fancy indexing copies, for less
    # call overhead, which a fit pays once per minibatch.
    def inputs(self, rows) -> np.ndarray:
        """The regressor input rows ``[f_anchor | dp]`` of the pairs ``rows``."""
        return regressor_input(self.descriptors.take(self.anchor_rows.take(rows), axis=0), self.dp.take(rows, axis=0))

    def targets(self, rows) -> np.ndarray:
        """The target descriptor rows of the pairs ``rows``."""
        return self.descriptors.take(self.target_rows.take(rows), axis=0)


def train_regressor_full(pairs: TrainingPairs, cfg: TrainConfig, descriptor_dim: int) -> TrainResult:
    """Train the non-linear descriptor regressor on (anchor, dp, target) pairs.

    Uses mean-squared error with Adam, a validation split for early
    stopping, and keeps the snapshot with the best validation MSE (which
    is the untrained init if training never improves on it).
    """
    if len(pairs) == 0:
        raise EmptyTrainingSet("no regressor training pairs")
    if pairs.descriptors.shape[1] != descriptor_dim:
        raise DimMismatch(f"training pair descriptor dim {pairs.descriptors.shape[1]} is not {descriptor_dim}")

    init_seed, rng_seed = splitmix64(cfg.seed)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    net = _trainable(init_regressor(descriptor_dim, init_seed))
    opt = RawAdam(net, cfg.lr)

    # Each batch builds its own input and target rows; its gradients go
    # straight into Adam's flat gradient buffer.
    def batch_grads(rows):
        mse_batch_grad(net, pairs.inputs(rows), pairs.targets(rows), grads=opt.grads)

    return _fit(len(pairs), cfg, rng, [(net, opt)], batch_grads, lambda rows: mse_over(net, pairs, rows))


def train_regressor(pairs: TrainingPairs, cfg: TrainConfig, descriptor_dim: int) -> MlpModel:
    """Best-validation regressor snapshot; see :func:`train_regressor_full`."""
    return train_regressor_full(pairs, cfg, descriptor_dim).model


def build_training_pairs(ref_map, max_translation: float, max_pairs: int, seed: int) -> TrainingPairs:
    """Ordered (anchor, dp, target) pairs from one trajectory map, as rows
    into the map's own descriptor block.

    Keeps all ordered pairs whose relative translation stays at or below
    ``max_translation`` (matching the span the regressor will be asked to
    cover), then subsamples to ``max_pairs`` with a seeded draw.
    """
    n = len(ref_map)
    if n < 2:
        raise EmptyTrainingSet("need at least two map entries to form pairs")
    t = ref_map.translations
    found_i, found_j, closest = [], [], np.inf
    # Row blocks of the (n, n) distances, in row-major pair order.
    for rows in even_blocks(n, _PAIR_BLOCK_ELEMENTS // (3 * n)):
        diff = t[rows, None, :] - t[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        near = dist <= max_translation
        diagonal = (np.arange(rows.stop - rows.start), np.arange(rows.start, rows.stop))
        near[diagonal] = False
        dist[diagonal] = np.inf
        closest = min(closest, dist.min())
        block_i, block_j = np.nonzero(near)
        found_i.append(block_i + rows.start)
        found_j.append(block_j)
    ii, jj = np.concatenate(found_i), np.concatenate(found_j)
    if len(ii) == 0:
        raise EmptyTrainingSet(f"no pairs within {max_translation} m; the closest pair is {closest:.3g} m apart")
    if len(ii) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(ii), size=max_pairs, replace=False)
        keep.sort()
        ii, jj = ii[keep], jj[keep]
    q = ref_map.quaternions
    dp = relative_pose_rows(t[ii], q[ii], t[jj], q[jj])
    return TrainingPairs(ref_map.descriptors, ii, jj, dp)


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


def _sample_rows(dataset: EncoderDataset, count: int, rng: np.random.Generator, negatives: bool) -> np.ndarray:
    """``count`` rows of observation ids drawn from one generator: two
    distinct observations of one scene, followed with ``negatives`` by an
    observation of another scene (a triplet), else alone (a pair)."""
    labels = np.asarray(dataset.labels)
    by_label = {lab: np.nonzero(labels == lab)[0] for lab in sorted(set(dataset.labels))}
    if negatives and len(by_label) < 2:
        raise InsufficientScenes("triplet training needs at least two scenes for negatives")
    usable = [lab for lab, idx in by_label.items() if len(idx) >= 2]
    if not usable and negatives:
        raise InsufficientScenes("no scene has two observations to form a positive pair")
    if not usable:
        raise EmptyTrainingSet("no scene has two observations to pair")
    all_labels = list(by_label)
    out = np.empty((count, 3 if negatives else 2), dtype=np.int64)
    for r in range(count):
        lab = usable[rng.integers(len(usable))]
        members = by_label[lab]
        i, j = rng.choice(len(members), size=2, replace=False)
        out[r, :2] = members[i], members[j]
        if negatives:
            neg_lab = lab
            while neg_lab == lab:
                neg_lab = all_labels[rng.integers(len(all_labels))]
            out[r, 2] = by_label[neg_lab][rng.integers(len(by_label[neg_lab]))]
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
    trained = [(encoder, enc_opt)]
    samples = _sample_rows(dataset, _ENCODER_POOL, rng, negatives=variant == "triplet")
    obs, t, q = dataset.observations, dataset.translations, dataset.quaternions

    # Each objective maps the encoded columns of a batch's sample rows to the
    # batch loss followed, with ``with_grads``, by one output gradient per
    # column.
    if variant == "triplet":

        def objective(feats, rows, with_grads):
            return triplet_grads(*feats, DEFAULT_TRIPLET_MARGIN)

    elif variant == "distance":

        def objective(feats, rows, with_grads):
            return distance_grads(*feats, t[samples[rows, 0]], t[samples[rows, 1]])

    else:
        head = _trainable(init_rpe_head(dataset.descriptor_dim, seed_c))
        head_opt = RawAdam(head, cfg.lr)
        trained.append((head, head_opt))
        a, b = samples[:, 0], samples[:, 1]
        dp_pool = relative_pose_rows(t[a], q[a], t[b], q[b])
        n = dataset.descriptor_dim

        def objective(feats, rows, with_grads):
            dp_hat, cache = forward_batch(head, np.hstack(feats), keep_cache=with_grads)
            loss, g_dp = relative_grads(dp_hat, dp_pool[rows])
            if not with_grads:
                return (loss,)
            _, g_stacked = backward_batch(head, cache, g_dp, grads=head_opt.grads)
            return loss, g_stacked[:, :n], g_stacked[:, n:]

    # The first column's gradients go to enc_opt.grad; each later column's
    # pass fills ``part``, which is then summed into it.
    part = np.empty_like(enc_opt.grad)
    part_grads = encoder.views(part)

    def batch_loss(rows, with_grads):
        passes = [forward_batch(encoder, obs[col], keep_cache=with_grads) for col in samples[rows].T]
        loss, *grads = objective([f for f, _ in passes], rows, with_grads)
        if with_grads:
            for k, ((_, cache), g) in enumerate(zip(passes, grads)):
                backward_batch(encoder, cache, g, grads=part_grads if k else enc_opt.grads)
                if k:
                    enc_opt.grad += part
        return loss

    return _fit(
        len(samples), cfg, rng, trained, lambda rows: batch_loss(rows, True), lambda rows: batch_loss(rows, False)
    )


def train_encoder(dataset: EncoderDataset, variant: str, cfg: TrainConfig) -> MlpModel:
    """Best-validation encoder snapshot; see :func:`train_encoder_full`."""
    return train_encoder_full(dataset, variant, cfg).model
