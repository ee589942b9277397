"""Deterministic MLP framework, losses, training loops, and model files."""

from .core import (
    Activation,
    Layer,
    MlpModel,
    forward_batch,
    init_mlp,
    regress_nonlinear_batch,
    splitmix64,
)
from .model_io import load_model, save_model
from .training import (
    DEFAULT_TRIPLET_MARGIN,
    ENCODER_DEFAULT_LR,
    ENCODER_VARIANTS,
    REGRESSOR_DEFAULT_LR,
    EncoderDataset,
    TrainConfig,
    TrainingPairs,
    TrainResult,
    build_training_pairs,
    encoder_widths,
    init_encoder,
    init_regressor,
    init_rpe_head,
    mse_over,
    regressor_widths,
    train_encoder,
    train_encoder_full,
    train_regressor,
    train_regressor_full,
)
