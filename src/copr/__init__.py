"""Continuous place-descriptor regression toolkit.

Densifies sparse (descriptor, pose) reference maps by regressing
descriptors at novel target poses, then measures the resulting gain in
nearest-neighbor localization accuracy on seeded synthetic worlds.
"""

from .densify import (
    DensifyConfig,
    TargetPlan,
    densify_map,
    gen_extrap_grid,
    gen_interp_targets,
    plane_fit_regress,
    subsample_trajectory,
)
from .evaluate import (
    ErrorSummary,
    ExperimentReport,
    ExperimentRow,
    StrayReport,
    emit_report,
    exp_encoders,
    exp_extrapolation,
    exp_interpolation,
    exp_stray,
    localize_and_summarize,
    oracle_violations,
    report_signature,
    train_scene_regressor,
)
from .geometry import Pose, RelativePose
from .neural import (
    Activation,
    MlpModel,
    TrainConfig,
    load_model,
    save_model,
    train_encoder,
    train_regressor,
)
from .synth import (
    FieldConfig,
    SceneConfig,
    StrayCase,
    SyntheticScene,
    gen_scene,
    load_scene,
    make_field,
    make_stray_case,
    save_scene,
)
from .vpr_map import Match, Origin, ReferenceMap, load_map, oracle_retrieve, origin_of, retrieve, save_map

__version__ = "0.1.0"
