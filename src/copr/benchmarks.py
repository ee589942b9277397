"""Fixed desk-scale benchmark definitions and the pipeline built from them.

These configs (and their seeds) pin down the scenes the acceptance suite,
``copr pipeline`` and the CLI shortcuts run on. Encoder learning rates here
are scaled up from the library defaults so the tiny synthetic encoders
actually move within desk-scale epoch budgets; the relative ordering
between variants is preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .densify import DensifyConfig
from .evaluate import (
    ExperimentReport,
    StrayReport,
    exp_encoders,
    exp_extrapolation,
    exp_interpolation,
    exp_stray,
    report_signature,
    train_scene_regressor,
)
from .neural.core import MlpModel
from .neural.training import TrainConfig
from .synth import FieldConfig, SceneConfig, SyntheticScene, gen_scene, make_stray_case

SWEEP_STEPS = (0.4, 0.2, 0.1, 0.05)
STRAY_SIMILARITY = 0.9
STRAY_CASES = 4

LOOP_FIELD = FieldConfig(
    dim=32, kind="random_fourier", num_waves=10, freq_scale=1.6, orientation_weight=0.1, seed=2101
)
LOOP_SCENE = SceneConfig(layout="loop", n_refs=1000, extent_m=10.0, query_offset_m=0.3, seed=2102)
LOOP_DENSIFY = DensifyConfig(stride=10, grid_step=0.05, grid_span=0.4, neighbors=4, dedupe_radius=0.025)
LOOP_TRAIN = TrainConfig(lr=5e-4, epochs=150, batch_size=64, seed=2103, validation_fraction=0.4, early_stop_patience=20)
LOOP_PAIR_CAP = 0.6
LOOP_PAIR_MAX = 8000

AFFINE_FIELD = FieldConfig(dim=16, kind="affine", seed=2201)
AFFINE_SCENE = SceneConfig(layout="loop", n_refs=600, extent_m=8.0, query_offset_m=0.25, seed=2202)
AFFINE_INTERP_STRIDE = 50

LANES_FIELD = FieldConfig(
    dim=16, kind="random_fourier", num_waves=10, freq_scale=0.5, orientation_weight=0.1, seed=2301
)
LANES_SCENE = SceneConfig(layout="parallel_lanes", n_per_lane=160, lane_offset_m=1.8, seed=2302)
LANES_DENSIFY = DensifyConfig(stride=4, grid_step=1.8, grid_span=1.8, neighbors=4, dedupe_radius=0.9)
LANES_TRAIN = TrainConfig(lr=5e-4, epochs=120, batch_size=32, seed=2303, validation_fraction=0.4, early_stop_patience=20)
LANES_PAIR_CAP = 3.0
LANES_PAIR_MAX = 6000

MULTI_FIELD = FieldConfig(
    dim=8, kind="random_fourier", num_waves=8, freq_scale=0.6, orientation_weight=0.1, seed=2401
)
MULTI_SCENE = SceneConfig(
    layout="multi_scene", n_scenes=3, scene_spacing_m=40.0, refs_per_scene=150, query_offset_m=0.5, seed=2402
)
MULTI_DENSIFY = DensifyConfig(stride=10, grid_step=0.1, grid_span=0.6, neighbors=4, dedupe_radius=0.05)
MULTI_TRAIN = TrainConfig(lr=5e-4, epochs=120, batch_size=32, seed=2403, validation_fraction=0.4, early_stop_patience=20)
MULTI_PAIR_CAP = 1.5
MULTI_PAIR_MAX = 6000
MULTI_NUISANCE_SIGMA = 0.1

ENCODER_CONFIGS = {
    "triplet": TrainConfig(lr=1e-4, epochs=150, batch_size=32, seed=2404, validation_fraction=0.4, early_stop_patience=15),
    "relative": TrainConfig(lr=3e-4, epochs=150, batch_size=32, seed=2405, validation_fraction=0.4, early_stop_patience=15),
    "distance": TrainConfig(lr=5e-4, epochs=150, batch_size=32, seed=2406, validation_fraction=0.4, early_stop_patience=15),
}
ENCODER_REGRESSOR = TrainConfig(lr=5e-4, epochs=150, batch_size=32, seed=2407, validation_fraction=0.4, early_stop_patience=20)
ENCODER_PAIR_MAX = 6000

NAMED_SCENES = {
    "loop": (LOOP_SCENE, LOOP_FIELD),
    "affine-loop": (AFFINE_SCENE, AFFINE_FIELD),
    "lanes": (LANES_SCENE, LANES_FIELD),
    "multiscene": (MULTI_SCENE, MULTI_FIELD),
}


def make_benchmark_scene(name: str) -> SyntheticScene:
    scene_cfg, field_cfg = NAMED_SCENES[name]
    return gen_scene(scene_cfg, field_cfg)


# Each benchmark scene's regressor training (config, pair cap, pair count);
# affine-loop trains none.
_REGRESSORS = {
    "loop": (LOOP_TRAIN, LOOP_PAIR_CAP, LOOP_PAIR_MAX),
    "lanes": (LANES_TRAIN, LANES_PAIR_CAP, LANES_PAIR_MAX),
    "multiscene": (MULTI_TRAIN, MULTI_PAIR_CAP, MULTI_PAIR_MAX),
}


@dataclass(frozen=True)
class Pipeline:
    """One build of the pinned pipeline: each ``NAMED_SCENES`` scene, the
    regressor of each scene that trains one, the six reports by name, and
    the wall seconds of each stage: ``<scene>`` generates the scene and
    trains its regressor, ``<scene> reports`` runs the reports on it."""

    scenes: dict[str, SyntheticScene]
    models: dict[str, MlpModel]
    reports: dict[str, ExperimentReport | StrayReport]
    seconds: dict[str, float]


def build_pipeline() -> Pipeline:
    """Generate every benchmark scene, train its regressor and run its reports.

    Every report is a pure function of the pinned seeds, so two builds
    agree on :func:`pipeline_signatures`; only the timings differ.
    """
    scenes, models, train_s, seconds = {}, {}, {}, {}
    clock = [time.perf_counter()]

    def lap(stage: str) -> None:
        clock.append(time.perf_counter())
        seconds[stage] = clock[-1] - clock[-2]

    for name in NAMED_SCENES:
        scenes[name] = make_benchmark_scene(name)
        if name in _REGRESSORS:
            models[name], train_s[name] = train_scene_regressor(scenes[name], *_REGRESSORS[name])
        lap(name)

    loop = dict(model=models["loop"], seed=LOOP_SCENE.seed, t_train_s=train_s["loop"])
    reports = {
        "loop_extrap": exp_extrapolation(scenes["loop"], LOOP_DENSIFY, **loop),
        "loop_sweep": exp_extrapolation(
            scenes["loop"], LOOP_DENSIFY, methods=("nonlin_reg",), step_list=list(SWEEP_STEPS), **loop
        ),
    }
    lap("loop reports")
    reports["lanes_extrap"] = exp_extrapolation(
        scenes["lanes"], LANES_DENSIFY, model=models["lanes"], seed=LANES_SCENE.seed, t_train_s=train_s["lanes"]
    )
    lap("lanes reports")
    reports["affine_interp"] = exp_interpolation(
        scenes["affine-loop"], AFFINE_INTERP_STRIDE, methods=("lin_interp", "lin_reg"), seed=AFFINE_SCENE.seed
    )
    lap("affine-loop reports")
    reports["encoders"] = exp_encoders(
        scenes["multiscene"], MULTI_DENSIFY, encoder_cfgs=ENCODER_CONFIGS, regressor_cfg=ENCODER_REGRESSOR,
        max_translation=MULTI_PAIR_CAP, max_pairs=ENCODER_PAIR_MAX, nuisance_sigma=MULTI_NUISANCE_SIGMA,
        seed=MULTI_SCENE.seed,
    )
    cases = [make_stray_case(MULTI_SCENE, MULTI_FIELD, STRAY_SIMILARITY, case_seed=i) for i in range(STRAY_CASES)]
    reports["stray"] = exp_stray(cases, models["multiscene"])
    lap("multiscene reports")
    return Pipeline(scenes, models, reports, seconds)


def pipeline_signatures(reports: dict) -> dict[str, str]:
    """What two pipeline builds must agree on exactly: each experiment
    report's ``report_signature`` and each stray report's JSON."""
    return {
        name: report.to_json() if isinstance(report, StrayReport) else report_signature(report)
        for name, report in reports.items()
    }
