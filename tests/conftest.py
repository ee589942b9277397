"""Session fixtures building the benchmark artifacts exactly once.

The heavyweight pieces (scene generation, regressor and encoder training,
experiment reports) are shared between the module tests and the acceptance
suite. Wall-clock build times are recorded where acceptance criteria put a
budget on them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from copr import benchmarks as B
from copr.evaluate import (
    ExperimentReport,
    StrayReport,
    exp_encoders,
    exp_extrapolation,
    exp_interpolation,
    exp_stray,
    train_scene_regressor,
)
from copr.neural.core import MlpModel
from copr.synth import SyntheticScene


@dataclass
class SceneBundle:
    scene: SyntheticScene
    model: MlpModel | None
    train_seconds: float
    build_seconds: float


def _build_bundle(name, train_cfg=None, cap=None, max_pairs=None) -> SceneBundle:
    start = time.perf_counter()
    scene = B.make_benchmark_scene(name)
    model = None
    train_seconds = 0.0
    if train_cfg is not None:
        model, train_seconds = train_scene_regressor(scene, train_cfg, cap, max_pairs)
    return SceneBundle(scene, model, train_seconds, time.perf_counter() - start)


@pytest.fixture(scope="session")
def loop_bundle() -> SceneBundle:
    return _build_bundle("loop", B.LOOP_TRAIN, B.LOOP_PAIR_CAP, B.LOOP_PAIR_MAX)


@pytest.fixture(scope="session")
def lanes_bundle() -> SceneBundle:
    return _build_bundle("lanes", B.LANES_TRAIN, B.LANES_PAIR_CAP, B.LANES_PAIR_MAX)


@pytest.fixture(scope="session")
def affine_bundle() -> SceneBundle:
    return _build_bundle("affine-loop")


@pytest.fixture(scope="session")
def multi_bundle() -> SceneBundle:
    return _build_bundle("multiscene", B.MULTI_TRAIN, B.MULTI_PAIR_CAP, B.MULTI_PAIR_MAX)


@dataclass
class ReportBundle:
    loop_extrap: ExperimentReport
    loop_sweep: ExperimentReport
    lanes_extrap: ExperimentReport
    affine_interp: ExperimentReport
    encoders: ExperimentReport
    stray: StrayReport
    loop_seconds: float
    lanes_seconds: float
    encoders_seconds: float


def build_all_reports(loop: SceneBundle, lanes: SceneBundle, affine: SceneBundle, multi: SceneBundle) -> ReportBundle:
    t0 = time.perf_counter()
    loop_extrap = exp_extrapolation(
        loop.scene, B.LOOP_DENSIFY, model=loop.model, seed=B.LOOP_SCENE.seed, t_train_s=loop.train_seconds
    )
    loop_sweep = exp_extrapolation(
        loop.scene,
        B.LOOP_DENSIFY,
        methods=("nonlin_reg",),
        model=loop.model,
        step_list=list(B.SWEEP_STEPS),
        seed=B.LOOP_SCENE.seed,
        t_train_s=loop.train_seconds,
    )
    loop_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    lanes_extrap = exp_extrapolation(
        lanes.scene, B.LANES_DENSIFY, model=lanes.model, seed=B.LANES_SCENE.seed, t_train_s=lanes.train_seconds
    )
    lanes_seconds = time.perf_counter() - t0

    affine_interp = exp_interpolation(
        affine.scene, B.AFFINE_INTERP_STRIDE, methods=("lin_interp", "lin_reg"), seed=B.AFFINE_SCENE.seed
    )

    t0 = time.perf_counter()
    encoders = exp_encoders(
        multi.scene,
        B.MULTI_DENSIFY,
        encoder_cfgs=B.ENCODER_CONFIGS,
        regressor_cfg=B.ENCODER_REGRESSOR,
        max_translation=B.MULTI_PAIR_CAP,
        max_pairs=B.ENCODER_PAIR_MAX,
        nuisance_sigma=B.MULTI_NUISANCE_SIGMA,
        seed=B.MULTI_SCENE.seed,
    )
    encoders_seconds = time.perf_counter() - t0

    stray = exp_stray(B.make_stray_benchmark_cases(), multi.model)
    return ReportBundle(
        loop_extrap=loop_extrap,
        loop_sweep=loop_sweep,
        lanes_extrap=lanes_extrap,
        affine_interp=affine_interp,
        encoders=encoders,
        stray=stray,
        loop_seconds=loop_seconds,
        lanes_seconds=lanes_seconds,
        encoders_seconds=encoders_seconds,
    )


@pytest.fixture(scope="session")
def report_bundle(loop_bundle, lanes_bundle, affine_bundle, multi_bundle) -> ReportBundle:
    return build_all_reports(loop_bundle, lanes_bundle, affine_bundle, multi_bundle)


def mte_of(report: ExperimentReport, experiment: str, map_label: str, densification: str, retrieval: str = "VPR") -> float:
    for r in report.rows:
        if (
            r.experiment == experiment
            and r.map == map_label
            and r.densification == densification
            and r.retrieval == retrieval
        ):
            return r.mte_m
    raise KeyError(f"no row {experiment}/{map_label}/{densification}/{retrieval}")
