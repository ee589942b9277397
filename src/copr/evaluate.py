"""Localization metrics, experiment protocols, and report emission.

The metrics are the median translation error (meters) and median rotation
error (degrees) over all queries, medians taken independently; even-sized
sets use the mean of the two middle values. Experiments mirror the
standard protocol shapes: subsample a trajectory, densify it back with one
or more regressors, and compare retrieval error against the sparse map,
the ground-truth dense map, and an oracle retriever that always returns
the physically closest reference.
"""

from __future__ import annotations

import csv as csv_module
import io
import json
import time
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .densify import (
    INTERPOLATION,
    METHOD_LIN_INTERP,
    METHOD_LIN_REG,
    METHOD_NONLIN_REG,
    DensifyConfig,
    TargetPlan,
    densify_map,
    gen_extrap_grid,
    gen_interp_targets,
    subsample_trajectory,
)
from .errors import DimMismatch, EmptyMap, InvalidConfig
from .files import write_files
from .geometry import angular_error_deg_many, relative_pose_rows
from .neural.core import MlpModel, forward_batch, regress_nonlinear_batch
from .neural.training import ENCODER_VARIANTS, TrainConfig, build_training_pairs, train_regressor
from .synth import SyntheticScene, make_encoder_dataset, make_observations
from .vpr_map import ReferenceMap, match_errors, nearest_neighbors, oracle_retrieve, origin_of, retrieve, retrieve_many

METHOD_LABELS = {
    METHOD_LIN_INTERP: "LinInterp",
    METHOD_LIN_REG: "LinReg",
    METHOD_NONLIN_REG: "NonLinReg",
}
# Anchors of each plane fit in the interpolation protocol.
_INTERP_NEIGHBORS = 4


@dataclass(frozen=True)
class PerQuery:
    translation_error: float
    rotation_error: float
    matched_id: str
    matched_origin: str


@dataclass(frozen=True)
class ErrorSummary:
    """Median errors plus the per-query results they summarize."""

    mte_m: float
    mre_deg: float
    per_query: tuple[PerQuery, ...]


def localize_and_summarize(queries, ref_map: ReferenceMap) -> ErrorSummary:
    """Retrieve the top match per query and summarize the pose errors.

    Each query is a (descriptor, pose) pair; its estimated pose is the
    retrieved reference's pose, so the translation error is the Euclidean
    gap between the two translations and the rotation error the quaternion
    angle. MTE and MRE are medians taken independently.
    """
    if len(ref_map) == 0:
        raise EmptyMap("cannot localize against an empty map")
    queries = list(queries)
    if not queries:
        return ErrorSummary(mte_m=float("nan"), mre_deg=float("nan"), per_query=())
    descriptors = [np.asarray(desc, dtype=np.float64).reshape(-1) for desc, _ in queries]
    if any(len(desc) != ref_map.dim for desc in descriptors):
        raise DimMismatch(f"query dims do not all match map dim {ref_map.dim}")
    matched = retrieve_many(np.asarray(descriptors), ref_map, k=1)[0][:, 0]
    query_t = np.asarray([pose.t for _, pose in queries])
    query_q = np.asarray([pose.q for _, pose in queries])
    return _summary(ref_map, matched, *match_errors(ref_map, matched, query_t, query_q))


def _oracle_summary(queries, ref_map: ReferenceMap) -> ErrorSummary:
    """The summary of :func:`oracle_retrieve` over all queries: each query
    matched to the physically closest reference, ties by index."""
    if len(ref_map) == 0:
        raise EmptyMap("cannot retrieve from an empty map")
    if not queries:
        return ErrorSummary(mte_m=float("nan"), mre_deg=float("nan"), per_query=())
    matched, d2 = nearest_neighbors(np.asarray([pose.t for _, pose in queries]), ref_map.translations, 1)
    r_errs = angular_error_deg_many(ref_map.quaternions[matched[:, 0]], np.asarray([pose.q for _, pose in queries]))
    return _summary(ref_map, matched[:, 0], np.sqrt(d2[:, 0]), r_errs)


def _summary(ref_map: ReferenceMap, matched: np.ndarray, t_errs: np.ndarray, r_errs: np.ndarray) -> ErrorSummary:
    """Per-query results and medians for queries matched to the map rows
    ``matched`` with translation errors ``t_errs`` and rotation errors ``r_errs``."""
    results = tuple(
        PerQuery(
            translation_error=te,
            rotation_error=re,
            matched_id=ref_map.ids[i],
            matched_origin=origin_of(ref_map.ids[i]).value,
        )
        for te, re, i in zip(t_errs.tolist(), r_errs.tolist(), matched.tolist())
    )
    return ErrorSummary(mte_m=float(np.median(t_errs)), mre_deg=float(np.median(r_errs)), per_query=results)


class _Table:
    """JSON and CSV forms shared by the report types: ``rows`` of the
    dataclass ``row_type``, one CSV column per field, plus a ``config`` dict."""

    row_type: type

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "rows": [asdict(r) for r in self.rows]}, indent=2)

    @classmethod
    def from_json(cls, text: str):
        doc = json.loads(text)
        return cls(rows=tuple(cls.row_type(**r) for r in doc["rows"]), config=doc["config"])

    def to_csv(self) -> str:
        """One row per report row, floats to 6 significant digits."""
        buf = io.StringIO()
        writer = csv_module.writer(buf, lineterminator="\n")
        writer.writerow([f.name for f in fields(self.row_type)])
        writer.writerows([f"{v:.6g}" if isinstance(v, float) else v for v in astuple(r)] for r in self.rows)
        return buf.getvalue()


@dataclass(frozen=True)
class ExperimentRow:
    experiment: str
    map: str
    densification: str
    retrieval: str
    mte_m: float
    mre_deg: float
    map_size: int
    t_train_s: float = 0.0
    t_dense_ms: float = 0.0
    t_enc_ms: float = 0.0
    t_match_ms: float = 0.0
    t_retr_ms: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class ExperimentReport(_Table):
    rows: tuple[ExperimentRow, ...]
    config: dict
    row_type = ExperimentRow


@dataclass(frozen=True)
class StrayRow:
    case_seed: int
    similarity: float
    rank_before: int
    rank_after: int
    demoted: bool
    stray_id: str


@dataclass(frozen=True)
class StrayReport(_Table):
    rows: tuple[StrayRow, ...]
    config: dict
    row_type = StrayRow


def report_text(report, fmt: str) -> str:
    """A report's file text: CSV (6 significant digits) or lossless JSON."""
    if fmt not in ("csv", "json"):
        raise InvalidConfig(f"unknown report format {fmt!r}")
    return report.to_csv() if fmt == "csv" else report.to_json() + "\n"


def emit_report(report, fmt: str, path) -> None:
    """Write a report as CSV (6 significant digits) or lossless JSON."""
    write_files((path, report_text(report, fmt)), what="report")


def report_signature(report: ExperimentReport) -> str:
    """Canonical report content with timing fields stripped.

    Two runs with identical seeds must agree on this signature exactly;
    wall-clock timings are the one legitimately nondeterministic part.
    """
    rows = []
    for r in report.rows:
        rows.append(
            replace(r, t_train_s=0.0, t_dense_ms=0.0, t_enc_ms=0.0, t_match_ms=0.0, t_retr_ms=0.0)
        )
    return ExperimentReport(rows=tuple(rows), config=report.config).to_json()


def oracle_violations(report: ExperimentReport) -> list[tuple[str, str, float, float]]:
    """Rows where a VPR MTE beats the oracle MTE of the same experiment group."""
    groups: dict[str, list[ExperimentRow]] = {}
    for row in report.rows:
        groups.setdefault(row.experiment, []).append(row)
    bad = []
    for name, rows in groups.items():
        oracle = [r.mte_m for r in rows if r.retrieval == "Oracle"]
        if not oracle:
            continue
        omte = min(oracle)
        for r in rows:
            if r.retrieval == "VPR" and r.mte_m < omte - 1e-12:
                bad.append((name, r.densification, omte, r.mte_m))
    return bad


def _timed_localize(queries, ref_map: ReferenceMap):
    start = time.perf_counter()
    summary = localize_and_summarize(queries, ref_map)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return summary, elapsed_ms / max(len(queries), 1)


def _time_encoding(scene: SyntheticScene) -> float:
    """Per-query field-evaluation time in ms (the synthetic 'encoder')."""
    queries = scene.query_map
    start = time.perf_counter()
    scene.field.eval_many(queries.translations, queries.quaternions)
    return (time.perf_counter() - start) * 1e3 / max(len(queries), 1)


def train_scene_regressor(
    scene: SyntheticScene,
    cfg: TrainConfig,
    max_translation: float,
    max_pairs: int,
    pair_seed: int | None = None,
) -> tuple[MlpModel, float]:
    """Train the descriptor regressor on the scene's training traverse.

    Returns (model, wall seconds). Pairs are ordered traverse pairs with
    relative translation capped at ``max_translation``, drawn with
    ``pair_seed``, which defaults to ``cfg.seed``.
    """
    start = time.perf_counter()
    pair_seed = cfg.seed if pair_seed is None else pair_seed
    pairs = build_training_pairs(scene.train_refs, max_translation, max_pairs, pair_seed)
    model = train_regressor(pairs, cfg, scene.dim)
    return model, time.perf_counter() - start


def _method_rows(
    experiment: str,
    scene_queries,
    sparse: ReferenceMap,
    plan: TargetPlan,
    methods,
    model: MlpModel | None,
    neighbors: int,
    seed: int,
    t_enc_ms: float,
    t_train_s: float,
    sparse_train_s: float = 0.0,
    gt: ReferenceMap | None = None,
):
    """Oracle row, GTMap row (with ``gt``), sparse row, and one VPR row per
    densification method.

    The oracle runs on ``gt`` when given, else on the first densified map,
    else on the sparse map.
    """
    dense_maps = {}
    dense_times = {}
    for method in methods:
        start = time.perf_counter()
        dense_maps[method] = densify_map(
            sparse, plan, method, model=model if method == METHOD_NONLIN_REG else None, neighbors=neighbors
        )
        dense_times[method] = (time.perf_counter() - start) * 1e3

    def vpr_row(map_name, densification, ref_map, **timings):
        summary, t_match = _timed_localize(scene_queries, ref_map)
        return ExperimentRow(
            experiment=experiment,
            map=map_name,
            densification=densification,
            retrieval="VPR",
            mte_m=summary.mte_m,
            mre_deg=summary.mre_deg,
            map_size=len(ref_map),
            t_enc_ms=t_enc_ms,
            t_match_ms=t_match,
            t_retr_ms=t_enc_ms + t_match,
            seed=seed,
            **timings,
        )

    oracle_map = gt if gt is not None else next(iter(dense_maps.values()), sparse)
    osum = _oracle_summary(scene_queries, oracle_map)
    rows = [
        ExperimentRow(
            experiment=experiment,
            map="M_sparse" if gt is None and not dense_maps else "M_dense",
            densification="-",
            retrieval="Oracle",
            mte_m=osum.mte_m,
            mre_deg=osum.mre_deg,
            map_size=len(oracle_map),
            seed=seed,
        )
    ]
    if gt is not None:
        rows.append(vpr_row("M_dense", "GTMap", gt))
    rows.append(vpr_row("M_sparse", "-", sparse, t_train_s=sparse_train_s))
    for method in methods:
        rows.append(
            vpr_row(
                "M_dense",
                METHOD_LABELS[method],
                dense_maps[method],
                t_train_s=t_train_s if method == METHOD_NONLIN_REG else 0.0,
                t_dense_ms=dense_times[method],
            )
        )
    return rows


def _report(rows, scene: SyntheticScene, seed: int, **config) -> ExperimentReport:
    """An experiment report whose config ends with the seed and the scene's two configs."""
    config.update(seed=seed, scene_config=asdict(scene.scene_cfg), field_config=asdict(scene.field_cfg))
    return ExperimentReport(rows=tuple(rows), config=config)


def exp_interpolation(
    scene: SyntheticScene,
    stride: int,
    methods=(METHOD_LIN_INTERP, METHOD_LIN_REG, METHOD_NONLIN_REG),
    model: MlpModel | None = None,
    seed: int = 0,
    t_train_s: float = 0.0,
) -> ExperimentReport:
    """Subsample the trajectory and regress the dropped poses back.

    Emits: oracle on the dense pose set, VPR on the ground-truth dense
    map, VPR on the sparse map, and VPR on each densified map.
    """
    gt = scene.gt_dense
    anchors, dropped = subsample_trajectory(gt, stride)
    if len(anchors) >= 2:
        plan = gen_interp_targets(anchors, dropped=dropped)
    else:
        plan = TargetPlan(INTERPOLATION, (), np.zeros((0, 3)), np.zeros((0, 4)), ())
    t_enc = _time_encoding(scene)
    rows = _method_rows(
        "interp", scene.queries, anchors, plan, methods, model, _INTERP_NEIGHBORS, seed, t_enc, t_train_s, gt=gt
    )
    return _report(
        rows, scene, seed, experiment="interp", stride=stride, methods=list(methods), neighbors=_INTERP_NEIGHBORS
    )


def exp_extrapolation(
    scene: SyntheticScene,
    cfg: DensifyConfig,
    methods=(METHOD_LIN_REG, METHOD_NONLIN_REG),
    model: MlpModel | None = None,
    step_list=None,
    seed: int = 0,
    t_train_s: float = 0.0,
) -> ExperimentReport:
    """Grid-extrapolate around trajectory anchors and relocalize.

    The full trajectory is the sparse map; every ``cfg.stride``-th entry
    becomes a grid anchor. With ``step_list``, one row group is emitted
    per grid step (the dedupe radius scales proportionally with the step).
    """
    sparse = scene.gt_dense
    anchors, _ = subsample_trajectory(sparse, cfg.stride)
    t_enc = _time_encoding(scene)
    steps = list(step_list) if step_list is not None else [cfg.grid_step]
    rows = []
    for step in steps:
        step_cfg = replace(
            cfg,
            grid_step=step,
            grid_span=max(cfg.grid_span, step),
            dedupe_radius=cfg.dedupe_radius * (step / cfg.grid_step),
        )
        plan = gen_extrap_grid(anchors, step_cfg)
        label = "extrap" if step_list is None else f"extrap[step={step:g}]"
        rows.extend(
            _method_rows(
                label, scene.queries, sparse, plan, methods, model, cfg.neighbors, seed, t_enc, t_train_s
            )
        )
    experiment = "extrap" if step_list is None else "sweep"
    return _report(
        rows, scene, seed, experiment=experiment, densify_config=asdict(cfg), steps=steps, methods=list(methods)
    )


def exp_encoders(
    scene: SyntheticScene,
    densify_cfg: DensifyConfig,
    encoder_cfgs: dict,
    regressor_cfg: TrainConfig,
    max_translation: float,
    max_pairs: int,
    nuisance_sigma: float,
    seed: int = 0,
) -> ExperimentReport:
    """Sparse-vs-dense localization for each encoder training objective.

    For every variant in ``ENCODER_VARIANTS`` an encoder, configured by
    ``encoder_cfgs[variant]``, is trained on the scene's observation
    dataset, all maps are re-encoded through it, a regressor is trained in
    that descriptor space, and the extrapolation protocol runs on the
    encoded maps. Emits a {sparse, dense} row pair (plus an oracle row)
    per variant.
    """
    from .neural.training import train_encoder

    dataset = make_encoder_dataset(scene, nuisance_sigma=nuisance_sigma, seed=seed)
    n = scene.dim
    seeds = np.random.SeedSequence([scene.scene_cfg.seed, 613, seed]).spawn(3)
    ref_rng = np.random.default_rng(seeds[0])
    query_rng = np.random.default_rng(seeds[1])
    queries = scene.query_map
    query_poses = [pose for _, pose in scene.queries]
    rows = []
    encoder_seconds = {}
    for variant in ENCODER_VARIANTS:
        start = time.perf_counter()
        encoder = train_encoder(dataset, variant, encoder_cfgs[variant])
        encoder_seconds[variant] = time.perf_counter() - start

        ref_obs = make_observations(
            scene.field, scene.gt_dense.translations, scene.gt_dense.quaternions,
            np.random.default_rng(ref_rng.integers(2**63)), nuisance_sigma,
        )
        sparse_e = replace(scene.gt_dense, descriptors=forward_batch(encoder, ref_obs)[0])
        enc_start = time.perf_counter()
        q_obs = make_observations(
            scene.field, queries.translations, queries.quaternions,
            np.random.default_rng(query_rng.integers(2**63)), nuisance_sigma,
        )
        q_desc, _ = forward_batch(encoder, q_obs)
        t_enc = (time.perf_counter() - enc_start) * 1e3 / max(len(queries), 1)
        queries_e = list(zip(q_desc, query_poses))

        train_e = replace(scene.train_refs, descriptors=forward_batch(encoder, dataset.observations)[0])
        h_start = time.perf_counter()
        pairs = build_training_pairs(train_e, max_translation, max_pairs, seed)
        h_model = train_regressor(pairs, regressor_cfg, n)
        t_train = time.perf_counter() - h_start

        anchors, _ = subsample_trajectory(sparse_e, densify_cfg.stride)
        plan = gen_extrap_grid(anchors, densify_cfg)
        rows.extend(
            _method_rows(
                f"encoders:{variant}",
                queries_e,
                sparse_e,
                plan,
                (METHOD_NONLIN_REG,),
                h_model,
                densify_cfg.neighbors,
                seed,
                t_enc,
                t_train,
                sparse_train_s=encoder_seconds[variant],
            )
        )
    return _report(
        rows, scene, seed, experiment="encoders", variants=list(ENCODER_VARIANTS), densify_config=asdict(densify_cfg),
        max_translation=max_translation, max_pairs=max_pairs, nuisance_sigma=nuisance_sigma,
    )


def exp_stray(cases, model: MlpModel) -> StrayReport:
    """Rank the stray reference before and after adding a regressed entry.

    The regressed entry stands at the query pose, predicted from the
    nearest of the four honest local references. Ranks are 1-based
    positions in the retrieval ordering.
    """
    rows = []
    for case in cases:
        if model.output_dim != case.refs.dim:
            raise DimMismatch("regressor output dim does not match the stray-case descriptor dim")
        stray = case.stray_pose
        before = case.refs.extended((case.stray_id,), case.stray_descriptor[None], stray.t, stray.q)
        matches = retrieve(case.query_descriptor, before, k=len(before))
        rank_before = 1 + next(i for i, m in enumerate(matches) if m.ref_id == case.stray_id)

        i = oracle_retrieve(case.query_pose, case.refs).ref_index
        anchor = case.refs.pose(i)
        dp = relative_pose_rows(anchor.t, anchor.q, case.query_pose.t, case.query_pose.q)
        regressed = regress_nonlinear_batch(model, case.refs.descriptors[i : i + 1], dp)
        after = before.extended(("regressed#q",), regressed, case.query_pose.t, case.query_pose.q)
        matches = retrieve(case.query_descriptor, after, k=len(after))
        rank_after = 1 + next(i for i, m in enumerate(matches) if m.ref_id == case.stray_id)
        rows.append(
            StrayRow(
                case_seed=case.case_seed,
                similarity=case.similarity,
                rank_before=rank_before,
                rank_after=rank_after,
                demoted=rank_after > 1,
                stray_id=case.stray_id,
            )
        )
    config = {"experiment": "stray", "cases": len(rows)}
    return StrayReport(rows=tuple(rows), config=config)
