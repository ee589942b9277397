"""Command-line entry point.

Subcommands: synth, train-h, train-encoder, densify, retrieve, eval, and
exp {interp, extrap, sweep, encoders, stray}. Each command, and each exp
kind, accepts only the flags it reads; exp flags follow the kind. synth,
train-h, train-encoder, densify and exp take an optional JSON --config, a
--seed override and generic --set dot.path=value overrides, which take
precedence over config keys; only exp writes a report and takes --format.
Each command accepts only the config keys it reads and refuses any other,
naming its dotted path; retrieve and eval read no config. Each run that
writes files echoes its resolved configuration next to them.

Exit codes: 0 success, 1 validation error or bad usage, 2 I/O error.
stdout carries machine-readable output only; human-facing logs go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import benchmarks
from .densify import (
    METHOD_LIN_INTERP,
    METHOD_LIN_REG,
    METHOD_NONLIN_REG,
    DensifyConfig,
    densify_map,
    gen_extrap_grid,
    gen_interp_targets,
    subsample_trajectory,
)
from .errors import CoprError, InvalidConfig, IoError
from .evaluate import (
    emit_report,
    exp_encoders,
    exp_extrapolation,
    exp_interpolation,
    exp_stray,
    localize_and_summarize,
    train_scene_regressor,
)
from .geometry import angular_error_deg_many, pose_blocks, row_dots
from .neural.model_io import load_model, save_model
from .neural.training import TrainConfig, train_encoder
from .synth import (
    FieldConfig,
    SceneConfig,
    gen_scene,
    load_scene,
    make_encoder_dataset,
    make_stray_case,
    save_scene,
)
from .vpr_map import load_descriptor_block, load_map, retrieve_many, save_map

_METHOD_FLAGS = {
    "lin-interp": METHOD_LIN_INTERP,
    "lin-reg": METHOD_LIN_REG,
    "nonlin-reg": METHOD_NONLIN_REG,
}
# The flags that override a DensifyConfig field: the field each sets, and its type.
_GRID_FLAGS = {
    "--stride": ("stride", int),
    "--e-step": ("grid_step", float),
    "--e-span": ("grid_span", float),
    "--neighbors": ("neighbors", int),
    "--dedupe-radius": ("dedupe_radius", float),
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc


def _apply_set_overrides(cfg: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise InvalidConfig(f"--set expects dot.path=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise InvalidConfig(f"--set path {dotted!r} crosses a non-object key")
        node[keys[-1]] = value
    return cfg


def _fields(cls) -> frozenset:
    return frozenset(f.name for f in fields(cls))


# The config keys each command reads: a section maps to the fields it may
# hold, a scalar key to None.
_SCENE_KEYS = {"scene": _fields(SceneConfig), "field": _fields(FieldConfig)}
_DENSIFY_KEYS = {"densify": _fields(DensifyConfig)}
_MODEL_KEYS = {"train": _fields(TrainConfig), "pair_cap": None, "max_pairs": None}


def _config(args) -> dict:
    """The --config file with the --set overrides applied.

    Raises:
        InvalidConfig: a key, or a field of a section, that the command
            does not read; the message names its dotted path.
    """
    cfg = _apply_set_overrides(_load_config(args.config), args.set)
    keys = args.config_keys
    command = f"exp {args.kind}" if args.command == "exp" else args.command
    unread = [key for key in cfg if key not in keys]
    for key, section in keys.items():
        if section is None or key not in cfg:
            continue
        if not isinstance(cfg[key], dict):
            raise InvalidConfig(f"config key {key!r} of {command} must be an object")
        unread += [f"{key}.{name}" for name in cfg[key] if name not in section]
    if unread:
        readable = []
        for key, section in keys.items():
            readable += [key] if section is None else [f"{key}.{name}" for name in sorted(section)]
        raise InvalidConfig(f"{command} reads no config key {unread[0]!r}; it reads {', '.join(readable)}")
    return cfg


def _echo_config(resolved: dict, out_path: Path) -> None:
    echo_path = out_path.parent / (out_path.name + ".config.json")
    echo_path.parent.mkdir(parents=True, exist_ok=True)
    echo_path.write_text(json.dumps(resolved, indent=2, default=str) + "\n", encoding="utf-8")


def _train_config(section: dict, seed_override: int | None) -> TrainConfig:
    kwargs = dict(section)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return TrainConfig(**kwargs)


def _densify_config(section: dict, args) -> DensifyConfig:
    kwargs = dict(section)
    kwargs.update({key: getattr(args, key) for key, _ in _GRID_FLAGS.values() if getattr(args, key) is not None})
    kwargs.setdefault("grid_span", max(kwargs.get("grid_step", 0.05), 0.05))
    return DensifyConfig(**kwargs)


def _scene_model(args, scene, cfg: dict, default_cap: float):
    if getattr(args, "model", None):
        return load_model(args.model), 0.0
    train_section = cfg.get("train", {})
    tc = _train_config(train_section, getattr(args, "seed", None))
    cap = cfg.get("pair_cap", default_cap)
    max_pairs = cfg.get("max_pairs", 6000)
    _log(f"training regressor (cap={cap} m, max_pairs={max_pairs}, seed={tc.seed})")
    return train_scene_regressor(scene, tc, cap, max_pairs, pair_seed=tc.seed)


def _cmd_synth(args) -> int:
    cfg = _config(args)
    if args.benchmark:
        scene_cfg, field_cfg = benchmarks.NAMED_SCENES[args.benchmark]
        if args.seed is not None:
            scene_cfg = SceneConfig(**{**asdict(scene_cfg), "seed": args.seed})
    else:
        if "scene" not in cfg or "field" not in cfg:
            raise InvalidConfig("synth needs --benchmark or a config with 'scene' and 'field' sections")
        scene_kwargs = dict(cfg["scene"])
        if args.seed is not None:
            scene_kwargs["seed"] = args.seed
        scene_cfg = SceneConfig(**scene_kwargs)
        field_cfg = FieldConfig(**cfg["field"])
    scene = gen_scene(scene_cfg, field_cfg)
    out = Path(args.out)
    save_scene(scene, out)
    _echo_config(
        {"command": "synth", "scene_config": asdict(scene_cfg), "field_config": asdict(field_cfg)},
        out / "scene.json",
    )
    _log(f"scene written to {out} ({len(scene.gt_dense)} refs, {len(scene.query_map)} queries)")
    return 0


def _cmd_train_h(args) -> int:
    cfg = _config(args)
    scene = load_scene(args.scene)
    model, seconds = _scene_model(args, scene, cfg, default_cap=1.0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _echo_config({"command": "train-h", "scene": str(args.scene), "config": cfg, "seconds": seconds}, out)
    _log(f"regressor written to {out} ({seconds:.1f}s)")
    return 0


def _cmd_train_encoder(args) -> int:
    cfg = _config(args)
    scene = load_scene(args.scene)
    dataset = make_encoder_dataset(scene, nuisance_sigma=cfg.get("nuisance_sigma", 1.0))
    tc = _train_config(cfg.get("train", {}), args.seed) if cfg.get("train") or args.seed is not None else None
    encoder = train_encoder(dataset, args.variant, tc)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(encoder, out)
    _echo_config({"command": "train-encoder", "variant": args.variant, "config": cfg}, out)
    _log(f"{args.variant} encoder written to {out}")
    return 0


def _cmd_densify(args) -> int:
    cfg = _config(args)
    scene = load_scene(args.scene)
    dc = _densify_config(cfg.get("densify", {}), args)
    method = _METHOD_FLAGS[args.method]
    sparse = scene.gt_dense
    if args.scheme == "interp":
        anchors, dropped = subsample_trajectory(sparse, dc.stride)
        plan = gen_interp_targets(anchors, dropped=dropped)
        base = anchors
    else:
        anchors, _ = subsample_trajectory(sparse, dc.stride)
        plan = gen_extrap_grid(anchors, dc)
        base = sparse
    model = None
    if method == METHOD_NONLIN_REG:
        model, _ = _scene_model(args, scene, cfg, default_cap=max(1.0, dc.grid_span * 2))
    dense = densify_map(base, plan, method, model=model, neighbors=dc.neighbors)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_map(dense, out / "dense_poses.csv", out / "dense_descriptors.bin")
    (out / "plan.json").write_text(plan.to_json() + "\n", encoding="utf-8")
    _echo_config(
        {"command": "densify", "method": args.method, "scheme": args.scheme, "densify_config": asdict(dc)},
        out / "dense_poses.csv",
    )
    _log(f"dense map written to {out} ({len(dense)} entries, {len(plan.targets)} regressed)")
    return 0


def _cmd_retrieve(args) -> int:
    ref_map = load_map(Path(args.map) / "refs_poses.csv", Path(args.map) / "refs_descriptors.bin")
    if args.query_poses:
        queries = load_map(args.query_poses, args.query)
        ids, descriptors = queries.ids, queries.descriptors
    else:
        descriptors = load_descriptor_block(args.query)
        ids = [f"q{i:05d}" for i in range(descriptors.shape[0])]
    indices, distances = retrieve_many(descriptors, ref_map, args.k)
    m, k = indices.shape
    t_err = r_err = [[None] * k] * m  # null when the query poses are unknown
    if args.query_poses:
        # Each error is bit-equal to np.linalg.norm / angular_error_deg against Pose(t, q) of its query.
        query_t, query_q = pose_blocks(queries.translations, queries.quaternions)
        diff = (ref_map.translations[indices] - query_t[:, None]).reshape(-1, 3)
        t_err = np.sqrt(row_dots(diff, diff)).reshape(m, k).tolist()
        ref_q = ref_map.quaternions[indices].reshape(-1, 4)
        r_err = angular_error_deg_many(ref_q, np.repeat(query_q, k, axis=0)).reshape(m, k).tolist()
    for query_id, row, dists, ts, rs in zip(ids, indices.tolist(), distances.tolist(), t_err, r_err):
        matches = [
            {"ref_id": ref_map.ids[i], "feature_distance": d, "translation_error": te, "rotation_error": re}
            for i, d, te, re in zip(row, dists, ts, rs)
        ]
        print(json.dumps({"query_id": query_id, "matches": matches}))
    return 0


def _cmd_eval(args) -> int:
    scene = load_scene(args.scene)
    if args.map:
        ref_map = load_map(Path(args.map) / "dense_poses.csv", Path(args.map) / "dense_descriptors.bin")
    else:
        ref_map = scene.gt_dense
    summary = localize_and_summarize(scene.queries, ref_map)
    doc = {
        "mte_m": summary.mte_m,
        "mre_deg": summary.mre_deg,
        "queries": len(summary.per_query),
        "map_size": len(ref_map),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        _echo_config({"command": "eval", "scene": str(args.scene), "map": str(args.map)}, Path(args.out))
    else:
        print(json.dumps(doc))
    return 0


def _exp_regressor(args, scene, cfg: dict, default_methods: tuple, default_cap: float):
    """The methods to run, and the regressor and its training seconds when nonlin-reg is one of them."""
    methods = tuple(_METHOD_FLAGS[m] for m in args.methods) if args.methods else default_methods
    if METHOD_NONLIN_REG not in methods:
        return methods, None, 0.0
    return (methods, *_scene_model(args, scene, cfg, default_cap))


def _exp_interp(args, cfg: dict, seed: int):
    scene = load_scene(args.scene)
    stride = args.stride if args.stride is not None else cfg.get("densify", {}).get("stride", 50)
    methods, model, t_train = _exp_regressor(
        args, scene, cfg, (METHOD_LIN_INTERP, METHOD_LIN_REG, METHOD_NONLIN_REG), default_cap=1.0
    )
    return exp_interpolation(scene, stride, methods=methods, model=model, seed=seed, t_train_s=t_train)


def _exp_extrap(args, cfg: dict, seed: int):
    scene = load_scene(args.scene)
    dc = _densify_config(cfg.get("densify", {}), args)
    steps = None
    if args.kind == "sweep":
        steps = [float(s) for s in args.steps.split(",")] if args.steps else list(benchmarks.SWEEP_STEPS)
    methods, model, t_train = _exp_regressor(
        args, scene, cfg, (METHOD_LIN_REG, METHOD_NONLIN_REG), default_cap=max(1.0, dc.grid_span * 2)
    )
    return exp_extrapolation(scene, dc, methods=methods, model=model, step_list=steps, seed=seed, t_train_s=t_train)


def _exp_encoders(args, cfg: dict, seed: int):
    return exp_encoders(
        load_scene(args.scene),
        _densify_config(cfg.get("densify", {}), args),
        encoder_cfgs=benchmarks.ENCODER_CONFIGS,
        regressor_cfg=benchmarks.ENCODER_REGRESSOR,
        max_translation=cfg.get("pair_cap", benchmarks.MULTI_PAIR_CAP),
        max_pairs=cfg.get("max_pairs", benchmarks.ENCODER_PAIR_MAX),
        nuisance_sigma=cfg.get("nuisance_sigma", benchmarks.MULTI_NUISANCE_SIGMA),
        seed=seed,
    )


def _exp_stray(args, cfg: dict, seed: int):
    if args.scene:
        scene = load_scene(args.scene)
    elif cfg.get("scene") and cfg.get("field"):
        scene = gen_scene(SceneConfig(**cfg["scene"]), FieldConfig(**cfg["field"]))
    else:
        scene = gen_scene(benchmarks.MULTI_SCENE, benchmarks.MULTI_FIELD)
    cases = [
        make_stray_case(scene.scene_cfg, scene.field_cfg, args.similarity, case_seed=i) for i in range(args.cases)
    ]
    model, _ = _scene_model(args, scene, cfg, default_cap=benchmarks.MULTI_PAIR_CAP)
    return exp_stray(cases, model)


def _cmd_exp(args) -> int:
    cfg = _config(args)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report = args.run(args, cfg, seed)
    emit_report(report, args.format, out)
    _echo_config({"command": f"exp {args.kind}", "config": cfg, "seed": seed}, out)
    _log(f"report written to {out} ({len(report.rows)} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="copr", description="Descriptor-map densification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def configurable(p, config_keys):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--set", action="append", metavar="PATH=VALUE", help="override a config key (dot path)")
        p.set_defaults(config_keys=config_keys)

    def grid_flags(p):
        for flag, (key, kind) in _GRID_FLAGS.items():
            p.add_argument(flag, type=kind, dest=key)

    p = sub.add_parser("synth", help="generate and export a synthetic scene")
    configurable(p, _SCENE_KEYS)
    p.add_argument("--out", required=True)
    p.add_argument("--benchmark", choices=sorted(benchmarks.NAMED_SCENES))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-h", help="train the descriptor regressor on a scene")
    configurable(p, _MODEL_KEYS)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_h)

    p = sub.add_parser("train-encoder", help="train a synthetic feature encoder")
    configurable(p, {"train": _MODEL_KEYS["train"], "nuisance_sigma": None})
    p.add_argument("--scene", required=True)
    p.add_argument("--variant", choices=("triplet", "relative", "distance"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_encoder)

    p = sub.add_parser("densify", help="densify a scene's reference map")
    configurable(p, {**_DENSIFY_KEYS, **_MODEL_KEYS})
    p.add_argument("--scene", required=True)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), required=True)
    p.add_argument("--scheme", choices=("interp", "extrap"), required=True)
    p.add_argument("--model", help="pre-trained regressor for nonlin-reg")
    grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_densify)

    p = sub.add_parser("retrieve", help="nearest-neighbor matches for query descriptors")
    p.add_argument("--map", required=True, help="scene directory holding refs_poses.csv/refs_descriptors.bin")
    p.add_argument("--query", required=True, help="query descriptor binary")
    p.add_argument("--query-poses", dest="query_poses", help="query pose CSV")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("eval", help="localize a scene's queries against a map")
    p.add_argument("--scene", required=True)
    p.add_argument("--map", help="densified map directory (defaults to the scene's own refs)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("exp", help="run an experiment protocol")
    kinds = p.add_subparsers(dest="kind", required=True)

    def exp_kind(kind, run, help, config_keys, scene_help="scene directory"):
        k = kinds.add_parser(kind, help=help)
        configurable(k, {"seed": None, **config_keys})
        k.add_argument("--format", choices=("csv", "json"), default="csv")
        k.add_argument("--out", required=True)
        k.add_argument("--scene", required=kind != "stray", help=scene_help)
        k.set_defaults(func=_cmd_exp, run=run)
        return k

    def regressor_flags(k):
        k.add_argument("--model", help="pre-trained regressor to reuse")
        k.add_argument("--methods", nargs="*", choices=sorted(_METHOD_FLAGS))

    k = exp_kind(
        "interp", _exp_interp, "regress the poses a subsampled trajectory dropped",
        {"densify": frozenset({"stride"}), **_MODEL_KEYS},
    )
    regressor_flags(k)
    k.add_argument("--stride", type=int)
    k = exp_kind("extrap", _exp_extrap, "grid-extrapolate around trajectory anchors", {**_DENSIFY_KEYS, **_MODEL_KEYS})
    regressor_flags(k)
    grid_flags(k)
    k = exp_kind("sweep", _exp_extrap, "extrap once per grid step", {**_DENSIFY_KEYS, **_MODEL_KEYS})
    regressor_flags(k)
    grid_flags(k)
    k.add_argument("--steps", help="comma-separated grid steps")
    k = exp_kind(
        "encoders", _exp_encoders, "extrap in each encoder variant's descriptor space",
        {**_DENSIFY_KEYS, "pair_cap": None, "max_pairs": None, "nuisance_sigma": None},
    )
    grid_flags(k)
    k = exp_kind(
        "stray", _exp_stray, "demote a stray reference by regressing one at the query pose",
        {**_SCENE_KEYS, **_MODEL_KEYS},
        scene_help="multi_scene scene directory (default: the config's scene, else the multiscene benchmark)",
    )
    k.add_argument("--model", help="pre-trained regressor to reuse")
    k.add_argument("--similarity", type=float, default=benchmarks.STRAY_SIMILARITY)
    k.add_argument("--cases", type=int, default=benchmarks.STRAY_CASES)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as exc:  # IoError included
        _log(f"io error: {exc}")
        return 2
    except (CoprError, ValueError, KeyError) as exc:
        _log(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
