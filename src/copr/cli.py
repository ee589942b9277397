"""Command-line entry point.

Subcommands: synth, train-h, train-encoder, densify, retrieve, eval,
pipeline, and exp {interp, extrap, sweep, encoders, stray}. Each command,
and each exp kind, accepts only the flags it reads; exp flags follow the
kind. synth, train-h, train-encoder, densify and exp take an optional JSON
--config, a --seed override and generic --set dot.path=value overrides,
which take precedence over config keys; only exp takes --format. A config
key is typed by its config dataclass field. Before anything is built or
written, each run refuses a key it does not read or a value of the wrong
type, naming its dotted path; only a run that trains a regressor reads
train, pair_cap and max_pairs. retrieve, eval and pipeline read no config
and write no echo; every other run echoes each config value it resolved to
<output>.config.json, a config that replays the run given the same other
flags. pipeline writes the six reports of copr.benchmarks' pinned pipeline
as lossless JSON, <out>/<report>.json.

Exit codes: 0 success, 1 validation error or bad usage, 2 I/O error.
stdout carries machine-readable output only; human-facing logs go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import get_type_hints

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
from .errors import CoprError, InvalidConfig
from .evaluate import (
    emit_report,
    exp_encoders,
    exp_extrapolation,
    exp_interpolation,
    exp_stray,
    localize_and_summarize,
    report_text,
    train_scene_regressor,
)
from .files import read_json, write_files
from .geometry import pose_blocks
from .neural.model_io import load_model, save_model
from .neural.training import ENCODER_DEFAULT_LR, ENCODER_VARIANTS, TrainConfig, train_encoder
from .synth import (
    SCENE_FILES,
    FieldConfig,
    SceneConfig,
    gen_scene,
    load_scene,
    make_encoder_dataset,
    make_stray_case,
    save_scene,
)
from .vpr_map import load_descriptor_block, load_map, match_errors, retrieve_many, save_map

# The (pose file, descriptor file) of a densified map in its --out directory.
DENSE_FILES = ("dense_poses.csv", "dense_descriptors.bin")
_METHOD_FLAGS = {
    "lin-interp": METHOD_LIN_INTERP,
    "lin-reg": METHOD_LIN_REG,
    "nonlin-reg": METHOD_NONLIN_REG,
}
# The flags that override a DensifyConfig field, and the field each sets.
_GRID_FLAGS = {
    "--stride": "stride",
    "--e-step": "grid_step",
    "--e-span": "grid_span",
    "--neighbors": "neighbors",
    "--dedupe-radius": "dedupe_radius",
}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config(path: str | None) -> dict:
    cfg = read_json(path, "config") if path else {}
    if not isinstance(cfg, dict):
        raise InvalidConfig(f"config {path} must hold a JSON object")
    return cfg


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


def _schema(cls, names=None) -> dict:
    """The fields of a config dataclass, or the named ones, mapped to their types."""
    hints = get_type_hints(cls)
    return {name: hints[name] for name in names or hints}


# The config keys each command reads: a section maps to the fields it may
# hold and their types, a scalar key to its type.
_SCENE_KEYS = {"scene": _schema(SceneConfig), "field": _schema(FieldConfig)}
_DENSIFY_KEYS = {"densify": _schema(DensifyConfig)}
_MODEL_KEYS = {"train": _schema(TrainConfig), "pair_cap": float, "max_pairs": int}


class _Config:
    """A command's --config with the --set overrides applied, checked up front.

    ``keys`` maps each config key the command reads to its type, or a
    section to its fields' types. ``echo`` records each value resolved
    through :meth:`value` and :meth:`build`; it is a config the same
    command accepts back.

    Raises:
        InvalidConfig: a key the command does not read, or a value of the
            wrong type (an int fits a float; a bool fits no number); the
            message names its dotted path.
    """

    def __init__(self, args, keys: dict):
        self.command = f"exp {args.kind}" if args.command == "exp" else args.command
        self.command += " --benchmark" if getattr(args, "benchmark", None) else ""
        self.given = _apply_set_overrides(_load_config(args.config), args.set)
        # Only a run that trains a regressor reads its keys: no --model, and nonlin-reg in any methods it takes.
        methods = [args.method] if hasattr(args, "method") else getattr(args, "methods", None)
        untrained = getattr(args, "model", None) or (methods and "nonlin-reg" not in methods)
        self.keys = {key: kind for key, kind in keys.items() if not (untrained and key in _MODEL_KEYS)}
        self.echo = {}
        entries = []
        for key, value in self.given.items():
            section = self.keys.get(key)
            if not isinstance(section, dict):
                entries.append((key, section, value))
            elif not isinstance(value, dict):
                raise InvalidConfig(f"config key {key!r} of {self.command} must be an object")
            else:
                entries += [(f"{key}.{name}", section.get(name), v) for name, v in value.items()]
        for path, kind, value in entries:
            if kind is None:
                readable = []
                for k, s in self.keys.items():
                    readable += [f"{k}.{n}" for n in sorted(s)] if isinstance(s, dict) else [k]
                dropped = path.split(".")[0] in keys.keys() - self.keys.keys()
                why = " (only a run that trains a regressor reads it)" if dropped else ""
                raise InvalidConfig(
                    f"{self.command} reads no config key {path!r}; it reads {', '.join(readable) or 'none'}{why}"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise InvalidConfig(f"config key {path!r} of {self.command} must be {kind.__name__}, got {value!r}")

    def value(self, key: str, default, flag=None):
        """The flag if set, else the config key, else ``default``."""
        self.echo[key] = flag if flag is not None else self.given.get(key, default)
        return self.echo[key]

    def build(self, cls, key: str, base=None, **flags):
        """``cls`` from config section ``key`` laid over ``base`` (default:
        the class defaults), with each flag that is not None on top."""
        kwargs = {**(asdict(base) if base else {}), **self.given.get(key, {})}
        kwargs.update((name, v) for name, v in flags.items() if v is not None)
        missing = [f.name for f in fields(cls) if f.name not in kwargs and f.default is MISSING]
        if missing:
            raise InvalidConfig(f"{self.command} needs config key '{key}.{missing[0]}'")
        built = cls(**kwargs)
        resolved = asdict(built)
        self.echo[key] = {name: resolved[name] for name in self.keys.get(key, resolved)}
        return built

    def write_echo(self, out_path) -> None:
        """Write the echo to ``<out_path>.config.json``."""
        write_files((f"{Path(out_path)}.config.json", json.dumps(self.echo, indent=2) + "\n"), what="config echo")


def _densify(read: _Config, args) -> DensifyConfig:
    """The densify section and grid flags over the defaults; an unset
    grid_span covers at least one grid step, and at least 0.05 m."""
    flags = {key: getattr(args, key) for key in _GRID_FLAGS.values()}
    step = flags["grid_step"] or read.given.get("densify", {}).get("grid_step", 0.05)
    return read.build(DensifyConfig, "densify", DensifyConfig(grid_step=step, grid_span=max(step, 0.05)), **flags)


def _scene_model(args, scene, read: _Config, default_cap: float):
    if getattr(args, "model", None):
        return load_model(args.model), 0.0
    tc = read.build(TrainConfig, "train", seed=args.seed)
    cap = read.value("pair_cap", default_cap)
    max_pairs = read.value("max_pairs", 6000)
    _log(f"training regressor (cap={cap} m, max_pairs={max_pairs}, seed={tc.seed})")
    return train_scene_regressor(scene, tc, cap, max_pairs)


def _cmd_synth(args) -> int:
    read = _Config(args, {} if args.benchmark else args.config_keys)
    # Without --benchmark, the required scene.layout and field.dim make both sections required.
    scene_base, field_base = benchmarks.NAMED_SCENES[args.benchmark] if args.benchmark else (None, None)
    scene_cfg = read.build(SceneConfig, "scene", scene_base, seed=args.seed)
    scene = gen_scene(scene_cfg, read.build(FieldConfig, "field", field_base))
    save_scene(scene, args.out)
    read.write_echo(Path(args.out) / "scene.json")
    _log(f"scene written to {args.out} ({len(scene.gt_dense)} refs, {len(scene.queries)} queries)")
    return 0


def _cmd_train_h(args) -> int:
    read = _Config(args, args.config_keys)
    scene = load_scene(args.scene)
    model, seconds = _scene_model(args, scene, read, default_cap=1.0)
    save_model(model, args.out)
    read.write_echo(args.out)
    _log(f"regressor written to {args.out} ({seconds:.1f}s)")
    return 0


def _cmd_train_encoder(args) -> int:
    read = _Config(args, args.config_keys)
    scene = load_scene(args.scene)
    dataset = make_encoder_dataset(scene, nuisance_sigma=read.value("nuisance_sigma", 1.0))
    tc = read.build(TrainConfig, "train", TrainConfig(lr=ENCODER_DEFAULT_LR[args.variant]), seed=args.seed)
    encoder = train_encoder(dataset, args.variant, tc)
    save_model(encoder, args.out)
    read.write_echo(args.out)
    _log(f"{args.variant} encoder written to {args.out}")
    return 0


def _cmd_densify(args) -> int:
    read = _Config(args, args.config_keys)
    scene = load_scene(args.scene)
    dc = _densify(read, args)
    method = _METHOD_FLAGS[args.method]
    anchors, dropped = subsample_trajectory(scene.gt_dense, dc.stride)
    if args.scheme == "interp":
        plan, base = gen_interp_targets(anchors, dropped=dropped), anchors
    else:
        plan, base = gen_extrap_grid(anchors, dc), scene.gt_dense
    model = None
    if method == METHOD_NONLIN_REG:
        model, _ = _scene_model(args, scene, read, default_cap=max(1.0, dc.grid_span * 2))
    dense = densify_map(base, plan, method, model=model, neighbors=dc.neighbors)
    poses, descriptors = (Path(args.out) / name for name in DENSE_FILES)
    save_map(dense, poses, descriptors)
    write_files((Path(args.out) / "plan.json", plan.to_json() + "\n"), what="plan")
    read.write_echo(poses)
    _log(f"dense map written to {args.out} ({len(dense)} entries, {len(plan.targets)} regressed)")
    return 0


def _cmd_retrieve(args) -> int:
    ref_map = load_map(*(Path(args.map) / name for name in SCENE_FILES["refs"]))
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
        # Errors against Pose(t, q) of each query: its quaternion normalized once more.
        query_t, query_q = (np.repeat(b, k, axis=0) for b in pose_blocks(queries.translations, queries.quaternions))
        t_err, r_err = (e.reshape(m, k).tolist() for e in match_errors(ref_map, indices.ravel(), query_t, query_q))
    for query_id, row, dists, ts, rs in zip(ids, indices.tolist(), distances.tolist(), t_err, r_err):
        matches = [
            {"ref_id": ref_map.ids[i], "feature_distance": d, "translation_error": te, "rotation_error": re}
            for i, d, te, re in zip(row, dists, ts, rs)
        ]
        print(json.dumps({"query_id": query_id, "matches": matches}))
    return 0


def _cmd_eval(args) -> int:
    scene = load_scene(args.scene)
    ref_map = load_map(*(Path(args.map) / name for name in DENSE_FILES)) if args.map else scene.gt_dense
    summary = localize_and_summarize(scene.queries, ref_map)
    doc = {
        "mte_m": summary.mte_m,
        "mre_deg": summary.mre_deg,
        "queries": len(summary.per_query),
        "map_size": len(ref_map),
    }
    if args.out:
        write_files((args.out, json.dumps(doc, indent=2) + "\n"), what="evaluation summary")
    else:
        print(json.dumps(doc))
    return 0


def _cmd_pipeline(args) -> int:
    pipeline = benchmarks.build_pipeline()
    # One write for all six: a report that cannot be staged (a path that is a
    # directory, a full disk) or renamed leaves every old report in place.
    out = Path(args.out)
    reports = pipeline.reports.items()
    write_files(*((out / f"{name}.json", report_text(r, "json")) for name, r in reports), what="reports")
    for stage, seconds in pipeline.seconds.items():
        _log(f"{stage}: {seconds:.1f}s")
    _log(f"{len(pipeline.reports)} reports written to {args.out}")
    return 0


def _exp_regressor(args, scene, read: _Config, default_methods: tuple, default_cap: float):
    """The methods to run, and the regressor and its training seconds when nonlin-reg is one of them."""
    methods = tuple(_METHOD_FLAGS[m] for m in args.methods) if args.methods else default_methods
    if METHOD_NONLIN_REG not in methods:
        return methods, None, 0.0
    return (methods, *_scene_model(args, scene, read, default_cap))


def _exp_interp(args, read: _Config, seed: int):
    scene = load_scene(args.scene)
    stride = read.build(DensifyConfig, "densify", stride=args.stride).stride
    methods, model, t_train = _exp_regressor(
        args, scene, read, (METHOD_LIN_INTERP, METHOD_LIN_REG, METHOD_NONLIN_REG), default_cap=1.0
    )
    return exp_interpolation(scene, stride, methods=methods, model=model, seed=seed, t_train_s=t_train)


def _exp_extrap(args, read: _Config, seed: int):
    scene = load_scene(args.scene)
    dc = _densify(read, args)
    steps = None
    if args.kind == "sweep":
        steps = [float(s) for s in args.steps.split(",")] if args.steps else list(benchmarks.SWEEP_STEPS)
    methods, model, t_train = _exp_regressor(
        args, scene, read, (METHOD_LIN_REG, METHOD_NONLIN_REG), default_cap=max(1.0, dc.grid_span * 2)
    )
    return exp_extrapolation(scene, dc, methods=methods, model=model, step_list=steps, seed=seed, t_train_s=t_train)


def _exp_encoders(args, read: _Config, seed: int):
    return exp_encoders(
        load_scene(args.scene),
        _densify(read, args),
        encoder_cfgs=benchmarks.ENCODER_CONFIGS,
        regressor_cfg=benchmarks.ENCODER_REGRESSOR,
        max_translation=read.value("pair_cap", benchmarks.MULTI_PAIR_CAP),
        max_pairs=read.value("max_pairs", benchmarks.ENCODER_PAIR_MAX),
        nuisance_sigma=read.value("nuisance_sigma", benchmarks.MULTI_NUISANCE_SIGMA),
        seed=seed,
    )


def _exp_stray(args, read: _Config, seed: int):
    if args.scene:
        scene = load_scene(args.scene)
    else:  # a given section is laid over the class defaults, a missing one is the multiscene benchmark's
        scene = gen_scene(
            read.build(SceneConfig, "scene", None if "scene" in read.given else benchmarks.MULTI_SCENE),
            read.build(FieldConfig, "field", None if "field" in read.given else benchmarks.MULTI_FIELD),
        )
    cases = [
        make_stray_case(scene.scene_cfg, scene.field_cfg, args.similarity, case_seed=i) for i in range(args.cases)
    ]
    model, _ = _scene_model(args, scene, read, default_cap=benchmarks.MULTI_PAIR_CAP)
    return exp_stray(cases, model)


def _cmd_exp(args) -> int:
    # A --scene directory stands in for the scene and field sections of exp stray.
    read = _Config(args, {"seed": int, **_MODEL_KEYS} if args.kind == "stray" and args.scene else args.config_keys)
    seed = read.value("seed", 0, args.seed)
    report = args.run(args, read, seed)
    emit_report(report, args.format, args.out)
    read.write_echo(args.out)
    _log(f"report written to {args.out} ({len(report.rows)} rows)")
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
        for flag, key in _GRID_FLAGS.items():
            p.add_argument(flag, type=_DENSIFY_KEYS["densify"][key], dest=key)

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
    configurable(p, {"train": _MODEL_KEYS["train"], "nuisance_sigma": float})
    p.add_argument("--scene", required=True)
    p.add_argument("--variant", choices=ENCODER_VARIANTS, required=True)
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

    p = sub.add_parser("pipeline", help="build the pinned benchmark pipeline and write its reports as JSON")
    p.add_argument("--out", required=True, help="directory for <report>.json")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("exp", help="run an experiment protocol")
    kinds = p.add_subparsers(dest="kind", required=True)

    def exp_kind(kind, run, help, config_keys, scene_help="scene directory"):
        k = kinds.add_parser(kind, help=help)
        configurable(k, {"seed": int, **config_keys})
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
        {"densify": _schema(DensifyConfig, ["stride"]), **_MODEL_KEYS},
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
        {**_DENSIFY_KEYS, "pair_cap": float, "max_pairs": int, "nuisance_sigma": float},
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
