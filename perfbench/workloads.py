"""The benchmark's workloads, their seeds and their per-operation correctness gate.

Each workload is one closed loop: one process and one caller, and the next
step starts when the previous one returns. It drives copr only through its
public functions, called through the module attribute (``densify.densify_map``
rather than an imported name) so that the tracer's rebinding sees the call.

The default seed reproduces the pinned configs of ``copr.benchmarks``; any
other seed derives every scene, field and training seed from it.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from copr import benchmarks as B
from copr import densify, evaluate, synth, vpr_map
from copr.neural import core, losses, model_io, training

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Reference report values may differ by float rounding only.
REFERENCE_RTOL = 1e-6
# Epoch budget of the loop regressor that densify-io trains during set-up;
# its weights do not change what densify or retrieval cost.
DENSIFY_IO_LOOP_EPOCHS = 3


def derive_seed(pinned: int, seed: int) -> int:
    """The pinned seed for the default workload seed, else a mix of both."""
    if seed == DEFAULT_SEED:
        return pinned
    return int(np.random.SeedSequence([pinned, seed]).generate_state(1)[0])


def reseed(cfg, seed: int):
    return replace(cfg, seed=derive_seed(cfg.seed, seed))


class OpFailed(Exception):
    """An operation raised or failed its check; its dependants are skipped."""


class Gate:
    """Counts operations and the ones that failed.

    An operation is one training run, plan, densify call, map write or
    read, or localization. It fails if it raises or if ``check(result)``
    returns a problem description.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
            problem = check(result) if check is not None else None
        except Exception as exc:  # any failure of the code under test is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
            raise OpFailed(label)
        return result

    def check(self, label: str, problems: list[str]) -> None:
        """Count a check made on several operations' results as one operation."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: {'; '.join(problems)}")

    @contextmanager
    def chain(self):
        """Run dependent operations; stop the chain at its first failure."""
        try:
            yield
        except OpFailed:
            pass


# ---- checks: each returns None or a description of the problem ----------------------


def _finite_model(model) -> str | None:
    for i, layer in enumerate(model.layers):
        if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
            return f"layer {i} has non-finite parameters"
    return None


def _nonempty_plan(plan) -> str | None:
    return None if plan.targets else "plan has no targets"


def _dense_check(base, plan):
    def check(dense) -> str | None:
        if len(dense) != len(base) + len(plan.targets):
            return f"map size {len(dense)} != {len(base)} sparse + {len(plan.targets)} targets"
        if not np.all(np.isfinite(dense.descriptors)):
            return "non-finite descriptor"
        if dense.ids[: len(base)] != base.ids:
            return "sparse entries changed"
        return None

    return check


def _round_trip_check(dense):
    def check(loaded) -> str | None:
        if loaded.ids != dense.ids:
            return "reloaded ids differ"
        if not (
            np.array_equal(loaded.translations, dense.translations)
            and np.array_equal(loaded.quaternions, dense.quaternions)
        ):
            return "reloaded poses differ"
        if not np.array_equal(loaded.descriptors, dense.descriptors.astype(np.float32).astype(np.float64)):
            return "reloaded descriptors differ from their f32 encoding"
        return None

    return check


def _summary_check(n_queries):
    def check(summary) -> str | None:
        if len(summary.per_query) != n_queries:
            return f"{len(summary.per_query)} results for {n_queries} queries"
        if not (math.isfinite(summary.mte_m) and math.isfinite(summary.mre_deg)):
            return "non-finite MTE/MRE"
        return None

    return check


def _oracle_bound_check(vpr_mtes):
    def check(oracle) -> str | None:
        worse = {k: v for k, v in vpr_mtes.items() if v < oracle[0] - 1e-12}
        return f"oracle MTE {oracle[0]} above VPR MTE {worse}" if worse else None

    return check


def _report_check(expected_sizes):
    """Oracle lower bound and dense map sizes of an experiment report.

    ``expected_sizes`` maps a report ``experiment`` label to the sparse
    size plus the plan's target count.
    """

    def check(report) -> str | None:
        bad = evaluate.oracle_violations(report)
        if bad:
            return f"VPR MTE below oracle MTE: {bad}"
        for row in report.rows:
            if not (math.isfinite(row.mte_m) and math.isfinite(row.mre_deg)):
                return f"non-finite row {row}"
            if row.map == "M_dense" and row.retrieval == "VPR" and row.map_size != expected_sizes[row.experiment]:
                want = expected_sizes[row.experiment]
                return f"{row.experiment} {row.densification} map size {row.map_size} != {want}"
        return None

    return check


def _row_key(row) -> str:
    return f"{row.experiment}|{row.map}|{row.densification}|{row.retrieval}"


def report_rows(report) -> dict:
    return {_row_key(r): {"mte_m": r.mte_m, "mre_deg": r.mre_deg, "map_size": r.map_size} for r in report.rows}


def oracle_summary(queries, ref_map):
    """Median translation and rotation error of the oracle retriever."""
    matches = [vpr_map.oracle_retrieve(pose, ref_map) for _, pose in queries]
    return (
        float(np.median([m.translation_error for m in matches])),
        float(np.median([m.rotation_error for m in matches])),
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)


def reference_problems(rows: dict, reference: dict) -> list[str]:
    """Rows that differ from the committed reference values."""
    problems = []
    for key, want in reference.items():
        got = rows.get(key)
        if got is None:
            problems.append(f"{key}: missing")
        elif got["map_size"] != want["map_size"] or not (
            _close(got["mte_m"], want["mte_m"]) and _close(got["mre_deg"], want["mre_deg"])
        ):
            problems.append(f"{key}: {got} != reference {want}")
    return problems


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


class Workload:
    """Set-up, warm-up and one timed pass of fixed work with a checked report.

    ``run_pass`` returns the report rows (``key -> {mte_m, mre_deg,
    map_size}``); ``headline`` names the dense and sparse rows whose ratio
    is the workload's ``mte_ratio``/``mre_ratio``.
    """

    name = ""
    headline: tuple[str, str] = ("", "")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def seeds(self) -> dict:
        raise NotImplementedError

    def setup(self, gate: Gate) -> None:
        raise NotImplementedError

    def warm_up(self, gate: Gate) -> None:
        raise NotImplementedError

    def run_pass(self, gate: Gate) -> dict:
        raise NotImplementedError

    def acceptance(self, rows: dict) -> list[str]:
        """Default-seed inequalities on the headline rows."""
        return []

    def check_default_seed(self, gate: Gate, rows: dict) -> None:
        """On the default seed, the headline inequalities and reference values."""
        if self.seed != DEFAULT_SEED:
            return
        problems = self.acceptance(rows) + reference_problems(rows, load_reference(self.name))
        gate.check(f"{self.name} default-seed reference", problems)

    def ratios(self, rows: dict) -> tuple[float, float]:
        dense, sparse = (rows[k] for k in self.headline)
        return dense["mte_m"] / sparse["mte_m"], dense["mre_deg"] / sparse["mre_deg"]


# ---- loop-train: the `copr exp extrap` path on the loop scene -------------------------


class LoopTrain(Workload):
    name = "loop-train"
    headline = ("extrap|M_dense|NonLinReg|VPR", "extrap|M_sparse|-|VPR")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.scene_cfg = reseed(B.LOOP_SCENE, seed)
        self.field_cfg = reseed(B.LOOP_FIELD, seed)
        self.train_cfg = reseed(B.LOOP_TRAIN, seed)

    def seeds(self) -> dict:
        return {"scene": self.scene_cfg.seed, "field": self.field_cfg.seed, "train": self.train_cfg.seed}

    def setup(self, gate: Gate) -> None:
        self.scene = gate.run("synth loop", synth.gen_scene, self.scene_cfg, self.field_cfg)
        anchors, _ = densify.subsample_trajectory(self.scene.gt_dense, B.LOOP_DENSIFY.stride)
        plan = gate.run("plan loop", densify.gen_extrap_grid, anchors, B.LOOP_DENSIFY, check=_nonempty_plan)
        self.expected_sizes = {"extrap": len(self.scene.gt_dense) + len(plan.targets)}

    def _pass(self, gate: Gate, train_cfg, max_pairs: int, densify_cfg, expected_sizes) -> dict:
        pairs = gate.run(
            "pairs",
            training.build_training_pairs,
            self.scene.train_refs,
            B.LOOP_PAIR_CAP,
            max_pairs,
            train_cfg.seed,
            check=lambda p: None if p else "no pairs",
        )
        model = gate.run("train", training.train_regressor, pairs, train_cfg, self.scene.dim, check=_finite_model)
        report = gate.run(
            "exp extrap",
            evaluate.exp_extrapolation,
            self.scene,
            densify_cfg,
            model=model,
            seed=self.scene_cfg.seed,
            check=_report_check(expected_sizes),
        )
        return report_rows(report)

    def warm_up(self, gate: Gate) -> None:
        coarse = replace(B.LOOP_DENSIFY, grid_step=0.4, grid_span=0.4, dedupe_radius=0.2)
        anchors, _ = densify.subsample_trajectory(self.scene.gt_dense, coarse.stride)
        size = len(self.scene.gt_dense) + len(densify.gen_extrap_grid(anchors, coarse).targets)
        with gate.chain():
            self._pass(gate, replace(self.train_cfg, epochs=1), 512, coarse, {"extrap": size})

    def run_pass(self, gate: Gate) -> dict:
        return self._pass(gate, self.train_cfg, B.LOOP_PAIR_MAX, B.LOOP_DENSIFY, self.expected_sizes)

    def acceptance(self, rows: dict) -> list[str]:
        nonlin, lin, sparse = (
            rows[f"extrap|{m}|VPR"]["mte_m"] for m in ("M_dense|NonLinReg", "M_dense|LinReg", "M_sparse|-")
        )
        problems = []
        if not nonlin <= 0.80 * sparse:
            problems.append(f"NonLinReg MTE {nonlin} > 0.80 x sparse {sparse}")
        if not nonlin <= lin <= sparse:
            problems.append(f"not NonLinReg {nonlin} <= LinReg {lin} <= sparse {sparse}")
        return problems


# ---- densify-io: the `copr densify` -> `copr eval` path ------------------------------


class DensifyIo(Workload):
    name = "densify-io"
    headline = ("loop@0.05|lin_reg", "loop@0.05|sparse")

    SCENES = {
        "loop": (B.LOOP_SCENE, B.LOOP_FIELD),
        "lanes": (B.LANES_SCENE, B.LANES_FIELD),
        "affine-loop": (B.AFFINE_SCENE, B.AFFINE_FIELD),
    }

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.scene_cfgs = {name: (reseed(s, seed), reseed(f, seed)) for name, (s, f) in self.SCENES.items()}
        self.lanes_train = reseed(B.LANES_TRAIN, seed)
        self.loop_train = replace(reseed(B.LOOP_TRAIN, seed), epochs=DENSIFY_IO_LOOP_EPOCHS)

    def seeds(self) -> dict:
        out = {}
        for name, (s, f) in self.scene_cfgs.items():
            out[f"{name}.scene"] = s.seed
            out[f"{name}.field"] = f.seed
        out["lanes.train"] = self.lanes_train.seed
        out["loop.train"] = self.loop_train.seed
        return out

    def setup(self, gate: Gate) -> None:
        scenes = {}
        for name, (scene_cfg, field_cfg) in self.scene_cfgs.items():
            scenes[name] = gate.run(f"synth {name}", synth.gen_scene, scene_cfg, field_cfg)
            gate.run(f"export {name}", synth.save_scene, scenes[name], self.workdir / name)
        for name, cfg, cap, max_pairs in (
            ("lanes", self.lanes_train, B.LANES_PAIR_CAP, B.LANES_PAIR_MAX),
            ("loop", self.loop_train, B.LOOP_PAIR_CAP, B.LOOP_PAIR_MAX),
        ):
            model, _ = gate.run(
                f"train {name}",
                evaluate.train_scene_regressor,
                scenes[name],
                cfg,
                cap,
                max_pairs,
                pair_seed=cfg.seed,
                check=lambda r: _finite_model(r[0]),
            )
            gate.run(f"export model {name}", model_io.save_model, model, self.workdir / f"{name}.model")

    def _plans(self, loop_steps):
        """(label, scene name, densify config, methods) per plan; no config means interpolation."""
        out = []
        for step in loop_steps:
            cfg = replace(
                B.LOOP_DENSIFY,
                grid_step=step,
                grid_span=max(B.LOOP_DENSIFY.grid_span, step),
                dedupe_radius=B.LOOP_DENSIFY.dedupe_radius * (step / B.LOOP_DENSIFY.grid_step),
            )
            out.append((f"loop@{step:g}", "loop", cfg, (densify.METHOD_LIN_REG, densify.METHOD_NONLIN_REG)))
        out.append(("lanes", "lanes", B.LANES_DENSIFY, (densify.METHOD_LIN_REG, densify.METHOD_NONLIN_REG)))
        out.append(("affine", "affine-loop", None, (densify.METHOD_LIN_INTERP, densify.METHOD_LIN_REG)))
        return out

    def _pass(self, gate: Gate, loop_steps) -> dict:
        rows = {}
        with gate.chain():
            scenes = {
                name: gate.run(f"load scene {name}", synth.load_scene, self.workdir / name) for name in self.SCENES
            }
            models = {
                name: gate.run(
                    f"load model {name}", model_io.load_model, self.workdir / f"{name}.model", check=_finite_model
                )
                for name in ("loop", "lanes")
            }
            for label, scene_name, cfg, methods in self._plans(loop_steps):
                scene = scenes[scene_name]
                with gate.chain():
                    if cfg is None:
                        base, dropped = densify.subsample_trajectory(scene.gt_dense, B.AFFINE_INTERP_STRIDE)
                        plan = gate.run(
                            f"{label} plan", densify.gen_interp_targets, base, dropped=dropped, check=_nonempty_plan
                        )
                        neighbors = 4
                    else:
                        base = scene.gt_dense
                        anchors, _ = densify.subsample_trajectory(base, cfg.stride)
                        plan = gate.run(f"{label} plan", densify.gen_extrap_grid, anchors, cfg, check=_nonempty_plan)
                        neighbors = cfg.neighbors
                    model = models.get(scene_name)
                    rows.update(self._evaluate_plan(gate, label, scene.queries, base, plan, methods, model, neighbors))
        return rows

    def _evaluate_plan(self, gate, label, queries, base, plan, methods, model, neighbors) -> dict:
        """densify -> save -> load -> localize per method, then the oracle on a dense map."""
        rows = {}
        n = len(queries)
        with gate.chain():
            sparse = gate.run(
                f"{label} localize sparse", evaluate.localize_and_summarize, queries, base, check=_summary_check(n)
            )
            rows[f"{label}|sparse"] = {"mte_m": sparse.mte_m, "mre_deg": sparse.mre_deg, "map_size": len(base)}
        dense_map = None
        for method in methods:
            with gate.chain():
                dense = gate.run(
                    f"{label} densify {method}",
                    densify.densify_map,
                    base,
                    plan,
                    method,
                    model=model if method == densify.METHOD_NONLIN_REG else None,
                    neighbors=neighbors,
                    check=_dense_check(base, plan),
                )
                paths = [self.workdir / f"{label}-{method}_{part}" for part in ("poses.csv", "descriptors.bin")]
                gate.run(f"{label} save {method}", vpr_map.save_map, dense, *paths)
                loaded = gate.run(f"{label} load {method}", vpr_map.load_map, *paths, check=_round_trip_check(dense))
                summary = gate.run(
                    f"{label} localize {method}",
                    evaluate.localize_and_summarize,
                    queries,
                    loaded,
                    check=_summary_check(n),
                )
                rows[f"{label}|{method}"] = {
                    "mte_m": summary.mte_m,
                    "mre_deg": summary.mre_deg,
                    "map_size": len(loaded),
                }
                if dense_map is None:
                    dense_map = loaded
        if dense_map is not None:
            vpr = {k: v["mte_m"] for k, v in rows.items()}
            with gate.chain():
                mte, mre = gate.run(
                    f"{label} oracle", oracle_summary, queries, dense_map, check=_oracle_bound_check(vpr)
                )
                rows[f"{label}|oracle"] = {"mte_m": mte, "mre_deg": mre, "map_size": len(dense_map)}
        return rows

    def warm_up(self, gate: Gate) -> None:
        self._pass(gate, loop_steps=(B.SWEEP_STEPS[0],))

    def run_pass(self, gate: Gate) -> dict:
        return self._pass(gate, loop_steps=B.SWEEP_STEPS)

    def acceptance(self, rows: dict) -> list[str]:
        lin, sparse = (rows[k]["mte_m"] for k in self.headline)
        return [] if lin <= sparse else [f"loop LinReg MTE {lin} > sparse {sparse} at step 0.05"]


WORKLOADS = {w.name: w for w in (LoopTrain, DensifyIo)}


# ---- per-layer probes ------------------------------------------------------------------
#
# Fixed-size measurements of single layers, taken in traced runs after the
# traced pass. They use the pinned configs whatever the workload seed, so
# every run probes the same work. The encoder probes keep encoder training
# and the batched loss gradients measured although neither workload's pass
# trains an encoder.

PROBE_BATCH = 64
PROBE_REPEATS = 50
# Validation split of the 7,574 pairs the pinned loop scene yields.
PROBE_VAL_ROWS = 3030
ENCODER_PROBE_EPOCHS = 2


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def probe_regressor_layers() -> dict:
    """Forward/backward ms per layer of the loop regressor at batch 64, and of
    the whole model at the loop validation-set size."""
    model = training.init_regressor(B.LOOP_FIELD.dim, B.LOOP_TRAIN.seed)
    rng = np.random.default_rng(B.LOOP_TRAIN.seed)
    out = {}
    x = rng.standard_normal((PROBE_BATCH, model.input_dim))
    for i, layer in enumerate(model.layers):
        single = core.MlpModel(layers=(layer,))
        y, cache = core.forward_batch(single, x, keep_cache=True)
        grad = np.ones_like(y)
        out[f"neural.core.fwd_ms.L{i}"] = _median_ms(
            lambda: core.forward_batch(single, x, keep_cache=True), PROBE_REPEATS
        )
        out[f"neural.core.bwd_ms.L{i}"] = _median_ms(lambda: core.backward_batch(single, cache, grad), PROBE_REPEATS)
        x = y
    xv = rng.standard_normal((PROBE_VAL_ROWS, model.input_dim))
    yv, cache = core.forward_batch(model, xv, keep_cache=True)
    grad = np.ones_like(yv)
    out["neural.core.fwd_ms.val"] = _median_ms(lambda: core.forward_batch(model, xv, keep_cache=True), 10)
    out["neural.core.bwd_ms.val"] = _median_ms(lambda: core.backward_batch(model, cache, grad), 10)
    return out


def probe_encoder_training() -> dict:
    """Per-epoch ms of each encoder variant on the pinned multiscene dataset,
    and µs per batched loss-gradient call at the encoder batch size."""
    scene = synth.gen_scene(B.MULTI_SCENE, B.MULTI_FIELD)
    dataset = synth.make_encoder_dataset(scene, nuisance_sigma=B.MULTI_NUISANCE_SIGMA, seed=B.MULTI_SCENE.seed)
    out = {}
    for variant, cfg in B.ENCODER_CONFIGS.items():
        short = replace(cfg, epochs=ENCODER_PROBE_EPOCHS)
        run_ms = _median_ms(lambda: training.train_encoder(dataset, variant, short), 3)
        out[f"neural.training.encoder_epoch_ms.{variant}"] = run_ms / ENCODER_PROBE_EPOCHS
    batch = B.ENCODER_CONFIGS["triplet"].batch_size
    rng = np.random.default_rng(B.MULTI_SCENE.seed)
    f = [rng.standard_normal((batch, scene.dim)) for _ in range(3)]
    t = [rng.standard_normal((batch, 3)) for _ in range(2)]
    dp = [rng.standard_normal((batch, 7)) for _ in range(2)]
    calls = {
        "triplet": lambda: losses.triplet_grads(*f, training.DEFAULT_TRIPLET_MARGIN),
        "relative": lambda: losses.relative_grads(*dp),
        "distance": lambda: losses.distance_grads(f[0], f[1], *t),
    }
    for variant, call in calls.items():
        out[f"neural.losses.grads_us.{variant}"] = _median_ms(call, PROBE_REPEATS) * 1e3
    return out
