"""Outside-in span tracer for the copr benchmark.

The program under test carries no tracing of its own. For a traced pass the
tracer rebinds each public entry point under every name a calling module
imported it as (``copr.evaluate.densify_map``, ``RawAdam.step``, ...) with a
wrapper that records a span and bumps counters, and restores the originals
afterwards. Untraced passes patch nothing.

A span is ``(name, start, end, parent)`` plus the tracer's run id; spans are
kept in memory and written out once, when the run ends. Self time is a span's
duration minus the time its child spans cover. A binding that no longer exists
(a later refactor renamed it) is recorded as missing, and every metric built
on it is then reported missing with the reason rather than as a wrong number.
A metric whose entry points the traced code never called is reported as not
reached, with the entry points it waited for; its value is then 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass


def _forward_rows(counters, args, result):
    counters["neural.core.forward_rows"] += len(args[1])


def _pairs(counters, args, result):
    counters["neural.training.pairs"] += len(result)


def _plan(counters, args, result):
    counters["densify.plan_targets"] += len(result.targets)


def _grid(counters, args, result):
    # gen_extrap_grid tries (2*half+1)^2 - 1 grid points per anchor before dedupe.
    anchors, cfg = args[0], args[1]
    half = int(cfg.grid_span / cfg.grid_step + 1e-9)
    counters["densify.grid_candidates"] += len(anchors) * ((2 * half + 1) ** 2 - 1)
    counters["densify.grid_kept"] += len(result.targets)
    _plan(counters, args, result)


def _densified(counters, args, result):
    counters["densify.regressed"] += len(result) - len(args[0])


def _retrieved(counters, args, result):
    counters["vpr_map.entries_scanned"] += len(args[1])


def _map_written(counters, args, result):
    counters["vpr_map.bytes_written"] += sum(os.path.getsize(p) for p in args[1:3])


def _map_read(counters, args, result):
    counters["vpr_map.bytes_read"] += sum(os.path.getsize(p) for p in args[0:2])


def _method(args, kwargs):
    return kwargs.get("method", args[2] if len(args) > 2 else "")


@dataclass(frozen=True)
class WrapPoint:
    """One traced entry point and every binding it is called through.

    A binding is ``"module:attribute"`` or ``"module:Class.method"``. Spans
    are named ``<layer>.<name>``, or ``<layer>.<name>.<label>`` when
    ``label(args, kwargs)`` is given. With ``span=False`` the wrapper only
    counts calls; that is for object constructions, which are too many and
    too short to time one by one. ``on_return(counters, args, result)`` adds
    the point's work counters.
    """

    layer: str
    name: str
    bindings: tuple[str, ...]
    on_return: object = None
    span: bool = True
    label: object = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


WRAP_POINTS = (
    WrapPoint(
        "neural.core",
        "forward",
        ("copr.neural.core:forward_batch", "copr.neural.training:forward_batch", "copr.evaluate:forward_batch"),
        on_return=_forward_rows,
    ),
    WrapPoint("neural.core", "backward", ("copr.neural.core:backward_batch", "copr.neural.training:backward_batch")),
    WrapPoint("neural.core", "adam", ("copr.neural.core:RawAdam.step",)),
    WrapPoint(
        "neural.training",
        "pairs",
        ("copr.neural.training:build_training_pairs", "copr.evaluate:build_training_pairs"),
        on_return=_pairs,
    ),
    WrapPoint(
        "neural.training", "regressor", ("copr.neural.training:train_regressor", "copr.evaluate:train_regressor")
    ),
    # exp_encoders imports train_encoder inside the function body, so the
    # module attribute is the name it calls.
    WrapPoint("neural.training", "encoder", ("copr.neural.training:train_encoder",)),
    WrapPoint("neural.training", "val", ("copr.neural.training:mse_over",)),
    WrapPoint(
        "neural.losses",
        "grads",
        (
            "copr.neural.training:triplet_grads",
            "copr.neural.training:relative_grads",
            "copr.neural.training:distance_grads",
        ),
    ),
    WrapPoint("geometry", "relpose", ("copr.densify:RelativePose", "copr.neural.training:RelativePose"), span=False),
    WrapPoint(
        "densify", "extrap_plan", ("copr.densify:gen_extrap_grid", "copr.evaluate:gen_extrap_grid"), on_return=_grid
    ),
    WrapPoint(
        "densify",
        "interp_plan",
        ("copr.densify:gen_interp_targets", "copr.evaluate:gen_interp_targets"),
        on_return=_plan,
    ),
    WrapPoint(
        "densify",
        "densify_map",
        ("copr.densify:densify_map", "copr.evaluate:densify_map"),
        on_return=_densified,
        label=_method,
    ),
    WrapPoint("densify", "plane_fit", ("copr.densify:plane_fit_regress",)),
    WrapPoint("vpr_map", "localize", ("copr.evaluate:localize_and_summarize",)),
    WrapPoint("vpr_map", "retrieve", ("copr.evaluate:retrieve",), on_return=_retrieved),
    WrapPoint("vpr_map", "oracle", ("copr.vpr_map:oracle_retrieve", "copr.evaluate:oracle_retrieve")),
    WrapPoint("vpr_map", "extend", ("copr.vpr_map:ReferenceMap.extended",)),
    WrapPoint("vpr_map", "save", ("copr.vpr_map:save_map", "copr.synth:save_map"), on_return=_map_written),
    WrapPoint("vpr_map", "load", ("copr.vpr_map:load_map", "copr.synth:load_map"), on_return=_map_read),
    WrapPoint("neural.model_io", "save", ("copr.neural.model_io:save_model",)),
    WrapPoint("neural.model_io", "load", ("copr.neural.model_io:load_model",)),
    WrapPoint("synth", "scene", ("copr.synth:gen_scene",)),
    WrapPoint("synth", "scene_io", ("copr.synth:save_scene", "copr.synth:load_scene")),
    WrapPoint(
        "synth",
        "observations",
        ("copr.evaluate:make_observations", "copr.evaluate:make_encoder_dataset", "copr.synth:make_encoder_dataset"),
    ),
    WrapPoint(
        "evaluate",
        "protocol",
        (
            "copr.evaluate:exp_extrapolation",
            "copr.evaluate:exp_interpolation",
            "copr.evaluate:exp_encoders",
            "copr.evaluate:train_scene_regressor",
        ),
    ),
)

# No workload trains an encoder, so traced runs take these metrics from a
# tracer that holds only their wrap points, installed around the encoder probe.
ENCODER_PROBE_METRICS = ("neural.training.encoder_s", "neural.losses.s", "neural.losses.calls", "synth.observations_s")
ENCODER_PROBE_POINTS = tuple(
    p for p in WRAP_POINTS if p.key in ("neural.training.encoder", "neural.losses.grads", "synth.observations")
)


def _resolve(binding: str):
    """(owner, attribute name) of a binding; raises if the binding has gone."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name} has no attribute {path!r}")
    return owner, attr


class Tracer:
    """Spans and counters of one traced pass, installed by rebinding names."""

    def __init__(self, run_id: str, points=WRAP_POINTS):
        self.run_id = run_id
        self.points = points
        self.spans: list = []
        self.counters: defaultdict = defaultdict(int)
        self.missing: dict[str, str] = {}
        self.layer_of: dict[str, str] = {}
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for point in self.points:
            for binding in point.bindings:
                try:
                    owner, attr = _resolve(binding)
                except (ImportError, AttributeError) as exc:
                    self.missing[point.key] = f"wrap point {binding} not found ({exc})"
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(point, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, point: WrapPoint, fn):
        counters = self.counters
        calls_key = point.key + ".calls"
        on_return = point.on_return
        if not point.span:

            def counted(*args, **kwargs):
                counters[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock, label = self.spans, self._stack, time.perf_counter, point.label
        self.layer_of[point.key] = point.layer

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            name = point.key
            if label is not None:
                name = f"{name}.{label(args, kwargs)}"
                self.layer_of[name] = point.layer
                counters[name + ".calls"] += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            counters[calls_key] += 1
            if on_return is not None:
                on_return(counters, args, result)
            return result

        return spanned

    def totals(self):
        """Summed duration and summed self time per span name, and root time.

        Root time is the time covered by spans that have no parent span.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        root = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            if parent < 0:
                root += end - start
        return total, own, root

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "run": self.run_id,
                    "id": i,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent if parent >= 0 else None,
                }
                fh.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer, traced_seconds: float):
    """Per-layer metric values from one traced run, the missing and the unreached ones.

    Returns ``(values, missing, not_reached)``: metric name to number, metric
    name to the reason it could not be measured, and metric name to the entry
    points none of which was called (such a metric is in ``values`` as 0).
    ``traced_seconds`` is the wall time the tracer was installed for; the part
    of it no span covers is unattributed.
    """
    total, own, root = tracer.totals()
    c = tracer.counters

    def layer_self(layer):
        return sum((v for name, v in own.items() if tracer.layer_of.get(name) == layer), 0.0)

    def layer_keys(layer):
        return tuple(p.key for p in tracer.points if p.layer == layer)

    def method_s(method):
        name = f"densify.densify_map.{method}"
        return (("densify.densify_map",), total[name], (name,))

    grid_candidates = c["densify.grid_candidates"]
    retrieve_calls = c["vpr_map.retrieve.calls"]
    # metric name -> (wrap points it is built on, value[, span names one of which must be called])
    table = {
        "neural.core.forward_s": (("neural.core.forward",), total["neural.core.forward"]),
        "neural.core.forward_calls": (("neural.core.forward",), c["neural.core.forward.calls"]),
        "neural.core.forward_rows": (("neural.core.forward",), c["neural.core.forward_rows"]),
        "neural.core.backward_s": (("neural.core.backward",), total["neural.core.backward"]),
        "neural.core.backward_calls": (("neural.core.backward",), c["neural.core.backward.calls"]),
        "neural.core.adam_s": (("neural.core.adam",), total["neural.core.adam"]),
        "neural.core.adam_steps": (("neural.core.adam",), c["neural.core.adam.calls"]),
        "neural.training.pairs_s": (("neural.training.pairs",), total["neural.training.pairs"]),
        "neural.training.pairs": (("neural.training.pairs",), c["neural.training.pairs"]),
        "neural.training.regressor_s": (("neural.training.regressor",), total["neural.training.regressor"]),
        "neural.training.encoder_s": (("neural.training.encoder",), total["neural.training.encoder"]),
        "neural.training.val_s": (("neural.training.val",), total["neural.training.val"]),
        # Each regressor run validates once before its first epoch and once per epoch.
        "neural.training.epochs": (
            ("neural.training.val", "neural.training.regressor"),
            c["neural.training.val.calls"] - c["neural.training.regressor.calls"],
        ),
        "neural.training.self_s": (layer_keys("neural.training"), layer_self("neural.training")),
        "neural.losses.s": (("neural.losses.grads",), total["neural.losses.grads"]),
        "neural.losses.calls": (("neural.losses.grads",), c["neural.losses.grads.calls"]),
        "geometry.relpose_objects": (("geometry.relpose",), c["geometry.relpose.calls"]),
        "densify.plan_s": (
            ("densify.extrap_plan", "densify.interp_plan"),
            total["densify.extrap_plan"] + total["densify.interp_plan"],
        ),
        "densify.plan_targets": (("densify.extrap_plan", "densify.interp_plan"), c["densify.plan_targets"]),
        "densify.plan_keep_ratio": (
            ("densify.extrap_plan",),
            c["densify.grid_kept"] / grid_candidates if grid_candidates else 0.0,
        ),
        "densify.lin_reg_s": method_s("lin_reg"),
        "densify.nonlin_reg_s": method_s("nonlin_reg"),
        "densify.lin_interp_s": method_s("lin_interp"),
        "densify.plane_fit_s": (("densify.plane_fit",), total["densify.plane_fit"]),
        "densify.plane_fit_calls": (("densify.plane_fit",), c["densify.plane_fit.calls"]),
        "densify.regressed": (("densify.densify_map",), c["densify.regressed"]),
        "densify.self_s": (layer_keys("densify"), layer_self("densify")),
        "vpr_map.localize_s": (("vpr_map.localize",), total["vpr_map.localize"]),
        "vpr_map.retrieve_calls": (("vpr_map.retrieve",), retrieve_calls),
        "vpr_map.retrieve_us": (
            ("vpr_map.retrieve",),
            total["vpr_map.retrieve"] / retrieve_calls * 1e6 if retrieve_calls else 0.0,
        ),
        "vpr_map.entries_scanned": (("vpr_map.retrieve",), c["vpr_map.entries_scanned"]),
        "vpr_map.oracle_s": (("vpr_map.oracle",), total["vpr_map.oracle"]),
        "vpr_map.oracle_calls": (("vpr_map.oracle",), c["vpr_map.oracle.calls"]),
        "vpr_map.extend_s": (("vpr_map.extend",), total["vpr_map.extend"]),
        "vpr_map.save_s": (("vpr_map.save",), total["vpr_map.save"]),
        "vpr_map.load_s": (("vpr_map.load",), total["vpr_map.load"]),
        "vpr_map.bytes_written": (("vpr_map.save",), c["vpr_map.bytes_written"]),
        "vpr_map.bytes_read": (("vpr_map.load",), c["vpr_map.bytes_read"]),
        "neural.model_io.save_s": (("neural.model_io.save",), total["neural.model_io.save"]),
        "neural.model_io.load_s": (("neural.model_io.load",), total["neural.model_io.load"]),
        "synth.scene_s": (("synth.scene",), total["synth.scene"]),
        "synth.scene_io_s": (("synth.scene_io",), total["synth.scene_io"]),
        "synth.observations_s": (("synth.observations",), total["synth.observations"]),
        "evaluate.protocol_s": (("evaluate.protocol",), total["evaluate.protocol"]),
        "evaluate.self_s": (("evaluate.protocol",), layer_self("evaluate")),
        "trace.unattributed_s": ((), traced_seconds - root),
    }
    values, missing, not_reached = {}, {}, {}
    for metric, (keys, value, *called) in table.items():
        gone = [tracer.missing[k] for k in keys if k in tracer.missing]
        if gone:
            missing[metric] = "; ".join(gone)
            continue
        values[metric] = value
        names = called[0] if called else keys
        if names and not any(c[f"{name}.calls"] for name in names):
            not_reached[metric] = f"the traced code made no call to {', '.join(names)}"
    return values, missing, not_reached
