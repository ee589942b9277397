"""Self-tests of the copr benchmark: its declaration, result schema, tracer and gate.

These are cheap and run with the repository's test suite. The steadiness
test, which runs every workload on several seeds twice, takes about a
quarter of an hour and runs only with ``PERFBENCH_STEADY=1``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import schema  # noqa: E402
import steady  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_declares_the_workloads_and_metrics():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]}
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in BENCH[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert e2e["setup_s"] == ("s", "lower")


def test_every_declared_per_layer_metric_is_computed():
    values, missing, not_reached = tracing.layer_metrics(tracing.Tracer("empty"), traced_seconds=0.0)
    assert not missing
    assert set(not_reached) == set(values) - {"trace.unattributed_s"}
    assert set(tracing.ENCODER_PROBE_METRICS) <= set(values)
    probes = {n for n in schema.PER_LAYER if "_ms." in n or "_us." in n}
    assert set(values) | probes | {"trace.overhead_s"} == set(schema.PER_LAYER)


def _document(trace: int) -> dict:
    doc = {
        "schema": schema.SCHEMA,
        "workload": "loop-train",
        "seed": 0,
        "derived_seeds": {"scene": 2102},
        "trace": trace,
        "run_seconds": 10,
        "correct": True,
        "attempted": 7,
        "failed": 0,
        "fail_frac": 0.0,
        "errors": [],
        "metrics": {n: {"value": 1.5, "unit": u} for n, u in schema.END_TO_END.items()},
        "samples": {
            n: {"n": 2, "values": [1.0, 2.0], "median": 1.5, "q1": 1.0, "q3": 2.0} for n in ("setup_s", "wall_s")
        },
        "rows": {},
        "env": {k: 1 for k in ("src_loc", "numpy", "blas", "blas_threads", "nproc", "python")},
    }
    if trace:
        doc["per_layer"] = {n: {"value": 1, "unit": u} for n, u in schema.PER_LAYER.items()}
        doc["missing"] = {}
        doc["not_reached"] = {}
    return doc


def test_result_schema_accepts_a_complete_document_and_names_each_gap():
    assert schema.document_problems(_document(0)) == []
    assert schema.document_problems(_document(1)) == []

    doc = _document(0)
    del doc["metrics"]["wall_s"]
    assert schema.document_problems(doc) == ["metrics: wall_s missing"]

    doc = _document(0)
    doc["metrics"]["wall_s"]["unit"] = "ms"
    assert "unit" in schema.document_problems(doc)[0]

    doc = _document(1)
    del doc["per_layer"]["densify.plane_fit_s"]
    assert schema.document_problems(doc) == ["per_layer: densify.plane_fit_s neither measured nor marked missing"]
    doc["missing"]["densify.plane_fit_s"] = "wrap point gone"
    assert schema.document_problems(doc) == []
    doc["not_reached"]["densify.plane_fit_s"] = "no call"
    assert schema.document_problems(doc) == ["not_reached: densify.plane_fit_s needs a value and a reason"]


@pytest.fixture()
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def leaf(n):
        return list(range(n))

    def outer(n):
        return len(mod.leaf(n)) + len(mod.leaf(n))

    class Thing:
        def __init__(self, v):
            self.v = v

    mod.leaf, mod.outer, mod.Thing = leaf, outer, Thing
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_tracer_records_nested_spans_counters_and_restores(fake_module):
    def count_rows(counters, args, result):
        counters["rows"] += len(result)

    originals = (fake_module.leaf, fake_module.outer, fake_module.Thing)
    points = (
        tracing.WrapPoint("fake", "outer", ("perfbench_fake:outer",)),
        tracing.WrapPoint("fake", "leaf", ("perfbench_fake:leaf",), on_return=count_rows),
        tracing.WrapPoint("fake", "thing", ("perfbench_fake:Thing",), span=False),
    )
    tracer = tracing.Tracer("t1", points)
    with tracer:
        assert fake_module.outer(3) == 6
        fake_module.Thing(1)
    assert (fake_module.leaf, fake_module.outer, fake_module.Thing) == originals
    assert [s[0] for s in tracer.spans] == ["fake.outer", "fake.leaf", "fake.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.counters["rows"] == 6
    assert tracer.counters["fake.leaf.calls"] == 2
    assert tracer.counters["fake.thing.calls"] == 1
    total, own, root = tracer.totals()
    outer = tracer.spans[0]
    assert root == pytest.approx(outer[2] - outer[1])
    assert own["fake.outer"] == pytest.approx(total["fake.outer"] - total["fake.leaf"])


def test_vanished_wrap_point_is_reported_missing_not_fatal(fake_module):
    points = tracing.WRAP_POINTS + (tracing.WrapPoint("densify", "plane_fit", ("perfbench_fake:plane_fit_regress",)),)
    tracer = tracing.Tracer("t2", points)
    with tracer:
        pass
    assert "perfbench_fake:plane_fit_regress" in tracer.missing["densify.plane_fit"]
    values, missing, _ = tracing.layer_metrics(tracer, traced_seconds=1.0)
    assert set(missing) == {"densify.plane_fit_s", "densify.plane_fit_calls", "densify.self_s"}
    assert "densify.lin_reg_s" in values


def test_metrics_of_uncalled_entry_points_are_marked_not_reached(fake_module):
    points = (
        tracing.WrapPoint("densify", "densify_map", ("perfbench_fake:outer",), label=lambda args, kwargs: "lin_reg"),
        tracing.WrapPoint("vpr_map", "save", ("perfbench_fake:leaf",)),
    )
    tracer = tracing.Tracer("t4", points)
    with tracer:
        fake_module.outer(2)
    values, missing, not_reached = tracing.layer_metrics(tracer, traced_seconds=1.0)
    assert not missing
    assert values["densify.lin_reg_s"] > 0 and "densify.lin_reg_s" not in not_reached
    assert values["densify.lin_interp_s"] == 0
    assert "densify.densify_map.lin_interp" in not_reached["densify.lin_interp_s"]
    assert "vpr_map.save_s" not in not_reached and "vpr_map.load_s" in not_reached
    assert "trace.unattributed_s" not in not_reached


def test_every_wrap_point_exists_in_copr_and_is_restored():
    import copr.densify
    import copr.evaluate
    from copr.neural import core

    before = (copr.evaluate.densify_map, core.RawAdam.step, copr.densify.RelativePose)
    tracer = tracing.Tracer("t3")
    with tracer:
        assert tracer.missing == {}
        assert copr.evaluate.densify_map is not before[0]
    assert (copr.evaluate.densify_map, core.RawAdam.step, copr.densify.RelativePose) == before


def test_gate_counts_raises_and_failed_checks_and_stops_the_chain():
    gate = W.Gate()
    assert gate.run("ok", lambda: 3, check=lambda r: None) == 3
    with gate.chain():
        gate.run("bad check", lambda: 3, check=lambda r: "wrong")
        gate.run("never", lambda: 3)
    with gate.chain():
        gate.run("raises", lambda: 1 / 0)
    gate.check("cross", [])
    assert (gate.attempted, gate.failed) == (4, 2)
    assert gate.errors[0] == "bad check: wrong"
    assert gate.errors[1].startswith("raises: ZeroDivisionError")


def test_default_seed_keeps_the_pinned_configs_and_other_seeds_derive_new_ones():
    from copr import benchmarks as B

    assert W.LoopTrain(0, Path(".")).seeds() == {"scene": 2102, "field": 2101, "train": 2103}
    one, again, two = (W.LoopTrain(s, Path(".")).seeds() for s in (1, 1, 2))
    assert one == again and one != two
    assert B.LOOP_SCENE.seed not in one.values()


def test_reference_values_cover_each_headline_row():
    reference = json.loads(W.REFERENCE_PATH.read_text(encoding="utf-8"))
    for name, cls in W.WORKLOADS.items():
        assert set(cls.headline) <= set(reference[name])


def test_steadiness_comparison_flags_spread_and_drift():
    spec = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    calm = {"wall_s": [10.0, 10.1, 10.2, 9.9, 10.0], "setup_s": [1.0, 1.1, 1.0, 1.2, 1.0]}
    rows, problems = steady.compare([calm, calm], spec)
    assert problems == [] and len(rows) == 4
    slower = {"wall_s": [v * 1.2 for v in calm["wall_s"]], "setup_s": calm["setup_s"]}
    _, problems = steady.compare([calm, slower], spec)
    assert problems == ["wall_s set 1: median +0.200 worse than set 0, bound 0.1"]
    noisy = {"wall_s": [5.0, 10.0, 15.0, 20.0, 10.0], "setup_s": [1.0, 2.0, 1.0, 3.0, 1.0]}
    _, problems = steady.compare([noisy], spec)
    assert [p.split(":")[0] for p in problems] == ["wall_s set 0", "setup_s set 0"]


def test_run_refuses_a_directory_without_copr_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("results", ".work-*", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop-train", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.skipif(os.environ.get("PERFBENCH_STEADY") != "1", reason="runs each workload for minutes")
def test_two_sets_of_runs_agree_on_every_end_to_end_metric():
    assert steady.main(["--seeds", "1-5"]) == 0
