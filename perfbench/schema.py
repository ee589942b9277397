"""Metric names, units and the result-document schema of the copr benchmark.

The metrics and their units are the ones ``BENCHMARK.json`` at the
repository root declares.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

SCHEMA = "copr-perfbench/1"

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
# metric name -> unit
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

_ENV_KEYS = ("src_loc", "numpy", "blas", "blas_threads", "nproc", "python")


def _metric_problems(metrics, spec, where: str) -> list[str]:
    problems = []
    for name, entry in metrics.items():
        if name not in spec:
            problems.append(f"{where}: unknown metric {name}")
        elif not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{where}: {name} is not {{value, unit}}")
        elif entry["unit"] != spec[name]:
            problems.append(f"{where}: {name} unit {entry['unit']} != {spec[name]}")
        elif not isinstance(entry["value"], numbers.Real) or isinstance(entry["value"], bool):
            problems.append(f"{where}: {name} value is not a number")
    return problems


def document_problems(doc: dict) -> list[str]:
    """Everything wrong with a result document; empty when it is valid.

    Every end-to-end metric is required. A traced document also needs every
    per-layer metric, either as a value or in ``missing`` with its reason;
    ``not_reached`` names measured metrics whose entry points were never called.
    """
    problems = []
    required = {
        "schema": str,
        "workload": str,
        "seed": int,
        "derived_seeds": dict,
        "trace": int,
        "run_seconds": numbers.Real,
        "correct": bool,
        "attempted": int,
        "failed": int,
        "fail_frac": numbers.Real,
        "errors": list,
        "metrics": dict,
        "samples": dict,
        "rows": dict,
        "env": dict,
    }
    for key, kind in required.items():
        if not isinstance(doc.get(key), kind):
            problems.append(f"{key} missing or not {kind.__name__}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema {doc['schema']} != {SCHEMA}")
    if doc["attempted"] < 1 or not 0 <= doc["failed"] <= doc["attempted"]:
        problems.append("attempted/failed out of range")
    problems += _metric_problems(doc["metrics"], END_TO_END, "metrics")
    if doc["correct"]:
        problems += [f"metrics: {m} missing" for m in END_TO_END if m not in doc["metrics"]]
    for name in ("setup_s", "wall_s"):
        sample = doc["samples"].get(name)
        if not isinstance(sample, dict) or not {"n", "values", "median", "q1", "q3"} <= set(sample):
            problems.append(f"samples: {name} needs n, values, median, q1, q3")
        elif sample["n"] != len(sample["values"]) or sample["n"] < 1:
            problems.append(f"samples: {name} count does not match its values")
    problems += [f"env: {k} missing" for k in _ENV_KEYS if k not in doc["env"]]
    if doc["trace"]:
        layers = doc.get("per_layer")
        missing = doc.get("missing")
        not_reached = doc.get("not_reached")
        if not all(isinstance(d, dict) for d in (layers, missing, not_reached)):
            problems.append("traced document needs per_layer, missing and not_reached")
        else:
            problems += _metric_problems(layers, PER_LAYER, "per_layer")
            for name in PER_LAYER:
                if name not in layers and not missing.get(name):
                    problems.append(f"per_layer: {name} neither measured nor marked missing")
            for name, reason in not_reached.items():
                if name not in layers or not reason:
                    problems.append(f"not_reached: {name} needs a value and a reason")
    return problems
