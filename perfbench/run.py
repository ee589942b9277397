"""Run one copr benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload loop-train --seed 0 --seconds 10 --trace 0

Run from the repository root; the copr sources are imported from ``src/``.
A run times whole passes within ``--seconds``: the first pass always runs, a
later one only if a pass of median length still fits. Before the passes, and
again after them, it sets the workload up ``SETUP_REPEATS`` times and for
``SETUP_SECONDS`` at least; each set-up ends with a small warm-up pass, so
lazy set-up and first-touch allocation are paid before timing.
With ``--trace 1`` one more set-up (with its warm-up) and one more pass run
under the outside-in tracer, and the per-layer metrics, summed over both, are
printed instead of the end-to-end ones. The encoder-side metrics come from a
tracer around the encoder probe, since neither workload trains an encoder.

The full result document goes to ``perfbench/results/``; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# The host's speed changes by up to a third over a few seconds. Three 1 s
# set-ups in a row gave loop-train's setup_s a spread of 0.33 over ten seeds,
# so set-ups are repeated for longer and on both sides of the timed passes.
SETUP_REPEATS = 2
SETUP_SECONDS = 4.0


def _sample(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def fresh(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def _probe(fn, errors: list, tracer=None) -> dict:
    """A probe's metrics, or none if it raised (an entry point it calls changed)."""
    try:
        with tracer or contextlib.nullcontext():
            return fn()
    except Exception as exc:  # a probed entry point changed; report it, keep the run
        errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
        return {}


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_loc = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_loc += sum(1 for _ in fh)
    return {
        "src_loc": src_loc,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import schema
    import tracer as tracing
    import workloads as W

    workdir = HERE / f".work-{os.getpid()}"
    gate = W.Gate()
    workload = W.WORKLOADS[workload_name](seed, workdir)
    doc = {
        "schema": schema.SCHEMA,
        "workload": workload_name,
        "seed": seed,
        "default_seed": seed == W.DEFAULT_SEED,
        "derived_seeds": workload.seeds(),
        "trace": int(trace),
        "run_seconds": seconds,
        "closed_loop": {"processes": 1, "callers": 1},
        "env": environment(),
    }
    setup_times, walls, rows = [], [], {}

    def set_up() -> None:
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            fresh(workdir)
            start = time.perf_counter()
            workload.setup(gate)
            workload.warm_up(gate)
            times.append(time.perf_counter() - start)
        setup_times.extend(times)

    try:
        set_up()

        def checked_pass():
            nonlocal rows
            with gate.chain():
                rows = workload.run_pass(gate)
                workload.check_default_seed(gate, rows)

        began = time.perf_counter()
        while not walls or time.perf_counter() - began + statistics.median(walls) <= seconds:
            start = time.perf_counter()
            checked_pass()
            walls.append(time.perf_counter() - start)
        set_up()
        if trace:
            run_id = f"{workload_name}-seed{seed}-pid{os.getpid()}"
            tracer = tracing.Tracer(run_id)
            fresh(workdir)
            start = time.perf_counter()
            with tracer:
                workload.setup(gate)
                workload.warm_up(gate)
                pass_start = time.perf_counter()
                checked_pass()
            end = time.perf_counter()
            per_layer, missing, not_reached = tracing.layer_metrics(tracer, end - start)
            per_layer["trace.overhead_s"] = end - pass_start - statistics.median(walls)
            probe_errors = []
            per_layer.update(_probe(W.probe_regressor_layers, probe_errors))
            encoder_tracer = tracing.Tracer(run_id, tracing.ENCODER_PROBE_POINTS)
            probed = _probe(W.probe_encoder_training, probe_errors, encoder_tracer)
            if probed:
                per_layer.update(probed)
                values, gone, unreached = tracing.layer_metrics(encoder_tracer, 0.0)
                for name in tracing.ENCODER_PROBE_METRICS:
                    for table, probe_table in ((per_layer, values), (missing, gone), (not_reached, unreached)):
                        table.pop(name, None)
                        if name in probe_table:
                            table[name] = probe_table[name]
            for name in schema.PER_LAYER:
                if name not in per_layer and name not in missing:
                    missing[name] = "; ".join(probe_errors) or "not measured"
            RESULTS.mkdir(exist_ok=True)
            spans_path = RESULTS / f"{workload_name}-seed{seed}.spans.jsonl"
            tracer.write(spans_path, start)
            encoder_tracer.write(spans_path.with_suffix(".probe.jsonl"), start)
            doc["per_layer"] = {k: {"value": v, "unit": schema.PER_LAYER[k]} for k, v in per_layer.items()}
            doc["missing"] = missing
            doc["not_reached"] = not_reached
            doc["spans"] = {
                "path": str(spans_path.relative_to(ROOT)),
                "count": len(tracer.spans),
                "probe_count": len(encoder_tracer.spans),
            }
    except W.OpFailed:
        pass  # set-up failed; the gate holds the reason
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if setup_times and walls:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if all(k in rows for k in workload.headline):
            metrics["mte_ratio"], metrics["mre_ratio"] = workload.ratios(rows)
    doc.update(
        {
            "correct": gate.failed == 0 and len(metrics) == len(schema.END_TO_END),
            "attempted": gate.attempted,
            "failed": gate.failed,
            "fail_frac": gate.failed / max(gate.attempted, 1),
            "errors": gate.errors,
            "metrics": {k: {"value": v, "unit": schema.END_TO_END[k]} for k, v in metrics.items()},
            "samples": {"setup_s": _sample(setup_times or [0.0]), "wall_s": _sample(walls or [0.0])},
            "rows": rows,
        }
    )
    problems = schema.document_problems(doc)
    if problems:
        doc["correct"] = False
        doc["errors"] = doc["errors"] + [f"result document: {p}" for p in problems]
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "copr" / "__init__.py").is_file():
        print(f"perfbench: no copr sources at {SRC}; run from a copr checkout", file=sys.stderr)
        return 2
    # One BLAS thread: copr multiplies small matrices (batch 64 x 39), and on a
    # 2-core machine the loop-train pass took 37 s with one thread, 45 s with two.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for error in doc["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    for name, reason in doc.get("missing", {}).items():
        print(f"perfbench: {name} missing: {reason}", file=sys.stderr)
    for name, reason in doc.get("not_reached", {}).items():
        print(f"perfbench: {name} not reached, reads 0: {reason}", file=sys.stderr)
    metrics = doc["per_layer"] if args.trace and "per_layer" in doc else doc["metrics"]
    line = {"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
