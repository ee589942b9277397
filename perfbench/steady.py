"""Steadiness check: do two sets of benchmark runs agree within the benchmark's bounds?

    python3 perfbench/steady.py --seeds 1-10

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed, one run at
a time, in two sets; the second set takes fresh seeds (``--seeds 1-10`` runs
seeds 11-20 in it). For every end-to-end metric it reports, per set, the
median and the spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), and the change of the second set's
median in the metric's worse direction. It exits 1 if a spread exceeds the
metric's bound, or the median worsened between the sets by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import schema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative when better)."""
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(sets: list[dict[str, list[float]]], spec: list[dict]) -> tuple[list[dict], list[str]]:
    """Rows of (metric, set, median, spread, worsening) and the problems found.

    ``sets`` holds, per set, metric name -> values of that set's runs;
    ``spec`` is the ``end_to_end`` list of ``BENCHMARK.json``.
    """
    rows, problems = [], []
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        first = statistics.median(sets[0][name])
        for i, values in enumerate(one_set[name] for one_set in sets):
            median, width = statistics.median(values), spread(values)
            worse = worsening(first, median, metric["better"])
            rows.append({"metric": name, "set": i, "median": median, "spread": width, "worse": worse})
            if width > bound:
                problems.append(f"{name} set {i}: spread {width:.3f} > bound {bound}")
            if worse > bound:
                problems.append(f"{name} set {i}: median {worse:+.3f} worse than set 0, bound {bound}")
    return rows, problems


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _seeds(text: str, set_index: int) -> list[int]:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    shift = set_index * (hi - lo + 1)
    return list(range(lo + shift, hi + shift + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range of the first set, e.g. 1-10")
    args = parser.parse_args(argv)
    bench = schema.BENCHMARK
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            runs = [run_once(workload, seed, bench["run_seconds"]) for seed in _seeds(args.seeds, s)]
            sets.append({m["name"]: [r[m["name"]] for r in runs] for m in bench["end_to_end"]})
            print(f"{workload} set {s}: {json.dumps(sets[-1])}", flush=True)
        rows, problems = compare(sets, bench["end_to_end"])
        for row in rows:
            print(
                f"{workload:11s} {row['metric']:12s} set {row['set']} median {row['median']:.6g} "
                f"spread {row['spread']:.4f} worse {row['worse']:+.4f}"
            )
        for problem in problems:
            print(f"{workload}: {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
