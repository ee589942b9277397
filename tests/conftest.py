"""The session's one build of the pinned benchmark pipeline.

The heavyweight pieces (scene generation, regressor and encoder training,
experiment reports) are built once, by ``copr.benchmarks.build_pipeline``,
and shared by the acceptance criteria, which read its reports, models,
scenes and stage times.

When acceptance criterion 11 is collected, a second, independent build
starts at once in a child interpreter with a different ``PYTHONHASHSEED``
(``copr pipeline``) and runs alongside the session; the criterion compares
the reports it writes with this process's.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

# One BLAS thread, as CI and the benchmark run: copr multiplies small
# matrices, which run slower on several OpenBLAS threads. Set before copr
# imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from copr.benchmarks import Pipeline, build_pipeline  # noqa: E402
from copr.evaluate import ExperimentReport  # noqa: E402


@pytest.fixture(scope="session")
def pipeline() -> Pipeline:
    return build_pipeline()


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


_rerun = {}


def pytest_collection_finish(session):
    """Start the child build as soon as criterion 11 is known to run."""
    criterion_11 = "test_criterion_11_determinism_and_io"
    if not any(getattr(item, "originalname", None) == criterion_11 for item in session.items):
        return
    import copr

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(copr.__file__).parents[1]), env.get("PYTHONPATH"))))
    seed = env.get("PYTHONHASHSEED", "random")
    # An unset or "random" seed hashes with a random key, which seed 0 (no randomization) differs from.
    env["PYTHONHASHSEED"] = str((int(seed) + 1) % 2**32) if seed.isdigit() else "0"
    # One BLAS thread, so the child and the session do not both spin BLAS threads on every core.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    out_dir = tempfile.TemporaryDirectory()
    err = tempfile.TemporaryFile()
    cmd = [sys.executable, "-m", "copr.cli", "pipeline", "--out", out_dir.name]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
    _rerun.update(proc=proc, out_dir=out_dir, err=err)


def pytest_sessionfinish(session):
    proc = _rerun.get("proc")
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait()
    if "out_dir" in _rerun:
        _rerun["out_dir"].cleanup()


def child_rerun() -> tuple[Path | None, str]:
    """Wait for the child build: (its report directory, or None if it failed; its stderr)."""
    proc, err = _rerun["proc"], _rerun["err"]
    code = proc.wait()
    err.seek(0)
    stderr = err.read().decode(errors="replace")
    if code != 0:
        return None, f"exit code {code}\n{stderr}"
    return Path(_rerun["out_dir"].name), stderr
