"""Acceptance criteria, one test per criterion.

Every test prints a single ``[acceptance] criterion N: PASS/FAIL`` line.
Tolerances are pinned here, not deferred. Run with ``pytest -s`` (or read
the captured output) to see the lines.
"""

import time

import numpy as np

from copr import benchmarks as B
from copr.densify import plane_fit_regress
from copr.evaluate import oracle_violations, report_signature
from copr.geometry import RelativePose
from copr.neural.core import Layer, MlpModel, Activation, RawAdam
from copr.neural.model_io import load_model, save_model
from copr.synth import load_scene, save_scene
from copr.vpr_map import load_map, retrieve, save_map

from conftest import build_all_reports, mte_of
from test_neural import gradient_check, _rand_model


def check(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status} - {name}{suffix}")
    assert ok, f"criterion {criterion} failed: {name}{suffix}"


def test_criterion_1_retrieval_exactness():
    from copr.vpr_map import ReferenceMap, retrieve_many

    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 1001))
        dim = int(rng.integers(1, 65))
        descriptors = rng.standard_normal((n, dim))
        query = rng.standard_normal(dim)
        # Independent brute-force scan: per-row norm loop with first-min.
        best, best_d = 0, float(np.linalg.norm(descriptors[0] - query))
        for i in range(1, n):
            d = float(np.linalg.norm(descriptors[i] - query))
            if d < best_d:
                best, best_d = i, d
        ref_map = ReferenceMap(
            ids=tuple(map(str, range(n))),
            descriptors=descriptors,
            translations=np.zeros((n, 3)),
            quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        )
        got = int(retrieve_many(query[None], ref_map, 1)[0][0, 0])
        if got != best:
            mismatches += 1
    elapsed = time.perf_counter() - start
    check(
        1,
        "NN retrieval matches independent brute force on 1000 seeded trials",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


def test_criterion_1_retrieval_exactness_through_api():
    # Same oracle driven through the public retrieve() op on smaller draws.
    from copr.geometry import Pose
    from copr.vpr_map import ReferenceMap

    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 200))
        dim = int(rng.integers(1, 32))
        desc = rng.standard_normal((n, dim))
        m = ReferenceMap(
            ids=tuple(f"r{i}" for i in range(n)),
            descriptors=desc,
            translations=np.zeros((n, 3)),
            quaternions=np.tile([1.0, 0, 0, 0], (n, 1)),
        )
        q = rng.standard_normal(dim)
        best = min(range(n), key=lambda i: (float(np.linalg.norm(desc[i] - q)), i))
        if retrieve(q, m, 1)[0].ref_index != best:
            ok = False
            break
    assert ok


def test_criterion_2_linear_interpolation():
    from copr.densify import lin_interp_many

    # Rows: a target on the first anchor, the midpoint, the quarter point.
    f1, f2 = np.tile([1.0, 0.0], (3, 1)), np.tile([0.0, 1.0], (3, 1))
    t1, t2 = np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0], (3, 1))
    t_new = np.array([[0.0, 0, 0], [0.5, 0, 0], [0.25, 0, 0]])
    got = lin_interp_many(f1, f2, t1, t2, t_new)
    ok_anchor, ok_mid, ok_quarter = np.max(np.abs(got - [[1.0, 0.0], [0.5, 0.5], [0.75, 0.25]]), axis=1) <= 1e-12
    # With unit anchor descriptors each output row is the two blend weights.
    rng = np.random.default_rng(1003)
    draws = []
    while len(draws) < 10_000:
        t_a, t_b, t_n = rng.standard_normal((3, 3))
        if np.linalg.norm(t_a - t_b) > 1e-12:
            draws.append((t_a, t_b, t_n))
    t_a, t_b, t_n = np.array(draws).transpose(1, 0, 2)
    weights = lin_interp_many(np.tile([1.0, 0.0], (10_000, 1)), np.tile([0.0, 1.0], (10_000, 1)), t_a, t_b, t_n)
    worst = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))
    check(
        2,
        "two-anchor blend: identity, midpoint, quarter point, weight sum",
        ok_anchor and ok_mid and ok_quarter and worst <= 1e-12,
        f"max |weights-1| = {worst:.2e}",
    )


def test_criterion_3_plane_fit_exactness():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(40):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        pts = rng.standard_normal((6, 3)) * 2.0
        nbrs = [(a @ p + b, p) for p in pts]
        center = pts.mean(axis=0)
        for _ in range(25):
            t_in = center + rng.uniform(-0.5, 0.5, 3)  # interpolation regime
            t_out = center + rng.standard_normal(3) * 10.0  # extrapolation
            for t in (t_in, t_out):
                err = np.max(np.abs(plane_fit_regress(nbrs, t) - (a @ t + b)))
                worst = max(worst, err)
    collinear = [(np.array([float(i)]), [float(i), 0.0, 0.0]) for i in range(4)]
    finite = bool(np.all(np.isfinite(plane_fit_regress(collinear, [7.0, 3.0, -1.0]))))
    check(
        3,
        "plane fit exact on affine fields (2000 targets) and finite when degenerate",
        worst <= 1e-9 and finite,
        f"max error = {worst:.2e}",
    )


def test_criterion_4_gradient_oracle():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        model = _rand_model(rng)
        x = rng.standard_normal(model.input_dim)
        target = rng.standard_normal(model.output_dim)
        worst = max(worst, gradient_check(model, x, target))
    grads_ok = worst <= 1e-6

    # Adam: two steps of the optimizer training runs against the hand recurrence.
    lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
    model = MlpModel(
        layers=(Layer(weights=np.array([[0.3]]), bias=np.zeros(1), activation=Activation.IDENTITY),)
    )
    net = model.on_buffer(model.flat.copy())
    opt = RawAdam(net, lr)
    g = 1.0
    grad = np.array([g, 0.0])
    theta, m, v = 0.3, 0.0, 0.0
    adam_err = 0.0
    for t in (1, 2):
        opt.step(net, grad)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        adam_err = max(adam_err, abs(float(net.layers[0].weights[0, 0]) - theta))
    check(
        4,
        "analytic gradients vs central differences (100 models) and Adam hand recurrence",
        grads_ok and adam_err <= 1e-12,
        f"max grad rel err = {worst:.2e}, adam err = {adam_err:.2e}",
    )


def test_criterion_5_densification_gain(loop_bundle, lanes_bundle, report_bundle):
    loop_sparse = mte_of(report_bundle.loop_extrap, "extrap", "M_sparse", "-")
    loop_dense = mte_of(report_bundle.loop_extrap, "extrap", "M_dense", "NonLinReg")
    lanes_sparse = mte_of(report_bundle.lanes_extrap, "extrap", "M_sparse", "-")
    lanes_dense = mte_of(report_bundle.lanes_extrap, "extrap", "M_dense", "NonLinReg")
    runtime = (
        loop_bundle.build_seconds
        + lanes_bundle.build_seconds
        + report_bundle.loop_seconds
        + report_bundle.lanes_seconds
    )
    ok = (
        loop_dense <= 0.80 * loop_sparse
        and lanes_dense <= 0.60 * lanes_sparse
        and runtime < 300.0
    )
    check(
        5,
        "dense-map MTE gain on loop (<=0.80x) and lanes (<=0.60x) within 5 min",
        ok,
        f"loop {loop_dense:.4f}/{loop_sparse:.4f}={loop_dense/loop_sparse:.3f}, "
        f"lanes {lanes_dense:.4f}/{lanes_sparse:.4f}={lanes_dense/lanes_sparse:.3f}, "
        f"runtime {runtime:.0f}s",
    )


def test_criterion_6_regressor_ordering(report_bundle):
    sparse = mte_of(report_bundle.loop_extrap, "extrap", "M_sparse", "-")
    lin = mte_of(report_bundle.loop_extrap, "extrap", "M_dense", "LinReg")
    non = mte_of(report_bundle.loop_extrap, "extrap", "M_dense", "NonLinReg")
    gt = mte_of(report_bundle.affine_interp, "interp", "M_dense", "GTMap")
    lin_interp_scene = mte_of(report_bundle.affine_interp, "interp", "M_dense", "LinReg")
    ok = (non <= lin <= sparse) and abs(lin_interp_scene - gt) <= 1e-9
    check(
        6,
        "NonLinReg <= LinReg <= sparse on loop; affine LinReg == GT dense",
        ok,
        f"loop {non:.4f} <= {lin:.4f} <= {sparse:.4f}; |linreg-gt| = {abs(lin_interp_scene - gt):.2e}",
    )


def test_criterion_7_oracle_dominance(report_bundle):
    violations = []
    for report in (
        report_bundle.loop_extrap,
        report_bundle.loop_sweep,
        report_bundle.lanes_extrap,
        report_bundle.affine_interp,
        report_bundle.encoders,
    ):
        violations.extend(oracle_violations(report))
    check(
        7,
        "oracle MTE lower-bounds every VPR MTE in every emitted row set",
        len(violations) == 0,
        f"violations = {violations!r}" if violations else "0 violations",
    )


def test_criterion_8_step_size_trend(report_bundle):
    mtes = [
        mte_of(report_bundle.loop_sweep, f"extrap[step={s:g}]", "M_dense", "NonLinReg")
        for s in B.SWEEP_STEPS
    ]
    ok = all(mtes[i + 1] <= mtes[i] * 1.05 for i in range(len(mtes) - 1))
    check(
        8,
        "NonLinReg MTE non-increasing (within +5%) as the grid step shrinks",
        ok,
        "MTEs " + ", ".join(f"{s:g}:{m:.4f}" for s, m in zip(B.SWEEP_STEPS, mtes)),
    )


def test_criterion_9_encoder_loss_direction(report_bundle):
    rows = report_bundle.encoders
    sparse = {v: mte_of(rows, f"encoders:{v}", "M_sparse", "-") for v in ("triplet", "relative", "distance")}
    dense = {v: mte_of(rows, f"encoders:{v}", "M_dense", "NonLinReg") for v in ("triplet", "relative", "distance")}
    ok = sparse["distance"] <= sparse["triplet"] and all(dense[v] <= sparse[v] for v in sparse)
    check(
        9,
        "distance-loss sparse MTE <= triplet's; dense <= sparse for all variants",
        ok,
        ", ".join(f"{v}: {sparse[v]:.3f}->{dense[v]:.3f}" for v in ("triplet", "relative", "distance")),
    )


def test_criterion_10_stray_cases(report_bundle):
    rows = report_bundle.stray.rows
    before_ok = all(r.rank_before == 1 for r in rows) and len(rows) == 4
    demoted = sum(1 for r in rows if r.rank_after > 1)
    check(
        10,
        "stray holds rank 1 before densification (4/4) and is demoted after (>=3/4)",
        before_ok and demoted >= 3,
        f"before ranks {[r.rank_before for r in rows]}, after {[r.rank_after for r in rows]}",
    )


def test_criterion_11_determinism_and_io(
    loop_bundle, lanes_bundle, affine_bundle, multi_bundle, report_bundle, tmp_path
):
    from conftest import _build_bundle

    # Full re-run from scratch: scenes regenerated, every model retrained.
    loop2 = _build_bundle("loop", B.LOOP_TRAIN, B.LOOP_PAIR_CAP, B.LOOP_PAIR_MAX)
    lanes2 = _build_bundle("lanes", B.LANES_TRAIN, B.LANES_PAIR_CAP, B.LANES_PAIR_MAX)
    affine2 = _build_bundle("affine-loop")
    multi2 = _build_bundle("multiscene", B.MULTI_TRAIN, B.MULTI_PAIR_CAP, B.MULTI_PAIR_MAX)
    rerun = build_all_reports(loop2, lanes2, affine2, multi2)
    reports_ok = (
        report_signature(rerun.loop_extrap) == report_signature(report_bundle.loop_extrap)
        and report_signature(rerun.loop_sweep) == report_signature(report_bundle.loop_sweep)
        and report_signature(rerun.lanes_extrap) == report_signature(report_bundle.lanes_extrap)
        and report_signature(rerun.affine_interp) == report_signature(report_bundle.affine_interp)
        and report_signature(rerun.encoders) == report_signature(report_bundle.encoders)
        and rerun.stray == report_bundle.stray
    )

    # Map files round-trip bitwise.
    save_map(loop_bundle.scene.gt_dense, tmp_path / "p.csv", tmp_path / "d.bin")
    loaded = load_map(tmp_path / "p.csv", tmp_path / "d.bin")
    save_map(loaded, tmp_path / "p2.csv", tmp_path / "d2.bin")
    maps_ok = (
        (tmp_path / "d.bin").read_bytes() == (tmp_path / "d2.bin").read_bytes()
        and (tmp_path / "p.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()
    )

    # Model files round-trip bitwise.
    save_model(loop_bundle.model, tmp_path / "h.bin")
    save_model(load_model(tmp_path / "h.bin"), tmp_path / "h2.bin")
    models_ok = (tmp_path / "h.bin").read_bytes() == (tmp_path / "h2.bin").read_bytes()

    # Scene export round-trips through load_scene.
    save_scene(affine_bundle.scene, tmp_path / "scene")
    reloaded = load_scene(tmp_path / "scene")
    scene_ok = reloaded.scene_cfg == affine_bundle.scene.scene_cfg

    check(
        11,
        "suite rerun is bitwise identical (timings excluded); files round-trip bitwise",
        reports_ok and maps_ok and models_ok and scene_ok,
        f"reports={reports_ok}, maps={maps_ok}, models={models_ok}, scene={scene_ok}",
    )
