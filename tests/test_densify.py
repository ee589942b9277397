"""Densification tests: target plans, linear regressors, map assembly."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copr import densify as densify_module
from copr.densify import (
    EXTRAPOLATION,
    INTERPOLATION,
    DensifyConfig,
    TargetPlan,
    densify_map,
    gen_extrap_grid,
    gen_interp_targets,
    lin_interp_many,
    plane_fit_many,
    plane_fit_regress,
    subsample_trajectory,
)
from copr.errors import (
    CoincidentAnchors,
    CoprError,
    CountMismatch,
    DimMismatch,
    InvalidConfig,
    MethodPlanMismatch,
    RefusedNonFinite,
    TooFewAnchors,
    TooFewNeighbors,
    UnknownAnchor,
    ZeroQuaternion,
)
from copr.geometry import Pose, normalize_quat_rows, pose_blocks, relative_pose_rows
from copr.neural.core import regress_nonlinear_batch
from copr.neural.training import TrainConfig, TrainingPairs, train_regressor
from copr.vpr_map import Origin, ReferenceMap, nearest_neighbors, origin_of


def _line_map(n, spacing=1.0, dim=2):
    rng = np.random.default_rng(5)
    return _blocks_map(rng.standard_normal((n, dim)), np.c_[np.arange(n) * spacing, np.zeros((n, 2))])


def _blocks_map(descriptors, translations, yaws=None):
    """Map ``a0, a1, ...`` of the given rows, each heading at its yaw about +z (default 0)."""
    half = np.zeros(len(translations)) if yaws is None else np.asarray(yaws, dtype=float) / 2.0
    q = np.zeros((len(half), 4))
    q[:, 0], q[:, 3] = np.cos(half), np.sin(half)
    t, q = pose_blocks(translations, q)
    ids = tuple(f"a{i}" for i in range(len(t)))
    return ReferenceMap(ids=ids, descriptors=descriptors, translations=t, quaternions=q)


def _interp_plan(m, stride):
    """The anchors of ``m`` at ``stride`` and the plan of its dropped poses."""
    anchors, dropped = subsample_trajectory(m, stride)
    return anchors, gen_interp_targets(anchors, dropped=dropped)


def _plan(scheme, ids, t, q, anchor_ids):
    return TargetPlan(scheme, ids, np.asarray(t, dtype=np.float64), np.asarray(q, dtype=np.float64), anchor_ids)


def _pairs_of(m, index_pairs):
    """Training pairs over (anchor, target) entry indices of ``m``."""
    a, b = np.array(index_pairs).T
    pa, pb = [m.pose(i) for i in a], [m.pose(j) for j in b]
    dp = relative_pose_rows([p.t for p in pa], [p.q for p in pa], [p.t for p in pb], [p.q for p in pb])
    return TrainingPairs(m.descriptors[a], dp, m.descriptors[b])


class TestSubsample:
    def test_1000_stride_50(self):
        m = _line_map(1000, 0.01)
        anchors, dropped = subsample_trajectory(m, 50)
        assert len(anchors) == 20
        assert len(dropped.left_anchors) == 980

    def test_stride_larger_than_map(self):
        m = _line_map(5)
        anchors, dropped = subsample_trajectory(m, 10)
        assert len(anchors) == 1
        assert anchors.ids == ("a0",)
        assert len(dropped.left_anchors) == 4

    def test_stride_two_on_four(self):
        m = _line_map(4)
        anchors, dropped = subsample_trajectory(m, 2)
        assert anchors.ids == ("a0", "a2")
        np.testing.assert_array_equal(dropped.translations[:, 0], [1.0, 3.0])

    def test_dropped_poses_match_per_entry_poses(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((23, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        m = ReferenceMap(
            ids=tuple(f"a{i}" for i in range(23)),
            descriptors=np.zeros((23, 1)),
            translations=rng.standard_normal((23, 3)),
            quaternions=q,
        )
        anchors, dropped = subsample_trajectory(m, 5)
        kept = [i for i in range(23) if i % 5]
        assert dropped.left_anchors.tolist() == [min(i // 5, 3) for i in kept]
        assert dropped.translations.tobytes() == m.translations[kept].tobytes()
        assert dropped.quaternions.tobytes() == m.quaternions[kept].tobytes()
        plan = gen_interp_targets(anchors, dropped=dropped)
        for r, i in enumerate(kept):
            assert plan.translations[r].tobytes() == m.pose(i).t.tobytes()
            assert plan.quaternions[r].tobytes() == m.pose(i).q.tobytes()

    def test_config_invariants(self):
        with pytest.raises(InvalidConfig):
            DensifyConfig(stride=1)
        with pytest.raises(InvalidConfig):
            DensifyConfig(grid_step=0.0)
        with pytest.raises(InvalidConfig):
            DensifyConfig(grid_step=0.2, grid_span=0.1)
        with pytest.raises(InvalidConfig):
            DensifyConfig(neighbors=3)
        with pytest.raises(InvalidConfig):
            DensifyConfig(dedupe_radius=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["grid_step", "grid_span", "dedupe_radius"])
    def test_config_refuses_a_non_finite_length(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            DensifyConfig(**{field: value})


class TestInterpTargets:
    def test_midpoint_subdivision(self):
        _, plan = _interp_plan(_line_map(3), 2)
        assert plan.targets == ("a0~a2#k1",)
        np.testing.assert_array_equal(plan.translations, [[1.0, 0, 0]])
        assert plan.anchor_ids == (("a0", "a2"),)

    def test_equal_spacing_three(self):
        _, plan = _interp_plan(_line_map(5), 4)
        assert plan.targets == ("a0~a4#k1", "a0~a4#k2", "a0~a4#k3")
        np.testing.assert_array_equal(plan.translations[:, 0], [1.0, 2.0, 3.0])

    def test_dropped_round_trip_count(self):
        m = _line_map(101)
        anchors, dropped = subsample_trajectory(m, 10)
        plan = gen_interp_targets(anchors, dropped=dropped)
        assert len(plan.targets) == len(dropped.left_anchors) == len(dropped.translations)

    def test_bracketing_by_original_index(self):
        m = _line_map(7)
        anchors, dropped = subsample_trajectory(m, 3)  # anchors a0, a3, a6
        plan = gen_interp_targets(anchors, dropped=dropped)
        by_x = dict(zip(plan.translations[:, 0].tolist(), plan.anchor_ids))
        assert by_x[1.0] == ("a0", "a3")
        assert by_x[2.0] == ("a0", "a3")
        assert by_x[4.0] == ("a3", "a6")

    def test_trailing_poses_clamp_to_last_segment(self):
        m = _line_map(8)
        anchors, dropped = subsample_trajectory(m, 3)  # anchors a0, a3, a6; a7 trails
        plan = gen_interp_targets(anchors, dropped=dropped)
        assert plan.translations[-1, 0] == 7.0
        assert plan.targets[-1] == "a3~a6#k3" and plan.anchor_ids[-1] == ("a3", "a6")

    def test_orientation_normalized_once(self):
        # Map quaternions may sit up to 1e-6 off unit; a plan normalizes each
        # dropped pose's own orientation exactly once.
        rng = np.random.default_rng(12)
        q = rng.standard_normal((9, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q *= 1.0 + rng.uniform(-5e-7, 5e-7, (9, 1))
        m = ReferenceMap(
            ids=tuple(f"a{i}" for i in range(9)),
            descriptors=np.zeros((9, 1)),
            translations=np.c_[np.arange(9.0), np.zeros((9, 2))],
            quaternions=q,
        )
        _, plan = _interp_plan(m, 4)
        dropped = [i for i in range(9) if i % 4]
        assert plan.quaternions.tobytes() == normalize_quat_rows(q[dropped]).tobytes()

    def test_needs_two_anchors(self):
        anchors, dropped = subsample_trajectory(_line_map(5), 10)
        with pytest.raises(TooFewAnchors):
            gen_interp_targets(anchors, dropped=dropped)

    def test_exactly_one_mode(self):
        # Dropped poses are the only source of interpolation targets.
        m = _line_map(3)
        with pytest.raises(TypeError):
            gen_interp_targets(m)
        with pytest.raises(TypeError):
            gen_interp_targets(m, subdivisions=1)


class TestExtrapGrid:
    def test_single_anchor_24_targets(self):
        m = _line_map(1)
        cfg = DensifyConfig(stride=2, grid_step=0.05, grid_span=0.1, dedupe_radius=0.0)
        plan = gen_extrap_grid(m, cfg)
        assert len(plan.targets) == 24  # 5x5 minus center

    def test_span_equals_step_8_targets(self):
        m = _line_map(1)
        cfg = DensifyConfig(stride=2, grid_step=0.05, grid_span=0.05, dedupe_radius=0.0)
        plan = gen_extrap_grid(m, cfg)
        assert len(plan.targets) == 8

    def test_per_anchor_count_formula(self):
        m = _line_map(1)
        for step, span in ((0.1, 0.3), (0.05, 0.4), (0.2, 0.2)):
            cfg = DensifyConfig(stride=2, grid_step=step, grid_span=span, dedupe_radius=0.0)
            half = math.floor(span / step + 1e-9)
            assert len(gen_extrap_grid(m, cfg).targets) == (2 * half + 1) ** 2 - 1

    def test_dedupe_overlapping_grids(self):
        m = _line_map(2, spacing=0.03)
        cfg = DensifyConfig(stride=2, grid_step=0.05, grid_span=0.1, dedupe_radius=0.025)
        plan = gen_extrap_grid(m, cfg)
        assert len(plan.targets) < 2 * 24

    def test_orientation_and_z_copied(self):
        m = _blocks_map(np.zeros((1, 2)), [[1, 2, 3]], [0.7])
        cfg = DensifyConfig(stride=2, grid_step=0.1, grid_span=0.1, dedupe_radius=0.0)
        plan = gen_extrap_grid(m, cfg)
        assert np.all(plan.translations[:, 2] == 3.0)
        np.testing.assert_array_equal(plan.quaternions, np.tile(m.quaternions[0], (len(plan.targets), 1)))
        assert plan.anchor_ids == (("a0",),) * len(plan.targets)

    def test_grid_ids_deterministic(self):
        m = _line_map(1)
        cfg = DensifyConfig(stride=2, grid_step=0.05, grid_span=0.05, dedupe_radius=0.0)
        ids = gen_extrap_grid(m, cfg).targets
        assert "a0#gx-1y0" in ids and "a0#gx1y1" in ids


class _ReferenceSpatialHash:
    """The per-point dedupe hash gen_extrap_grid used before it was batched."""

    def __init__(self, radius):
        self.radius = radius
        self.cell = max(radius, 1e-9)
        self.buckets = {}

    def _key(self, p):
        return tuple(int(math.floor(v / self.cell)) for v in p)

    def near(self, p):
        kx, ky, kz = self._key(p)
        r2 = self.radius * self.radius
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for other in self.buckets.get((kx + dx, ky + dy, kz + dz), ()):
                        d = p - other
                        if float(d @ d) <= r2:
                            return True
        return False

    def add(self, p):
        self.buckets.setdefault(self._key(p), []).append(p)


def _reference_extrap_grid(anchors, cfg):
    """(id, t, q, anchor_ids) per target, one candidate at a time, as gen_extrap_grid did."""
    half = int(math.floor(cfg.grid_span / cfg.grid_step + 1e-9))
    hash_ = _ReferenceSpatialHash(cfg.dedupe_radius)
    for t in anchors.translations:
        hash_.add(np.asarray(t, dtype=np.float64))
    out = []
    for a in range(len(anchors)):
        ax, ay, az = anchors.translations[a]
        for i in range(-half, half + 1):
            for j in range(-half, half + 1):
                if i == 0 and j == 0:
                    continue
                p = np.array([ax + i * cfg.grid_step, ay + j * cfg.grid_step, az])
                if hash_.near(p):
                    continue
                hash_.add(p)
                pose = Pose(t=p, q=anchors.quaternions[a])
                out.append((f"{anchors.ids[a]}#gx{i}y{j}", pose.t.tobytes(), pose.q.tobytes(), (anchors.ids[a],)))
    return out


def _anchor_map(translations, yaws):
    return _blocks_map(np.zeros((len(yaws), 1)), translations, yaws)


def _plan_rows(plan):
    rows = zip(plan.targets, plan.translations, plan.quaternions, plan.anchor_ids)
    return [(target, t.tobytes(), q.tobytes(), anchors) for target, t, q, anchors in rows]


_STEPS = st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0, 1.8])


@st.composite
def _lattice_grid_cases(draw):
    """Anchors on an integer multiple of the step (exact ties between grids)
    with radius 0, step/2, step, or a multiple of the step."""
    step = draw(_STEPS)
    half = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-1, 1)), min_size=n, max_size=n))
    translations = [(i * step, j * step, k * step) for i, j, k in cells]
    radius = draw(st.sampled_from([0.0, step / 2, step, 1.5 * step, 2 * step]))
    yaws = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    return translations, yaws, DensifyConfig(stride=2, grid_step=step, grid_span=half * step, dedupe_radius=radius)


@st.composite
def _float_grid_cases(draw):
    step = draw(_STEPS)
    n = draw(st.integers(1, 12))
    coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    z = st.one_of(st.sampled_from([0.0, 0.5]), coord)
    translations = draw(st.lists(st.tuples(coord, coord, z), min_size=n, max_size=n))
    radius = draw(st.floats(0.0, 3.0 * step))
    span = draw(st.sampled_from([1, 2, 3])) * step
    yaws = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n))
    return translations, yaws, DensifyConfig(stride=2, grid_step=step, grid_span=span, dedupe_radius=radius)


class TestExtrapGridMatchesReference:
    """The batched dedupe keeps exactly the targets the per-point greedy kept."""

    @given(_lattice_grid_cases(), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_lattice_anchors_with_exact_ties(self, case, chunk):
        translations, yaws, cfg = case
        m = _anchor_map(translations, yaws)
        want = _reference_extrap_grid(m, cfg)
        assert _plan_rows(gen_extrap_grid(m, cfg)) == want
        with mock.patch.object(densify_module, "_DEDUPE_CHUNK", chunk):
            assert _plan_rows(gen_extrap_grid(m, cfg)) == want

    @given(_float_grid_cases(), st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_float_anchors(self, case, chunk):
        translations, yaws, cfg = case
        m = _anchor_map(translations, yaws)
        want = _reference_extrap_grid(m, cfg)
        assert _plan_rows(gen_extrap_grid(m, cfg)) == want
        with mock.patch.object(densify_module, "_DEDUPE_CHUNK", chunk):
            assert _plan_rows(gen_extrap_grid(m, cfg)) == want

    @pytest.mark.parametrize("radius_in_steps", [0.0, 0.5, 1.0, 3.0, 8.0])
    def test_dense_trajectory(self, radius_in_steps):
        # 40 anchors of 80 candidates span more than one dedupe chunk.
        rng = np.random.default_rng(17)
        angles = np.sort(rng.uniform(0, 2 * math.pi, 40))
        translations = np.c_[np.cos(angles), np.sin(angles), np.zeros(40)]
        m = _anchor_map(translations, angles)
        cfg = DensifyConfig(stride=2, grid_step=0.1, grid_span=0.4, dedupe_radius=0.1 * radius_in_steps)
        assert _plan_rows(gen_extrap_grid(m, cfg)) == _reference_extrap_grid(m, cfg)

    @pytest.mark.parametrize("radius", [0.0, 1e-6, 0.25])
    def test_far_apart_large_coordinates(self, radius):
        # At radius 0 the cell is 1e-9, so these cell keys reach about 7e23.
        translations = [(5e9, 0.0, 0.0), (5e9 + 0.25, 0.0, 0.0), (-1e12, 3e12, 7e14), (0.0, 0.0, 0.0)]
        m = _anchor_map(translations, [0.0, 1.0, 2.0, 3.0])
        cfg = DensifyConfig(stride=2, grid_step=0.25, grid_span=0.5, dedupe_radius=radius)
        assert _plan_rows(gen_extrap_grid(m, cfg)) == _reference_extrap_grid(m, cfg)

    def test_overflowing_candidates_refused(self):
        m = _anchor_map([(1.7e308, 0.0, 0.0)], [0.0])
        with pytest.raises(RefusedNonFinite):
            gen_extrap_grid(m, DensifyConfig(stride=2, grid_step=1e308, grid_span=1e308, dedupe_radius=0.0))

    def test_plan_blocks_stack_target_poses(self):
        m = _anchor_map(np.c_[np.arange(4) * 0.07, np.zeros((4, 2))], [0.0, 0.5, 1.0, 1.5])
        cfg = DensifyConfig(stride=2, grid_step=0.05, grid_span=0.1, dedupe_radius=0.025)
        plan = gen_extrap_grid(m, cfg)
        want = _reference_extrap_grid(m, cfg)
        assert plan.translations.tobytes() == b"".join(row[1] for row in want)
        assert plan.quaternions.tobytes() == b"".join(row[2] for row in want)
        assert not plan.translations.flags.writeable and not plan.quaternions.flags.writeable


def _blend(f1, f2, t1, t2, t_new):
    """One two-anchor blend through the row kernel."""
    return lin_interp_many(*(np.asarray(v, dtype=np.float64).reshape(1, -1) for v in (f1, f2, t1, t2, t_new)))[0]


class TestLinInterp:
    def test_anchor_coincidence_identity(self):
        f1, f2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        out = _blend(f1, f2, [0, 0, 0], [1, 0, 0], [0, 0, 0])
        np.testing.assert_array_equal(out, f1)

    def test_midpoint_symmetry(self):
        f1, f2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        out = _blend(f1, f2, [0, 0, 0], [1, 0, 0], [0.5, 0, 0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_quarter_point_hand_example(self):
        out = _blend([1.0, 0.0], [0.0, 1.0], [0, 0, 0], [1, 0, 0], [0.25, 0, 0])
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)

    def test_coincident_anchors_raise(self):
        with pytest.raises(CoincidentAnchors):
            _blend([1.0], [2.0], [0, 0, 0], [0, 0, 0], [1, 0, 0])
        with pytest.raises(CoincidentAnchors):  # one coincident row refuses the block
            lin_interp_many(np.ones((2, 1)), np.zeros((2, 1)), np.zeros((2, 3)), [[1.0, 0, 0], [0, 0, 0]], np.ones((2, 3)))

    def test_barycentric_weight_sum(self):
        # Unit anchor descriptors make each output row the two weights.
        rng = np.random.default_rng(31)
        t1, t2, tn = rng.standard_normal((3, 10_000, 3))
        keep = np.linalg.norm(t1 - t2, axis=1) > 1e-12
        n = int(keep.sum())
        w = lin_interp_many(np.tile([1.0, 0.0], (n, 1)), np.tile([0.0, 1.0], (n, 1)), t1[keep], t2[keep], tn[keep])
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12

    @settings(max_examples=100)
    @given(st.floats(0, 1), st.floats(-5, 5), st.floats(-5, 5))
    def test_output_within_anchor_envelope(self, s, a, b):
        f1 = np.array([a])
        f2 = np.array([b])
        out = _blend(f1, f2, [0, 0, 0], [1, 0, 0], [s, 0, 0])
        lo, hi = min(a, b), max(a, b)
        assert lo - 1e-12 <= out[0] <= hi + 1e-12


class TestPlaneFit:
    def test_constant_field_exact(self):
        nbrs = [(np.array([2.5, -1.0]), t) for t in ([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])]
        out = plane_fit_regress(nbrs, [0.3, 0.3, 0.3])
        np.testing.assert_allclose(out, [2.5, -1.0], atol=1e-12)

    def test_hand_example_normal_equations(self):
        # f = 2x + 3y + z + 1 on the four unit-simplex corners.
        translations = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        values = np.array([1.0, 3.0, 4.0, 2.0])
        nbrs = [(np.array([v]), t) for v, t in zip(values, translations)]
        out = plane_fit_regress(nbrs, [0.5, 0.5, 0.5])
        # Independent oracle: explicit normal equations.
        design = np.hstack([translations, np.ones((4, 1))])
        coef = np.linalg.solve(design.T @ design, design.T @ values)
        expected = np.array([0.5, 0.5, 0.5, 1.0]) @ coef
        np.testing.assert_allclose(out, [expected], atol=1e-9)
        np.testing.assert_allclose(out, [4.0], atol=1e-9)

    def test_collinear_neighbors_finite(self):
        nbrs = [(np.array([float(i)]), [float(i), 0, 0]) for i in range(4)]
        out = plane_fit_regress(nbrs, [10.0, 5.0, -2.0])
        assert np.all(np.isfinite(out))

    def test_affine_recovery_interp_and_extrap(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal(3)
            pts = rng.standard_normal((6, 3))
            nbrs = [(a @ p + b, p) for p in pts]
            inside = pts.mean(axis=0)
            outside = pts.mean(axis=0) + rng.standard_normal(3) * 5.0
            for target in (inside, outside):
                np.testing.assert_allclose(
                    plane_fit_regress(nbrs, target), a @ target + b, atol=1e-9
                )

    def test_too_few_neighbors(self):
        with pytest.raises(TooFewNeighbors):
            plane_fit_regress([(np.zeros(1), [0, 0, 0])] * 3, [0, 0, 0])


def _stable_knn(translations, point, count):
    # Reference: the per-target scan densify_map ran before the batched kernel.
    diff = translations - point
    return np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[:count]


_grid_points = st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=30)


class TestNearestTranslations:
    @settings(max_examples=200, deadline=None)
    @given(_grid_points, _grid_points, st.integers(1, 8))
    def test_matches_stable_argsort_on_integer_grid(self, refs, points, count):
        # Integer grids make exact distance ties (and ties at the k-th) common.
        refs = np.asarray(refs, dtype=float)
        points = np.asarray(points, dtype=float)
        got, d2 = nearest_neighbors(points, refs, count)
        assert got.shape == d2.shape == (len(points), min(count, len(refs)))
        for row, p in zip(got, points):
            np.testing.assert_array_equal(row, _stable_knn(refs, p, count))

    def test_many_blocks_of_targets(self):
        rng = np.random.default_rng(3)
        refs = rng.integers(-4, 5, size=(300, 3)).astype(float)
        points = rng.integers(-4, 5, size=(1500, 3)).astype(float) / 2.0
        got, _ = nearest_neighbors(points, refs, 4)
        for row, p in zip(got, points):
            np.testing.assert_array_equal(row, _stable_knn(refs, p, 4))


def _lstsq_fit(f, t, t_new):
    design = np.hstack([t, np.ones((len(t), 1))])
    coef = np.linalg.lstsq(design, f, rcond=1e-10)[0]
    return np.concatenate([t_new, [1.0]]) @ coef


class TestPlaneFitMany:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(4, 7),
        st.sampled_from(["general", "coplanar", "collinear", "coincident"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_lstsq_including_rank_deficient(self, k, shape, seed):
        # Integer coordinates: the design is either exactly rank deficient
        # or well conditioned, so lstsq and the batched pinv agree to 1e-9.
        rng = np.random.default_rng(seed)
        m, dim = 5, 3
        if shape == "general":
            t = rng.integers(-5, 6, size=(m, k, 3)).astype(float)
        elif shape == "coplanar":
            t = np.zeros((m, k, 3))
            t[:, :, :2] = rng.integers(-5, 6, size=(m, k, 2))
        elif shape == "collinear":
            t = rng.integers(-5, 6, size=(m, k, 1)) * rng.integers(-2, 3, size=(m, 1, 3)).astype(float)
        else:
            t = np.repeat(rng.integers(-5, 6, size=(m, 1, 3)).astype(float), k, axis=1)
        f = rng.standard_normal((m, k, dim))
        t_new = rng.integers(-8, 9, size=(m, 3)).astype(float)
        idx = np.arange(m * k).reshape(m, k)
        got = plane_fit_many(f.reshape(-1, dim), t.reshape(-1, 3), idx, t_new)
        for i in range(m):
            np.testing.assert_allclose(got[i], _lstsq_fit(f[i], t[i], t_new[i]), rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(
                plane_fit_regress(list(zip(f[i], t[i])), t_new[i]), got[i], rtol=1e-12, atol=1e-12
            )


def _affine_line_map(n, a, b, spacing=0.5):
    t = np.array([[i * spacing, 0.3 * math.sin(i), 0.1 * i] for i in range(n)])
    return _blocks_map(np.array([a @ row + b for row in t]), t)


class TestDensifyMap:
    def test_empty_plan_identity(self):
        m = _line_map(3)
        plan = _plan(INTERPOLATION, (), np.zeros((0, 3)), np.zeros((0, 4)), ())
        assert densify_map(m, plan, "lin_interp") is m

    def test_lin_interp_requires_interpolation_plan(self):
        m = _line_map(3)
        cfg = DensifyConfig(stride=2, grid_step=0.5, grid_span=0.5, dedupe_radius=0.0)
        plan = gen_extrap_grid(m, cfg)
        with pytest.raises(MethodPlanMismatch):
            densify_map(m, plan, "lin_interp")

    def test_lin_interp_unknown_anchor_is_typed(self):
        m = _line_map(3)
        plan = _plan(INTERPOLATION, ("x~y#k1",), [[0.5, 0, 0]], [[1, 0, 0, 0]], (("a0", "y"),))
        with pytest.raises(UnknownAnchor, match=r"'x~y#k1' names anchor 'y'"):
            densify_map(m, plan, "lin_interp")
        assert issubclass(UnknownAnchor, CoprError)

    def test_nonlin_needs_model(self):
        m, plan = _interp_plan(_line_map(5), 2)
        with pytest.raises(MethodPlanMismatch):
            densify_map(m, plan, "nonlin_reg")

    def test_counting_and_provenance(self):
        m, plan = _interp_plan(_line_map(13, spacing=1.0), 3)
        dense = densify_map(m, plan, "lin_interp")
        assert len(dense) == 5 + 8
        assert dense.ids[:5] == m.ids
        assert all(origin_of(i) is Origin.REGRESSED for i in dense.ids[5:])

    def test_lin_interp_matches_per_target_blend_bitwise(self):
        rng = np.random.default_rng(41)
        m = _affine_line_map(11, rng.standard_normal((3, 3)), rng.standard_normal(3))
        anchors, dropped = subsample_trajectory(m, 3)
        plan = gen_interp_targets(anchors, dropped=dropped)
        dense = densify_map(anchors, plan, "lin_interp")
        for r, (pair, t) in enumerate(zip(plan.anchor_ids, plan.translations)):
            i1, i2 = (anchors.index_of(a) for a in pair)
            # The scalar blend the batched kernel replaced.
            b1 = float(np.linalg.norm(t - anchors.translations[i1]))
            b2 = float(np.linalg.norm(t - anchors.translations[i2]))
            want = (1.0 - b1 / (b1 + b2)) * anchors.descriptors[i1] + (1.0 - b2 / (b1 + b2)) * anchors.descriptors[i2]
            assert dense.descriptors[len(anchors) + r].tobytes() == want.tobytes()

    def test_sparse_never_mutated(self):
        m, plan = _interp_plan(_line_map(16), 3)
        before = (m.descriptors.copy(), m.translations.copy(), m.ids)
        dense = densify_map(m, plan, "lin_reg", neighbors=4)
        np.testing.assert_array_equal(m.descriptors, before[0])
        np.testing.assert_array_equal(m.translations, before[1])
        assert m.ids == before[2]
        for i in range(len(m)):
            np.testing.assert_array_equal(dense.descriptors[i], m.descriptors[i])

    def test_lin_reg_recovers_affine_field(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        m, plan = _interp_plan(_affine_line_map(34, a, b), 3)
        dense = densify_map(m, plan, "lin_reg", neighbors=4)
        for i in range(len(m), len(dense)):
            t = dense.translations[i]
            np.testing.assert_allclose(dense.descriptors[i], a @ t + b, atol=1e-9)

    def test_nonlin_reg_path(self):
        # A constant field is learnable in a few epochs; the regressed
        # descriptors must then be near-constant too.
        const = np.array([0.5, -1.5])
        m, plan = _interp_plan(_blocks_map(np.tile(const, (19, 1)), np.c_[np.arange(19) * 0.1, np.zeros((19, 2))]), 2)
        pairs = _pairs_of(m, [(i, j) for i in range(10) for j in range(10) if i != j])
        cfg = TrainConfig(lr=1e-2, epochs=400, batch_size=16, seed=3, validation_fraction=0.4, early_stop_patience=400)
        model = train_regressor(pairs, cfg, 2)
        dense = densify_map(m, plan, "nonlin_reg", model=model)
        for i in range(len(m), len(dense)):
            np.testing.assert_allclose(dense.descriptors[i], const, atol=1e-3)

    def test_nonlin_reg_matches_per_target_regression(self):
        # Reference: nearest sparse entry by stable argsort, the relative pose
        # of its Pose to the target's, one one-row regress_nonlinear_batch
        # call per target.
        m = _affine_line_map(9, np.eye(3)[:2], np.zeros(2))
        m = m.extended(("dup",), m.descriptors[3:4], m.translations[3], m.quaternions[3])
        pairs = _pairs_of(m, [(i, j) for i in range(9) for j in range(9)])
        model = train_regressor(pairs, TrainConfig(epochs=2, seed=1), 2)
        cfg = DensifyConfig(stride=2, grid_step=0.25, grid_span=0.5, dedupe_radius=0.0)
        plan = gen_extrap_grid(m, cfg)
        dense = densify_map(m, plan, "nonlin_reg", model=model)
        for r, (t, q) in enumerate(zip(plan.translations, plan.quaternions)):
            i = int(_stable_knn(m.translations, t, 1)[0])
            a, b = m.pose(i), Pose(t=t, q=q)
            want = regress_nonlinear_batch(model, m.descriptors[i : i + 1], relative_pose_rows(a.t, a.q, b.t, b.q))[0]
            np.testing.assert_allclose(dense.descriptors[len(m) + r], want, rtol=1e-12, atol=1e-12)

    def test_plan_json_round_trip(self):
        rng = np.random.default_rng(31)
        m = _affine_line_map(10, rng.standard_normal((2, 3)), rng.standard_normal(2))
        _, plan = _interp_plan(m, 4)
        doc = json.loads(plan.to_json())
        assert doc["scheme"] == INTERPOLATION
        assert [t["id"] for t in doc["targets"]] == list(plan.targets)
        assert [tuple(t["anchor_ids"]) for t in doc["targets"]] == list(plan.anchor_ids)
        # Floats are written in shortest round-trip form, so they read back bit-exact.
        assert np.array([t["pose"]["t"] for t in doc["targets"]]).tobytes() == plan.translations.tobytes()
        assert np.array([t["pose"]["q"] for t in doc["targets"]]).tobytes() == plan.quaternions.tobytes()

    def test_interpolation_plan_invariant(self):
        with pytest.raises(InvalidConfig, match="two anchor ids"):
            _plan(INTERPOLATION, ("x#k1",), [[0, 0, 0]], [[1, 0, 0, 0]], (("a",),))
        with pytest.raises(InvalidConfig, match="at least one anchor id"):
            _plan(EXTRAPOLATION, ("x#k1",), [[0, 0, 0]], [[1, 0, 0, 0]], ((),))
        assert EXTRAPOLATION == "extrapolation"

    def test_target_id_without_marker_refused(self):
        # A '#'-less id would read back as an anchor once the map is saved.
        t, q = [[0, 0, 0], [1, 0, 0]], [[1, 0, 0, 0], [1, 0, 0, 0]]
        assert len(_plan(EXTRAPOLATION, ("a0#gx1y0",), t[:1], q[:1], (("a0",),)).targets) == 1
        with pytest.raises(InvalidConfig, match="'#'"):
            _plan(EXTRAPOLATION, ("a0#gx1y0", "a0gx1y0"), t, q, (("a0",), ("a0",)))

    def test_column_blocks_are_validated(self):
        ids, anchors = ("a0#gx1y0", "a0#gx0y1"), (("a0",), ("a0",))
        t, q = np.zeros((2, 3)), np.tile([2.0, 0, 0, 0], (2, 1))
        plan = _plan(EXTRAPOLATION, ids, t, q, anchors)
        np.testing.assert_array_equal(plan.quaternions, np.tile([1.0, 0, 0, 0], (2, 1)))
        t[0, 0] = 5.0
        assert plan.translations[0, 0] == 0.0 and not plan.translations.flags.writeable
        for bad, error in (
            ((ids[:1], t, q, anchors[:1]), CountMismatch),
            ((ids, t[:1], q, anchors), CountMismatch),
            ((ids, t, q[:1], anchors), CountMismatch),
            ((ids, t, q, anchors[:1]), CountMismatch),
            ((ids, t[:, :2], q, anchors), DimMismatch),
            ((ids, t, q[:, :3], anchors), DimMismatch),
            ((ids, np.full((2, 3), np.inf), q, anchors), RefusedNonFinite),
            ((ids, t, np.zeros((2, 4)), anchors), ZeroQuaternion),
        ):
            with pytest.raises(error):
                _plan(EXTRAPOLATION, *bad)
        with pytest.raises(InvalidConfig, match="unknown plan scheme"):
            _plan("grid", ids, t, q, anchors)
