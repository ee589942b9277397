"""Synthetic-world tests: fields, scene layouts, stray cases, scene files."""

import dataclasses
import json
import math

import numpy as np
import pytest

from copr.densify import DensifyConfig, densify_map, gen_extrap_grid, gen_interp_targets, subsample_trajectory
from copr.errors import (
    ConfigConflict,
    InsufficientScenes,
    InvalidConfig,
    ParseError,
    RefusedNonFinite,
    VersionUnsupported,
)
from copr.geometry import Pose
from copr.benchmarks import NAMED_SCENES
from copr.synth import (
    LAYOUTS,
    SCENE_FILES,
    AffineField,
    FieldConfig,
    SceneConfig,
    gen_scene,
    load_scene,
    make_encoder_dataset,
    make_field,
    make_observations,
    make_stray_case,
    save_scene,
)
from copr.vpr_map import ReferenceMap, retrieve, save_map


def _value(field, t, q=(1.0, 0.0, 0.0, 0.0)):
    """The field at one pose, evaluated alone."""
    return field.eval_many(np.asarray(t, dtype=float).reshape(1, 3), np.asarray(q, dtype=float).reshape(1, 4))[0]


def _loop_cfg(**kw):
    base = dict(layout="loop", n_refs=60, extent_m=6.0, query_offset_m=0.2, seed=5)
    base.update(kw)
    return SceneConfig(**base)


class TestFields:
    def test_zero_matrix_affine_is_constant(self):
        field = AffineField(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]), 0.0)
        for t in ([0, 0, 0], [5, -2, 1]):
            np.testing.assert_array_equal(_value(field, t), [1, 2, 3])

    def test_same_seed_bitwise_identical(self):
        cfg = FieldConfig(dim=6, kind="random_fourier", seed=99)
        f1, f2 = make_field(cfg), make_field(cfg)
        np.testing.assert_array_equal(f1.amps, f2.amps)
        np.testing.assert_array_equal(f1.omegas, f2.omegas)
        np.testing.assert_array_equal(f1.phases, f2.phases)

    def test_fourier_lipschitz_example(self):
        cfg = FieldConfig(dim=8, kind="random_fourier", seed=3)  # default freq_scale
        field = make_field(cfg)
        diff = np.abs(_value(field, [0.2, 0.1, 0.0]) - _value(field, [0.2 + 1e-6, 0.1, 0.0]))
        bound = field.gradient_bound() * 1e-6
        assert np.all(diff <= bound + 1e-15)
        assert bound < 1e-3

    def test_affine_linearity(self):
        field = make_field(FieldConfig(dim=5, kind="affine", seed=7))
        t = np.array([0.3, -0.7, 0.2])
        f1 = _value(field, t) - field.offset
        f2 = _value(field, 2 * t) - field.offset
        np.testing.assert_allclose(f2, 2 * f1, atol=1e-12)

    def test_zero_sigma_noise_equals_noiseless(self):
        # A scene's descriptors are field values plus noise of the field's
        # sigma: at sigma 0 they are the noiseless field values.
        field_cfg = FieldConfig(dim=3, kind="random_fourier", noise_sigma=0.0, seed=2)
        scene = gen_scene(_loop_cfg(n_refs=20), field_cfg)
        field = make_field(field_cfg)
        for m in (scene.gt_dense, scene.train_refs):
            assert m.descriptors.tobytes() == field.eval_many(m.translations, m.quaternions).tobytes()

    def test_orientation_term_matters(self):
        field = make_field(FieldConfig(dim=4, kind="random_fourier", orientation_weight=0.5, seed=4))
        t = [1.0, 0.5, 0.0]
        a = _value(field, t)
        b = _value(field, t, [0.0, 0.0, 0.0, 1.0])  # yaw pi
        assert np.max(np.abs(a - b)) > 0.0

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            FieldConfig(dim=0)
        with pytest.raises(InvalidConfig):
            FieldConfig(dim=2, kind="perlin")
        with pytest.raises(InvalidConfig):
            FieldConfig(dim=2, noise_sigma=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["freq_scale", "orientation_weight", "noise_sigma"])
    def test_config_refuses_a_non_finite_value(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            FieldConfig(dim=2, **{field: value})


class TestGenScene:
    def test_loop_counts_and_order(self):
        scene = gen_scene(_loop_cfg(n_refs=50), FieldConfig(dim=4, kind="affine", seed=1))
        assert len(scene.gt_dense) == 50
        assert scene.gt_dense.ids == tuple(f"r{i:05d}" for i in range(50))
        assert len(scene.ref_labels) == 50

    def test_parallel_lanes_offset_exact(self):
        cfg = SceneConfig(layout="parallel_lanes", n_per_lane=20, lane_offset_m=1.8, seed=3)
        scene = gen_scene(cfg, FieldConfig(dim=4, kind="affine", seed=1))
        assert np.all(scene.gt_dense.translations[:, 0] == 0.0)
        assert np.all(scene.queries.translations[:, 0] == 1.8)

    def test_multi_scene_labels(self):
        cfg = SceneConfig(layout="multi_scene", n_scenes=3, scene_spacing_m=30.0, refs_per_scene=20, query_offset_m=0.2, seed=9)
        scene = gen_scene(cfg, FieldConfig(dim=4, kind="affine", seed=1))
        assert sorted(set(scene.ref_labels)) == [0, 1, 2]
        assert len(scene.gt_dense) == 60
        # scenes sit scene_spacing apart on x
        for label, t in zip(scene.ref_labels, scene.gt_dense.translations):
            assert abs(t[0] - 30.0 * label) <= 1.2

    def test_same_seeds_bitwise_identical(self):
        cfg = _loop_cfg()
        fcfg = FieldConfig(dim=4, kind="random_fourier", noise_sigma=0.01, seed=6)
        s1, s2 = gen_scene(cfg, fcfg), gen_scene(cfg, fcfg)
        np.testing.assert_array_equal(s1.gt_dense.descriptors, s2.gt_dense.descriptors)
        np.testing.assert_array_equal(s1.train_refs.translations, s2.train_refs.translations)
        np.testing.assert_array_equal(s1.queries.descriptors, s2.queries.descriptors)
        np.testing.assert_array_equal(s1.queries.translations, s2.queries.translations)

    def test_config_conflicts(self):
        with pytest.raises(ConfigConflict):
            gen_scene(_loop_cfg(query_offset_m=4.0), FieldConfig(dim=2, kind="affine", seed=0))
        with pytest.raises(ConfigConflict):
            SceneConfig(layout="multi_scene", n_scenes=2, scene_spacing_m=1.0, refs_per_scene=10, seed=0)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["extent_m", "lane_offset_m", "scene_spacing_m", "query_offset_m"])
    def test_config_refuses_a_non_finite_value(self, layout, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
            SceneConfig(layout=layout, **{field: value})

    def test_descriptors_match_field_plus_noise_seeded(self):
        # Noiseless scenes evaluate the field exactly.
        scene = gen_scene(_loop_cfg(), FieldConfig(dim=3, kind="affine", seed=8))
        expected = scene.field.eval_many(scene.gt_dense.translations, scene.gt_dense.quaternions)
        np.testing.assert_array_equal(scene.gt_dense.descriptors, expected)


class TestAffineEndToEnd:
    def test_interp_and_plane_fit_recover_field(self):
        scene = gen_scene(_loop_cfg(n_refs=40), FieldConfig(dim=4, kind="affine", seed=11))
        anchors, dropped = subsample_trajectory(scene.gt_dense, 4)
        plan = gen_interp_targets(anchors, dropped=dropped)
        for method in ("lin_reg",):
            dense = densify_map(anchors, plan, method, neighbors=4)
            for i in range(len(anchors), len(dense)):
                truth = _value(scene.field, dense.translations[i], dense.quaternions[i])
                np.testing.assert_allclose(dense.descriptors[i], truth, atol=1e-9)

    def test_extrap_plane_fit_recovers_field(self):
        scene = gen_scene(_loop_cfg(n_refs=40), FieldConfig(dim=4, kind="affine", seed=12))
        cfg = DensifyConfig(stride=4, grid_step=0.1, grid_span=0.2, dedupe_radius=0.05)
        anchors, _ = subsample_trajectory(scene.gt_dense, cfg.stride)
        plan = gen_extrap_grid(anchors, cfg)
        dense = densify_map(scene.gt_dense, plan, "lin_reg", neighbors=4)
        for i in range(len(scene.gt_dense), len(dense)):
            truth = _value(scene.field, dense.translations[i], dense.quaternions[i])
            np.testing.assert_allclose(dense.descriptors[i], truth, atol=1e-9)


class TestStrayCase:
    def _cfgs(self):
        scene_cfg = SceneConfig(
            layout="multi_scene", n_scenes=2, scene_spacing_m=25.0, refs_per_scene=30, query_offset_m=0.3, seed=21
        )
        return scene_cfg, FieldConfig(dim=6, kind="random_fourier", seed=22)

    def test_zero_similarity_is_field_value(self):
        scene_cfg, field_cfg = self._cfgs()
        case = make_stray_case(scene_cfg, field_cfg, similarity=0.0, case_seed=1)
        field = make_field(field_cfg)
        expected = _value(field, case.stray_pose.t, case.stray_pose.q)
        np.testing.assert_allclose(case.stray_descriptor, expected, atol=1e-12)

    def test_full_similarity_forces_rank_one(self):
        scene_cfg, field_cfg = self._cfgs()
        case = make_stray_case(scene_cfg, field_cfg, similarity=1.0, case_seed=2)
        np.testing.assert_array_equal(case.stray_descriptor, case.query_descriptor)
        combined = case.refs.extended(
            (case.stray_id,), case.stray_descriptor[None], case.stray_pose.t, case.stray_pose.q
        )
        top = retrieve(case.query_descriptor, combined, k=1)[0]
        assert top.ref_id == case.stray_id

    def test_needs_multi_scene(self):
        with pytest.raises(InsufficientScenes):
            make_stray_case(_loop_cfg(), FieldConfig(dim=4, kind="affine", seed=0), 0.5)

    def test_similarity_range_checked(self):
        scene_cfg, field_cfg = self._cfgs()
        with pytest.raises(InvalidConfig):
            make_stray_case(scene_cfg, field_cfg, similarity=1.5)

    def test_four_local_refs_near_query(self):
        scene_cfg, field_cfg = self._cfgs()
        case = make_stray_case(scene_cfg, field_cfg, similarity=0.9, case_seed=0)
        assert len(case.refs) == 4
        dists = np.linalg.norm(case.refs.translations - case.query_pose.t, axis=1)
        assert np.all(dists < 2.0)
        stray_dist = np.linalg.norm(case.stray_pose.t - case.query_pose.t)
        assert stray_dist > 10.0


class TestDenseMapRetrievalQuality:
    def test_vpr_on_gt_dense_tracks_oracle_on_benchmark(self):
        # Feature-nearest need not be position-nearest once a smooth field
        # warps the metric, so exact per-query equality with the oracle is
        # unattainable in general; what must hold is exact per-query
        # dominance plus a tight median gap on the pinned benchmark seed.
        from copr import benchmarks as B
        from copr.vpr_map import oracle_retrieve, retrieve

        scene = B.make_benchmark_scene("loop")
        vpr_errs, oracle_errs = [], []
        for desc, pose in scene.queries:
            m = retrieve(desc, scene.gt_dense, 1, query_pose=pose)[0]
            o = oracle_retrieve(pose, scene.gt_dense)
            assert o.translation_error <= m.translation_error + 1e-15
            vpr_errs.append(m.translation_error)
            oracle_errs.append(o.translation_error)
        mte_vpr = float(np.median(vpr_errs))
        mte_oracle = float(np.median(oracle_errs))
        assert mte_vpr <= 1.25 * mte_oracle


class TestObservations:
    def test_dimension_is_4x(self):
        field = make_field(FieldConfig(dim=5, kind="affine", seed=1))
        rng = np.random.default_rng(0)
        obs = make_observations(field, np.zeros((3, 3)), np.tile([1.0, 0, 0, 0], (3, 1)), rng)
        assert obs.shape == (3, 20)

    def test_encoder_dataset_shapes(self):
        scene = gen_scene(
            SceneConfig(layout="multi_scene", n_scenes=2, scene_spacing_m=25.0, refs_per_scene=20, query_offset_m=0.2, seed=2),
            FieldConfig(dim=4, kind="random_fourier", seed=3),
        )
        ds = make_encoder_dataset(scene, nuisance_sigma=0.5, seed=0)
        assert ds.observation_dim == 16
        assert ds.descriptor_dim == 4
        assert len(ds) == len(scene.train_refs)
        assert set(ds.labels) == {0, 1}

    def test_deterministic(self):
        scene = gen_scene(_loop_cfg(), FieldConfig(dim=4, kind="affine", seed=3))
        d1 = make_encoder_dataset(scene, seed=5)
        d2 = make_encoder_dataset(scene, seed=5)
        np.testing.assert_array_equal(d1.observations, d2.observations)


class TestSceneIo:
    def test_round_trip(self, tmp_path):
        scene = gen_scene(_loop_cfg(), FieldConfig(dim=4, kind="random_fourier", noise_sigma=0.02, seed=13))
        save_scene(scene, tmp_path / "scene")
        loaded = load_scene(tmp_path / "scene")
        assert loaded.scene_cfg == scene.scene_cfg
        assert loaded.field_cfg == scene.field_cfg
        assert loaded.ref_labels == scene.ref_labels
        np.testing.assert_array_equal(
            loaded.gt_dense.descriptors.astype("<f4"), scene.gt_dense.descriptors.astype("<f4")
        )
        assert len(loaded.queries) == len(scene.queries)
        # The rebuilt field handle evaluates identically.
        pose = scene.queries.pose(0)
        np.testing.assert_array_equal(_value(loaded.field, pose.t, pose.q), _value(scene.field, pose.t, pose.q))

    def test_save_twice_identical_bytes(self, tmp_path):
        scene = gen_scene(_loop_cfg(), FieldConfig(dim=3, kind="affine", seed=14))
        save_scene(scene, tmp_path / "a")
        save_scene(scene, tmp_path / "b")
        for name in ("refs_descriptors.bin", "query_descriptors.bin", "train_descriptors.bin", "refs_poses.csv", "scene.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_refuses_a_descriptor_beyond_f32_and_keeps_the_old_files(self, tmp_path):
        scene = gen_scene(_loop_cfg(), FieldConfig(dim=3, kind="affine", seed=14))
        save_scene(scene, tmp_path)
        old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        q = scene.queries
        descriptors = q.descriptors.copy()
        descriptors[3, 1] = 1e39
        queries = ReferenceMap(q.ids, descriptors, q.translations, q.quaternions)
        with pytest.raises(RefusedNonFinite, match=r"map entry 3 \('q00003'\)"):
            save_scene(dataclasses.replace(scene, queries=queries), tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old


# Sidecar edits that load_scene must refuse with a typed error naming the
# sidecar: (edit of the parsed sidecar, or raw text, error type).
BAD_SIDECARS = {
    "unknown field_config key": (lambda doc: doc["field_config"].update(bogus=1), ParseError),
    "not JSON": ("{not json", ParseError),
    "no labels": (lambda doc: doc.pop("labels"), ParseError),
    "no format_version": (lambda doc: doc.pop("format_version"), ParseError),
    "format_version 2": (lambda doc: doc.update(format_version=2), VersionUnsupported),
    "short ref labels": (lambda doc: doc["labels"].update(refs=doc["labels"]["refs"][:3]), ParseError),
    "no query labels": (lambda doc: doc["labels"].update(queries=[]), ParseError),
}


def write_bad_sidecar(directory, case):
    """Rewrite the scene sidecar in ``directory`` as ``BAD_SIDECARS[case]``;
    returns the error type load_scene must raise."""
    edit, error = BAD_SIDECARS[case]
    path = directory / "scene.json"
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return error


class TestSceneSidecar:
    @pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
    def test_a_bad_sidecar_is_a_typed_error_naming_it(self, tmp_path, case):
        save_scene(gen_scene(_loop_cfg(), FieldConfig(dim=3, kind="affine", seed=14)), tmp_path)
        error = write_bad_sidecar(tmp_path, case)
        with pytest.raises(error, match=f"scene sidecar {tmp_path / 'scene.json'}"):
            load_scene(tmp_path)

    def test_a_files_table_is_still_read_and_ignored(self, tmp_path):
        # Sidecars written before the table was dropped still carry it.
        scene = gen_scene(_loop_cfg(), FieldConfig(dim=3, kind="affine", seed=14))
        save_scene(scene, tmp_path)
        path = tmp_path / "scene.json"
        doc = json.loads(path.read_text())
        assert "files" not in doc
        doc["files"] = {k: list(v) for k, v in SCENE_FILES.items()}
        path.write_text(json.dumps(doc))
        loaded = load_scene(tmp_path)
        assert loaded.ref_labels == scene.ref_labels and loaded.train_labels == scene.train_labels
        for name in ("gt_dense", "queries", "train_refs"):
            assert getattr(loaded, name).ids == getattr(scene, name).ids


# The per-pose scene generator that gen_scene and make_stray_case replaced,
# kept as their reference: one Pose per trajectory pose, holding a scalar
# yaw quaternion scaled to unit norm that Pose normalizes a second time,
# and each split's rows stacked for one field evaluation.


def _yaw_quat(yaw):
    q = np.array([math.cos(yaw / 2.0), 0.0, 0.0, math.sin(yaw / 2.0)])
    return q / math.sqrt(float(np.dot(q, q)))


def _loop_poses(n, radius, wiggle, phase, rng, center=(0.0, 0.0)):
    poses = []
    for i in range(n):
        theta = 2.0 * math.pi * i / n + phase
        r = radius + (rng.uniform(-wiggle, wiggle) if rng is not None and wiggle > 0 else 0.0)
        t = np.array([center[0] + r * math.cos(theta), center[1] + r * math.sin(theta), 0.0])
        poses.append(Pose(t=t, q=_yaw_quat(theta + math.pi / 2.0)))
    return poses


def _viewpoint_varied_loop(n, radius, radial_span, rng, center=(0.0, 0.0)):
    poses = []
    for i in range(max(n, 2)):
        theta = 2.0 * math.pi * i / max(n, 2) + rng.uniform(-0.5, 0.5) * (2.0 * math.pi / max(n, 2))
        r = radius + rng.uniform(-radial_span, radial_span)
        t = np.array([center[0] + r * math.cos(theta), center[1] + r * math.sin(theta), 0.0])
        yaw = theta + math.pi / 2.0 + rng.uniform(-0.3, 0.3)
        poses.append(Pose(t=t, q=_yaw_quat(yaw)))
    return poses


def _lane_pose(x, y):
    return Pose(t=np.array([x, y, 0.0]), q=_yaw_quat(math.pi / 2.0))


def _reference_split(field, poses, rng):
    """(descriptors, translations, quaternions) of one split: one field call over all its rows."""
    t = np.asarray([p.t for p in poses])
    q = np.asarray([p.q for p in poses])
    desc = field.eval_many(t, q)
    if field.noise_sigma > 0.0:
        desc = desc + rng.normal(0.0, field.noise_sigma, size=desc.shape)
    return desc, t, q


def _reference_scene(scene_cfg, field_cfg):
    """{split: (ids, descriptors, translations, quaternions, labels)} and the query (descriptor, Pose) pairs."""
    from copr.synth import LANE_SPACING, LOOP_WIGGLE_FRACTION, MULTI_SCENE_RADIUS, TRAIN_STRIDE

    field = make_field(field_cfg)
    seeds = np.random.SeedSequence(scene_cfg.seed).spawn(4)
    ref_rng, train_rng, noise_rng = (np.random.default_rng(seeds[i]) for i in (0, 2, 3))
    offset = scene_cfg.query_offset_m
    if scene_cfg.layout == "loop":
        radius = scene_cfg.extent_m / 2.0
        wiggle = scene_cfg.extent_m * LOOP_WIGGLE_FRACTION
        refs = _loop_poses(scene_cfg.n_refs, radius, wiggle, 0.0, ref_rng)
        queries = _loop_poses(min(200, scene_cfg.n_refs), radius + offset, 0.0, math.pi / scene_cfg.n_refs, None)
        train = _viewpoint_varied_loop(scene_cfg.n_refs // 2, radius, 1.25 * offset, train_rng)
        labels = [[0] * len(refs), [0] * len(queries), [0] * len(train)]
    elif scene_cfg.layout == "parallel_lanes":
        n, off = scene_cfg.n_per_lane, scene_cfg.lane_offset_m
        refs = [_lane_pose(0.0, i * LANE_SPACING) for i in range(n)]
        queries = [_lane_pose(off, (i + 0.5) * LANE_SPACING) for i in range(n)]
        train = []
        for i in range(0, n, TRAIN_STRIDE):
            train.append(_lane_pose(0.0, i * LANE_SPACING + 0.4 * LANE_SPACING))
            train.append(_lane_pose(off, i * LANE_SPACING + 0.4 * LANE_SPACING))
        labels = [[0] * len(refs), [0] * len(queries), [0] * len(train)]
    else:
        refs, queries, train, labels = [], [], [], [[], [], []]
        n = scene_cfg.refs_per_scene
        for s in range(scene_cfg.n_scenes):
            center = (s * scene_cfg.scene_spacing_m, 0.0)
            parts = (
                _loop_poses(n, MULTI_SCENE_RADIUS, 0.02, 0.0, ref_rng, center),
                _loop_poses(max(1, n // 5), MULTI_SCENE_RADIUS + offset, 0.0, math.pi / n, None, center),
                _viewpoint_varied_loop(n // 2, MULTI_SCENE_RADIUS, 1.25 * offset, train_rng, center),
            )
            for split, part, split_labels in zip((refs, queries, train), parts, labels):
                split += part
                split_labels += [s] * len(part)
    out = {}
    for name, prefix, poses, split_labels in (
        ("refs", "r", refs, labels[0]), ("train", "t", train, labels[2]), ("queries", "q", queries, labels[1])
    ):
        ids = tuple(f"{prefix}{i:05d}" for i in range(len(poses)))
        out[name] = (ids, *_reference_split(field, poses, noise_rng), tuple(split_labels))
    pairs = [(out["queries"][1][i], pose) for i, pose in enumerate(queries)]
    return out, pairs


def _reference_stray_case(scene_cfg, field_cfg, similarity, case_seed):
    """(query descriptor, query Pose, local map blocks (ids, descriptors,
    translations, quaternions), stray descriptor, stray Pose)."""
    from copr.synth import MULTI_SCENE_RADIUS, STRAY_LOCAL_SPACING

    field = make_field(field_cfg)
    rng = np.random.default_rng(np.random.SeedSequence([scene_cfg.seed, 977, case_seed]))
    scene_a = case_seed % scene_cfg.n_scenes
    scene_b = (scene_a + 1) % scene_cfg.n_scenes
    center_a = (scene_a * scene_cfg.scene_spacing_m, 0.0)
    center_b = np.array([scene_b * scene_cfg.scene_spacing_m, 0.0, 0.0])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    r_q = MULTI_SCENE_RADIUS + scene_cfg.query_offset_m
    q_t = [center_a[0] + r_q * math.cos(theta), r_q * math.sin(theta), 0.0]
    q_pose = Pose(t=q_t, q=_yaw_quat(theta + math.pi / 2.0))
    f_query = _value(field, q_pose.t, q_pose.q)
    dtheta = STRAY_LOCAL_SPACING / MULTI_SCENE_RADIUS
    local = []
    for step in (-1.5, -0.5, 0.5, 1.5):
        ang = theta + step * dtheta * rng.uniform(0.85, 1.15)
        t = [center_a[0] + MULTI_SCENE_RADIUS * math.cos(ang), MULTI_SCENE_RADIUS * math.sin(ang), 0.0]
        local.append(Pose(t=t, q=_yaw_quat(ang + math.pi / 2.0)))
    refs = (
        tuple(f"local{k}" for k in range(4)),
        np.array([_value(field, p.t, p.q) for p in local]),
        np.array([p.t for p in local]),
        np.array([p.q for p in local]),
    )
    theta_b = rng.uniform(0.0, 2.0 * math.pi)
    s_t = center_b + np.array([MULTI_SCENE_RADIUS * math.cos(theta_b), MULTI_SCENE_RADIUS * math.sin(theta_b), 0.0])
    s_pose = Pose(t=s_t, q=_yaw_quat(theta_b + math.pi / 2.0))
    f_stray = (1.0 - similarity) * _value(field, s_pose.t, s_pose.q) + similarity * f_query
    return f_query, q_pose, refs, f_stray, s_pose


def _bytes(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _pair_bytes(pairs):
    return [_bytes(d, p.t, p.q) for d, p in pairs]


def _random_scene_cfgs():
    """Seeded configs over every layout, with noise on and off, plus the smallest sizes."""
    rng = np.random.default_rng(1515)
    cfgs = [
        (
            SceneConfig(layout="loop", n_refs=2, extent_m=3.0, query_offset_m=0.4, seed=1),
            FieldConfig(dim=3, noise_sigma=0.1, seed=2),
        ),
        (
            SceneConfig(layout="multi_scene", n_scenes=1, refs_per_scene=2, query_offset_m=0.1, seed=3),
            FieldConfig(dim=2, kind="affine", noise_sigma=0.05, seed=4),
        ),
        (SceneConfig(layout="parallel_lanes", n_per_lane=2, seed=5), FieldConfig(dim=1, noise_sigma=0.2, seed=6)),
    ]
    for i in range(18):
        layout = LAYOUTS[i % 3]
        scene_cfg = SceneConfig(
            layout=layout,
            n_refs=int(rng.integers(2, 260)),
            extent_m=float(rng.uniform(1.0, 20.0)),
            n_per_lane=int(rng.integers(2, 90)),
            lane_offset_m=float(rng.uniform(0.2, 3.0)),
            n_scenes=int(rng.integers(1, 5)),
            scene_spacing_m=float(rng.uniform(8.0, 60.0)),
            refs_per_scene=int(rng.integers(2, 70)),
            query_offset_m=float(rng.uniform(0.01, 0.45)),
            seed=int(rng.integers(2**31)),
        )
        field_cfg = FieldConfig(
            dim=int(rng.integers(1, 12)),
            kind=("affine", "random_fourier")[(i // 3) % 2],
            orientation_weight=float(rng.uniform(0.0, 0.5)),
            noise_sigma=(0.0, 0.03)[(i // 6) % 2],
            seed=int(rng.integers(2**31)),
        )
        cfgs.append((scene_cfg, field_cfg))
    return cfgs


_REFERENCE_CFGS = [
    *[pytest.param(*NAMED_SCENES[name], id=name) for name in NAMED_SCENES],
    *[pytest.param(*cfg, id=f"random{i}") for i, cfg in enumerate(_random_scene_cfgs())],
]


class TestPerPoseReference:
    @pytest.mark.parametrize("scene_cfg,field_cfg", _REFERENCE_CFGS)
    def test_scene_maps_labels_and_queries_are_bit_identical(self, scene_cfg, field_cfg):
        scene = gen_scene(scene_cfg, field_cfg)
        splits, pairs = _reference_scene(scene_cfg, field_cfg)
        for name, m, labels in (
            ("refs", scene.gt_dense, scene.ref_labels),
            ("queries", scene.queries, scene.query_labels),
            ("train", scene.train_refs, scene.train_labels),
        ):
            ids, desc, t, q, ref_labels = splits[name]
            assert m.ids == ids and labels == ref_labels
            assert _bytes(m.descriptors, m.translations, m.quaternions) == _bytes(desc, t, q)
        assert _pair_bytes(scene.queries) == _pair_bytes(pairs)

    @pytest.mark.parametrize("scene_cfg,field_cfg", _REFERENCE_CFGS)
    def test_scene_files_and_reloaded_queries_are_bit_identical(self, scene_cfg, field_cfg, tmp_path):
        import json
        from dataclasses import asdict

        splits, pairs = _reference_scene(scene_cfg, field_cfg)
        # The files the per-pose generator's save_scene wrote.
        files = {
            "refs": ("refs_poses.csv", "refs_descriptors.bin"),
            "queries": ("query_poses.csv", "query_descriptors.bin"),
            "train": ("train_poses.csv", "train_descriptors.bin"),
        }
        expected = tmp_path / "expected"
        expected.mkdir()
        for name, (pose_name, descriptor_name) in files.items():
            ids, desc, t, q, _ = splits[name]
            save_map(ReferenceMap(ids, desc, t, q), expected / pose_name, expected / descriptor_name)
        sidecar = {
            "format_version": 1,
            "field_config": asdict(field_cfg),
            "scene_config": asdict(scene_cfg),
            "labels": {name: list(splits[name][4]) for name in ("refs", "queries", "train")},
        }
        (expected / "scene.json").write_text(json.dumps(sidecar, indent=2), encoding="utf-8")

        save_scene(gen_scene(scene_cfg, field_cfg), tmp_path / "scene")
        written = sorted(p.name for p in (tmp_path / "scene").iterdir())
        assert written == sorted(p.name for p in expected.iterdir())
        for name in written:
            assert (tmp_path / "scene" / name).read_bytes() == (expected / name).read_bytes(), name
        # Descriptors reload as their f32 values; poses reload exactly.
        loaded = [(d, p) for d, p in load_scene(tmp_path / "scene").queries]
        f32_pairs = [(d.astype(np.float32).astype(np.float64), p) for d, p in pairs]
        assert _pair_bytes(loaded) == _pair_bytes(f32_pairs)

    @pytest.mark.parametrize(
        "scene_cfg,field_cfg",
        [
            cfg
            for cfg in [NAMED_SCENES["multiscene"], *_random_scene_cfgs()]
            if cfg[0].layout == "multi_scene" and cfg[0].n_scenes >= 2
        ],
    )
    def test_stray_cases_are_bit_identical(self, scene_cfg, field_cfg):
        for case_seed in range(12):
            similarity = (0.0, 0.35, 0.9, 1.0)[case_seed % 4]
            case = make_stray_case(scene_cfg, field_cfg, similarity, case_seed=case_seed)
            f_query, q_pose, refs, f_stray, s_pose = _reference_stray_case(scene_cfg, field_cfg, similarity, case_seed)
            assert case.refs.ids == refs[0]
            assert _bytes(case.refs.descriptors, case.refs.translations, case.refs.quaternions) == _bytes(*refs[1:])
            query, stray = case.query_pose, case.stray_pose
            assert _bytes(case.query_descriptor, query.t, query.q) == _bytes(f_query, q_pose.t, q_pose.q)
            assert _bytes(case.stray_descriptor, stray.t, stray.q) == _bytes(f_stray, s_pose.t, s_pose.q)
