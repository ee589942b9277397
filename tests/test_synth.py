"""Synthetic-world tests: fields, scene layouts, stray cases, scene files."""

import math

import numpy as np
import pytest

from copr.densify import DensifyConfig, densify_map, gen_extrap_grid, gen_interp_targets, subsample_trajectory
from copr.errors import ConfigConflict, InsufficientScenes, InvalidConfig
from copr.geometry import Pose
from copr.synth import (
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
from copr.vpr_map import retrieve


def _loop_cfg(**kw):
    base = dict(layout="loop", n_refs=60, extent_m=6.0, query_offset_m=0.2, seed=5)
    base.update(kw)
    return SceneConfig(**base)


class TestFields:
    def test_zero_matrix_affine_is_constant(self):
        field = AffineField(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]), 0.0)
        for t in ([0, 0, 0], [5, -2, 1]):
            np.testing.assert_array_equal(field.eval_one(Pose(t=t, q=[1, 0, 0, 0])), [1, 2, 3])

    def test_same_seed_bitwise_identical(self):
        cfg = FieldConfig(dim=6, kind="random_fourier", seed=99)
        f1, f2 = make_field(cfg), make_field(cfg)
        np.testing.assert_array_equal(f1.amps, f2.amps)
        np.testing.assert_array_equal(f1.omegas, f2.omegas)
        np.testing.assert_array_equal(f1.phases, f2.phases)

    def test_fourier_lipschitz_example(self):
        cfg = FieldConfig(dim=8, kind="random_fourier", seed=3)  # default freq_scale
        field = make_field(cfg)
        p1 = Pose(t=[0.2, 0.1, 0.0], q=[1, 0, 0, 0])
        p2 = Pose(t=[0.2 + 1e-6, 0.1, 0.0], q=[1, 0, 0, 0])
        diff = np.abs(field.eval_one(p1) - field.eval_one(p2))
        bound = field.gradient_bound() * 1e-6
        assert np.all(diff <= bound + 1e-15)
        assert bound < 1e-3

    def test_affine_linearity(self):
        field = make_field(FieldConfig(dim=5, kind="affine", seed=7))
        t = np.array([0.3, -0.7, 0.2])
        f1 = field.eval_one(Pose(t=t, q=[1, 0, 0, 0])) - field.offset
        f2 = field.eval_one(Pose(t=2 * t, q=[1, 0, 0, 0])) - field.offset
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
        a = field.eval_one(Pose(t=t, q=[1, 0, 0, 0]))
        b = field.eval_one(Pose(t=t, q=[0.0, 0.0, 0.0, 1.0]))  # yaw pi
        assert np.max(np.abs(a - b)) > 0.0

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            FieldConfig(dim=0)
        with pytest.raises(InvalidConfig):
            FieldConfig(dim=2, kind="perlin")
        with pytest.raises(InvalidConfig):
            FieldConfig(dim=2, noise_sigma=-1.0)


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
        for _, pose in scene.queries:
            assert pose.t[0] == 1.8

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
        for (d1, p1), (d2, p2) in zip(s1.queries, s2.queries):
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(p1.t, p2.t)

    def test_config_conflicts(self):
        with pytest.raises(ConfigConflict):
            gen_scene(_loop_cfg(query_offset_m=4.0), FieldConfig(dim=2, kind="affine", seed=0))
        with pytest.raises(ConfigConflict):
            SceneConfig(layout="multi_scene", n_scenes=2, scene_spacing_m=1.0, refs_per_scene=10, seed=0)

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
                pose = dense.pose(i)
                truth = scene.field.eval_one(pose)
                np.testing.assert_allclose(dense.descriptors[i], truth, atol=1e-9)

    def test_extrap_plane_fit_recovers_field(self):
        scene = gen_scene(_loop_cfg(n_refs=40), FieldConfig(dim=4, kind="affine", seed=12))
        cfg = DensifyConfig(stride=4, grid_step=0.1, grid_span=0.2, dedupe_radius=0.05)
        anchors, _ = subsample_trajectory(scene.gt_dense, cfg.stride)
        plan = gen_extrap_grid(anchors, cfg)
        dense = densify_map(scene.gt_dense, plan, "lin_reg", neighbors=4)
        for i in range(len(scene.gt_dense), len(dense)):
            truth = scene.field.eval_one(dense.pose(i))
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
        np.testing.assert_allclose(case.stray_descriptor, field.eval_one(case.stray_pose), atol=1e-12)

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
        pose = scene.queries[0][1]
        np.testing.assert_array_equal(loaded.field.eval_one(pose), scene.field.eval_one(pose))

    def test_save_twice_identical_bytes(self, tmp_path):
        scene = gen_scene(_loop_cfg(), FieldConfig(dim=3, kind="affine", seed=14))
        save_scene(scene, tmp_path / "a")
        save_scene(scene, tmp_path / "b")
        for name in ("refs_descriptors.bin", "query_descriptors.bin", "train_descriptors.bin", "refs_poses.csv", "scene.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
