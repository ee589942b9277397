"""Metrics and experiment protocol tests on small synthetic scenes."""

import json
import math
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

from copr import benchmarks as B
from copr.densify import DensifyConfig, densify_map, gen_extrap_grid, subsample_trajectory
from copr.errors import DimMismatch, EmptyMap, InvalidConfig
from copr.evaluate import (
    ExperimentReport,
    ExperimentRow,
    StrayReport,
    StrayRow,
    _oracle_summary,
    emit_report,
    exp_extrapolation,
    exp_interpolation,
    exp_stray,
    localize_and_summarize,
    oracle_violations,
    report_signature,
    train_scene_regressor,
)
from copr.neural.training import TrainConfig
from copr.synth import FieldConfig, SceneConfig, gen_scene, make_stray_case
from copr.vpr_map import Origin, ReferenceMap, oracle_retrieve, origin_of, retrieve


CSV_COLUMNS = [f.name for f in fields(ExperimentRow)]


def _map_line(values, xs):
    n = len(xs)
    return ReferenceMap(
        ids=tuple(f"r{i}" for i in range(n)),
        descriptors=np.asarray(values, dtype=float).reshape(n, -1),
        translations=np.c_[np.asarray(xs, dtype=float), np.zeros((n, 2))],
        quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
    )


def _small_scene(seed=30, n=48):
    return gen_scene(
        SceneConfig(layout="loop", n_refs=n, extent_m=6.0, query_offset_m=0.2, seed=seed),
        FieldConfig(dim=4, kind="affine", seed=seed + 1),
    )


class TestLocalize:
    def test_exact_matches_zero_errors(self):
        m = _map_line([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        s = localize_and_summarize(m, m)
        assert s.mte_m == 0.0 and s.mre_deg == 0.0
        assert s.per_query.matched.tolist() == [0, 1, 2]
        assert all(origin_of(m.ids[i]) is Origin.ANCHOR for i in s.per_query.matched)

    def test_matched_origin_is_read_from_the_matched_id(self):
        base = _map_line([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        m = ReferenceMap(
            ids=("r0", "r0#gx1y0", "r1~r2#k1"),
            descriptors=base.descriptors,
            translations=base.translations,
            quaternions=base.quaternions,
        )
        rows = [2, 0, 1]
        queries = ReferenceMap(("a", "b", "c"), m.descriptors[rows], m.translations[rows], m.quaternions[rows])
        s = localize_and_summarize(queries, m)
        assert [origin_of(m.ids[i]).value for i in s.per_query.matched] == ["regressed", "anchor", "regressed"]

    def test_odd_median(self):
        m = _map_line([0.0, 10.0, 20.0], [0.0, 10.0, 20.0])
        s = localize_and_summarize(_map_line([0.0, 10.0, 20.0], [0.1, 10.2, 20.3]), m)
        np.testing.assert_allclose(s.mte_m, 0.2, atol=1e-12)

    def test_even_median_mean_of_middle_two(self):
        m = _map_line([0.0, 10.0, 20.0, 30.0], [0.0, 10.0, 20.0, 30.0])
        s = localize_and_summarize(_map_line([0.0, 10.0, 20.0, 30.0], [0.1, 10.2, 20.3, 30.4]), m)
        np.testing.assert_allclose(s.mte_m, 0.25, atol=1e-12)

    def test_per_query_errors_equal_scalar_retrieve(self):
        # The batched scoring must give each query exactly what one
        # retrieve(..., query_pose) call reports.
        scene = _small_scene(seed=34, n=60)
        queries = scene.queries
        s = localize_and_summarize(queries, scene.gt_dense)
        assert len(s.per_query) == len(queries)
        for i in range(len(queries)):
            match = retrieve(queries.descriptors[i], scene.gt_dense, k=1, query_pose=queries.pose(i))[0]
            assert scene.gt_dense.ids[s.per_query.matched[i]] == match.ref_id
            assert s.per_query.translation_error[i] == match.translation_error
            assert abs(s.per_query.rotation_error[i] - match.rotation_error) <= 1e-12

    def test_empty_map(self):
        with pytest.raises(EmptyMap):
            empty = ReferenceMap((), np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((0, 4)))
            localize_and_summarize(_map_line([0.0], [0.0]), empty)

    @pytest.mark.parametrize("summarize", [localize_and_summarize, _oracle_summary])
    def test_no_queries_give_nan_without_a_warning(self, summarize):
        m = _map_line([0.0, 1.0], [0.0, 1.0])
        no_queries = ReferenceMap((), np.zeros((0, 1)), np.zeros((0, 3)), np.zeros((0, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summarize(no_queries, m)
        assert math.isnan(s.mte_m) and math.isnan(s.mre_deg)
        assert len(s.per_query) == 0
        assert [len(c) for c in astuple(s.per_query)] == [0, 0, 0]

    def test_a_query_map_of_another_dim_is_refused(self):
        m = _map_line([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(DimMismatch):
            localize_and_summarize(_map_line([[0.0, 1.0]], [0.0]), m)

    def test_matched_metadata(self):
        m = _map_line([0.0, 5.0], [0.0, 5.0])
        s = localize_and_summarize(_map_line([4.9], [1.0]), m)
        assert m.ids[s.per_query.matched[0]] == "r1"
        np.testing.assert_allclose(s.per_query.translation_error[0], 4.0)


class TestReports:
    def _report(self):
        rows = (
            ExperimentRow(
                experiment="extrap", map="M_dense", densification="-", retrieval="Oracle",
                mte_m=0.1, mre_deg=5.0, map_size=100, seed=7,
            ),
            ExperimentRow(
                experiment="extrap", map="M_sparse", densification="-", retrieval="VPR",
                mte_m=0.4, mre_deg=6.0, map_size=10, t_enc_ms=0.5, t_match_ms=0.25, t_retr_ms=0.75, seed=7,
            ),
        )
        return ExperimentReport(rows=rows, config={"seed": 7, "steps": [0.1]})

    def test_json_round_trip_lossless(self, tmp_path):
        report = self._report()
        emit_report(report, "json", tmp_path / "r.json")
        back = ExperimentReport.from_json((tmp_path / "r.json").read_text())
        assert back == report

    def test_csv_shape(self, tmp_path):
        report = self._report()
        emit_report(report, "csv", tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_empty_report_header_only(self, tmp_path):
        report = ExperimentReport(rows=(), config={})
        emit_report(report, "csv", tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_six_significant_digits(self):
        row = ExperimentRow(
            experiment="x", map="M_sparse", densification="-", retrieval="VPR",
            mte_m=0.123456789, mre_deg=12.3456789, map_size=1, seed=0,
        )
        text = ExperimentReport(rows=(row,), config={}).to_csv()
        assert "0.123457" in text and "12.3457" in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidConfig):
            emit_report(self._report(), "xml", tmp_path / "r.xml")

    def test_signature_strips_timings(self):
        report = self._report()
        jittered = ExperimentReport(
            rows=tuple(
                ExperimentRow(**{**r.__dict__, "t_match_ms": r.t_match_ms + 0.1}) for r in report.rows
            ),
            config=report.config,
        )
        assert report_signature(report) == report_signature(jittered)
        assert report != jittered

    def test_pipeline_signatures_survive_a_json_round_trip(self, tmp_path):
        # Criterion 11 compares the signatures of the reports `copr pipeline` writes as JSON.
        rows = tuple(ExperimentRow(**{**r.__dict__, "mte_m": r.mte_m / 3}) for r in self._report().rows)
        stray = StrayRow(case_seed=0, similarity=0.9, rank_before=1, rank_after=2, demoted=True, stray_id="s")
        reports = {
            "extrap": ExperimentReport(rows=rows, config={"methods": ("lin_reg",), "step": 0.1 + 0.2}),
            "stray": StrayReport(rows=(stray,), config={"cases": 1}),
        }
        for name, report in reports.items():
            emit_report(report, "json", tmp_path / f"{name}.json")
        back = {name: type(r).from_json((tmp_path / f"{name}.json").read_text()) for name, r in reports.items()}
        signatures = B.pipeline_signatures(reports)
        assert B.pipeline_signatures(back) == signatures
        assert signatures == {"extrap": report_signature(reports["extrap"]), "stray": reports["stray"].to_json()}

    def test_oracle_violations_detects(self):
        good = self._report()
        assert oracle_violations(good) == []
        bad_rows = (
            good.rows[0],
            ExperimentRow(
                experiment="extrap", map="M_sparse", densification="-", retrieval="VPR",
                mte_m=0.05, mre_deg=1.0, map_size=10, seed=7,
            ),
        )
        assert len(oracle_violations(ExperimentReport(rows=bad_rows, config={}))) == 1


class TestExperimentShapes:
    def test_interpolation_rows(self):
        scene = _small_scene()
        report = exp_interpolation(scene, 6, methods=("lin_interp", "lin_reg"), seed=1)
        kinds = [(r.map, r.densification, r.retrieval) for r in report.rows]
        assert kinds == [
            ("M_dense", "-", "Oracle"),
            ("M_dense", "GTMap", "VPR"),
            ("M_sparse", "-", "VPR"),
            ("M_dense", "LinInterp", "VPR"),
            ("M_dense", "LinReg", "VPR"),
        ]
        assert oracle_violations(report) == []

    def test_interpolation_boundary_stride_over_size(self):
        scene = _small_scene()
        report = exp_interpolation(scene, 1000, methods=("lin_reg",), seed=1)
        sparse = [r for r in report.rows if r.map == "M_sparse"][0]
        assert sparse.map_size == 1
        dense = [r for r in report.rows if r.densification == "LinReg"][0]
        assert dense.map_size == 1  # empty plan, dense == sparse

    def test_dense_map_not_smaller_than_sparse(self):
        scene = _small_scene()
        report = exp_interpolation(scene, 6, methods=("lin_interp",), seed=1)
        sparse_size = [r.map_size for r in report.rows if r.map == "M_sparse"][0]
        for r in report.rows:
            if r.map == "M_dense":
                assert r.map_size >= sparse_size

    def test_timing_decomposition(self):
        scene = _small_scene()
        report = exp_interpolation(scene, 6, methods=("lin_reg",), seed=1)
        for r in report.rows:
            if r.retrieval == "VPR":
                np.testing.assert_allclose(r.t_retr_ms, r.t_enc_ms + r.t_match_ms, atol=1e-12)

    def test_extrapolation_rows_and_sweep_groups(self):
        scene = _small_scene()
        cfg = DensifyConfig(stride=6, grid_step=0.1, grid_span=0.2, dedupe_radius=0.05)
        report = exp_extrapolation(scene, cfg, methods=("lin_reg",), step_list=[0.2, 0.1], seed=1)
        groups = {r.experiment for r in report.rows}
        assert groups == {"extrap[step=0.2]", "extrap[step=0.1]"}
        for g in groups:
            rows = [r for r in report.rows if r.experiment == g]
            assert [r.retrieval for r in rows] == ["Oracle", "VPR", "VPR"]
        assert oracle_violations(report) == []

    def test_signature_reproducible_across_runs(self):
        scene = _small_scene()
        cfg = DensifyConfig(stride=6, grid_step=0.1, grid_span=0.2, dedupe_radius=0.05)
        r1 = exp_extrapolation(scene, cfg, methods=("lin_reg",), seed=1)
        r2 = exp_extrapolation(_small_scene(), cfg, methods=("lin_reg",), seed=1)
        assert report_signature(r1) == report_signature(r2)

    @pytest.mark.parametrize("name", ["small", "loop"])
    def test_oracle_row_equals_per_query_oracle_retrieve(self, name):
        if name == "small":
            scene, cfg = _small_scene(), DensifyConfig(stride=6, grid_step=0.1, grid_span=0.2, dedupe_radius=0.05)
        else:
            scene, cfg = B.make_benchmark_scene("loop"), B.LOOP_DENSIFY
        report = exp_extrapolation(scene, cfg, methods=("lin_reg",), seed=1)
        anchors, _ = subsample_trajectory(scene.gt_dense, cfg.stride)
        dense = densify_map(scene.gt_dense, gen_extrap_grid(anchors, cfg), "lin_reg", neighbors=cfg.neighbors)
        matches = [oracle_retrieve(pose, dense) for _, pose in scene.queries]
        oracle = [r for r in report.rows if r.retrieval == "Oracle"]
        assert [(r.mte_m, r.mre_deg, r.map_size) for r in oracle] == [
            (
                float(np.median([m.translation_error for m in matches])),
                float(np.median([m.rotation_error for m in matches])),
                len(dense),
            )
        ]

    def test_affine_lin_reg_matches_gt_dense(self):
        scene = _small_scene(seed=40)
        report = exp_interpolation(scene, 6, methods=("lin_reg",), seed=1)
        gt = [r.mte_m for r in report.rows if r.densification == "GTMap"][0]
        lin = [r.mte_m for r in report.rows if r.densification == "LinReg"][0]
        assert abs(gt - lin) <= 1e-9


class TestStrayExperiment:
    def test_empty_case_list(self):
        from copr.neural.training import init_regressor

        report = exp_stray([], init_regressor(4, seed=0))
        assert report.rows == ()

    def test_report_round_trip(self, tmp_path):
        rows = (dict(case_seed=0, similarity=0.9, rank_before=1, rank_after=2, demoted=True, stray_id="stray"),)
        report = StrayReport(rows=tuple(StrayRow(**r) for r in rows), config={"cases": 1})
        emit_report(report, "json", tmp_path / "s.json")
        back = StrayReport.from_json((tmp_path / "s.json").read_text())
        assert back == report
        emit_report(report, "csv", tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_constructed_case_runs(self):
        scene_cfg = SceneConfig(
            layout="multi_scene", n_scenes=2, scene_spacing_m=25.0, refs_per_scene=24, query_offset_m=0.2, seed=61
        )
        field_cfg = FieldConfig(dim=4, kind="random_fourier", seed=62)
        scene = gen_scene(scene_cfg, field_cfg)
        cfg = TrainConfig(lr=1e-3, epochs=30, batch_size=32, seed=63, validation_fraction=0.4, early_stop_patience=30)
        model, _ = train_scene_regressor(scene, cfg, max_translation=1.5, max_pairs=2000)
        case = make_stray_case(scene_cfg, field_cfg, similarity=1.0, case_seed=0)
        report = exp_stray([case], model)
        assert report.rows[0].rank_before == 1
        assert 1 <= report.rows[0].rank_after <= 6
