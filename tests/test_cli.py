"""End-to-end CLI tests with a small scene and tiny training budgets."""

import json
import math
import os
import shutil
import struct
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from copr import benchmarks
from copr.cli import dispatch
from copr.densify import DensifyConfig, densify_map, gen_extrap_grid, gen_interp_targets, subsample_trajectory
from copr.evaluate import ExperimentReport, report_signature
from copr.geometry import Pose
from copr.neural.model_io import save_model
from copr.neural.training import ENCODER_DEFAULT_LR, init_encoder
from copr.synth import FieldConfig, SceneConfig, load_scene
from copr.vpr_map import load_map
from test_synth import BAD_SIDECARS, write_bad_sidecar


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "scene"
    cfg = {
        "scene": {"layout": "loop", "n_refs": 48, "extent_m": 6.0, "query_offset_m": 0.2, "seed": 71},
        "field": {"dim": 4, "kind": "affine", "seed": 72},
    }
    cfg_path = out.parent / "scene_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def _train_cfg_file(tmp_path, seed=73):
    path = tmp_path / "train.json"
    path.write_text(
        json.dumps(
            {
                "train": {
                    "lr": 1e-3,
                    "epochs": 15,
                    "batch_size": 32,
                    "seed": seed,
                    "validation_fraction": 0.4,
                    "early_stop_patience": 15,
                },
                "pair_cap": 1.5,
                "max_pairs": 1500,
            }
        )
    )
    return path


class TestSynth:
    def test_writes_scene_files(self, scene_dir):
        for name in (
            "scene.json",
            "refs_poses.csv",
            "refs_descriptors.bin",
            "query_poses.csv",
            "query_descriptors.bin",
            "train_poses.csv",
            "train_descriptors.bin",
        ):
            assert (scene_dir / name).exists(), name
        assert (scene_dir / "scene.json.config.json").exists()

    def test_determinism_across_invocations(self, scene_dir, tmp_path):
        cfg = json.loads((scene_dir / "scene.json").read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scene": cfg["scene_config"], "field": cfg["field_config"]}))
        out2 = tmp_path / "scene2"
        assert dispatch(["synth", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out2 / "refs_descriptors.bin").read_bytes() == (scene_dir / "refs_descriptors.bin").read_bytes()

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_config_is_validation_error(self, tmp_path):
        assert dispatch(["synth", "--out", str(tmp_path / "x")]) == 1

    def test_benchmark_shortcut_validates_name(self, tmp_path):
        assert dispatch(["synth", "--benchmark", "nope", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("value", ["NaN", "1e999"])
    def test_non_finite_noise_sigma_is_refused(self, scene_dir, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        shutil.copy(scene_dir.parent / "scene_cfg.json", cfg)
        out = tmp_path / "scene"
        cmd = ["synth", "--config", str(cfg), "--set", f"field.noise_sigma={value}", "--out", str(out)]
        assert dispatch(cmd) == 1
        assert "noise_sigma must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


class TestTrainAndDensify:
    def test_train_h_and_densify(self, scene_dir, tmp_path):
        model_path = tmp_path / "h.bin"
        rc = dispatch(
            ["train-h", "--scene", str(scene_dir), "--out", str(model_path), "--config", str(_train_cfg_file(tmp_path))]
        )
        assert rc == 0 and model_path.exists()
        out = tmp_path / "dense"
        rc = dispatch(
            [
                "densify", "--scene", str(scene_dir), "--method", "lin-reg", "--scheme", "interp",
                "--stride", "6", "--out", str(out),
            ]
        )
        assert rc == 0
        dense = load_map(out / "dense_poses.csv", out / "dense_descriptors.bin")
        scene = load_scene(scene_dir)
        assert len(dense) == len(scene.gt_dense)  # anchors + regressed dropped poses
        assert (out / "plan.json").exists()

    def test_train_encoder(self, scene_dir, tmp_path):
        # loop scene has one label; distance variant works single-scene
        model_path = tmp_path / "e.bin"
        cfg = tmp_path / "enc.json"
        cfg.write_text(json.dumps({"train": {"lr": 1e-3, "epochs": 3, "batch_size": 16, "seed": 5,
                                             "validation_fraction": 0.4, "early_stop_patience": 3}}))
        rc = dispatch(
            ["train-encoder", "--scene", str(scene_dir), "--variant", "distance", "--out", str(model_path),
             "--config", str(cfg)]
        )
        assert rc == 0 and model_path.exists()

    def test_non_finite_dedupe_radius_is_refused(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "dense"
        cmd = ["densify", "--scene", str(scene_dir), "--method", "lin-reg", "--scheme", "extrap", "--stride", "6"]
        assert dispatch([*cmd, "--dedupe-radius", "nan", "--out", str(out)]) == 1
        assert "dedupe_radius must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["1e999", "NaN"])
    def test_non_finite_lr_is_refused(self, scene_dir, tmp_path, capsys, value):
        out = tmp_path / "h.model"
        assert dispatch(["train-h", "--scene", str(scene_dir), "--set", f"train.lr={value}", "--out", str(out)]) == 1
        assert "lr must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_pairs_names_the_closest_pair(self, tmp_path, capsys):
        # The lanes traverse is 1.25 m apart, beyond the default 1.0 m pair cap.
        assert dispatch(["synth", "--benchmark", "lanes", "--out", str(tmp_path / "lanes")]) == 0
        out = tmp_path / "h.bin"
        assert dispatch(["train-h", "--scene", str(tmp_path / "lanes"), "--out", str(out)]) == 1
        assert "no pairs within 1.0 m; the closest pair is 1.25 m apart" in capsys.readouterr().err
        assert not out.exists()


def _reference_targets(refs, scheme, stride, step):
    """(id, Pose, anchor ids) per target, built one target at a time: the
    dropped trajectory poses for interp, and for extrap the grid around each
    anchor with a candidate dropped only where it repeats a point exactly
    (dedupe radius 0)."""
    n = len(refs)
    anchors = list(range(0, n, stride))
    if scheme == "interp":
        counts, out = {}, []
        for i in range(n):
            if i % stride == 0:
                continue
            slot = min(i // stride, len(anchors) - 2)
            counts[slot] = counts.get(slot, 0) + 1
            a1, a2 = refs.ids[anchors[slot]], refs.ids[anchors[slot + 1]]
            pose = Pose(t=refs.translations[i], q=refs.quaternions[i])
            out.append((f"{a1}~{a2}#k{counts[slot]}", pose, (a1, a2)))
        return out
    seen = {tuple(refs.translations[a]) for a in anchors}
    out = []
    for a in anchors:
        x, y, z = refs.translations[a]
        for i in (-1, 0, 1):  # grid span = step
            for j in (-1, 0, 1):
                p = (x + i * step, y + j * step, z)
                if (i, j) == (0, 0) or p in seen:
                    continue
                seen.add(p)
                out.append((f"{refs.ids[a]}#gx{i}y{j}", Pose(t=p, q=refs.quaternions[a]), (refs.ids[a],)))
    return out


def _reference_files(base, targets, scheme, descriptors):
    """plan.json, dense_poses.csv and dense_descriptors.bin as written one
    target (and one map entry) at a time."""
    plan = {
        "scheme": {"interp": "interpolation", "extrap": "extrapolation"}[scheme],
        "targets": [
            {"id": i, "pose": {"t": [float(v) for v in p.t], "q": [float(v) for v in p.q]}, "anchor_ids": list(a)}
            for i, p, a in targets
        ],
    }
    entries = [(base.ids[r], base.translations[r], base.quaternions[r]) for r in range(len(base))]
    entries += [(i, p.t, p.q) for i, p, _ in targets]
    lines = ["id,tx,ty,tz,qw,qx,qy,qz"] + [
        ",".join([entry_id] + [repr(float(v)) for v in (*t, *q)]) for entry_id, t, q in entries
    ]
    blob = struct.pack("<4sIII", b"CPRD", 1, len(entries), descriptors.shape[1])
    blob += b"".join(np.asarray(row, dtype="<f4").tobytes() for row in descriptors)
    return json.dumps(plan) + "\n", "\n".join(lines) + "\n", blob


class TestDensifyFiles:
    @pytest.mark.parametrize(
        "scheme, method, flags",
        [
            ("interp", "lin-interp", ["--stride", "5"]),
            ("extrap", "lin-reg", ["--stride", "6", "--e-step", "0.1", "--e-span", "0.1", "--dedupe-radius", "0"]),
        ],
    )
    def test_files_match_a_per_target_writer(self, scene_dir, tmp_path, scheme, method, flags):
        out = tmp_path / "dense"
        cmd = ["densify", "--scene", str(scene_dir), "--method", method, "--scheme", scheme, *flags]
        assert dispatch([*cmd, "--out", str(out)]) == 0
        refs = load_scene(scene_dir).gt_dense
        stride = int(flags[1])
        anchors, dropped = subsample_trajectory(refs, stride)
        if scheme == "interp":
            base, plan = anchors, gen_interp_targets(anchors, dropped=dropped)
        else:
            cfg = DensifyConfig(stride=stride, grid_step=0.1, grid_span=0.1, dedupe_radius=0.0)
            base, plan = refs, gen_extrap_grid(anchors, cfg)
        dense = densify_map(base, plan, method.replace("-", "_"))
        targets = _reference_targets(refs, scheme, stride, 0.1)
        assert len(targets) == len(plan.targets) > 0
        plan_text, pose_text, blob = _reference_files(base, targets, scheme, dense.descriptors)
        assert (out / "plan.json").read_text(encoding="utf-8") == plan_text
        assert (out / "dense_poses.csv").read_text(encoding="utf-8") == pose_text
        assert (out / "dense_descriptors.bin").read_bytes() == blob


class TestRetrieveEval:
    def test_retrieve_json_lines(self, scene_dir, capsys):
        rc = dispatch(
            [
                "retrieve", "--map", str(scene_dir),
                "--query", str(scene_dir / "query_descriptors.bin"),
                "--query-poses", str(scene_dir / "query_poses.csv"),
                "--k", "3",
            ]
        )
        assert rc == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        scene = load_scene(scene_dir)
        assert len(out_lines) == len(scene.queries)
        first = json.loads(out_lines[0])
        assert len(first["matches"]) == 3
        d = [m["feature_distance"] for m in first["matches"]]
        assert d == sorted(d)

    def test_retrieve_errors_equal_each_match_scalar_errors(self, scene_dir, capsys):
        # Every printed error is exactly np.linalg.norm and the scalar
        # 2 acos(min(1, |q_ref . q|)) angle of its match against the query's Pose.
        args = ["retrieve", "--map", str(scene_dir), "--query", str(scene_dir / "query_descriptors.bin"),
                "--query-poses", str(scene_dir / "query_poses.csv"), "--k", "7"]
        assert dispatch(args) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        refs = load_map(scene_dir / "refs_poses.csv", scene_dir / "refs_descriptors.bin")
        queries = load_map(scene_dir / "query_poses.csv", scene_dir / "query_descriptors.bin")
        assert [line["query_id"] for line in lines] == list(queries.ids)
        for i, line in enumerate(lines):
            pose = queries.pose(i)
            assert len(line["matches"]) == 7
            for match in line["matches"]:
                j = refs.index_of(match["ref_id"])
                assert match["translation_error"] == float(np.linalg.norm(refs.translations[j] - pose.t))
                dot = min(1.0, abs(float(np.dot(refs.quaternions[j], pose.q))))
                assert match["rotation_error"] == math.degrees(2.0 * math.acos(dot))

    def test_retrieve_descriptors_only(self, scene_dir, capsys):
        # The spec's smoke shape: a bare descriptor binary, no pose CSV.
        rc = dispatch(
            ["retrieve", "--map", str(scene_dir),
             "--query", str(scene_dir / "query_descriptors.bin"), "--k", "5"]
        )
        assert rc == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert len(first["matches"]) == 5
        assert first["matches"][0]["translation_error"] is None

    def test_missing_scene_is_io_error(self, tmp_path, capsys):
        assert dispatch(["eval", "--scene", str(tmp_path / "absent")]) == 2
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
    def test_a_bad_scene_sidecar_is_one_error_line(self, scene_dir, tmp_path, capsys, case):
        shutil.copytree(scene_dir, tmp_path / "scene")
        write_bad_sidecar(tmp_path / "scene", case)
        assert dispatch(["eval", "--scene", str(tmp_path / "scene")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "scene.json" in err

    def test_eval_out_creates_its_directory(self, scene_dir, tmp_path):
        out = tmp_path / "new_dir" / "x.json"
        assert dispatch(["eval", "--scene", str(scene_dir), "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"mte_m", "mre_deg", "queries", "map_size"}

    def test_eval_summary(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "summary.json"
        rc = dispatch(["eval", "--scene", str(scene_dir), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"mte_m", "mre_deg", "queries", "map_size"}

    def test_flags_a_command_does_not_read_are_refused(self, scene_dir, tmp_path):
        # eval, retrieve and pipeline read no config, and only exp takes --format.
        out = str(tmp_path / "never")
        assert dispatch(["eval", "--scene", str(scene_dir), "--format", "json"]) == 1
        for flag in (["--config", "c.json"], ["--seed", "1"], ["--set", "a=1"], ["--format", "csv"]):
            assert dispatch(["eval", "--scene", str(scene_dir), *flag]) == 1
            assert dispatch(["retrieve", "--map", str(scene_dir), "--query", "q.bin", *flag]) == 1
            assert dispatch(["pipeline", "--out", out, *flag]) == 1
        assert dispatch(["synth", "--benchmark", "loop", "--format", "json", "--out", out]) == 1
        assert dispatch(["train-h", "--scene", str(scene_dir), "--format", "json", "--out", out]) == 1
        assert not (tmp_path / "never").exists()


class TestPipelineReports:
    """``copr pipeline`` writes its reports together, through a stand-in build."""

    @staticmethod
    def _run(monkeypatch, out, run):
        reports = {
            name: SimpleNamespace(to_json=lambda name=name: json.dumps({"report": name, "run": run}))
            for name in ("loop_extrap", "encoders", "stray")
        }
        monkeypatch.setattr(benchmarks, "build_pipeline", lambda: benchmarks.Pipeline({}, {}, reports, {"loop": 1.0}))
        return dispatch(["pipeline", "--out", str(out)])

    def test_writes_one_json_file_per_report(self, tmp_path, monkeypatch):
        assert self._run(monkeypatch, tmp_path / "out", 1) == 0
        found = {p.name: json.loads(p.read_text()) for p in (tmp_path / "out").iterdir()}
        assert found == {f"{n}.json": {"report": n, "run": 1} for n in ("loop_extrap", "encoders", "stray")}

    def test_a_report_that_cannot_be_written_leaves_every_old_report(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert self._run(monkeypatch, out, 1) == 0
        (out / "stray.json").unlink()
        (out / "stray.json").mkdir()  # the last report cannot be written
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert self._run(monkeypatch, out, 2) == 2
        assert "cannot write reports" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == ["encoders.json", "loop_extrap.json", "stray.json"]

    def test_a_failed_rename_leaves_the_later_reports_old(self, tmp_path, monkeypatch, capsys):
        # The reports are renamed into place one by one, in build order; a
        # rename that fails leaves those before it new and the rest old.
        out = tmp_path / "out"
        assert self._run(monkeypatch, out, 1) == 0
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "encoders.json":
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert self._run(monkeypatch, out, 2) == 2
        assert "cannot write reports" in capsys.readouterr().err
        runs = {p.name: json.loads(p.read_text())["run"] for p in out.iterdir()}
        assert runs == {"loop_extrap.json": 2, "encoders.json": 1, "stray.json": 1}


class TestExp:
    def test_exp_extrap_end_to_end(self, scene_dir, tmp_path):
        out = tmp_path / "report.csv"
        rc = dispatch(
            [
                "exp", "extrap", "--scene", str(scene_dir),
                "--methods", "lin-reg",
                "--stride", "6", "--e-step", "0.1", "--e-span", "0.2", "--dedupe-radius", "0.05",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("experiment,map,densification,retrieval")
        assert len(lines) == 4  # header + oracle + sparse + lin_reg
        assert (tmp_path / "report.csv.config.json").exists()

    def test_exp_interp_json_format(self, scene_dir, tmp_path):
        out = tmp_path / "report.json"
        rc = dispatch(
            [
                "exp", "interp", "--scene", str(scene_dir),
                "--methods", "lin-interp", "lin-reg", "--stride", "6",
                "--format", "json", "--out", str(out),
            ]
        )
        assert rc == 0
        report = ExperimentReport.from_json(out.read_text())
        assert len(report.rows) == 5

    def test_exp_interp_reads_densify_stride(self, scene_dir, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"densify": {"stride": 6}}))
        out = tmp_path / "report.json"
        rc = dispatch(
            ["exp", "interp", "--scene", str(scene_dir), "--methods", "lin-interp",
             "--config", str(cfg), "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        assert ExperimentReport.from_json(out.read_text()).config["stride"] == 6

    def test_exp_interp_refuses_a_top_level_stride(self, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"stride": 6}))
        out = tmp_path / "report.json"
        rc = dispatch(
            ["exp", "interp", "--scene", str(scene_dir), "--methods", "lin-interp",
             "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 1
        assert "densify.stride" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_exp_reports_identical_across_runs(self, scene_dir, tmp_path):
        from copr.evaluate import report_signature

        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            rc = dispatch(
                ["exp", "extrap", "--scene", str(scene_dir), "--methods", "lin-reg",
                 "--stride", "6", "--e-step", "0.1", "--e-span", "0.2",
                 "--format", "json", "--out", str(out)]
            )
            assert rc == 0
            outs.append(ExperimentReport.from_json(out.read_text()))
        assert report_signature(outs[0]) == report_signature(outs[1])

    def test_validation_precedes_output(self, scene_dir, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"densify": {"stride": 1}}))  # stride 1 violates config
        work = tmp_path / "work"
        work.mkdir()
        scene = ["--scene", str(scene_dir)]
        for args, rc in [
            (["extrap", *scene, "--methods", "lin-reg", "--stride", "1"], 1),
            (["extrap", *scene, "--methods", "lin-reg", "--config", str(tmp_path / "c.json")], 1),
            (["interp", *scene, "--methods", "lin-interp", "--stride", "1"], 1),
            (["interp", "--scene", str(tmp_path / "absent"), "--methods", "lin-interp"], 2),
        ]:
            for out in (work / "never.csv", work / "nested" / "never.csv"):
                assert dispatch(["exp", *args, "--out", str(out)]) == rc
        assert list(work.iterdir()) == []


# Flags some exp kind reads, with a valid value each.
_EXP_FLAG_VALUES = {
    "--model": ["m.bin"],
    "--methods": ["lin-reg"],
    "--stride": ["6"],
    "--e-step": ["0.1"],
    "--e-span": ["0.2"],
    "--neighbors": ["4"],
    "--dedupe-radius": ["0.05"],
    "--steps": ["0.2,0.1"],
    "--similarity": ["0.5"],
    "--cases": ["1"],
}
_GRID_FLAGS = {"--stride", "--e-step", "--e-span", "--neighbors", "--dedupe-radius"}
_EXP_FLAGS_READ = {
    "interp": {"--model", "--methods", "--stride"},
    "extrap": {"--model", "--methods"} | _GRID_FLAGS,
    "sweep": {"--model", "--methods", "--steps"} | _GRID_FLAGS,
    "encoders": _GRID_FLAGS,
    "stray": {"--model", "--similarity", "--cases"},
}
_UNREAD = [(kind, flag) for kind, read in _EXP_FLAGS_READ.items() for flag in _EXP_FLAG_VALUES if flag not in read]


class TestExpFlags:
    @pytest.mark.parametrize("kind, flag", _UNREAD)
    def test_each_kind_refuses_the_flags_it_does_not_read(self, scene_dir, tmp_path, kind, flag):
        out = tmp_path / "reports" / "r.csv"
        cmd = ["exp", kind, "--scene", str(scene_dir), flag, *_EXP_FLAG_VALUES[flag], "--out", str(out)]
        assert dispatch(cmd) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["interp", "extrap", "sweep", "encoders"])
    def test_scene_is_required(self, tmp_path, kind):
        assert dispatch(["exp", kind, "--out", str(tmp_path / "reports" / "r.csv")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_sweep_runs_each_step(self, scene_dir, tmp_path):
        out = tmp_path / "sweep.json"
        cmd = ["exp", "sweep", "--scene", str(scene_dir), "--methods", "lin-reg", "--stride", "6", "--e-span", "0.2"]
        assert dispatch([*cmd, "--steps", "0.2,0.1", "--format", "json", "--out", str(out)]) == 0
        report = ExperimentReport.from_json(out.read_text())
        assert [r.experiment for r in report.rows] == ["extrap[step=0.2]"] * 3 + ["extrap[step=0.1]"] * 3


# Each command's arguments, with an output under "out" in a fresh directory.
def _configurable_commands(scene_dir):
    scene = ["--scene", str(scene_dir)]
    return {
        "synth": ["synth"],
        "train-h": ["train-h", *scene],
        "train-encoder": ["train-encoder", *scene, "--variant", "distance"],
        "densify": ["densify", *scene, "--method", "lin-reg", "--scheme", "extrap"],
        "exp interp": ["exp", "interp", *scene],
        "exp extrap": ["exp", "extrap", *scene],
        "exp sweep": ["exp", "sweep", *scene],
        "exp encoders": ["exp", "encoders", *scene],
        "exp stray": ["exp", "stray"],
    }


class TestConfigKeys:
    def _refused(self, tmp_path, capsys, args, cfg=None, sets=()):
        work = tmp_path / "work"
        work.mkdir()
        cfg_args = []
        if cfg is not None:
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            cfg_args = ["--config", str(tmp_path / "c.json")]
        flags = [flag for key in sets for flag in ("--set", key)]
        assert dispatch([*args, *cfg_args, *flags, "--out", str(work / "out")]) == 1
        assert list(work.iterdir()) == []
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["synth", "train-h", "train-encoder", "densify", "exp interp", "exp extrap", "exp sweep",
                    "exp encoders", "exp stray"]
    )
    def test_each_command_refuses_an_unknown_top_level_key(self, scene_dir, tmp_path, capsys, command):
        args = _configurable_commands(scene_dir)[command]
        err = self._refused(tmp_path, capsys, args, {"no_such_key": 1})
        assert f"{command} reads no config key 'no_such_key'" in err

    @pytest.mark.parametrize(
        "text, message", [("{", "is not valid JSON"), ("[1]", "must hold a JSON object")]
    )
    def test_a_config_that_is_not_an_object_is_refused(self, tmp_path, capsys, text, message):
        (tmp_path / "c.json").write_text(text)
        assert dispatch(["synth", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "work")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {tmp_path / 'c.json'}") and message in err
        assert not (tmp_path / "work").exists()

    def test_a_section_field_typo_is_refused_not_a_traceback(self, scene_dir, tmp_path, capsys):
        err = self._refused(tmp_path, capsys, ["exp", "extrap", "--scene", str(scene_dir)], {"densify": {"strde": 6}})
        assert "'densify.strde'" in err

    def test_a_set_override_of_an_unread_field_is_refused(self, scene_dir, tmp_path, capsys):
        err = self._refused(tmp_path, capsys, ["exp", "extrap", "--scene", str(scene_dir)], sets=["densify.strde=3"])
        assert "'densify.strde'" in err

    def test_a_top_level_typo_is_refused_not_ignored(self, scene_dir, tmp_path, capsys):
        err = self._refused(tmp_path, capsys, ["exp", "interp", "--scene", str(scene_dir)], {"sed": 3})
        assert "'sed'" in err

    def test_interp_reads_only_the_stride_of_the_densify_section(self, scene_dir, tmp_path, capsys):
        err = self._refused(tmp_path, capsys, ["exp", "interp", "--scene", str(scene_dir)], {"densify": {"grid_step": 0.1}})
        assert "'densify.grid_step'" in err

    def test_a_section_must_be_an_object(self, scene_dir, tmp_path, capsys):
        err = self._refused(tmp_path, capsys, ["exp", "extrap", "--scene", str(scene_dir)], {"densify": 6})
        assert "'densify'" in err

    @pytest.mark.parametrize(
        "args, cfg, key",
        [
            (["densify", "--method", "lin-reg", "--scheme", "interp"], {"train": {"epochs": 1, "lr": 9.0}}, "train"),
            (["densify", "--method", "lin-interp", "--scheme", "interp"], {"pair_cap": 2.0}, "pair_cap"),
            (["densify", "--method", "nonlin-reg", "--scheme", "extrap", "--model"], {"max_pairs": 10}, "max_pairs"),
            (["exp", "interp", "--methods", "lin-interp", "lin-reg"], {"train": {"epochs": 1}}, "train"),
            (["exp", "extrap", "--methods", "lin-reg"], {"pair_cap": 1.0}, "pair_cap"),
            (["exp", "sweep", "--model"], {"max_pairs": 10}, "max_pairs"),
            (["exp", "extrap", "--methods", "nonlin-reg", "--model"], {"train": {"epochs": 1}}, "train"),
            (["exp", "stray", "--model"], {"train": {"epochs": 1}}, "train"),
        ],
    )
    def test_a_run_that_trains_no_regressor_refuses_its_keys(self, scene_dir, tmp_path, capsys, args, cfg, key):
        model = tmp_path / "h.bin"
        save_model(init_encoder(4, 4, 0), model)
        args = [*args, str(model)] if args[-1] == "--model" else args
        args = args if args[1] == "stray" else [*args, "--scene", str(scene_dir)]
        err = self._refused(tmp_path, capsys, args, cfg)
        assert f"reads no config key '{key}'" in err and "only a run that trains a regressor" in err

    @pytest.mark.parametrize(
        "command, cfg, path",
        [
            ("exp extrap", {"densify": {"stride": "x"}}, "densify.stride"),
            ("exp extrap", {"train": {"epochs": "3"}}, "train.epochs"),
            ("exp extrap", {"pair_cap": "big"}, "pair_cap"),
            ("exp extrap", {"seed": "a"}, "seed"),
            ("exp extrap", {"densify": {"stride": True}}, "densify.stride"),
            ("train-h", {"train": {"epochs": 2.5}}, "train.epochs"),
            ("synth", {"scene": {"layout": "loop", "n_refs": 48.0}, "field": {"dim": 4}}, "scene.n_refs"),
            ("synth", {"scene": {"n_refs": 48}, "field": {"dim": 4}}, "scene.layout"),
            ("train-encoder", {"nuisance_sigma": "x"}, "nuisance_sigma"),
            ("synth --benchmark", {"scene": {"layout": "loop", "n_refs": 10}}, "scene"),
            ("exp stray --scene", {"scene": {"layout": "loop"}}, "scene"),
            ("exp stray --scene", {"field": {"dim": 4}}, "field"),
        ],
    )
    def test_a_wrong_value_is_refused_up_front(self, scene_dir, tmp_path, capsys, command, cfg, path):
        commands = {
            **_configurable_commands(scene_dir),
            "synth --benchmark": ["synth", "--benchmark", "affine-loop"],
            "exp stray --scene": ["exp", "stray", "--scene", str(scene_dir)],
        }
        err = self._refused(tmp_path, capsys, commands[command], cfg)
        assert f"'{path}'" in err and "Traceback" not in err


class TestEncoderLearningRate:
    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--set", "train.epochs=2"]])
    def test_an_unset_lr_is_the_variant_default(self, scene_dir, tmp_path, monkeypatch, flags):
        seen = []

        def capture(dataset, variant, cfg):
            seen.append(cfg)
            return init_encoder(dataset.observation_dim, dataset.descriptor_dim, 0)

        monkeypatch.setattr("copr.cli.train_encoder", capture)
        cmd = ["train-encoder", "--scene", str(scene_dir), "--variant", "triplet", *flags]
        assert dispatch([*cmd, "--out", str(tmp_path / "e.bin")]) == 0
        assert seen[0].lr == ENCODER_DEFAULT_LR["triplet"]


_SMALL_TRAIN = {"lr": 1e-3, "epochs": 6, "batch_size": 32, "seed": 73, "validation_fraction": 0.4,
                "early_stop_patience": 6}
_SMALL_MULTI = {"layout": "multi_scene", "n_scenes": 2, "scene_spacing_m": 25.0, "refs_per_scene": 24,
                "query_offset_m": 0.2, "seed": 61}


class TestStraySections:
    @pytest.mark.parametrize(
        "cfg, scene, field",
        [
            ({"scene": _SMALL_MULTI}, SceneConfig(**_SMALL_MULTI), benchmarks.MULTI_FIELD),
            ({"field": {"dim": 4, "seed": 62}}, benchmarks.MULTI_SCENE, FieldConfig(dim=4, seed=62)),
        ],
    )
    def test_a_lone_section_is_read_over_its_defaults(self, tmp_path, cfg, scene, field):
        # The missing section is the multiscene benchmark's.
        (tmp_path / "c.json").write_text(json.dumps({**cfg, "train": _SMALL_TRAIN, "max_pairs": 300}))
        out = tmp_path / "stray.json"
        assert dispatch(["exp", "stray", "--cases", "1", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        echo = json.loads((tmp_path / "stray.json.config.json").read_text())
        assert (echo["scene"], echo["field"]) == (asdict(scene), asdict(field))


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if not p.name.endswith(".config.json")}


class TestEchoReplaysTheRun:
    """A first run sets values by config, --set, --seed and grid flags; a rerun
    with --config <echo> and only the other flags reproduces its output."""

    def _replay(self, tmp_path, command, cfg, config_flags, out_name, echo_name=None):
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        first, second = tmp_path / "first", tmp_path / "second"
        config = ["--config", str(tmp_path / "c.json"), *config_flags]
        assert dispatch([*command, *config, "--out", str(first / out_name)]) == 0
        echo = first / ((echo_name or out_name) + ".config.json")
        assert dispatch([*command, "--config", str(echo), "--out", str(second / out_name)]) == 0
        return first / out_name, second / out_name

    def test_synth(self, tmp_path):
        cfg = {"scene": {"layout": "loop", "n_refs": 40, "extent_m": 6, "query_offset_m": 0.2},
               "field": {"dim": 4, "kind": "affine"}}
        a, b = self._replay(tmp_path, ["synth"], cfg, ["--set", "field.seed=9", "--seed", "4"], "scene",
                            echo_name="scene/scene.json")
        assert _files(a) == _files(b) and len(_files(a)) == 7

    def test_train_h(self, scene_dir, tmp_path):
        cfg = {"train": _SMALL_TRAIN, "max_pairs": 400}
        flags = ["--set", "pair_cap=2", "--seed", "8"]
        a, b = self._replay(tmp_path, ["train-h", "--scene", str(scene_dir)], cfg, flags, "h.bin")
        assert a.read_bytes() == b.read_bytes()

    def test_train_encoder(self, scene_dir, tmp_path):
        cfg = {"train": {"epochs": 3, "batch_size": 16}, "nuisance_sigma": 0.5}
        cmd = ["train-encoder", "--scene", str(scene_dir), "--variant", "distance"]
        a, b = self._replay(tmp_path, cmd, cfg, ["--set", "train.early_stop_patience=3", "--seed", "6"], "e.bin")
        assert a.read_bytes() == b.read_bytes()

    def test_densify(self, scene_dir, tmp_path):
        cfg = {"train": _SMALL_TRAIN, "densify": {"stride": 6}, "max_pairs": 400}
        cmd = ["densify", "--scene", str(scene_dir), "--method", "nonlin-reg", "--scheme", "extrap"]
        flags = ["--set", "pair_cap=1.5", "--seed", "5", "--e-step", "0.1", "--e-span", "0.2"]
        a, b = self._replay(tmp_path, cmd, cfg, flags, "dense", echo_name="dense/dense_poses.csv")
        assert _files(a) == _files(b) and len(_files(a)) == 3

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("interp", ["--stride", "6"]),
            ("extrap", ["--stride", "6", "--e-step", "0.1", "--e-span", "0.2"]),
            ("sweep", ["--stride", "6", "--e-span", "0.2", "--dedupe-radius", "0.05"]),
        ],
    )
    def test_exp(self, scene_dir, tmp_path, kind, flags):
        cmd = ["exp", kind, "--scene", str(scene_dir), "--methods", "lin-reg", "nonlin-reg", "--format", "json"]
        if kind == "sweep":
            cmd += ["--steps", "0.2,0.1"]
        cfg = {"train": _SMALL_TRAIN, "seed": 2, "max_pairs": 400}
        a, b = self._replay(tmp_path, cmd, cfg, ["--set", "pair_cap=1.5", "--seed", "7", *flags], "r.json")
        a, b = (report_signature(ExperimentReport.from_json(r.read_text())) for r in (a, b))
        assert a == b
        if kind == "interp":
            assert json.loads((tmp_path / "first" / "r.json.config.json").read_text())["densify"] == {"stride": 6}

    def test_exp_stray(self, tmp_path):
        cfg = {"scene": _SMALL_MULTI, "field": {"dim": 4, "seed": 62}, "train": _SMALL_TRAIN}
        cmd = ["exp", "stray", "--cases", "2", "--format", "json"]
        a, b = self._replay(tmp_path, cmd, cfg, ["--set", "max_pairs=300", "--seed", "3"], "r.json")
        assert a.read_text() == b.read_text()
