"""The file layer: whole-file replacement, and what a failed write leaves.

The fault tests make one file's writes fail with ENOSPC, as a full disk
does, by wrapping ``open`` for every file whose name holds a given part,
temporary files included. After each failure the old artifact must load
bit for bit and no temporary file may be left.
"""

import builtins
import errno
import os
import stat
import threading

import numpy as np
import pytest

from copr.cli import dispatch
from copr.errors import BadMagic, IoError, ParseError, VersionUnsupported
from copr.evaluate import ExperimentReport, ExperimentRow, emit_report
from copr.files import read_bytes, read_json, unpack_header, write_files
from copr.neural.model_io import load_model, save_model
from copr.neural.training import init_regressor
from copr.synth import FieldConfig, SceneConfig, gen_scene, load_scene, save_scene
from copr.vpr_map import ReferenceMap, load_map, save_map


class _FullDisk:
    """An open file whose every write fails with ENOSPC."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """``full_disk(part)``: from then on, writes to a file whose name holds ``part`` fail."""
    real_open = builtins.open

    def fail(part):
        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            named = isinstance(file, (str, os.PathLike)) and part in os.path.basename(file)
            return _FullDisk(fh) if named and any(m in mode for m in "wxa") else fh

        monkeypatch.setattr(builtins, "open", open_)

    return fail


def _map(seed, n=5, dim=3):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    return ReferenceMap(
        ids=tuple(f"e{i}" for i in range(n)),
        descriptors=rng.normal(size=(n, dim)),
        translations=rng.normal(size=(n, 3)),
        quaternions=q / np.linalg.norm(q, axis=1, keepdims=True),
    )


def _map_bytes(m):
    return m.ids, m.descriptors.tobytes(), m.translations.tobytes(), m.quaternions.tobytes()


def _scene_bytes(scene):
    maps = (scene.gt_dense, scene.queries, scene.train_refs)
    labels = (scene.ref_labels, scene.query_labels, scene.train_labels)
    return [_map_bytes(m) for m in maps], labels, scene.scene_cfg, scene.field_cfg


def _scene(seed):
    return gen_scene(
        SceneConfig(layout="loop", n_refs=24, extent_m=6.0, query_offset_m=0.2, seed=seed),
        FieldConfig(dim=3, kind="affine", seed=seed + 1),
    )


def _report(mte):
    row = ExperimentRow(
        experiment="extrap", map="M_dense", densification="-", retrieval="VPR", mte_m=mte, mre_deg=1.0, map_size=4
    )
    return ExperimentReport(rows=(row,), config={"seed": 0})


def _listing(directory):
    return sorted(p.name for p in directory.iterdir())


class TestFailedWritesLeaveTheOldArtifact:
    @pytest.mark.parametrize("failing", ["descriptors", "poses"])
    def test_map(self, tmp_path, full_disk, failing):
        paths = tmp_path / "m_poses.csv", tmp_path / "m_descriptors.bin"
        save_map(_map(0), *paths)
        old = _map_bytes(load_map(*paths))
        full_disk(failing)
        with pytest.raises(IoError, match="cannot write map"):
            save_map(_map(1), *paths)  # same ids, other descriptors and poses
        assert _map_bytes(load_map(*paths)) == old
        assert _listing(tmp_path) == ["m_descriptors.bin", "m_poses.csv"]

    def test_map_whose_second_rename_fails(self, tmp_path, monkeypatch):
        # The descriptor file is renamed into place first; when the pose
        # file's rename fails, the old descriptor file is put back.
        paths = tmp_path / "m_poses.csv", tmp_path / "m_descriptors.bin"
        save_map(_map(0), *paths)
        old = _map_bytes(load_map(*paths))
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(os.path.basename(dst))
            if len(calls) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(IoError, match="cannot write map"):
            save_map(_map(1), *paths)  # same ids, other descriptors and poses
        assert calls[:2] == ["m_descriptors.bin", "m_poses.csv"]
        assert _map_bytes(load_map(*paths)) == old
        assert _listing(tmp_path) == ["m_descriptors.bin", "m_poses.csv"]

    def test_model(self, tmp_path, full_disk):
        path = tmp_path / "h.model"
        save_model(init_regressor(4, 0), path)
        old = load_model(path).flat.tobytes()
        full_disk("h.model")
        with pytest.raises(IoError, match="cannot write model"):
            save_model(init_regressor(4, 1), path)
        assert load_model(path).flat.tobytes() == old
        assert _listing(tmp_path) == ["h.model"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report(self, tmp_path, full_disk, fmt):
        path = tmp_path / f"r.{fmt}"
        emit_report(_report(0.5), fmt, path)
        old = path.read_bytes()
        full_disk(path.name)
        with pytest.raises(IoError, match="cannot write report"):
            emit_report(_report(0.25), fmt, path)
        assert path.read_bytes() == old
        assert _listing(tmp_path) == [path.name]

    # The first file replaced, a middle one, and the sidecar, replaced last.
    @pytest.mark.parametrize("failing", ["refs_descriptors", "train_poses", "scene.json"])
    def test_scene(self, tmp_path, full_disk, failing):
        save_scene(_scene(3), tmp_path)
        old = _scene_bytes(load_scene(tmp_path))
        names = _listing(tmp_path)
        full_disk(failing)
        with pytest.raises(IoError, match="cannot write scene"):
            save_scene(_scene(7), tmp_path)
        assert _scene_bytes(load_scene(tmp_path)) == old
        assert _listing(tmp_path) == names

    def test_cli_densify_into_an_existing_out(self, tmp_path, full_disk, capsys):
        save_scene(_scene(3), tmp_path / "scene")
        out = tmp_path / "dense"
        scene = ["--scene", str(tmp_path / "scene")]
        densify = ["densify", *scene, "--scheme", "interp", "--stride", "4", "--out", str(out)]
        assert dispatch([*densify, "--method", "lin-interp"]) == 0
        paths = out / "dense_poses.csv", out / "dense_descriptors.bin"
        old = _map_bytes(load_map(*paths))
        old_files = {name: (out / name).read_bytes() for name in _listing(out)}
        full_disk("dense_descriptors")
        assert dispatch([*densify, "--method", "lin-reg"]) == 2
        assert "io error: cannot write map" in capsys.readouterr().err
        assert _map_bytes(load_map(*paths)) == old
        assert {name: (out / name).read_bytes() for name in _listing(out)} == old_files


class TestWriteFiles:
    def test_a_new_file_has_the_mode_a_plain_open_gives(self, tmp_path):
        umask = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "w") as fh:
                fh.write("x")
            write_files((tmp_path / "new", b"x"), what="test")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(os.stat(tmp_path / "new").st_mode) == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)

    def test_a_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        os.chmod(path, 0o640)
        write_files((path, b"new"), what="test")
        assert path.read_bytes() == b"new" and stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_a_symlinked_target_stays_a_symlink(self, tmp_path):
        (tmp_path / "real").write_bytes(b"old")
        (tmp_path / "link").symlink_to("real")
        write_files((tmp_path / "link", b"new"), what="test")
        assert (tmp_path / "link").is_symlink() and os.readlink(tmp_path / "link") == "real"
        assert (tmp_path / "real").read_bytes() == b"new"
        assert _listing(tmp_path) == ["link", "real"]

    def test_a_fifo_target_receives_the_bytes(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_files((fifo, b"through the pipe"), what="test")
        reader.join(timeout=10)
        assert received == [b"through the pipe"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and _listing(tmp_path) == ["fifo"]

    def test_parent_directories_are_created(self, tmp_path):
        write_files((tmp_path / "a" / "b" / "f", b"x"), what="test")
        assert (tmp_path / "a" / "b" / "f").read_bytes() == b"x"

    def test_targets_are_replaced_in_argument_order_only_after_every_write(self, tmp_path, monkeypatch):
        for name in "ab":
            (tmp_path / name).write_bytes(b"old")
        seen = []
        real_replace = os.replace

        def replace(src, dst):
            seen.append((os.path.basename(dst), sorted(p.read_bytes() for p in tmp_path.iterdir() if p.suffix == ".tmp")))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        write_files((tmp_path / "b", b"new b"), (tmp_path / "a", b"new a"), what="test")
        # Every payload is staged, and every old file linked, before the first rename.
        assert seen == [("b", [b"new a", b"new b", b"old", b"old"]), ("a", [b"new a", b"old", b"old"])]
        assert (tmp_path / "a").read_bytes() == b"new a" and _listing(tmp_path) == ["a", "b"]

    @staticmethod
    def _refuse_rename_to(monkeypatch, name):
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == name:
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    def test_a_failed_rename_puts_every_old_target_back(self, tmp_path, monkeypatch):
        (tmp_path / "a").write_bytes(b"old a")
        (tmp_path / "c").write_bytes(b"old c")
        os.chmod(tmp_path / "a", 0o640)
        inode = os.stat(tmp_path / "a").st_ino
        self._refuse_rename_to(monkeypatch, "c")
        with pytest.raises(IoError, match="cannot write test: rename refused"):
            write_files((tmp_path / "a", b"new a"), (tmp_path / "b", b"new b"), (tmp_path / "c", b"new c"), what="test")
        assert (tmp_path / "a").read_bytes() == b"old a" and (tmp_path / "c").read_bytes() == b"old c"
        assert os.stat(tmp_path / "a").st_ino == inode and stat.S_IMODE(os.stat(tmp_path / "a").st_mode) == 0o640
        # b did not exist before the write, so it is deleted again.
        assert _listing(tmp_path) == ["a", "c"]

    def test_a_target_that_refuses_a_link_keeps_its_new_data(self, tmp_path, monkeypatch):
        for name in "ab":
            (tmp_path / name).write_bytes(b"old")

        def link(src, dst):
            raise OSError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(os, "link", link)
        self._refuse_rename_to(monkeypatch, "b")
        with pytest.raises(IoError, match="cannot write test: rename refused"):
            write_files((tmp_path / "a", b"new a"), (tmp_path / "b", b"new b"), what="test")
        assert (tmp_path / "a").read_bytes() == b"new a" and (tmp_path / "b").read_bytes() == b"old"
        assert _listing(tmp_path) == ["a", "b"]

    def test_a_failure_leaves_every_target_and_no_temporary_file(self, tmp_path):
        (tmp_path / "a").write_bytes(b"old")
        (tmp_path / "dir").mkdir()
        with pytest.raises(IoError, match="cannot write test"):
            write_files((tmp_path / "a", b"new"), (tmp_path / "dir", b"x"), what="test")
        assert (tmp_path / "a").read_bytes() == b"old" and _listing(tmp_path) == ["a", "dir"]


class TestReaders:
    def test_read_errors_name_the_file(self, tmp_path):
        with pytest.raises(IoError, match=f"cannot read pose file {tmp_path / 'absent'}"):
            read_bytes(tmp_path / "absent", "pose file")

    @pytest.mark.parametrize("blob", [b"{", b"\xff{}"])
    def test_a_file_that_is_not_json_is_a_parse_error(self, tmp_path, blob):
        (tmp_path / "c.json").write_bytes(blob)
        with pytest.raises(ParseError, match=f"config {tmp_path / 'c.json'} is not valid JSON"):
            read_json(tmp_path / "c.json", "config")

    def test_unpack_header(self):
        assert unpack_header(b"CPRD\x01\0\0\0\x02\0\0\0", "<4sII", b"CPRD", 1, "thing") == (2,)
        with pytest.raises(ParseError, match="thing file shorter than its 12-byte header"):
            unpack_header(b"CPRD", "<4sII", b"CPRD", 1, "thing")
        with pytest.raises(BadMagic):
            unpack_header(b"CPRM\x01\0\0\0\x02\0\0\0", "<4sII", b"CPRD", 1, "thing")
        with pytest.raises(VersionUnsupported, match="thing format version 2 not supported"):
            unpack_header(b"CPRD\x02\0\0\0\x02\0\0\0", "<4sII", b"CPRD", 1, "thing")
