"""Every file copr reads or writes goes through this module.

Reads raise :class:`IoError` naming the file. :func:`write_files` replaces
each target whole, so a failed write leaves every target as it was.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import shutil
import struct
from pathlib import Path

from .errors import BadMagic, IoError, ParseError, VersionUnsupported


def read_bytes(path, what: str) -> bytes:
    """The whole file at ``path``; ``what`` names it in the IoError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path, what: str):
    """The UTF-8 JSON document at ``path``; ParseError if it is not one."""
    try:
        return json.loads(read_bytes(path, what).decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc


def unpack_header(blob: bytes, fmt: str, magic: bytes, version: int, what: str) -> tuple:
    """The fields after the leading magic and version of header ``fmt``."""
    size = struct.calcsize(fmt)
    if len(blob) < size:
        raise ParseError(f"{what} file shorter than its {size}-byte header", offset=len(blob))
    found, found_version, *rest = struct.unpack_from(fmt, blob, 0)
    if found != magic:
        raise BadMagic(f"expected magic {magic!r}, found {found!r}")
    if found_version != version:
        raise VersionUnsupported(f"{what} format version {found_version} not supported")
    return tuple(rest)


def write_files(*files: tuple[os.PathLike | str, bytes | str], what: str) -> None:
    """Write each ``(path, data)``, text as UTF-8.

    Every payload goes to an exclusively created sibling temporary file
    (its mode from the umask, or the old file's); only once all are written
    are they renamed over their targets, in argument order. Before the first
    rename each existing target is hard-linked to a sibling temporary name;
    if a rename fails, the links are renamed back over the targets already
    replaced and the targets that did not exist are deleted, so every target
    is as it was. Temporary files and links are deleted either way. A target
    that refuses ``os.link`` keeps its new data when a later rename fails.
    Parent directories are created. A symlink keeps its link: the file it
    resolves to is replaced. A target that is not a regular file (a FIFO, a
    device) is written in place and never restored. Nothing is fsynced, so a
    crash between two renames can still leave a mix.
    """
    staged = []  # (temporary, target) not yet renamed
    old = {}  # target: a link to its old file, or None where it had none
    renamed = []
    try:
        for path, data in files:
            data = data.encode("utf-8") if isinstance(data, str) else data
            target = Path(os.path.realpath(path))
            target.parent.mkdir(parents=True, exist_ok=True)
            if target.exists() and not target.is_file():
                target.write_bytes(data)
                continue
            tmp = _temporary(target)
            with open(tmp, "xb") as fh:
                staged.append((tmp, target))
                fh.write(data)
            if target.exists():
                shutil.copymode(target, tmp)
        for _, target in staged:
            link = _temporary(target) if target.exists() else None
            with contextlib.suppress(OSError):
                if link:
                    os.link(target, link)
                old[target] = link
        while staged:
            os.replace(*staged[0])
            renamed.append(staged.pop(0)[1])
    except OSError as exc:
        for target in reversed(renamed):
            with contextlib.suppress(OSError):
                if old.get(target):
                    os.replace(old[target], target)
                elif target in old:
                    target.unlink()
        raise IoError(f"cannot write {what}: {exc}") from exc
    finally:
        for tmp in [tmp for tmp, _ in staged] + [link for link in old.values() if link]:
            with contextlib.suppress(OSError):
                tmp.unlink()


def _temporary(target: Path) -> Path:
    """A fresh sibling name for ``target`` ending in ``.tmp``."""
    return target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
