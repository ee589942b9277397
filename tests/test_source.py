"""Source hygiene: every name a copr module imports is used."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "copr"


def _wrap_point_names() -> set[tuple[str, str]]:
    """(module, name) of every module attribute the benchmark tracer rebinds.

    Such a name only has to exist, so importing it without using it is
    how a module keeps a traced binding alive.
    """
    spec = importlib.util.spec_from_file_location("copr_bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    names = set()
    for point in tracer.WRAP_POINTS:
        for binding in point.bindings:
            module, _, path = binding.partition(":")
            names.add((module, path.split(".")[0]))
    return names


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    traced = _wrap_point_names()
    assert ("copr.densify", "RelativePose") in traced
    dead = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":  # a package's imports are its re-exports
            continue
        module = ".".join(("copr",) + path.relative_to(SRC).with_suffix("").parts)
        dead += [
            f"{module}:{line} {name}" for line, name in _unused_imports(path) if (module, name) not in traced
        ]
    assert not dead, f"imported but never used: {dead}"


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\nimport os, math as m\nfrom a.b import c\nprint(m.pi)\n")
    assert _unused_imports(path) == [(2, "os"), (3, "c")]
