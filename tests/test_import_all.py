"""Lint floor that needs only the standard library: every file under
``src/repro`` compiles and every module imports (the E9/F7 half of the
ruff selection in ``pyproject.toml``), so a stale ``from .x import gone``
fails here and not first in CI."""

import importlib
import pathlib
import pkgutil

import repro

PACKAGE_DIR = pathlib.Path(repro.__file__).parent


def test_every_source_file_compiles():
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_every_module_imports():
    names = [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")]
    assert "repro.bench.harness" in names
    for name in names:
        if name.endswith(".__main__"):
            continue  # importing one would run its command line
        importlib.import_module(name)
