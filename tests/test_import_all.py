"""Lint floor that needs only the standard library: every file under
``src/repro`` compiles, every module imports and no module-level import is
left unused (the E9/F7 and F401 halves of the ruff selection in
``pyproject.toml``), so a stale ``from .x import gone`` — or the import a
moved function left behind — fails here and not first in CI."""

import ast
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


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(path):
    """``(line, name)`` of module-level imports never referenced in the
    module.  Exempt, as under ruff: ``__init__.py`` (re-exports), names
    listed in ``__all__``, ``__future__`` and ``# noqa`` lines."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("noqa" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names(tree)
    for node in ast.walk(tree):
        # Strings that parse as expressions cover quoted annotations
        # ("Database") and the entries of ``__all__``.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_module_level_imports():
    found = [f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
             for path in sorted(PACKAGE_DIR.rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_import_walk_sees_through_its_exemptions(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import json  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Any, Optional\n"
        "from x import exported, quoted\n"
        "__all__ = ['exported']\n"
        "def f(a: 'quoted', b: Optional[int]) -> None:\n"
        "    return sys.argv\n")
    assert unused_imports(module) == [(2, "os"), (4, "Any"),
                                      (4, "TYPE_CHECKING")]


def test_one_compile_pipeline_and_one_ddl_applier():
    """The forks PR 20 removed stay removed: in ``database.py`` only the
    compile step normalizes and builds optimizers, and each catalog
    mutator has exactly one call site in the package (the applier in
    ``repro.recovery``)."""
    database = (PACKAGE_DIR / "database.py").read_text(encoding="utf-8")
    assert database.count("normalize(") == 1
    assert database.count("Optimizer(") == 1
    package = "".join(path.read_text(encoding="utf-8")
                      for path in PACKAGE_DIR.rglob("*.py"))
    for mutator in ("create_table", "create_index", "create_view",
                    "create_matview", "drop_table", "drop_view",
                    "drop_matview"):
        assert package.count(f"catalog.{mutator}(") == 1, mutator
