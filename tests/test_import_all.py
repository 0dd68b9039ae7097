"""Lint floor that needs only the standard library: every file under
``src/repro`` compiles, every module imports, no module-level import is
left unused (the E9/F7 and F401 halves of the ruff selection in
``pyproject.toml``) and no module-level definition is left unreferenced,
so a stale ``from .x import gone`` — or the import a moved function left
behind, or the helper nothing calls any more — fails here and not first
in CI."""

import ast
import importlib
import pathlib
import pkgutil

import repro

PACKAGE_DIR = pathlib.Path(repro.__file__).parent
REPO_DIR = PACKAGE_DIR.parent.parent
#: The trees a definition in ``src/repro`` may be referenced from.
CODE_TREES = ("src", "tests", "benchmarks", "examples")


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


def _noqa(lines, node):
    return any("noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno])


def _string_names(tree):
    """Names in strings that parse as expressions: quoted annotations
    (``"Database"``) and the entries of ``__all__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                found |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return found


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
                or _noqa(lines, node)):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names(tree) | _string_names(tree)
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


def module_definitions(path):
    """``(line, name)`` of the module-level functions, classes and
    assigned names of one module, ``# noqa`` lines exempt."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    found = []
    for node in tree.body:
        if _noqa(lines, node):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found.extend((node.lineno, name.id)
                         for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)
                         and isinstance(name.ctx, ast.Store))
    return found


def references(path):
    """Every name ``path`` reads: loaded names, attribute names, imported
    names and names inside expression strings (``__all__`` entries)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = _string_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def unreferenced_definitions(package_dir, trees):
    """``(path, line, name)`` of module-level definitions outside
    ``__init__.py`` whose name no module in ``trees`` reads."""
    referenced = set()
    for tree in trees:
        for path in tree.rglob("*.py"):
            referenced |= references(path)
    return [(path, line, name)
            for path in sorted(package_dir.rglob("*.py"))
            if path.name != "__init__.py"
            for line, name in module_definitions(path)
            if name not in referenced
            and not (name.startswith("__") and name.endswith("__"))]


def test_no_unreferenced_module_level_definitions():
    found = [f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
             for path, line, name in unreferenced_definitions(
                 PACKAGE_DIR, [REPO_DIR / tree for tree in CODE_TREES])]
    assert not found, "unreferenced definitions:\n" + "\n".join(found)


def test_unreferenced_definition_walk_sees_through_its_exemptions(
        tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .m import exported\n"
        "REEXPORTED = 1\n")
    (package / "m.py").write_text(
        "__all__ = ['listed']\n"
        "def listed(): pass\n"
        "def exported(): pass\n"
        "def called_here(): pass\n"
        "def annotated(): pass\n"
        "class Dead: pass\n"
        "class Kept: pass  # noqa: required by a standard\n"
        "DEAD_CONSTANT, used_constant = 1, 2\n"
        "stored = called_here()\n"
        "stored = 3\n"
        "def g(x: 'annotated') -> int:\n"
        "    return used_constant\n")
    user = tmp_path / "user.py"
    user.write_text("import pkg.m\nprint(pkg.m.g)\n")
    found = [(path.name, line, name) for path, line, name in
             unreferenced_definitions(package, [tmp_path])]
    assert found == [("m.py", 6, "Dead"), ("m.py", 8, "DEAD_CONSTANT"),
                     ("m.py", 9, "stored"), ("m.py", 10, "stored")]


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
