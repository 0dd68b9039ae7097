"""Lint CLI: ``python -m repro.analysis [options] [file.sql ...]``.

Compiles each SQL statement through the full pipeline (bind → normalize
→ optimize) and runs the static verifier at every stage, printing any
invariant violation; with ``--explain`` the checked trees are printed
too.  Statements come from ``.sql`` files (``;``-separated, ``--``
comments stripped) or stdin when no file (or ``-``) is given.

The engine has no SQL DDL, so the catalog the statements are checked
against is the built-in TPC-H schema (``--no-indexes`` drops the FK
indexes, which disables the index-seek checks' catalog half).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from ..algebra import explain
from ..core.normalize import normalize
from ..database import Database, ExplainOptions
from ..errors import ReproError
from ..tpch.schema import create_tpch_schema
from .invariants import verify_logical
from .issues import AnalysisIssue, render_issues
from .physical import verify_physical


def split_statements(text: str) -> list[str]:
    """``;``-separated statements with ``--`` comments removed."""
    lines = []
    for line in text.splitlines():
        comment = line.find("--")
        lines.append(line[:comment] if comment >= 0 else line)
    statements = "\n".join(lines).split(";")
    return [s.strip() for s in statements if s.strip()]


def lint_statement(db: Database, sql: str, *,
                   explain_options: ExplainOptions | None = None,
                   out=sys.stdout) -> list[AnalysisIssue]:
    """Check one statement at every pipeline stage; returns all issues.

    ``explain_options`` also prints the bound tree and then the unified
    :meth:`Database.explain` rendering — the same output every other
    explain entry point produces.
    """
    from ..sql import parse

    mode = db._resolve_mode("full")
    issues: list[AnalysisIssue] = []

    def stage(name: str, found: list[AnalysisIssue]) -> None:
        issues.extend(found)
        if found:
            print(f"{name}:", file=out)
            print(render_issues(found), file=out)

    bound = db._binder.bind(parse(sql))
    stage("bound", verify_logical(bound.rel, allow_subqueries=True))
    normalized = normalize(bound.rel, mode.normalize_config)
    stage("normalized", verify_logical(normalized))
    plan = db._optimizer(mode).optimize(normalized)
    stage("physical",
          verify_physical(plan, index_provider=db._index_provider))
    if explain_options is not None:
        print("-- bound --", file=out)
        print(explain(bound.rel), file=out)
        print(db.explain(sql, mode, options=explain_options), file=out)
    return issues


def _read_sources(paths: list[str]) -> Iterable[tuple[str, str]]:
    if not paths:
        paths = ["-"]
    for path in paths:
        if path == "-":
            yield "<stdin>", sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                yield path, handle.read()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically verify the plans of SQL statements.")
    parser.add_argument("files", nargs="*",
                        help=".sql files to check ('-' or none: stdin)")
    parser.add_argument("--explain", action="store_true",
                        help="print the checked trees (EXPLAIN output)")
    parser.add_argument("--explain-format", choices=("text", "dict"),
                        default="text",
                        help="EXPLAIN rendering (implies --explain)")
    parser.add_argument("--costs", action="store_true",
                        help="include optimizer cost estimates in "
                             "EXPLAIN output (implies --explain)")
    parser.add_argument("--no-indexes", action="store_true",
                        help="build the TPC-H catalog without FK indexes")
    args = parser.parse_args(argv)
    explain_options = None
    if args.explain or args.costs or args.explain_format != "text":
        explain_options = ExplainOptions(costs=args.costs,
                                         format=args.explain_format)

    db = Database()
    create_tpch_schema(db, with_indexes=not args.no_indexes)

    failures = 0
    for origin, text in _read_sources(args.files):
        for number, sql in enumerate(split_statements(text), start=1):
            heading = f"{origin}:{number}"
            try:
                found = lint_statement(db, sql,
                                       explain_options=explain_options)
            except ReproError as exc:
                print(f"{heading}: error: {exc}", file=sys.stderr)
                failures += 1
                continue
            if found:
                print(f"{heading}: {len(found)} issue(s)", file=sys.stderr)
                failures += 1
            else:
                print(f"{heading}: ok")
    return 1 if failures else 0
