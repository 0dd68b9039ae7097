"""dbgen ``.tbl`` file interchange.

The official TPC-H ``dbgen`` emits one ``<table>.tbl`` per table with
``|``-separated fields and a trailing ``|``.  ``load_tbl`` imports such
files into a :class:`~repro.Database` with the TPC-H schema (so the
reproduction can run against real dbgen output when available), and
``dump_tbl`` writes the same format back — used for round-trip testing and
for exporting generated data to other systems.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import Iterable, Optional

from ..algebra import DataType
from ..database import Database
from ..errors import ExecutionError
from .schema import TABLES


def load_tbl(db: Database, directory: str | Path,
             tables: Optional[Iterable[str]] = None) -> dict[str, int]:
    """Load ``<table>.tbl`` files from ``directory``.

    Returns the number of rows loaded per table.  Missing files are
    skipped (dbgen can emit subsets); malformed rows raise
    :class:`~repro.errors.ExecutionError` with the offending line number.
    """
    directory = Path(directory)
    counts: dict[str, int] = {}
    for name in tables if tables is not None else TABLES:
        path = directory / f"{name}.tbl"
        if not path.exists():
            continue
        dtypes = [dtype for _, dtype, *_ in TABLES[name]["columns"]]
        rows = []
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("|")
                if fields and fields[-1] == "":
                    fields = fields[:-1]  # trailing separator
                if len(fields) != len(dtypes):
                    raise ExecutionError(
                        f"{path.name}:{line_number}: expected "
                        f"{len(dtypes)} fields, found {len(fields)}")
                try:
                    rows.append(tuple(
                        _parse_field(field, dtype)
                        for field, dtype in zip(fields, dtypes)))
                except ValueError as error:
                    raise ExecutionError(
                        f"{path.name}:{line_number}: {error}") from None
        counts[name] = db.insert(name, rows)
    return counts


def dump_tbl(db: Database, directory: str | Path,
             tables: Optional[Iterable[str]] = None) -> dict[str, int]:
    """Write ``<table>.tbl`` files in dbgen format."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    for name in tables if tables is not None else TABLES:
        stored = db.storage.get(name)
        path = directory / f"{name}.tbl"
        with open(path, "w", encoding="utf-8") as handle:
            for row in stored.rows:
                handle.write("|".join(_format_field(v) for v in row))
                handle.write("|\n")
        counts[name] = len(stored)
    return counts


def _parse_field(text: str, dtype: DataType):
    if text == "" and dtype is not DataType.VARCHAR:
        return None
    if dtype is DataType.INTEGER:
        return int(text)
    if dtype in (DataType.FLOAT, DataType.DECIMAL):
        return float(text)
    if dtype is DataType.DATE:
        return datetime.date.fromisoformat(text)
    return text


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # dbgen uses two decimals; fall back to full precision when the
        # value genuinely carries more (keeps dump/load an exact
        # round trip).
        if round(value, 2) == value:
            return f"{value:.2f}"
        return repr(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)
