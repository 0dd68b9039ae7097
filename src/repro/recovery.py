"""Catalog changes as records: the one applier, and recovery over it.

A WAL record (``create_table``, ``create_index``, ``create_view``,
``drop_view``, ``drop_table``, ``create_matview``, ``drop_matview``, and
``commit`` for row deltas) is the single description of a change to
catalog + storage and :func:`apply_record` the single function that
performs it: live DDL is validate → log → ``apply_record``
(:meth:`Database._apply_ddl`), WAL replay is ``apply_record``, and a
checkpoint image is loaded as the records that rebuild it
(:func:`image_records`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .catalog.catalog import index_def_from_dict, table_def_from_dict
from .durability.codec import decode_row
from .errors import RecoveryError, ReproError
from .matview.definition import MatViewDef


def apply_record(catalog, storage, record: dict,
                 contents: Sequence[tuple] = ()):
    """Apply one record; returns the definition a ``create_*`` record
    registered.

    ``contents`` are the rows a live ``create_matview`` computed under
    the base table's writer lock, stored before the definition is
    registered so no reader sees the view empty.  Recovery passes none:
    view contents are derived state, rebuilt once every base is back.
    """
    kind = record.get("kind")
    if kind == "commit":
        for name, rows in record.get("writes", {}).items():
            storage.get(name).insert_rows(decode_row(row) for row in rows)
    elif kind == "create_table":
        table = table_def_from_dict(record["table"])
        catalog.create_table(table)
        storage.create(table)
        return table
    elif kind == "create_index":
        index = index_def_from_dict(record["index"])
        catalog.create_index(index)
        # Copy-on-write: the indexed version is installed atomically, so
        # concurrent readers see either the old version (no index) or
        # the new one (index fully built), never a half-built index.
        storage.apply_add_index(index.table_name, index)
        return index
    elif kind == "create_view":
        catalog.create_view(record["name"], record["sql"])
    elif kind == "create_matview":
        viewdef = MatViewDef.from_sql(record["name"], record["sql"])
        backing = None
        if not record.get("backing_loaded"):
            backing = viewdef.backing_def(catalog.get_table(viewdef.table))
            storage.create(backing).insert_rows(contents)
        catalog.create_matview(viewdef, backing)
        return viewdef
    elif kind == "drop_matview":
        catalog.drop_matview(record["name"])
        storage.drop(record["name"])
    elif kind == "drop_view":
        catalog.drop_view(record["name"])
    elif kind == "drop_table":
        catalog.drop_table(record["name"])
        storage.drop(record["name"])
    else:
        raise RecoveryError(f"unknown WAL record kind {kind!r} "
                            f"(lsn={record.get('lsn')})")
    return None


def image_records(checkpoint: dict) -> Iterator[dict]:
    """A checkpoint image as the records that rebuild it: tables, then
    their rows, then indexes (built over the loaded rows), views and
    materialized views."""
    image = checkpoint["catalog"]
    for table in image["tables"]:
        yield {"kind": "create_table", "table": table}
    yield {"kind": "commit", "writes": checkpoint["rows"]}
    for index in image["indexes"]:
        yield {"kind": "create_index", "index": index}
    for view in image["views"]:
        yield {"kind": "create_view", "name": view["name"],
               "sql": view["sql"]}
    for view in image.get("matviews", []):
        # The backing table (schema and rows) is part of the table image
        # above; only the definition is left to register.
        yield {"kind": "create_matview", "name": view["name"],
               "sql": view["sql"], "backing_loaded": True}


def recover(database, manager) -> None:
    """Rebuild ``database``'s committed state from ``manager``'s files:
    checkpoint image first, then the WAL records newer than it, oldest
    first.  Runs before the manager is attached to the database, so
    nothing here re-logs."""
    state = manager.recover()
    checkpoint = state.checkpoint
    if checkpoint is not None:
        try:
            for record in image_records(checkpoint):
                apply_record(database.catalog, database.storage, record)
            database.corrections.load_state(
                checkpoint.get("corrections", []))
        except ReproError as exc:
            raise RecoveryError(
                f"applying checkpoint lsn={checkpoint.get('lsn')} "
                f"failed: {exc}") from exc
    for record in manager.replay(state):
        try:
            apply_record(database.catalog, database.storage, record)
        except RecoveryError:
            raise
        except ReproError as exc:
            raise RecoveryError(
                f"replaying WAL record lsn={record.get('lsn')} "
                f"failed: {exc}") from exc
    # View contents are derived state: the WAL carries only base rows, so
    # after the bases are restored every materialized view is rebuilt
    # from scratch — a crash can never surface a view inconsistent with
    # its base.
    try:
        database.matviews.rebuild_all()
    except ReproError as exc:
        raise RecoveryError(
            f"rebuilding materialized views failed: {exc}") from exc
    database.plan_cache.invalidate()
