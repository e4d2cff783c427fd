"""Higher-level query shapes over the relational data model.

The central export is :func:`long_format_records`, which joins ``logs`` with
the ``loops`` table to annotate every log record with its loop dimensions
(document, page, epoch, step, ...).  The pivoted user-facing view built on
top of it lives in :mod:`repro.core.dataframe_view`.

Filtering is pushed down into SQLite: the value-name set, timestamp range
and ``seq`` bounds narrow the ``logs`` scan through the covering indexes of
:mod:`repro.relational.schema`, and only the loop rows of *touched* runs are
fetched (a join against the distinct ``(tstamp, filename)`` pairs of the
filtered logs) instead of every loop ever recorded.  The ``seq``/``rowid``
watermark helpers at the bottom let the materialized pivot-view cache of
:mod:`repro.query` detect and fetch just the appended delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..dataframe import DataFrame, from_records
from ..storage.protocols import RelationalStore
from .records import LoopRecord, decode_value

#: Reserved dimension columns that always appear in the pivoted view.
BASE_DIMENSIONS = ("projid", "tstamp", "filename")


@dataclass
class AnnotatedLog:
    """A log record joined with its loop-dimension ancestry.

    ``dimensions`` maps loop name to iteration index and ``dimension_values``
    maps ``<loop_name>_value`` to the stringified iteration value, ordered
    from the outermost loop inward.
    """

    projid: str
    tstamp: str
    filename: str
    ctx_id: int
    value_name: str
    value: Any
    dimensions: dict[str, int] = field(default_factory=dict)
    dimension_values: dict[str, Any] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.dimensions)

    def dimension_key(self) -> tuple:
        """Hashable key of the record's loop position (outermost first)."""
        return tuple(self.dimensions.items())

    def as_row(self) -> dict[str, Any]:
        row: dict[str, Any] = {
            "projid": self.projid,
            "tstamp": self.tstamp,
            "filename": self.filename,
            "ctx_id": self.ctx_id,
            "value_name": self.value_name,
            "value": self.value,
        }
        row.update(self.dimensions)
        row.update(self.dimension_values)
        return row


def _loop_ancestry(
    loops_by_ctx: dict[int, LoopRecord], ctx_id: int
) -> list[LoopRecord]:
    """Return the loop chain for ``ctx_id`` from outermost to innermost."""
    chain: list[LoopRecord] = []
    seen: set[int] = set()
    current = loops_by_ctx.get(ctx_id)
    while current is not None and current.ctx_id not in seen:
        chain.append(current)
        seen.add(current.ctx_id)
        parent = current.parent_ctx_id
        current = loops_by_ctx.get(parent) if parent is not None else None
    chain.reverse()
    return chain


def _logs_where(
    projid: str,
    value_names: Sequence[str] | None,
    tstamp_range: tuple[str | None, str | None] | None,
    min_seq: int | None,
    max_seq: int | None,
    run_keys: Sequence[tuple[str, str]] | None,
) -> tuple[str, list[Any]]:
    """WHERE clause + bind parameters shared by the log scan and the run join."""
    clauses = ["projid = ?"]
    params: list[Any] = [projid]
    if value_names is not None:
        placeholders = ",".join("?" for _ in value_names)
        clauses.append(f"value_name IN ({placeholders})")
        params.extend(value_names)
    if tstamp_range is not None:
        since, until = tstamp_range
        if since is not None:
            clauses.append("tstamp >= ?")
            params.append(since)
        if until is not None:
            clauses.append("tstamp <= ?")
            params.append(until)
    if min_seq is not None:
        clauses.append("seq > ?")
        params.append(min_seq)
    if max_seq is not None:
        clauses.append("seq <= ?")
        params.append(max_seq)
    if run_keys is not None:
        rows = ",".join("(?, ?)" for _ in run_keys)
        clauses.append(f"(tstamp, filename) IN (VALUES {rows})")
        for tstamp, filename in run_keys:
            params.extend((tstamp, filename))
    return " AND ".join(clauses), params


def long_format_records(
    db: RelationalStore,
    projid: str,
    value_names: Sequence[str] | None = None,
    *,
    tstamp_range: tuple[str | None, str | None] | None = None,
    min_seq: int | None = None,
    max_seq: int | None = None,
    run_keys: Sequence[tuple[str, str]] | None = None,
) -> list[AnnotatedLog]:
    """Join logs with loop dimensions, producing one annotated row per record.

    ``value_names`` of ``None`` returns all logged names.  ``ctx_id`` 0 means
    "logged outside any loop" and yields empty dimensions.

    All keyword filters are pushed down into SQLite rather than applied to
    Python objects: ``tstamp_range`` is a ``(since, until)`` pair of
    inclusive bounds (either side may be ``None``), ``min_seq``/``max_seq``
    bound the ``logs.seq`` rowid (exclusive / inclusive — the delta-read
    shape used by the pivot-view cache), and ``run_keys`` restricts the scan
    to the given ``(tstamp, filename)`` runs.  Only the loop rows of runs
    actually touched by the filtered logs are fetched for annotation.
    """
    if value_names is not None and not value_names:
        return []
    if run_keys is not None and not run_keys:
        return []  # an empty run set selects nothing (and "IN (VALUES )" is not SQL)
    value_names = None if value_names is None else [str(n) for n in value_names]
    where, params = _logs_where(projid, value_names, tstamp_range, min_seq, max_seq, run_keys)
    log_rows = db.query(
        "SELECT projid, tstamp, filename, ctx_id, value_name, value, value_type"
        f" FROM logs WHERE {where} ORDER BY seq",
        params,
    )
    if not log_rows:
        return []
    # Ancestry join pushed into SQLite: only the loop rows belonging to runs
    # present in the filtered logs come back, served by idx_loops_ancestry.
    loop_rows = db.query(
        "SELECT l.tstamp, l.filename, l.ctx_id, l.parent_ctx_id, l.loop_name,"
        " l.loop_iteration, l.iteration_value"
        " FROM loops AS l"
        f" JOIN (SELECT DISTINCT tstamp, filename FROM logs WHERE {where}) AS runs"
        " ON runs.tstamp = l.tstamp AND runs.filename = l.filename"
        " WHERE l.projid = ?",
        [*params, projid],
    )
    loops_index: dict[tuple[str, str], dict[int, LoopRecord]] = {}
    for tstamp, filename, ctx_id, parent, loop_name, iteration, value in loop_rows:
        loops_index.setdefault((tstamp, filename), {})[ctx_id] = LoopRecord(
            projid=projid,
            tstamp=tstamp,
            filename=filename,
            ctx_id=ctx_id,
            parent_ctx_id=parent,
            loop_name=loop_name,
            loop_iteration=iteration,
            iteration_value=value,
        )

    annotated: list[AnnotatedLog] = []
    for _projid, tstamp, filename, ctx_id, value_name, value, value_type in log_rows:
        loops_by_ctx = loops_index.get((tstamp, filename), {})
        chain = _loop_ancestry(loops_by_ctx, ctx_id)
        dimensions = {loop.loop_name: loop.loop_iteration for loop in chain}
        dimension_values = {
            f"{loop.loop_name}_value": loop.iteration_value for loop in chain
        }
        annotated.append(
            AnnotatedLog(
                projid=_projid,
                tstamp=tstamp,
                filename=filename,
                ctx_id=ctx_id,
                value_name=value_name,
                value=decode_value(value, value_type),
                dimensions=dimensions,
                dimension_values=dimension_values,
            )
        )
    return annotated


def long_format_frame(
    db: RelationalStore, projid: str, value_names: Sequence[str] | None = None
) -> DataFrame:
    """Long-format DataFrame view of :func:`long_format_records`."""
    records = long_format_records(db, projid, value_names)
    return from_records([r.as_row() for r in records])


# ---------------------------------------------------------------------------
# Watermarks (used by repro.query's materialized pivot-view cache)
# ---------------------------------------------------------------------------

def log_watermark(db: RelationalStore, projid: str) -> int:
    """Monotonic upper bound on the project's ``logs.seq`` (0 when empty).

    ``seq`` is an AUTOINCREMENT rowid, so it grows monotonically and a cached
    view annotated up to seq ``w`` is refreshed by reading ``seq > w``.  The
    probe is deliberately **database-global**: ``MAX(seq)`` without a projid
    filter is a single B-tree edge seek (SQLite's min/max optimization),
    while the per-project maximum would scan the project's whole index
    range.  A write to another project sharing the database can therefore
    advance the bound spuriously — the refresh it triggers finds an empty
    projid-filtered delta and is cheap; in the sharded service each project
    owns its database, so the bound is exact there.
    """
    row = db.query_one("SELECT COALESCE(MAX(seq), 0) FROM logs")
    return int(row[0]) if row else 0


def loop_watermark(db: RelationalStore, projid: str) -> int:
    """Monotonic upper bound on the project's ``loops.rowid`` (0 when empty).

    ``INSERT OR REPLACE`` rewrites a loop row under a *new* rowid, so this
    watermark advances on replacement too — exactly the writes that can
    change the ancestry of already-cached log records.  Database-global for
    the same O(1)-seek reason as :func:`log_watermark`.
    """
    row = db.query_one("SELECT COALESCE(MAX(rowid), 0) FROM loops")
    return int(row[0]) if row else 0


def runs_touched_since(db: RelationalStore, projid: str, loop_rowid: int) -> set[tuple[str, str]]:
    """Distinct ``(tstamp, filename)`` runs with loop rows newer than the watermark."""
    rows = db.query(
        "SELECT DISTINCT tstamp, filename FROM loops WHERE projid = ? AND rowid > ?",
        (projid, loop_rowid),
    )
    return {(row[0], row[1]) for row in rows}


def git_view(versioning_repository: Any) -> DataFrame:
    """Materialize the virtual ``git`` table of Figure 1.

    Columns: ``vid``, ``filename``, ``parent_vid``, ``contents``.  The rows
    come from the content-addressed version store rather than SQLite, which
    is what makes the table "virtual" in the paper's data model.
    """
    rows: list[dict[str, Any]] = []
    for commit in versioning_repository.log():
        parent = commit.parent_vid
        for filename in sorted(commit.files):
            rows.append(
                {
                    "vid": commit.vid,
                    "filename": filename,
                    "parent_vid": parent,
                    "contents": versioning_repository.read_file(commit.vid, filename),
                }
            )
    return from_records(rows, columns=["vid", "filename", "parent_vid", "contents"])


def latest(frame: DataFrame, column: str = "tstamp") -> DataFrame:
    """Rows belonging to the most recent timestamp present in ``frame``.

    This is ``flor.utils.latest`` from the paper's Figure 6: given a frame
    spanning several runs, keep only the rows of the latest run.
    """
    if frame.empty or column not in frame:
        return frame
    maximum = frame[column].max()
    if maximum is None:
        return frame
    return frame[frame[column] == maximum]
