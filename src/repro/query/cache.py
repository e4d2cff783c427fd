"""Materialized pivot views with append-aware incremental maintenance.

A cache entry holds one *view state* per ``(projid, sorted names)``: the
annotated long-format records bucketed per run, the per-run pivots of every
co-occurrence group, and the finished frames per requested column order.
Because the pivot is computed run-by-run (see
:mod:`repro.core.dataframe_view`), maintenance is local: an append only
re-pivots the runs it touched and every other run's rows are reused
verbatim, so the refreshed frame equals a from-scratch rebuild by
construction (benchmark T9 asserts this at scale).

Freshness is detected in two tiers:

* **generation counters** — writers in this process
  (:meth:`~repro.core.session.Session.flush`, the service's
  :meth:`~repro.service.pool.ProjectShard.append`) bump a per-project
  counter after their transaction commits, and the database handle's
  :attr:`~repro.relational.database.Database.write_version` catches any
  other writer sharing the connection (replay backfills, raw repository
  writes).  A read whose entry matches both returns the cached frame
  without touching SQLite at all (a *fast hit*).
* **watermarks** — after a generation bump the cache probes
  ``MAX(logs.seq)`` and ``MAX(loops.rowid)`` (indexed, O(1)).  Unchanged
  watermarks re-validate the entry (*warm hit*); advanced watermarks
  trigger an incremental refresh that fetches only ``seq > watermark``
  log rows, plus a full re-read of any cached run whose loop rows were
  rewritten (``INSERT OR REPLACE`` allocates a fresh rowid, so rewrites
  advance the loop watermark and show up in ``runs_touched_since``).

Returned frames are defensive copies; the cached master is never handed
to callers.  The cache is thread-safe and LRU-capped — one instance is
shared per project shard in the service layer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.dataframe_view import (
    RunPivot,
    co_occurrence_groups,
    compose_group,
    finalize,
    pivot_run,
)
from ..dataframe import DataFrame
from ..storage.protocols import RelationalStore
from ..relational.queries import (
    AnnotatedLog,
    log_watermark,
    long_format_records,
    loop_watermark,
    runs_touched_since,
)

#: A run within one project: ``(tstamp, filename)``.
RunPair = tuple[str, str]


@dataclass
class CacheStats:
    """Counters describing a cache's lifetime behaviour."""

    lookups: int = 0
    fast_hits: int = 0
    warm_hits: int = 0
    incremental_refreshes: int = 0
    cold_builds: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hits(self) -> int:
        return self.fast_hits + self.warm_hits

    def as_dict(self) -> dict[str, int]:
        return {
            "lookups": self.lookups,
            "fast_hits": self.fast_hits,
            "warm_hits": self.warm_hits,
            "incremental_refreshes": self.incremental_refreshes,
            "cold_builds": self.cold_builds,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass
class _ViewState:
    """One materialized view: records, per-run pivots, finished frames."""

    projid: str
    names_key: tuple[str, ...]
    #: run -> annotated records, runs in first-appearance order.
    records: "OrderedDict[RunPair, list[AnnotatedLog]]" = field(default_factory=OrderedDict)
    #: name -> runs using it (drives the co-occurrence partition).
    runs_by_name: dict[str, set[RunPair]] = field(default_factory=dict)
    #: group (as a frozenset of names) -> run -> pivoted rows.
    pivots: dict[frozenset, dict[RunPair, RunPivot]] = field(default_factory=dict)
    #: requested column order -> finished frame.
    frames: dict[tuple[str, ...], DataFrame] = field(default_factory=dict)
    log_seq: int = 0
    loop_rowid: int = 0
    generation: int = -1
    db_version: int = -1


class PivotViewCache:
    """LRU-capped cache of incrementally-maintained pivot views.

    Parameters
    ----------
    capacity:
        Maximum number of simultaneously materialized views; the coldest
        entry is dropped beyond that.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple[str, tuple[str, ...]], _ViewState]" = OrderedDict()
        self._generations: dict[str, int] = {}
        self._lock = threading.RLock()
        self.stats = CacheStats()
        # Optional repro.obs.MetricsRegistry, assigned post-construction by
        # the service pool; duck-typed so the query layer stays free of any
        # observability dependency.
        self.metrics = None

    # ------------------------------------------------------------ freshness
    def generation(self, projid: str) -> int:
        with self._lock:
            return self._generations.get(projid, 0)

    def bump_generation(self, projid: str) -> int:
        """Mark the project dirty; the next read re-checks the watermarks.

        This is the write-side invalidation hook: cheap enough to call on
        every flush, precise enough that unrelated projects stay fast.
        """
        with self._lock:
            value = self._generations.get(projid, 0) + 1
            self._generations[projid] = value
            return value

    def invalidate(self, projid: str | None = None) -> int:
        """Drop materialized views (all of them, or one project's); returns the count."""
        with self._lock:
            if projid is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                keys = [k for k in self._entries if k[0] == projid]
                dropped = len(keys)
                for key in keys:
                    del self._entries[key]
            if dropped:
                self.stats.invalidations += 1
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _note(self, tier: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"cache.{tier}")

    # --------------------------------------------------------------- lookup
    def dataframe(self, db: RelationalStore, projid: str, names: Sequence[str]) -> DataFrame:
        """The pivoted view of ``names``, served from the freshest cache tier.

        Any permutation (or duplication) of the same name set shares one
        view state: the co-occurrence partition is order-independent, and
        only the final column order / join anchoring depend on the request
        order, which is re-derived per request from the cached state.
        """
        ordered: list[str] = []
        for name in names:
            name = str(name)
            if name not in ordered:
                ordered.append(name)
        if not ordered:
            return DataFrame()
        key = (projid, tuple(sorted(ordered)))
        with self._lock:
            self.stats.lookups += 1
            generation = self._generations.get(projid, 0)
            db_version = db.write_version
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if entry.generation == generation and entry.db_version == db_version:
                    self.stats.fast_hits += 1
                    self._note("fast_hits")
                    return self._frame_for(entry, ordered)
                current_seq = log_watermark(db, projid)
                current_loop = loop_watermark(db, projid)
                if current_seq == entry.log_seq and current_loop == entry.loop_rowid:
                    entry.generation = generation
                    entry.db_version = db_version
                    self.stats.warm_hits += 1
                    self._note("warm_hits")
                    return self._frame_for(entry, ordered)
                self._refresh(db, entry, current_seq, current_loop)
                entry.generation = generation
                # The snapshot from the top of this lookup, NOT a re-read:
                # a concurrent untracked write landing during the refresh
                # must leave the entry looking stale so the next read probes
                # the watermarks again instead of fast-hitting past it.
                entry.db_version = db_version
                self.stats.incremental_refreshes += 1
                self._note("incremental_refreshes")
                return self._frame_for(entry, ordered)
            entry = self._cold_build(db, projid, key[1], generation)
            entry.db_version = db_version
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self.stats.cold_builds += 1
            self._note("cold_builds")
            return self._frame_for(entry, ordered)

    # ---------------------------------------------------------- maintenance
    def _cold_build(
        self, db: RelationalStore, projid: str, names_key: tuple[str, ...], generation: int
    ) -> _ViewState:
        # Watermarks are read *before* the record fetch and bound it
        # (max_seq), so a concurrent append lands entirely after the
        # watermark and is picked up — exactly once — by the next refresh.
        current_seq = log_watermark(db, projid)
        current_loop = loop_watermark(db, projid)
        entry = _ViewState(
            projid=projid,
            names_key=names_key,
            runs_by_name={name: set() for name in names_key},
            log_seq=current_seq,
            loop_rowid=current_loop,
            generation=generation,
        )
        records = long_format_records(db, projid, list(names_key), max_seq=current_seq)
        for record in records:
            pair = (record.tstamp, record.filename)
            entry.records.setdefault(pair, []).append(record)
            entry.runs_by_name[record.value_name].add(pair)
        return entry

    def _refresh(
        self, db: RelationalStore, entry: _ViewState, current_seq: int, current_loop: int
    ) -> None:
        """Merge the append delta into the view, re-pivoting only touched runs."""
        touched: set[RunPair] = set()
        rewritten: set[RunPair] = set()
        if current_loop > entry.loop_rowid:
            # Runs whose loop rows changed: new runs are cheap (no cached
            # state), but a *cached* run whose ancestry was rewritten via
            # INSERT OR REPLACE must be re-read wholesale — its existing
            # annotations may name stale iteration values.
            dirty = runs_touched_since(db, entry.projid, entry.loop_rowid)
            rewritten = {pair for pair in dirty if pair in entry.records}
            if rewritten:
                refetched = long_format_records(
                    db,
                    entry.projid,
                    list(entry.names_key),
                    run_keys=sorted(rewritten),
                    max_seq=current_seq,
                )
                by_run: dict[RunPair, list[AnnotatedLog]] = {pair: [] for pair in rewritten}
                for record in refetched:
                    by_run[(record.tstamp, record.filename)].append(record)
                for pair, records in by_run.items():
                    entry.records[pair] = records
                    touched.add(pair)
        if current_seq > entry.log_seq:
            delta = long_format_records(
                db,
                entry.projid,
                list(entry.names_key),
                min_seq=entry.log_seq,
                max_seq=current_seq,
            )
            for record in delta:
                pair = (record.tstamp, record.filename)
                if pair in rewritten:
                    continue  # already covered by the wholesale re-read
                entry.records.setdefault(pair, []).append(record)
                touched.add(pair)
        for pair in touched:
            for record in entry.records.get(pair, ()):
                entry.runs_by_name[record.value_name].add(pair)
        # The partition can only coarsen as runs append (co-occurrence sets
        # grow monotonically); groups that merged are dropped and rebuilt
        # lazily, surviving groups only re-pivot the touched runs.
        partition = {
            frozenset(group)
            for group in co_occurrence_groups(entry.runs_by_name, entry.names_key)
        }
        for group_key in [g for g in entry.pivots if g not in partition]:
            del entry.pivots[group_key]
        for group_key, per_run in entry.pivots.items():
            for pair in touched:
                per_run[pair] = pivot_run(
                    (entry.projid, *pair), entry.records.get(pair, []), set(group_key)
                )
        entry.frames.clear()
        entry.log_seq = current_seq
        entry.loop_rowid = current_loop

    # ------------------------------------------------------------- compose
    def _group_pivots(self, entry: _ViewState, group_key: frozenset) -> dict[RunPair, RunPivot]:
        per_run = entry.pivots.get(group_key)
        if per_run is None:
            wanted = set(group_key)
            per_run = {
                pair: pivot_run((entry.projid, *pair), records, wanted)
                for pair, records in entry.records.items()
            }
            entry.pivots[group_key] = per_run
        return per_run

    def _frame_for(self, entry: _ViewState, ordered: list[str]) -> DataFrame:
        order_key = tuple(ordered)
        frame = entry.frames.get(order_key)
        if frame is None:
            groups = co_occurrence_groups(entry.runs_by_name, ordered)
            frames = []
            for group in groups:
                per_run = self._group_pivots(entry, frozenset(group))
                pivots: list[RunPivot] = []
                for pair, records in entry.records.items():
                    run_pivot = per_run.get(pair)
                    if run_pivot is None:
                        run_pivot = pivot_run((entry.projid, *pair), records, set(group))
                        per_run[pair] = run_pivot
                    pivots.append(run_pivot)
                frames.append(compose_group(pivots, group))
            frame = finalize(frames, ordered)
            entry.frames[order_key] = frame
        # Hand out a copy: cached masters must survive callers that mutate
        # their result (adding columns, fillna, ...).
        return frame.copy()
