"""Sharded database pool: one SQLite database per project, LRU-capped.

Multi-tenant FlorDB keeps tenants physically separate — each project name
maps to ``<root>/<name>/.flor/flor.db`` — so one noisy tenant never
contends on another tenant's database file and a shard can be backed up or
dropped independently (the "one metadata home per project" layout of
:mod:`repro.config`, multiplied).

Open handles are cached in an :class:`~collections.OrderedDict` used as an
LRU: :meth:`DatabasePool.get` moves the shard to the hot end, and opening a
shard beyond ``capacity`` closes the coldest one.  Closing drains the
shard session's flusher first, so eviction never loses acknowledged
records — a re-opened shard sees everything that was appended before
eviction (exercised by the pool tests).

Concurrency model: the pool dict is guarded by a pool-level lock; each
shard carries its own :class:`threading.RLock` that request handlers hold
for the duration of one operation.  Eviction also takes the shard lock, so
an in-flight request finishes before its shard closes.  A handler that
loses the race (its shard is closed between lookup and lock acquisition)
observes ``shard.closed`` and retries the lookup — see
:meth:`DatabasePool.checkout`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ..config import ProjectConfig
from ..core.session import Session
from ..query.engine import QueryEngine

#: Filename stamped on records that arrive without one; mirrors how the
#: feedback webapp stamps ``app.py`` on human-in-the-loop records.
SERVICE_FILENAME = "service"


@dataclass
class PoolStats:
    """Counters describing a pool's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    reopens: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "reopens": self.reopens,
        }


class ShardReplicas:
    """Read replicas for one shard: snapshot handles plus warm query engines.

    Wraps a :class:`~repro.storage.replica.ReplicatedDatabase` over the
    shard session's primary handle and keeps one :class:`QueryEngine` (with
    its own pivot-view cache) per replica.  The replica layer's ``on_sync``
    callback bumps the matching engine's cache generation — SQLite's backup
    API rewrites pages underneath the replica connection without advancing
    its ``write_version``, so without this hook the per-replica materialized
    views would serve stale fast hits forever.

    Reads here deliberately do NOT drain the shard's flusher: the
    whole point of replica routing is bounded staleness instead of
    read-your-writes, and every response carries the replica's ``logs.seq``
    watermark so clients can see exactly how fresh their read was.
    """

    def __init__(self, session: Session, *, count: int, max_staleness: float):
        from ..storage.replica import ReplicatedDatabase

        self._engines: list[QueryEngine] = []
        self.replicated = ReplicatedDatabase(
            session.db,
            replicas=count,
            max_staleness=max_staleness,
            on_sync=self._on_sync,
        )
        self._engines = [
            QueryEngine(replica.db, session.projid)
            for replica in self.replicated.replicas
        ]

    def _on_sync(self, index: int) -> None:
        if self._engines:
            self._engines[index].note_write()

    def dataframe(self, names, *, latest: bool = False):
        """Replica-routed pivot read; returns ``(DataFrame, watermark)``."""
        with self.replicated.checkout_replica() as replica:
            frame = self._engines[replica.index].dataframe(*names, latest=latest)
            return frame, replica.watermark

    def sql(self, query: str, names=(), params=()):
        """Replica-routed SQL read; returns ``(DataFrame, watermark)``."""
        with self.replicated.checkout_replica() as replica:
            frame = self._engines[replica.index].sql(query, names, params)
            return frame, replica.watermark

    def refresh(self) -> None:
        self.replicated.refresh()

    def close(self) -> None:
        self.replicated.close()


#: Process-wide shard incarnation numbers.  Flush statistics (including the
#: dropped-row counters durability clients watch) reset when a shard is
#: evicted and reopened; the incarnation lets an observer distinguish "no
#: drops" from "fresh handle, history unknown".
_incarnations = count(1)


class ProjectShard:
    """One open tenant: a session, its lock and the post-commit ingest hook.

    ``on_ingest(name, rows)`` runs after each appended batch commits (the
    pool points it at the service's tail broker).
    """

    def __init__(
        self,
        name: str,
        session: Session,
        replicas: ShardReplicas | None = None,
        on_ingest: Callable[[str, int], None] | None = None,
    ):
        self.name = name
        self.session = session
        self.replicas = replicas
        self.on_ingest = on_ingest
        # Resolved here, once, so the post-commit hook (which runs on the
        # flusher's thread) never races the engine's lazy construction.
        self._engine = session.query
        self.incarnation = next(_incarnations)
        self.lock = threading.RLock()
        self.closed = False

    def append(self, log_rows: Sequence[tuple], loop_rows: Sequence[tuple] = ()) -> int:
        """Hand insert-ready rows to the session's flusher; returns the count.

        The flusher is the only staging buffer: async mode queues the batch
        (coalesced with its neighbours into one transaction) and returns;
        sync mode writes it inline, raising this batch's own failure with
        nothing stored.  After the commit the shard's pivot views are marked
        stale and ``on_ingest`` fires, so a woken reader sees the rows.
        """
        return self.session.flusher.submit(log_rows, loop_rows, on_written=self._on_written)

    def _on_written(self, count: int) -> None:
        self._engine.note_write()
        if self.on_ingest is not None:
            self.on_ingest(self.name, count)

    def flush(self) -> None:
        """Read-your-writes barrier: every appended row is durable on return."""
        with self.lock:
            self.session.flush()

    def close(self) -> None:
        """Flush pending records, then release the database handle."""
        with self.lock:
            if self.closed:
                return
            self.flush()
            if self.replicas is not None:
                self.replicas.close()
            self.session.close()
            self.closed = True


class DatabasePool:
    """An LRU-capped cache of :class:`ProjectShard` handles under one root.

    Parameters
    ----------
    root:
        Directory holding one project subdirectory per tenant.
    capacity:
        Maximum number of simultaneously open shards (SQLite handles).
    flush_mode:
        ``"async"`` (default) or ``"sync"``, forwarded to each shard's
        :class:`~repro.core.session.Session`.  Appends go straight to the
        session's flusher, so with the default one background writer per
        shard serves both the service's append path and the session's own
        record path.
    backend:
        ``"sqlite"`` (default) stores each shard at
        ``<root>/<name>/.flor/flor.db``; ``"memory"`` builds shards on
        :mod:`repro.storage.memory` backends — zero disk I/O, with shard
        state retained across LRU evictions inside the pool (an evicted
        in-memory shard would otherwise lose its data on close).
    replicas:
        When > 0, each shard carries that many snapshot-shipped read
        replicas (:class:`ShardReplicas`); the service layer routes
        ``dataframe``/``sql`` reads to them with bounded staleness while
        writes stay on the single-owner primary.
    replica_staleness:
        Seconds a replica snapshot may lag before a read re-syncs it.
    shard_factory:
        ``(name) -> ProjectShard`` hook replacing the default construction
        entirely (mainly for tests).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  The pool records its
        own hit/miss/evict churn and hands the registry to each shard's
        flusher so flush latency aggregates across tenants.
    on_ingest:
        Optional ``(tenant, rows) -> None`` hook, invoked after a shard's
        appended batch *commits* (piggybacking on the flusher's
        ``on_written`` ordering).  The service layer points this at its
        :class:`~repro.obs.TailBroker` so tail subscribers wake only for
        rows a backfill query can already see.
    """

    BACKENDS = ("sqlite", "memory")

    def __init__(
        self,
        root: Path | str,
        *,
        capacity: int = 8,
        flush_mode: str | None = None,
        backend: str = "sqlite",
        replicas: int = 0,
        replica_staleness: float = 0.25,
        shard_factory: Callable[[str], ProjectShard] | None = None,
        metrics=None,
        on_ingest: Callable[[str, int], None] | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown pool backend: {backend!r}")
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        self.root = Path(root)
        self.capacity = capacity
        self.flush_mode = flush_mode
        self.backend = backend
        self.replicas = replicas
        self.replica_staleness = replica_staleness
        # backend="memory": shard stores survive LRU eviction here, keyed by
        # tenant name, so a reopened shard sees its full history exactly like
        # a reopened SQLite file would.
        self._retained: dict[str, tuple] = {}
        self._factory = shard_factory or self._default_factory
        self._shards: "OrderedDict[str, ProjectShard]" = OrderedDict()
        self._building: dict[str, threading.Event] = {}
        # Names whose evicted shard is still closing.  A lookup blocks on
        # this the same way it blocks on _building: were the name rebuilt
        # while the old incarnation's close was in flight, a failed close
        # could no longer reinstate the shard — orphaning its queued,
        # already-acknowledged records.
        self._closing: dict[str, threading.Event] = {}
        # Dropped-row counts banked from closed incarnations, per tenant.
        # A shard's flusher counters die with it; summing the bank with the
        # live counter gives each tenant a drop total that is monotone for
        # the pool's lifetime (served by the /stats endpoint).
        self._dropped_banked: dict[str, int] = {}
        self._lock = threading.RLock()
        self._ever_opened: set[str] = set()
        self.stats = PoolStats()
        self.metrics = metrics
        self.on_ingest = on_ingest
        # Resolve the hot-path counters once; get() runs per request and
        # should not pay a registry lookup per hit.
        self._m_hits = metrics.counter("pool.hits") if metrics is not None else None
        self._m_misses = metrics.counter("pool.misses") if metrics is not None else None
        self._m_evictions = metrics.counter("pool.evictions") if metrics is not None else None
        self._m_dropped = metrics.counter("pool.dropped_rows") if metrics is not None else None

    def _default_factory(self, name: str) -> ProjectShard:
        config = ProjectConfig(self.root / name, name)
        if self.backend == "memory":
            from ..storage.memory import MemoryBlobStore, MemoryRelationalStore
            from ..versioning.repository import Repository

            retained = self._retained.get(name)
            if retained is None:
                db = MemoryRelationalStore()
                repository = Repository(None, config.root, store=MemoryBlobStore())
                self._retained[name] = (db, repository)
            else:
                db, repository = retained
            session = Session(
                config,
                db=db,
                repository=repository,
                default_filename=SERVICE_FILENAME,
                flush_mode=self.flush_mode,
            )
        else:
            session = Session(
                config, default_filename=SERVICE_FILENAME, flush_mode=self.flush_mode
            )
        if self.metrics is not None:
            session.flusher.metrics = self.metrics
            session.query.cache.metrics = self.metrics
        shard_replicas = None
        if self.replicas > 0:
            shard_replicas = ShardReplicas(
                session, count=self.replicas, max_staleness=self.replica_staleness
            )
        return ProjectShard(name, session, replicas=shard_replicas, on_ingest=self.on_ingest)

    # ----------------------------------------------------------------- lookup
    def get(self, name: str) -> ProjectShard:
        """Return the shard for ``name``, opening (and maybe evicting) as needed."""
        while True:
            with self._lock:
                shard = self._shards.get(name)
                if shard is not None:
                    self._shards.move_to_end(name)
                    self.stats.hits += 1
                    if self._m_hits is not None:
                        self._m_hits.inc()
                    return shard
                pending = self._building.get(name) or self._closing.get(name)
                if pending is None:
                    opening = threading.Event()
                    self._building[name] = opening
                    self.stats.misses += 1
                    if self._m_misses is not None:
                        self._m_misses.inc()
                    if name in self._ever_opened:
                        self.stats.reopens += 1
                    self._ever_opened.add(name)
                    break
            # Another thread is opening (or closing) this shard; wait and
            # re-check rather than racing a duplicate handle on the same
            # database file.
            pending.wait()
        # Construct outside the pool lock: opening a shard touches the disk
        # (directory layout, SQLite schema) and must not block lookups of
        # unrelated hot shards.
        evicted: list[ProjectShard] = []
        try:
            shard = self._factory(name)
        except BaseException:
            with self._lock:
                self._building.pop(name, None)
            opening.set()
            raise
        with self._lock:
            self._shards[name] = shard
            self._building.pop(name, None)
            while len(self._shards) > self.capacity:
                cold_name, cold = self._shards.popitem(last=False)
                self.stats.evictions += 1
                if self._m_evictions is not None:
                    self._m_evictions.inc()
                self._closing[cold_name] = threading.Event()
                evicted.append(cold)
        opening.set()
        for cold in evicted:
            self._close_evicted(cold)
        return shard

    def _close_evicted(self, shard: ProjectShard) -> None:
        """Close a shard evicted from the cache without losing records.

        If the close fails (the flush raised), the shard's session is still
        open, so it is reinstated into the cache rather than orphaned —
        acknowledged appends stay reachable and the flush is
        retried on the next eviction or :meth:`close`.  The ``_closing``
        reservation taken when the shard was popped guarantees the name was
        not concurrently rebuilt, so reinstating always succeeds.  On a
        successful close the incarnation's dropped-row count is banked so
        the tenant's drop total stays monotone across reopens.
        """
        try:
            shard.close()
        except Exception:
            with self._lock:
                self._shards[shard.name] = shard
                self._shards.move_to_end(shard.name, last=False)
                self.stats.evictions -= 1
                event = self._closing.pop(shard.name, None)
            if event is not None:
                event.set()
            return
        with self._lock:
            self._bank_dropped_locked(shard)
            event = self._closing.pop(shard.name, None)
        if event is not None:
            event.set()

    def _bank_dropped_locked(self, shard: ProjectShard) -> None:
        flusher = getattr(shard.session, "flusher", None)
        if flusher is not None and flusher.stats.dropped_rows:
            self._dropped_banked[shard.name] = (
                self._dropped_banked.get(shard.name, 0) + flusher.stats.dropped_rows
            )
            if self._m_dropped is not None:
                self._m_dropped.inc(flusher.stats.dropped_rows)

    def dropped_rows_total(self, name: str) -> int:
        """Rows dropped by this tenant's writers over the pool's lifetime.

        Monotone while the pool lives: banked counts from closed
        incarnations plus the live shard's counter.  Durability clients
        compare this across a read barrier — unchanged means no
        acknowledged row was shed between the two looks (the chaos
        harness's seal protocol; see ``repro.testing``).
        """
        with self._lock:
            total = self._dropped_banked.get(name, 0)
            shard = self._shards.get(name)
        if shard is not None:
            flusher = getattr(shard.session, "flusher", None)
            if flusher is not None:
                total += flusher.stats.dropped_rows
        return total

    @contextmanager
    def checkout(self, name: str) -> Iterator[ProjectShard]:
        """Yield the shard for ``name`` with its lock held.

        Retries the lookup when the shard was evicted between :meth:`get`
        and lock acquisition, so callers never operate on a closed handle.
        """
        while True:
            shard = self.get(name)
            with shard.lock:
                if shard.closed:
                    continue
                yield shard
                return

    # ------------------------------------------------------------- lifecycle
    def open_shards(self) -> list[str]:
        """Names currently holding an open handle, coldest first."""
        with self._lock:
            return list(self._shards)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._shards

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def evict(self, name: str) -> bool:
        """Close one shard now (flushing first); True if it was open."""
        with self._lock:
            shard = self._shards.pop(name, None)
            if shard is not None:
                self.stats.evictions += 1
                self._closing[name] = threading.Event()
        if shard is None:
            return False
        try:
            shard.close()
        except BaseException:
            # Same contract as LRU eviction: a failed close reinstates the
            # shard (records stay reachable) — but here the failure also
            # propagates, since the caller asked for this specific close.
            with self._lock:
                self._shards[shard.name] = shard
                self._shards.move_to_end(shard.name, last=False)
                self.stats.evictions -= 1
                event = self._closing.pop(name, None)
            if event is not None:
                event.set()
            raise
        with self._lock:
            self._bank_dropped_locked(shard)
            event = self._closing.pop(name, None)
        if event is not None:
            event.set()
        return True

    def close(self) -> None:
        """Flush and close every open shard."""
        with self._lock:
            shards = list(self._shards.values())
            self._shards.clear()
        for shard in shards:
            shard.close()
