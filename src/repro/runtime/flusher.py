"""Double-buffered background writer for staged log/loop rows.

One :class:`BackgroundFlusher` serves one :class:`~repro.relational.database.
Database` handle.  Producers call :meth:`submit` with insert-ready row tuples
(from :meth:`~repro.runtime.buffer.RecordBuffer.drain_rows` or
``record.as_row()``); the worker thread wakes, takes *every* batch queued
since its last transaction (the double-buffer swap), and writes them all in
a single SQLite transaction.  Under a flush-heavy workload this coalescing
collapses N small transactions into a handful of large ones, which is where
the T10 speedup comes from — SQLite's per-transaction bookkeeping dwarfs the
marginal cost of an extra ``executemany`` row.

Semantics:

* **sync mode** executes each submission inline on the caller's thread in
  one transaction — byte-for-byte the pre-runtime behaviour, used by replay
  sandboxes, tests, and anyone passing ``flush_mode="sync"``.
* **drain()** is the read-your-writes barrier: it returns only once every
  submitted row is durable (or raises the error that prevented it).
* **backpressure**: submitters block once ``max_pending_rows`` rows are
  queued or in flight, bounding memory under a writer that cannot keep up.
* **errors** raised by the worker (or by ``on_written`` callbacks) are
  captured and re-raised on the *recording* thread at the next ``drain`` or
  ``close`` (never from an async ``submit`` — a submit that raised after
  accepting its batch, or before queueing it, would leave the caller unable
  to tell whether those rows are owed a retry).  The rows of the failed
  transaction are dropped — by then the producer has moved on, so
  requeueing could only retry forever.
* **on_written** callbacks run after their batch's transaction commits (the
  query cache's invalidation hook relies on this ordering).
* **close()** drains outstanding batches, stops the worker, and downgrades
  the flusher to inline-sync so late stragglers (atexit commits) still land.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ReproError
from ..storage.protocols import RelationalStore
from ..relational.repositories import INSERT_LOG_SQL, INSERT_LOOP_SQL

SYNC = "sync"
ASYNC = "async"


class FlushCallbackError(ReproError):
    """An ``on_written`` callback raised *after* its transaction committed.

    Distinct from a write failure so callers (``Session.flush``, the
    service's append route) know the rows are durable — retrying the write
    would duplicate them.
    """

#: One queued submission: (log_rows, loop_rows, on_written, row_count).
_Batch = tuple[Sequence[tuple], Sequence[tuple], "Callable[[int], None] | None", int]


@dataclass
class FlushStats:
    """Counters describing a flusher's lifetime behaviour."""

    submitted_batches: int = 0
    submitted_rows: int = 0
    transactions: int = 0
    written_rows: int = 0
    max_coalesced_batches: int = 0
    backpressure_waits: int = 0
    write_retries: int = 0
    dropped_batches: int = 0
    dropped_rows: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted_batches": self.submitted_batches,
            "submitted_rows": self.submitted_rows,
            "transactions": self.transactions,
            "written_rows": self.written_rows,
            "max_coalesced_batches": self.max_coalesced_batches,
            "backpressure_waits": self.backpressure_waits,
            "write_retries": self.write_retries,
            "dropped_batches": self.dropped_batches,
            "dropped_rows": self.dropped_rows,
        }


class BackgroundFlusher:
    """Drain staged rows to SQLite off the recording thread.

    Parameters
    ----------
    db:
        Destination database.  The worker writes through the same handle the
        session reads from, so ``Database.write_version`` staleness probes
        keep working.
    mode:
        ``"async"`` (background worker, lazily started) or ``"sync"``
        (inline execution on the submitting thread).
    max_pending_rows:
        Backpressure bound: submit blocks while this many rows are already
        queued or in flight.
    write_retries / retry_backoff:
        The worker retries a failed transaction this many times (after
        ``retry_backoff`` seconds each) before dropping the batch and
        recording the error — a transient ``SQLITE_BUSY`` from a concurrent
        process should not cost acknowledged rows.  Callback failures are
        never retried (their transaction already committed).
    """

    def __init__(
        self,
        db: RelationalStore,
        *,
        mode: str = ASYNC,
        max_pending_rows: int = 100_000,
        write_retries: int = 2,
        retry_backoff: float = 0.05,
        name: str = "flor-flusher",
    ):
        if mode not in (SYNC, ASYNC):
            raise ValueError(f"unknown flusher mode: {mode!r}")
        if max_pending_rows < 1:
            raise ValueError(f"max_pending_rows must be >= 1, got {max_pending_rows}")
        if write_retries < 0:
            raise ValueError(f"write_retries must be >= 0, got {write_retries}")
        self.db = db
        self.mode = mode
        self.max_pending_rows = max_pending_rows
        self.write_retries = write_retries
        self.retry_backoff = retry_backoff
        self.name = name
        self.stats = FlushStats()
        # Optional observability hook (repro.obs.MetricsRegistry); assigned
        # post-construction by whoever owns a registry (the service's pool).
        # Duck-typed rather than imported so the recording runtime carries no
        # dependency on the observability plane.
        self.metrics = None
        self._cond = threading.Condition()
        self._queue: "deque[_Batch]" = deque()
        self._pending_rows = 0  # queued + in-flight rows (memory bound)
        self._inflight = 0
        self._thread: threading.Thread | None = None
        self._stop = False
        self._closed = False
        self._error: BaseException | None = None

    # ------------------------------------------------------------- inspection
    @property
    def pending_rows(self) -> int:
        """Rows submitted but not yet durable (0 in sync mode)."""
        with self._cond:
            return self._pending_rows

    @property
    def closed(self) -> bool:
        return self._closed

    # ----------------------------------------------------------------- submit
    def submit(
        self,
        log_rows: Sequence[tuple] = (),
        loop_rows: Sequence[tuple] = (),
        on_written: "Callable[[int], None] | None" = None,
    ) -> int:
        """Hand a batch of rows to the writer; returns the row count.

        Async mode returns as soon as the batch is queued (or after blocking
        on backpressure) and never raises deferred worker errors — those
        surface at :meth:`drain`/:meth:`close`, where no batch is in hand to
        be lost or double-submitted.  Sync mode — and any submit after
        :meth:`close` — writes inline, raising this batch's own failure at
        the call site.
        """
        count = len(log_rows) + len(loop_rows)
        if self.mode == SYNC or self._closed:
            self._raise_pending()
            if count:
                self.stats.submitted_batches += 1
                self.stats.submitted_rows += count
                self._write([(log_rows, loop_rows, on_written, count)])
            return count
        with self._cond:
            if not count:
                return 0
            blocked = False
            while self._pending_rows and self._pending_rows + count > self.max_pending_rows:
                if not blocked:
                    self.stats.backpressure_waits += 1
                    blocked = True
                # The timeout is a safety net only; the worker notifies after
                # every transaction (including failed ones, which free rows).
                self._cond.wait(0.1)
            self._queue.append((log_rows, loop_rows, on_written, count))
            self._pending_rows += count
            self.stats.submitted_batches += 1
            self.stats.submitted_rows += count
            self._ensure_worker_locked()
            self._cond.notify_all()
        return count

    # ------------------------------------------------------------------ drain
    def drain(self) -> None:
        """Block until every submitted row is durable; re-raise worker errors."""
        if self.mode == SYNC or self._closed:
            self._raise_pending()
            return
        with self._cond:
            while self._queue or self._inflight:
                self._cond.wait(0.1)
            self._raise_pending_locked()

    def close(self) -> None:
        """Drain, stop the worker, and fall back to inline writes thereafter."""
        with self._cond:
            if self._closed:
                self._raise_pending_locked()
                return
            self._closed = True
            self._stop = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None and thread.is_alive():
            thread.join()
        self._raise_pending()

    # ----------------------------------------------------------------- worker
    def _ensure_worker_locked(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._run, name=self.name, daemon=True)
            self._thread.start()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if not self._queue and self._stop:
                    return
                # Double-buffer swap: take everything queued since the last
                # transaction and write it in one go.
                batches = list(self._queue)
                self._queue.clear()
                self._inflight = sum(batch[3] for batch in batches)
            try:
                attempts = 0
                while True:
                    try:
                        self._write(batches)
                        break
                    except FlushCallbackError as exc:
                        # The transaction committed; retrying would duplicate
                        # every row.  Record the callback failure and move on.
                        with self._cond:
                            if self._error is None:
                                self._error = exc
                        break
                    except BaseException as exc:  # noqa: BLE001 - retried, then surfaced
                        attempts += 1
                        if attempts > self.write_retries:
                            with self._cond:
                                if self._error is None:
                                    self._error = exc
                                # Monotone drop counters, bumped before the
                                # rows are released below: the deferred error
                                # is consumed by whichever drain surfaces it
                                # first, but any observer (the service's
                                # /stats endpoint, the chaos harness's seal
                                # protocol) can still tell that acknowledged
                                # rows were lost on this handle.
                                self.stats.dropped_batches += len(batches)
                                self.stats.dropped_rows += sum(
                                    batch[3] for batch in batches
                                )
                            if self.metrics is not None:
                                self.metrics.inc(
                                    "flush.dropped_rows",
                                    sum(batch[3] for batch in batches),
                                )
                            break
                        self.stats.write_retries += 1
                        time.sleep(self.retry_backoff)
            finally:
                with self._cond:
                    self._pending_rows -= self._inflight
                    self._inflight = 0
                    self._cond.notify_all()

    def _write(self, batches: "list[_Batch]") -> None:
        log_rows = [row for batch in batches for row in batch[0]]
        loop_rows = [row for batch in batches for row in batch[1]]
        if log_rows or loop_rows:
            started = time.perf_counter()
            with self.db.transaction() as connection:
                if log_rows:
                    connection.executemany(INSERT_LOG_SQL, log_rows)
                if loop_rows:
                    connection.executemany(INSERT_LOOP_SQL, loop_rows)
            self.stats.transactions += 1
            self.stats.written_rows += len(log_rows) + len(loop_rows)
            self.stats.max_coalesced_batches = max(self.stats.max_coalesced_batches, len(batches))
            metrics = self.metrics
            if metrics is not None:
                metrics.observe("flush.ms", (time.perf_counter() - started) * 1000.0)
                metrics.inc("flush.rows", len(log_rows) + len(loop_rows))
                metrics.inc("flush.transactions")
                metrics.set("flush.pending_rows", self.pending_rows)
        # Every batch's callback runs even if an earlier one raised: a skipped
        # callback is a skipped query-cache invalidation for rows that *did*
        # commit, which would serve stale views indefinitely.  The first
        # error is re-raised afterwards, wrapped so callers can tell "write
        # failed" (retryable) from "post-commit callback failed" (not).
        callback_error: BaseException | None = None
        for _logs, _loops, on_written, count in batches:
            if on_written is not None and count:
                try:
                    on_written(count)
                except BaseException as exc:  # noqa: BLE001 - isolate callbacks
                    if callback_error is None:
                        callback_error = exc
        if callback_error is not None:
            raise FlushCallbackError(
                f"on_written callback failed after commit: {callback_error}"
            ) from callback_error

    # ----------------------------------------------------------------- errors
    def _raise_pending(self) -> None:
        with self._cond:
            self._raise_pending_locked()

    def _raise_pending_locked(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "BackgroundFlusher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
