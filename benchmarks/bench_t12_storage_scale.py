"""T12 — Storage layer at scale: replica reads, cold-tier cache, seam cost.

Three measurements of the pluggable storage layer (``repro.storage``):

* **Replica read scaling** — aggregate dataframe reads/sec from 4 reader
  threads while a writer thread ingests continuously.  The single-handle
  baseline is the service's default read path (flush + read-your-writes on
  the primary connection): every read must merge the writer's fresh delta
  under the shared lock.  Replica routing serves bounded-stale snapshots
  from per-replica connections and materialized views — the per-read merge
  collapses into a per-sync cost paid on the watermark cadence.  Asserted:
  **replicas ≥ 1.5× single-handle** (measured headroom is far larger), and
  the replica watermark converges to the primary's ``MAX(logs.seq)`` once
  the writer quiesces (bounded staleness, not lost writes).
* **Warm archive reads** — cold blobs are packed into append-only archives
  behind an LRU byte cache (``repro gc --tier-cold``).  A warm cold read is
  a dict hit instead of a file open, so it must stay **within 2× of a
  hot-path read** (in practice it is faster).
* **Ingest non-regression** — the T8-shape batched-vs-unbatched sweep runs
  through the refactored protocol seam *with replicas enabled*; batched
  ingestion must still clear the **≥ 5×** floor T8 asserts, proving the
  storage seam and replica plumbing cost the write path nothing.

Assertions fire at full scale only (T5/T9/T10's convention); CI's
smoke-bench job records the smoke-scale trajectory in ``BENCH_*.json``.
"""

from __future__ import annotations

import threading
import time

import pytest
from conftest import report

from repro.relational.records import LogRecord
from repro.service import FlorService
from repro.service.pool import DatabasePool
from repro.storage.tiering import TieredBlobStore
from repro.versioning.objects import ObjectStore
from repro.webapp.framework import TestClient
from repro.workloads import ServiceLoadReport, ServiceWorkload

#: Seconds each read mode runs for (duration-boxed: the single-handle
#: baseline completes few reads under heavy ingest, so a fixed read count
#: would make its leg arbitrarily slow).
READ_DURATIONS = {"smoke": 0.5, "full": 2.0}
READERS = 4
SEED_ROWS = 2_000
WRITER_BATCH = 200

BLOB_SCALES = {"smoke": 40, "full": 150}
BLOB_SIZE = 8_192
BLOB_ROUNDS = 30

INGEST_SCALES = {"smoke": 10, "full": 30}  # requests per client
INGEST_CLIENTS = 8
INGEST_PROJECTS = 4


# ---------------------------------------------------------------- replicas
def _measure_reads(tmp_path, label: str, *, replicas: int, duration: float):
    """Aggregate reads/sec of READERS threads racing a continuous writer."""
    pool = DatabasePool(
        tmp_path / label,
        flush_mode="sync",
        replicas=replicas,
        replica_staleness=0.1,
    )
    shard = pool.get("bench")
    session = shard.session
    for i in range(SEED_ROWS):
        session.log("metric", i * 0.001)
    shard.flush()

    stop = threading.Event()

    def writer() -> None:
        base = 0
        while not stop.is_set():
            rows = [
                LogRecord.create(
                    projid=session.projid,
                    tstamp=session.tstamp,
                    filename="writer.py",
                    ctx_id=0,
                    value_name="metric",
                    value=base + j,
                ).as_row()
                for j in range(WRITER_BATCH)
            ]
            shard.append(rows)
            base += WRITER_BATCH

    counts = [0] * READERS
    deadline = time.perf_counter() + duration

    def read_replica(slot: int) -> None:
        while time.perf_counter() < deadline:
            shard.replicas.dataframe(("metric",))
            counts[slot] += 1

    def read_primary(slot: int) -> None:
        while time.perf_counter() < deadline:
            with shard.lock:  # the pre-replica service read path
                shard.flush()
                session.dataframe("metric")
            counts[slot] += 1

    target = read_replica if replicas else read_primary
    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    time.sleep(0.05)
    readers = [threading.Thread(target=target, args=(slot,)) for slot in range(READERS)]
    start = time.perf_counter()
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    elapsed = time.perf_counter() - start
    stop.set()
    writer_thread.join()

    converged = None
    if replicas:
        shard.flush()
        shard.replicas.refresh()
        primary_seq = session.db.query_one("SELECT COALESCE(MAX(seq), 0) FROM logs")[0]
        converged = shard.replicas.replicated.min_watermark() == primary_seq
        sync_stats = shard.replicas.replicated.stats.as_dict()
    else:
        sync_stats = {}
    pool.close()
    return sum(counts) / elapsed, converged, sync_stats


@pytest.mark.parametrize("scale", sorted(READ_DURATIONS))
def test_replica_reads_scale_under_concurrent_ingest(benchmark, tmp_path, scale):
    duration = READ_DURATIONS[scale]
    primary_rps, _, _ = _measure_reads(
        tmp_path, f"t12_primary_{scale}", replicas=0, duration=duration
    )
    replica_rps, converged, sync_stats = benchmark.pedantic(
        lambda: _measure_reads(
            tmp_path, f"t12_replica_{scale}", replicas=2, duration=duration
        ),
        rounds=1,
        iterations=1,
    )
    scaling = replica_rps / primary_rps if primary_rps else float("inf")
    report(
        f"T12: replica read scaling, {scale} scale ({READERS} readers + 1 writer)",
        [
            {
                "mode": "single-handle",
                "reads_s": primary_rps,
                "syncs": "-",
                "stale_served": "-",
            },
            {
                "mode": "2 replicas",
                "reads_s": replica_rps,
                "syncs": sync_stats.get("syncs", 0),
                "stale_served": sync_stats.get("skipped_syncs", 0),
            },
        ],
    )
    # Bounded staleness, not lost writes: once the writer quiesces and a
    # final snapshot ships, every replica serves the primary's full history.
    assert converged is True
    if scale == "full":
        assert scaling >= 1.5, (
            f"replica-routed reads reached only {scaling:.2f}x the "
            f"single-handle baseline under concurrent ingest"
        )


# ------------------------------------------------------------ cold tiering
@pytest.mark.parametrize("scale", sorted(BLOB_SCALES))
def test_warm_archive_reads_within_bound_of_hot(benchmark, tmp_path, scale):
    blobs = BLOB_SCALES[scale]
    tiered = TieredBlobStore(
        ObjectStore(tmp_path / "objects"),
        tmp_path / "archive",
        cache_bytes=4 * blobs * BLOB_SIZE,
    )
    hot_ids = [
        tiered.put(bytes([i % 251]) * BLOB_SIZE + f"hot{i}".encode())
        for i in range(blobs)
    ]
    cold_ids = [
        tiered.put(bytes([i % 251]) * BLOB_SIZE + f"cold{i}".encode())
        for i in range(blobs)
    ]
    assert tiered.archive(cold_ids) == blobs
    for object_id in cold_ids:  # first touch seeks into the pack
        tiered.get(object_id)

    def sweep(ids) -> float:
        start = time.perf_counter()
        for _ in range(BLOB_ROUNDS):
            for object_id in ids:
                tiered.get(object_id)
        return (time.perf_counter() - start) / (BLOB_ROUNDS * len(ids))

    hot_seconds = sweep(hot_ids)
    warm_seconds = benchmark.pedantic(lambda: sweep(cold_ids), rounds=1, iterations=1)
    ratio = warm_seconds / hot_seconds if hot_seconds else float("inf")
    stats = tiered.stats()
    report(
        f"T12: warm archive vs hot blob reads, {scale} scale",
        [
            {
                "blobs": blobs,
                "hot_us": hot_seconds * 1e6,
                "warm_us": warm_seconds * 1e6,
                "warm_vs_hot_x": ratio,
                "cache_hits": stats["cache_hits"],
                "cache_misses": stats["cache_misses"],
            }
        ],
    )
    if scale == "full":
        assert ratio <= 2.0, (
            f"warm archive-cache reads are {ratio:.2f}x hot-path reads "
            f"(bound: 2.0x)"
        )


# --------------------------------------------------------- ingest no-regress
def _drive_ingest(tmp_path, label: str, *, batch: int, requests: int) -> ServiceLoadReport:
    service = FlorService(
        tmp_path / label,
        pool_capacity=INGEST_PROJECTS,
        flush_mode="sync",
        replicas=2,  # the new read plumbing must not tax the write path
    )
    try:
        workload = ServiceWorkload(
            clients=INGEST_CLIENTS,
            requests_per_client=requests,
            records_per_request=batch,
            projects=INGEST_PROJECTS,
        )
        result = workload.run(TestClient(service.app()))
        assert result.errors == 0
        return result
    finally:
        service.close()


@pytest.mark.parametrize("scale", sorted(INGEST_SCALES))
def test_ingest_throughput_not_regressed_by_storage_seam(benchmark, tmp_path, scale):
    """The T8 headline (batched ≥ 5× unbatched) must survive the refactor."""
    requests = INGEST_SCALES[scale]
    baseline = _drive_ingest(tmp_path, f"t12_i1_{scale}", batch=1, requests=requests)
    batched = benchmark.pedantic(
        lambda: _drive_ingest(tmp_path, f"t12_i64_{scale}", batch=64, requests=requests),
        rounds=1,
        iterations=1,
    )
    speedup = (
        batched.records_per_second / baseline.records_per_second
        if baseline.records_per_second
        else float("inf")
    )
    report(
        f"T12: ingest through the storage seam, {scale} scale "
        f"({INGEST_CLIENTS} clients, replicas on)",
        [
            {
                "batch": 1,
                "records_s": baseline.records_per_second,
                "p99_ms": baseline.percentile(99) * 1e3,
            },
            {
                "batch": 64,
                "records_s": batched.records_per_second,
                "p99_ms": batched.percentile(99) * 1e3,
            },
        ],
    )
    if scale == "full":
        assert speedup >= 5.0, (
            f"batched ingestion through the storage seam reached only "
            f"{speedup:.1f}x the unbatched baseline (T8 asserts 5x)"
        )
