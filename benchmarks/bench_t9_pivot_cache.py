"""T9 — Materialized pivot views: warm/incremental vs. cold query latency.

T5 established that a from-scratch ``flor.dataframe`` grows linearly with
log volume — every read pays O(total history).  The query engine
(:mod:`repro.query`) amortizes that: the pivoted view is materialized once,
repeated reads return it outright (warm), and appends merge only the delta
(incremental, re-pivoting just the touched runs).  This benchmark measures
all three tiers at the **largest T5 scale** (8 runs × 500 loops × 4 names)
and asserts the headline claims:

* a warm read and a small-append incremental read are each **≥ 5× faster**
  than a cold rebuild;
* the cached frame is **equal** to a from-scratch rebuild, before and after
  every append (the cache must be invisible except in latency);
* through the service layer, an ingest → read cycle invalidates and
  refreshes the shard's views end-to-end.
"""

from __future__ import annotations

import time

import pytest
from conftest import report

from repro.core.dataframe_view import build_dataframe
from repro.relational.records import LogRecord, LoopRecord
from repro.workloads import LoggingWorkload

#: (runs, loops) sweep; the largest entry is the largest T5 scale, where the
#: speedup floor is asserted.  The smallest is cheap enough for CI smoke.
SCALES = [(2, 100), (8, 500)]
FULL_SCALE = SCALES[-1]
NAMES = ("metric_0", "metric_1", "metric_2")
#: Speedup floor for warm and small-append incremental reads at FULL_SCALE.
SPEEDUP_FLOOR = 5.0


def _timed(fn, repeats: int = 3) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _append_run(session, tstamp: str, loops: int) -> int:
    """Append one fresh run of `loops` epochs directly (as ingestion would)."""
    loop_rows, log_rows = [], []
    for i in range(loops):
        ctx = i + 1
        loop_rows.append(
            LoopRecord(session.projid, tstamp, "train.py", ctx, 0, "epoch", i, str(i))
        )
        for v in range(4):
            log_rows.append(
                LogRecord.create(
                    session.projid, tstamp, "train.py", ctx, f"metric_{v}", i + v * 0.01
                )
            )
    session.loops.add_many(loop_rows)
    session.logs.add_many(log_rows)
    return len(log_rows)


@pytest.mark.parametrize("runs,loops", SCALES, ids=[f"{r}x{l}" for r, l in SCALES])
def test_warm_and_incremental_vs_cold(benchmark, make_session, runs, loops):
    session = make_session(f"t9_{runs}_{loops}")
    workload = LoggingWorkload(runs=runs, loops_per_run=loops, values_per_loop=4)
    workload.populate(session)
    engine = session.query

    def rebuild():
        return build_dataframe(session.db, session.projid, list(NAMES))

    cold_s, rebuilt = _timed(rebuild)

    # Prime the view; the cached result must equal the from-scratch rebuild.
    cached = engine.dataframe(*NAMES)
    assert cached.equals(rebuilt), "cached pivot differs from a cold rebuild"

    warm_s, warm_frame = _timed(lambda: engine.dataframe(*NAMES), repeats=5)
    benchmark.pedantic(lambda: engine.dataframe(*NAMES), rounds=3, iterations=1)
    assert warm_frame.equals(rebuilt)

    # Small append (one fresh 5-epoch run): the realistic "training just
    # logged a bit more" shape — the refresh touches one run only.
    small_delta = _append_run(session, "2025-02-01T00:00:00.000001", loops=5)
    incr_small_s, incr_frame = _timed(lambda: engine.dataframe(*NAMES), repeats=1)
    assert incr_frame.equals(rebuild()), "incremental merge diverged from rebuild"

    # Full-run append: delta cost scales with the delta, not with history;
    # reported for shape, asserted only to beat cold.
    run_delta = _append_run(session, "2025-02-02T00:00:00.000001", loops=loops)
    incr_run_s, incr_frame = _timed(lambda: engine.dataframe(*NAMES), repeats=1)
    assert incr_frame.equals(rebuild()), "incremental merge diverged from rebuild"

    report(
        f"T9: pivot over {workload.record_count} log records ({runs}x{loops})",
        [
            {"tier": "cold rebuild", "ms": cold_s * 1e3, "delta_records": 0},
            {"tier": "warm hit", "ms": warm_s * 1e3, "delta_records": 0},
            {"tier": "incremental (small)", "ms": incr_small_s * 1e3, "delta_records": small_delta},
            {"tier": "incremental (full run)", "ms": incr_run_s * 1e3, "delta_records": run_delta},
        ],
    )
    assert engine.stats.incremental_refreshes >= 2
    if (runs, loops) == FULL_SCALE:
        assert cold_s >= SPEEDUP_FLOOR * warm_s, (
            f"warm read only {cold_s / warm_s:.1f}x faster than cold rebuild"
        )
        assert cold_s >= SPEEDUP_FLOOR * incr_small_s, (
            f"small-append incremental read only {cold_s / incr_small_s:.1f}x faster than cold"
        )
        assert cold_s > incr_run_s, "even a full-run delta must beat a full rebuild"


def test_service_ingest_read_cycle_invalidates_cache(benchmark, tmp_path):
    """End-to-end through HTTP routes: reads stay warm until ingestion writes."""
    from repro.service import FlorService
    from repro.webapp.framework import TestClient

    service = FlorService(tmp_path / "t9_service")
    client = TestClient(service.app())

    def ingest(run: int, count: int = 8) -> None:
        payload = {
            "filename": "train.py",
            "records": [
                {
                    "name": "metric_0",
                    "value": run + i * 0.01,
                    "ctx_id": 0,
                    "tstamp": f"2025-03-{run + 1:02d}T00:00:00",
                }
                for i in range(count)
            ],
        }
        assert client.post("/projects/bench/logs", json_body=payload).ok

    def read() -> dict:
        response = client.get("/projects/bench/dataframe?names=metric_0")
        assert response.ok
        return response.json()

    try:
        ingest(0)
        first = benchmark.pedantic(read, rounds=3, iterations=1)
        assert first["rows"] == 1
        assert read() == first  # warm repeat

        with service.pool.checkout("bench") as shard:
            stats = shard.session.query.stats.as_dict()
        assert stats["cold_builds"] == 1
        assert stats["fast_hits"] + stats["warm_hits"] >= 1

        ingest(1)  # a new run arrives through the append route
        second = read()
        assert second["rows"] == 2

        with service.pool.checkout("bench") as shard:
            stats = shard.session.query.stats.as_dict()
            rebuilt = build_dataframe(shard.session.db, shard.session.projid, ["metric_0"])
            served = shard.session.dataframe("metric_0")
        assert stats["cold_builds"] == 1, "ingest must refresh, not rebuild, the view"
        assert stats["incremental_refreshes"] >= 1
        assert served.equals(rebuilt)
        report(
            "T9: service ingest -> read cycle",
            [{"reads": stats["lookups"], "cold": stats["cold_builds"],
              "incremental": stats["incremental_refreshes"],
              "fast_hits": stats["fast_hits"], "warm_hits": stats["warm_hits"]}],
        )
    finally:
        service.close()
