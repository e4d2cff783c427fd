"""Tests for the sharded database pool (LRU eviction, reopen, locking)."""

from __future__ import annotations

import threading

import pytest

from repro.relational.records import LogRecord
from repro.runtime import FlushCallbackError
from repro.service.pool import DatabasePool


@pytest.fixture()
def pool(tmp_path):
    pool = DatabasePool(tmp_path / "projects", capacity=2)
    yield pool
    pool.close()


def _log(shard, i: int) -> tuple:
    return LogRecord.create(
        projid=shard.session.projid,
        tstamp=shard.session.tstamp,
        filename="load.py",
        ctx_id=i,
        value_name="m",
        value=i,
    ).as_row()


class TestLookup:
    def test_get_caches_the_handle(self, pool):
        first = pool.get("alpha")
        assert pool.get("alpha") is first
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_each_project_gets_its_own_database(self, pool, tmp_path):
        alpha = pool.get("alpha")
        beta = pool.get("beta")
        assert alpha.session.db is not beta.session.db
        assert (tmp_path / "projects" / "alpha" / ".flor" / "flor.db").exists()
        assert (tmp_path / "projects" / "beta" / ".flor" / "flor.db").exists()

    def test_invalid_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatabasePool(tmp_path, capacity=0)


class TestEviction:
    def test_lru_evicts_the_coldest_shard(self, pool):
        alpha = pool.get("alpha")
        pool.get("beta")
        pool.get("alpha")  # alpha is now hot, beta cold
        pool.get("gamma")  # capacity 2 -> beta evicted
        assert pool.open_shards() == ["alpha", "gamma"]
        assert pool.stats.evictions == 1
        assert not alpha.closed

    def test_eviction_flushes_pending_records(self, pool):
        alpha = pool.get("alpha")
        alpha.append([_log(alpha, 0), _log(alpha, 1)])
        pool.get("beta")
        pool.get("gamma")  # evicts alpha, draining its flusher first
        assert alpha.closed
        # Reopen: the acknowledged records survived the eviction.
        reopened = pool.get("alpha")
        assert reopened is not alpha
        assert reopened.session.db.count("logs") == 2
        assert pool.stats.reopens == 1

    def test_explicit_evict(self, pool):
        shard = pool.get("alpha")
        assert pool.evict("alpha") is True
        assert shard.closed
        assert "alpha" not in pool
        assert pool.evict("alpha") is False

    def test_close_closes_every_shard(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=4)
        shards = [pool.get(name) for name in ("a", "b", "c")]
        pool.close()
        assert all(shard.closed for shard in shards)
        assert len(pool) == 0

    def test_failed_eviction_flush_reinstates_the_shard(self, pool, monkeypatch):
        """A flush failure during eviction must not drop acknowledged records."""
        alpha = pool.get("alpha")
        alpha.append([_log(alpha, 0)])
        attempts = []
        original_flush = alpha.session.flush

        def failing_flush():
            if not attempts:
                attempts.append(1)
                raise RuntimeError("disk hiccup")
            return original_flush()

        monkeypatch.setattr(alpha.session, "flush", failing_flush)
        pool.get("beta")
        pool.get("gamma")  # eviction of alpha: close fails, shard reinstated
        assert not alpha.closed
        assert "alpha" in pool
        alpha.flush()  # records still reachable through the reinstated shard
        assert alpha.session.db.count("logs") == 1
        pool.close()  # second attempt succeeds
        assert alpha.closed

    def test_factory_failure_does_not_wedge_the_pool(self, tmp_path):
        calls = []

        def flaky_factory(name):
            calls.append(name)
            if len(calls) == 1:
                raise RuntimeError("cold start failed")
            return DatabasePool(tmp_path / "p")._default_factory(name)

        pool = DatabasePool(tmp_path / "p", capacity=2, shard_factory=flaky_factory)
        try:
            with pytest.raises(RuntimeError):
                pool.get("alpha")
            # The failed open left no reservation behind; a retry succeeds.
            shard = pool.get("alpha")
            assert not shard.closed
        finally:
            pool.close()

    def test_concurrent_first_opens_share_one_handle(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=4)
        try:
            results = []

            def opener():
                results.append(pool.get("shared"))

            threads = [threading.Thread(target=opener) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({id(shard) for shard in results}) == 1
            assert pool.stats.misses == 1  # only one thread actually opened
        finally:
            pool.close()


class TestCheckout:
    def test_checkout_holds_the_shard_lock(self, pool):
        with pool.checkout("alpha") as shard:
            # The shard lock is re-entrant, so the owning thread re-acquires...
            assert shard.lock.acquire(blocking=False)
            shard.lock.release()
            # ...while another thread cannot.
            acquired = []
            thread = threading.Thread(
                target=lambda: acquired.append(shard.lock.acquire(blocking=False))
            )
            thread.start()
            thread.join()
            assert acquired == [False]

    def test_checkout_retries_after_eviction_race(self, pool):
        stale = pool.get("alpha")
        pool.evict("alpha")  # simulate losing the race: handle closed underneath us
        assert stale.closed
        with pool.checkout("alpha") as shard:
            assert not shard.closed
            assert shard is not stale

    def test_concurrent_appends_land_in_full(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=4)
        try:
            def worker(worker_id: int) -> None:
                for i in range(20):
                    with pool.checkout("shared") as shard:
                        shard.append([_log(shard, worker_id * 100 + i)])

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with pool.checkout("shared") as shard:
                shard.flush()
                assert shard.session.db.count("logs") == 80
        finally:
            pool.close()


class TestAppend:
    def test_append_hands_off_to_the_flusher_and_flush_drains(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", flush_mode="async")
        try:
            shard = pool.get("alpha")
            shard.append([_log(shard, 0), _log(shard, 1)])
            shard.session.flusher.drain()
            assert shard.session.db.count("logs") == 2  # handed off on arrival
            shard.append([_log(shard, 2)])
            shard.flush()  # the explicit flush drains the later batch too
            assert shard.session.db.count("logs") == 3
        finally:
            pool.close()


class TestPostCommitHook:
    """``ProjectShard.append``'s hook runs after the commit, never twice a write."""

    def test_failing_hook_leaves_each_row_stored_once(self, tmp_path):
        def broken_hook(_name, _count):
            raise ValueError("hook broke")

        pool = DatabasePool(tmp_path / "p", flush_mode="sync", on_ingest=broken_hook)
        try:
            shard = pool.get("alpha")
            with pytest.raises(FlushCallbackError, match="hook broke"):
                shard.append([_log(shard, 0), _log(shard, 1)])
            assert shard.session.db.count("logs") == 2  # committed before the hook
            shard.on_ingest = None
            shard.append([_log(shard, 2)])
            shard.flush()
            assert shard.session.db.count("logs") == 3  # no duplicates
        finally:
            pool.close()

    def test_deferred_hook_error_does_not_drop_later_batches(self, tmp_path):
        calls = []

        def flaky_hook(_name, _count):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("hook broke once")

        pool = DatabasePool(tmp_path / "p", flush_mode="async", on_ingest=flaky_hook)
        try:
            shard = pool.get("alpha")
            shard.append([_log(shard, 0), _log(shard, 1)])  # hook will raise post-commit
            shard.append([_log(shard, 2), _log(shard, 3)])  # must not be lost
            shard.append([_log(shard, 4)])
            with pytest.raises(Exception, match="hook broke once"):
                shard.flush()  # the barrier surfaces the deferred hook error
            shard.flush()
            assert shard.session.db.count("logs") == 5  # every row, each once
        finally:
            pool.close()

    def test_hook_fires_after_rows_are_visible(self, tmp_path):
        observed = []
        pool = DatabasePool(tmp_path / "p", flush_mode="async")
        try:
            shard = pool.get("alpha")
            shard.on_ingest = lambda name, count: observed.append(
                (name, count, shard.session.db.count("logs"))
            )
            shard.append([_log(shard, 0), _log(shard, 1)])
            shard.flush()
            # Cache invalidation and tail wakeups run only once the batch
            # is committed.
            assert observed == [("alpha", 2, 2)]
        finally:
            pool.close()


class TestDurabilityCounters:
    """The drop-total and closing-registry machinery behind the seal protocol."""

    def test_dropped_rows_total_is_monotone_across_reopens(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=2, flush_mode="async")
        try:
            first = pool.get("alpha")
            assert pool.dropped_rows_total("alpha") == 0
            first.session.flusher.stats.dropped_rows = 3
            assert pool.dropped_rows_total("alpha") == 3
            assert pool.evict("alpha")  # banks the incarnation's count
            assert pool.dropped_rows_total("alpha") == 3
            second = pool.get("alpha")
            assert second.incarnation > first.incarnation
            assert second.session.flusher.stats.dropped_rows == 0
            assert pool.dropped_rows_total("alpha") == 3  # bank + fresh live
            second.session.flusher.stats.dropped_rows = 2
            assert pool.dropped_rows_total("alpha") == 5
        finally:
            pool.close()

    def test_lru_eviction_banks_drops_too(self, tmp_path):
        pool = DatabasePool(tmp_path / "p", capacity=1, flush_mode="async")
        try:
            pool.get("alpha").session.flusher.stats.dropped_rows = 4
            pool.get("beta")  # capacity 1: alpha evicted via the LRU path
            assert "alpha" not in pool
            assert pool.dropped_rows_total("alpha") == 4
        finally:
            pool.close()

    def test_lookup_waits_out_an_inflight_close_so_reinstating_wins(
        self, pool, monkeypatch
    ):
        """A lookup racing a failing close must get the reinstated shard
        back — not rebuild the name and orphan the old handle's records."""
        alpha = pool.get("alpha")
        entered = threading.Event()
        gate = threading.Event()

        def slow_failing_close():
            entered.set()
            gate.wait(5.0)
            raise RuntimeError("flush died mid-close")

        monkeypatch.setattr(alpha, "close", slow_failing_close)
        evict_failed = []

        def evict():
            try:
                pool.evict("alpha")
            except RuntimeError:
                evict_failed.append(True)

        closer = threading.Thread(target=evict)
        closer.start()
        assert entered.wait(5.0)
        got = []
        looker = threading.Thread(target=lambda: got.append(pool.get("alpha")))
        looker.start()
        looker.join(timeout=0.2)
        assert not got  # parked on the closing reservation, not rebuilding
        gate.set()
        closer.join(timeout=5.0)
        looker.join(timeout=5.0)
        assert evict_failed  # the explicit evict propagated its failure
        assert got == [alpha]  # same handle, reinstated
        assert not alpha.closed
