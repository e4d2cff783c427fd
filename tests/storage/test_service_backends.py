"""Service-level behaviour of the pluggable backends: replicas, memory, gc."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.config import ProjectConfig
from repro.core.session import Session
from repro.service import FlorService
from repro.service.pool import DatabasePool
from repro.webapp import TestClient


def _service(tmp_path, **kwargs):
    service = FlorService(tmp_path / "root", flush_mode="sync", **kwargs)
    return service, TestClient(service.app())


def _append(client, name, records):
    response = client.post(
        f"/projects/{name}/logs",
        {"records": [{"name": n, "value": v} for n, v in records]},
    )
    assert response.status == 202
    return response


class TestReplicaRouting:
    def test_replica_reads_carry_a_watermark(self, tmp_path):
        service, client = _service(tmp_path, replicas=2, replica_staleness=0.0)
        try:
            _append(client, "alpha", [("acc", 0.9)])
            client.post("/projects/alpha/commit", {})  # drains the writer
            response = client.get("/projects/alpha/dataframe?names=acc")
            body = response.json()
            assert response.status == 200
            assert body["rows"] == 1
            assert body["watermark"] == 1
        finally:
            service.close()

    def test_replica_reads_are_bounded_stale_not_read_your_writes(self, tmp_path):
        # A huge staleness bound: once synced, the replica legitimately
        # serves the pre-write snapshot, and the watermark says so.
        service, client = _service(tmp_path, replicas=1, replica_staleness=3600.0)
        try:
            client.post("/projects/alpha/commit", {})  # create the tenant
            client.get("/projects/alpha/dataframe?names=acc")  # sync the replica
            _append(client, "alpha", [("acc", 1)])  # committed inline (sync mode)
            first = client.get("/projects/alpha/dataframe?names=acc").json()
            assert first["watermark"] == 0  # the replica has not re-synced yet
            assert first["rows"] == 0
            # Primary read flushes and sees the write immediately.
            primary = client.get("/projects/alpha/dataframe?names=acc&primary=1").json()
            assert primary["rows"] == 1
            assert "watermark" not in primary
        finally:
            service.close()

    def test_sql_routes_to_replicas_with_watermark(self, tmp_path):
        service, client = _service(tmp_path, replicas=2, replica_staleness=0.0)
        try:
            _append(client, "alpha", [("acc", i) for i in range(4)])
            client.get("/projects/alpha/dataframe?names=acc&primary=1")  # flush
            response = client.get(
                "/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs"
            )
            body = response.json()
            assert body["records"] == [{"n": 4}]
            assert body["watermark"] == 4
        finally:
            service.close()

    def test_replica_cache_invalidated_after_sync(self, tmp_path):
        """Regression: SQLite's backup API bypasses the replica's
        write_version, so without the on_sync hook the per-replica pivot
        cache would serve the old materialized view forever."""
        service, client = _service(tmp_path, replicas=1, replica_staleness=0.0)
        try:
            _append(client, "alpha", [("acc", 1)])
            client.post("/projects/alpha/commit", {})
            assert client.get("/projects/alpha/dataframe?names=acc").json()["rows"] == 1
            _append(client, "alpha", [("acc", 2)])
            client.post("/projects/alpha/commit", {})
            body = client.get("/projects/alpha/dataframe?names=acc").json()
            assert body["rows"] == 2
            assert body["watermark"] == 2
        finally:
            service.close()

    def test_stats_surface_replica_counters(self, tmp_path):
        service, client = _service(tmp_path, replicas=2, replica_staleness=0.0)
        try:
            _append(client, "alpha", [("acc", 1)])
            client.get("/projects/alpha/dataframe?names=acc")
            stats = client.get("/projects/alpha/stats").json()
            assert stats["replicas"]["replica_reads"] >= 1
            assert client.get("/service/stats").json()["replicas"] == 2
        finally:
            service.close()


class TestMemoryBackend:
    def test_zero_disk_io(self, tmp_path):
        pool = DatabasePool(tmp_path / "root", backend="memory", flush_mode="sync")
        shard = pool.get("beta")
        shard.session.log("acc", 0.9)
        shard.flush()
        assert shard.session.db.count("logs") == 1
        pool.close()
        assert not (tmp_path / "root").exists()

    def test_eviction_retains_shard_state(self, tmp_path):
        pool = DatabasePool(
            tmp_path / "root", backend="memory", flush_mode="sync", capacity=1
        )
        shard = pool.get("beta")
        shard.session.log("acc", 1)
        shard.flush()
        pool.get("gamma")  # evicts beta (capacity 1)
        reopened = pool.get("beta")
        assert reopened.session.db.count("logs") == 1
        pool.close()

    def test_memory_service_end_to_end(self, tmp_path):
        service, client = _service(tmp_path, backend="memory")
        try:
            _append(client, "beta", [("x", 1), ("y", 2)])
            body = client.get("/projects/beta/dataframe?names=x,y").json()
            assert body["rows"] == 1  # one run context -> one pivot row
            counted = client.get(
                "/projects/beta/sql?q=SELECT COUNT(*) AS n FROM logs"
            ).json()
            assert counted["records"] == [{"n": 2}]
        finally:
            service.close()
        assert not (tmp_path / "root").exists()

    def test_composes_with_replicas(self, tmp_path):
        service, client = _service(tmp_path, backend="memory", replicas=2, replica_staleness=0.0)
        try:
            _append(client, "beta", [("x", 1)])
            client.get("/projects/beta/dataframe?names=x&primary=1")  # flush
            body = client.get("/projects/beta/dataframe?names=x").json()
            assert body["rows"] == 1
            assert body["watermark"] == 1
        finally:
            service.close()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatabasePool(tmp_path / "root", backend="papyrus")


class TestGcTierCold:
    def _project_with_epochs(self, tmp_path, epochs=4):
        root = tmp_path / "proj"
        session = Session(ProjectConfig(root, "gcproj"), default_filename="train.py")
        script = root / "train.py"
        vids = []
        for epoch in range(epochs):
            script.write_text(f"print('version {epoch}')\n")
            session.repository.track("train.py")
            session.log("epoch", epoch)
            vids.append(session.commit(f"epoch {epoch}"))
        session.close()
        return root, vids

    def test_gc_archives_cold_blobs_and_history_stays_readable(self, tmp_path, capsys):
        root, vids = self._project_with_epochs(tmp_path, epochs=4)
        assert main(["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "archived: 3 blob(s)" in out
        # Every historical version — including the archived ones — still reads.
        session = Session(ProjectConfig(root, "gcproj"), default_filename="train.py")
        try:
            for epoch, vid in enumerate(vids):
                assert f"version {epoch}" in session.repository.read_file(vid, "train.py")
        finally:
            session.close()

    def test_dry_run_moves_nothing(self, tmp_path, capsys):
        root, _ = self._project_with_epochs(tmp_path, epochs=3)
        assert main(
            ["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would archive: 2 blob(s)" in out
        assert not (root / ".flor" / "objects" / "archive").exists()

    def test_gc_without_tier_cold_is_a_noop(self, tmp_path, capsys):
        root, _ = self._project_with_epochs(tmp_path, epochs=2)
        assert main(["--project", str(root), "gc"]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_second_pass_archives_nothing_new(self, tmp_path, capsys):
        root, _ = self._project_with_epochs(tmp_path, epochs=3)
        main(["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1"])
        capsys.readouterr()
        assert main(["--project", str(root), "gc", "--tier-cold", "--keep-epochs", "1"]) == 0
        assert "archived: 0 blob(s)" in capsys.readouterr().out
