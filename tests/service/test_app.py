"""Endpoint round-trip tests for the multi-tenant service app."""

from __future__ import annotations

import threading

import pytest

from repro.service import FlorService
from repro.webapp.framework import TestClient


@pytest.fixture()
def service(tmp_path):
    service = FlorService(tmp_path / "host", pool_capacity=4)
    yield service
    service.close()


@pytest.fixture()
def client(service):
    return TestClient(service.app())


def _append(client, project: str, values, **extra):
    payload = {
        "records": [{"name": "loss", "value": v, "ctx_id": i} for i, v in enumerate(values)]
    }
    payload.update(extra)
    return client.post(f"/projects/{project}/logs", json_body=payload)


class TestAppend:
    def test_bulk_append_is_acknowledged_with_202(self, client):
        response = _append(client, "alpha", [0.5, 0.4])
        assert response.status == 202
        body = response.json()
        assert body["queued"] == 2
        assert set(body) == {"queued", "pending"}
        assert 0 <= body["pending"] <= 2  # rows the flusher has not committed yet

    def test_every_append_is_handed_to_the_writer_on_arrival(self, client, service):
        _append(client, "alpha", [0.5, 0.4])
        _append(client, "alpha", [0.3, 0.2])
        with service.pool.checkout("alpha") as shard:
            # No staging in front of the flusher: draining the flusher alone
            # (not the shard's read barrier) makes both appends durable.
            shard.session.flusher.drain()
            assert shard.session.db.count("logs") == 4

    def test_append_accepts_loop_records(self, client, service):
        response = client.post(
            "/projects/alpha/logs",
            json_body={
                "filename": "train.py",
                "loops": [
                    {"loop_name": "epoch", "loop_iteration": 0, "ctx_id": 1, "iteration_value": "0"}
                ],
            },
        )
        assert response.status == 202
        with service.pool.checkout("alpha") as shard:
            shard.flush()
            assert shard.session.db.count("loops") == 1

    def test_empty_payload_is_rejected(self, client):
        response = client.post("/projects/alpha/logs", json_body={})
        assert response.status == 400

    def test_record_without_name_is_rejected(self, client):
        response = client.post(
            "/projects/alpha/logs", json_body={"records": [{"value": 1.0}]}
        )
        assert response.status == 400
        assert "name" in response.json()["error"]

    def test_malformed_json_body_is_rejected(self, client):
        response = client.post("/projects/alpha/logs", body=b"{not json")
        assert response.status == 400

    def test_non_object_body_is_rejected(self, client):
        response = client.post("/projects/alpha/logs", json_body=[1, 2, 3])
        assert response.status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {"records": [{"name": "x", "ctx_id": "abc"}]},
            {"loops": [{"loop_name": "epoch", "loop_iteration": "two"}]},
            {"loops": [{"loop_name": "epoch", "parent_ctx_id": "root"}]},
        ],
    )
    def test_non_integer_fields_are_a_400_not_a_500(self, client, payload):
        response = client.post("/projects/alpha/logs", json_body=payload)
        assert response.status == 400
        assert "integer" in response.json()["error"]


class TestReads:
    def test_dataframe_reads_its_own_queued_writes(self, client):
        _append(client, "alpha", [0.5])  # may still ride the flusher
        response = client.get("/projects/alpha/dataframe?names=loss")
        assert response.status == 200
        body = response.json()
        assert body["rows"] == 1
        assert "loss" in body["columns"]
        assert body["records"][0]["loss"] == 0.5

    def test_dataframe_requires_names(self, client):
        assert client.get("/projects/alpha/dataframe").status == 400

    def test_sql_select_over_http(self, client):
        _append(client, "alpha", [0.5, 0.4, 0.3])
        response = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs")
        assert response.status == 200
        assert response.json()["records"] == [{"n": 3}]

    def test_sql_pivot_over_names(self, client):
        # Two runs (distinct tstamps) pivot into two rows; run-level logs in
        # the same run collapse into one.
        client.post(
            "/projects/alpha/logs",
            json_body={
                "records": [
                    {"name": "loss", "value": 0.5, "tstamp": "2025-01-01T00:00:00"},
                    {"name": "loss", "value": 0.4, "tstamp": "2025-01-02T00:00:00"},
                ]
            },
        )
        response = client.get(
            "/projects/alpha/sql?q=SELECT MAX(loss) AS worst FROM pivot&names=loss"
        )
        assert response.status == 200
        assert response.json()["records"][0]["worst"] == 0.5

    @pytest.mark.parametrize(
        "statement",
        [
            "DELETE FROM logs",
            "INSERT INTO logs VALUES (1)",
            "UPDATE logs SET value = 0",
            "DROP TABLE logs",
            "PRAGMA journal_mode=DELETE",
            # Smuggled past a prefix check; the authorizer must catch it.
            "WITH t AS (SELECT 1) DELETE FROM logs",
        ],
    )
    def test_writes_over_http_are_rejected(self, client, statement):
        _append(client, "alpha", [0.5])
        response = client.get(f"/projects/alpha/sql?q={statement}")
        assert response.status == 400
        assert "SELECT/WITH" in response.json()["error"]
        # The data survived the attempt.
        count = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs").json()
        assert count["records"] == [{"n": 1}]

    def test_malformed_sql_is_a_400_not_a_500(self, client):
        _append(client, "alpha", [0.5])
        response = client.get("/projects/alpha/sql?q=SELECT * FROM no_such_table")
        assert response.status == 400
        assert "SQL error" in response.json()["error"]

    def test_sql_requires_a_query(self, client):
        _append(client, "alpha", [0.5])
        assert client.get("/projects/alpha/sql").status == 400

    def test_reads_of_unknown_projects_are_404_and_create_nothing(self, client, service):
        for url in (
            "/projects/ghost/sql?q=SELECT 1",
            "/projects/ghost/dataframe?names=loss",
            "/projects/ghost/stats",
        ):
            assert client.get(url).status == 404
        assert not (service.root / "ghost").exists()
        assert "ghost" not in service.pool

    def test_reads_work_once_the_project_exists(self, client):
        _append(client, "alpha", [0.5])
        assert client.get("/projects/alpha/stats").status == 200


class TestCommit:
    def test_commit_flushes_the_queue_and_returns_a_vid(self, client, service):
        _append(client, "alpha", [0.5])
        response = client.post("/projects/alpha/commit", json_body={"message": "run 1"})
        assert response.status == 200
        assert response.json()["vid"]
        with service.pool.checkout("alpha") as shard:
            assert shard.session.pending_records == 0
            assert shard.session.db.count("logs") == 1
            assert shard.session.db.count("ts2vid") == 1

    def test_commit_starts_a_new_epoch(self, client, service):
        _append(client, "alpha", [0.5])
        first = client.post("/projects/alpha/commit", json_body={}).json()
        _append(client, "alpha", [0.4])
        second = client.post("/projects/alpha/commit", json_body={}).json()
        # Unchanged manifests reuse the head vid (several epochs can map to
        # one version id), but each commit opens a fresh timestamp epoch.
        assert first["tstamp"] != second["tstamp"]
        with service.pool.checkout("alpha") as shard:
            assert shard.session.db.count("ts2vid") == 2


class TestTenancy:
    def test_projects_are_physically_isolated(self, client, service):
        _append(client, "alpha", [0.5])
        _append(client, "beta", [0.9, 0.8])
        alpha = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs").json()
        beta = client.get("/projects/beta/sql?q=SELECT COUNT(*) AS n FROM logs").json()
        assert alpha["records"] == [{"n": 1}]
        assert beta["records"] == [{"n": 2}]

    @pytest.mark.parametrize("name", ["..", ".hidden", "a b", "-dash", "sp%40m"])
    def test_invalid_project_names_are_rejected(self, client, name):
        response = client.post(f"/projects/{name}/logs", json_body={"records": [{"name": "x"}]})
        assert response.status == 400

    def test_unknown_route_is_404(self, client):
        assert client.get("/projects/alpha/nope").status == 404

    def test_lru_eviction_is_transparent_to_clients(self, tmp_path):
        service = FlorService(tmp_path / "small", pool_capacity=1)
        try:
            client = TestClient(service.app())
            _append(client, "alpha", [0.5])  # may be in flight when beta evicts alpha
            _append(client, "beta", [0.9])
            count = client.get("/projects/alpha/sql?q=SELECT COUNT(*) AS n FROM logs").json()
            assert count["records"] == [{"n": 1}]
            assert service.pool.stats.evictions >= 1
            assert service.pool.stats.reopens >= 1
        finally:
            service.close()


class TestIntrospection:
    def test_healthz(self, client):
        response = client.get("/healthz")
        assert response.ok and response.json()["status"] == "ok"

    def test_service_stats_reports_pool_state(self, client):
        _append(client, "alpha", [0.5])
        body = client.get("/service/stats").json()
        assert body["open_shards"] == ["alpha"]
        assert body["capacity"] == 4
        assert body["pool"]["misses"] == 1

    def test_project_stats_reports_counts_and_queue(self, client):
        _append(client, "alpha", [0.5])
        client.get("/projects/alpha/sql?q=SELECT 1")  # primary read: drains the writer
        body = client.get("/projects/alpha/stats").json()
        assert body["project"] == "alpha"
        assert body["pending"] == 0  # the flusher's not-yet-durable rows
        assert body["tables"]["logs"] == 1
        assert body["flusher"]["written_rows"] == 1

    def test_project_stats_exposes_the_durability_fields(self, client, service):
        """The seal-protocol surface: a monotone drop total plus the live
        shard's incarnation and flusher counters (see docs/testing.md)."""
        _append(client, "alpha", [0.5])
        body = client.get("/projects/alpha/stats").json()
        assert body["dropped_rows_total"] == 0
        assert body["incarnation"] >= 1
        assert body["flusher"]["dropped_rows"] == 0
        # The total must survive an eviction cycle, not reset with the
        # shard's own counters: simulate a shed batch, evict, reopen.
        service.pool.get("alpha").session.flusher.stats.dropped_rows = 2
        assert service.pool.evict("alpha")
        _append(client, "alpha", [0.6])
        after = client.get("/projects/alpha/stats").json()
        assert after["dropped_rows_total"] == 2
        assert after["flusher"]["dropped_rows"] == 0  # fresh incarnation
        assert after["incarnation"] > body["incarnation"]


class TestConcurrency:
    def test_eight_threads_append_without_loss(self, tmp_path):
        service = FlorService(tmp_path / "conc", pool_capacity=4)
        try:
            client = TestClient(service.app())
            errors = []

            def worker(worker_id: int) -> None:
                project = f"tenant_{worker_id % 2}"
                for i in range(25):
                    response = _append(client, project, [worker_id + i * 0.01])
                    if not response.ok:
                        errors.append(response.status)

            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            total = 0
            for project in ("tenant_0", "tenant_1"):
                body = client.get(
                    f"/projects/{project}/sql?q=SELECT COUNT(*) AS n FROM logs"
                ).json()
                total += body["records"][0]["n"]
            assert total == 8 * 25
        finally:
            service.close()
