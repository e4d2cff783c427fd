"""Tests for the socket-facing HTTP bridge behind ``repro serve``."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.fleet.transport import HttpClient
from repro.service import FlorService
from repro.service.server import make_server, serve
from repro.testing import keepalive_p50_ms

#: A server socket without TCP_NODELAY stalls ~44 ms a request on the
#: client's delayed ACK; with it a request takes under 1 ms, so
#: these bounds hold on a loaded runner.
KEEPALIVE_P50_BOUND_MS = 10.0
FRAME_GAP_BOUND_S = 0.040


@pytest.fixture()
def running_service(tmp_path):
    """A FlorService behind a real socket on an ephemeral port."""
    yield from _serving(FlorService(tmp_path / "host"))


@pytest.fixture()
def sync_service(tmp_path):
    """Like ``running_service``, with appends written inline (sync mode)."""
    yield from _serving(FlorService(tmp_path / "host", flush_mode="sync"))


def _serving(service: FlorService):
    address = {}
    ready = threading.Event()
    stop = threading.Event()

    def on_ready(host: str, port: int) -> None:
        address.update(host=host, port=port)
        ready.set()

    thread = threading.Thread(
        target=serve,
        args=(service.app(),),
        kwargs=dict(port=0, quiet=True, ready=on_ready, shutdown_event=stop),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=5), "server did not come up"
    yield f"http://{address['host']}:{address['port']}", service
    stop.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    service.close()


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url) as response:
        return response.status, json.load(response)


class TestBridge:
    def test_append_and_query_over_a_real_socket(self, running_service):
        base, _ = running_service
        status, body = _post(
            base + "/projects/alpha/logs",
            {"records": [{"name": "loss", "value": 0.5}, {"name": "loss", "value": 0.4, "ctx_id": 1}]},
        )
        assert status == 202
        assert body["queued"] == 2
        status, body = _get(base + "/projects/alpha/sql?q=SELECT%20COUNT(*)%20AS%20n%20FROM%20logs")
        assert status == 200
        assert body["records"] == [{"n": 2}]

    def test_write_sql_is_rejected_with_400(self, running_service):
        base, _ = running_service
        _post(base + "/projects/alpha/logs", {"records": [{"name": "loss", "value": 1.0}]})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/projects/alpha/sql?q=DROP%20TABLE%20logs")
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, running_service):
        base, _ = running_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

    def test_healthz(self, running_service):
        base, _ = running_service
        status, body = _get(base + "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_concurrent_http_clients(self, running_service):
        base, service = running_service
        errors = []

        def worker(worker_id: int) -> None:
            for i in range(10):
                try:
                    _post(
                        base + "/projects/shared/logs",
                        {"records": [{"name": "m", "value": worker_id, "ctx_id": i}]},
                    )
                except Exception as exc:  # noqa: BLE001 - collected for the assertion
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        _, body = _get(base + "/projects/shared/sql?q=SELECT%20COUNT(*)%20AS%20n%20FROM%20logs")
        assert body["records"] == [{"n": 40}]


class TestSocketFloor:
    def test_keepalive_requests_pay_no_socket_stall(self, running_service):
        base, _ = running_service
        assert keepalive_p50_ms(base, "/healthz") < KEEPALIVE_P50_BOUND_MS

    def test_back_to_back_appends_reach_a_tail_without_a_stall(self, sync_service):
        base, _ = sync_service
        shipper, subscriber = HttpClient(base), HttpClient(base)

        def append(value: int) -> None:
            response = shipper.post(
                "/projects/alpha/logs", json_body={"records": [{"name": "m", "value": value}]}
            )
            assert response.ok

        arrivals: dict[str, float] = {}
        caught_up = threading.Event()

        def tail() -> None:
            stream = subscriber.stream("/projects/alpha/tail?keepalive=5")
            for event in stream.sse().events(timeout=10):
                if event.event == "log":
                    arrivals[event.id] = time.perf_counter()
                    caught_up.set()
                    if event.id == "3":
                        return

        try:
            append(0)
            reader = threading.Thread(target=tail, daemon=True)
            reader.start()
            assert caught_up.wait(timeout=10)
            append(1)
            append(2)
            reader.join(timeout=10)
        finally:
            shipper.close()
            subscriber.close()
        assert set(arrivals) == {"1", "2", "3"}
        assert arrivals["3"] - arrivals["2"] < FRAME_GAP_BOUND_S


class TestSyncWriteFailure:
    def test_failed_inline_write_fails_the_append_and_stores_nothing(
        self, sync_service, monkeypatch
    ):
        base, service = sync_service
        shard = service.pool.get("alpha")

        def broken_transaction():
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(shard.session.db, "transaction", broken_transaction)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/projects/alpha/logs", {"records": [{"name": "loss", "value": 0.5}]})
        assert excinfo.value.code == 500
        excinfo.value.close()
        monkeypatch.undo()
        count = base + "/projects/alpha/sql?q=SELECT%20COUNT(*)%20AS%20n%20FROM%20logs"
        assert _get(count)[1]["records"] == [{"n": 0}]
        # Nothing was kept back for a retry: the next append lands alone.
        _post(base + "/projects/alpha/logs", {"records": [{"name": "loss", "value": 0.4}]})
        assert _get(count)[1]["records"] == [{"n": 1}]


class TestMakeServer:
    def test_port_zero_binds_an_ephemeral_port(self, tmp_path):
        service = FlorService(tmp_path / "h2")
        server = make_server(service.app(), port=0)
        try:
            assert server.server_address[1] > 0
        finally:
            server.server_close()
            service.close()
