"""Router streaming tests: SSE relay, header forwarding, telemetry fan-in.

Same harness as test_router.py — a never-started supervisor fronting tiny
in-thread backends on real sockets — but the backends here serve
*streaming* routes, so these tests cover the full relay path: client →
router ``_proxy_stream`` → ``HttpClient.stream`` → backend chunked
response, and back.
"""

from __future__ import annotations

import threading

import pytest

from repro.fleet import FleetRouter, FleetSupervisor
from repro.fleet.transport import HttpClient
from repro.service.server import make_server
from repro.webapp.framework import (
    JsonResponse,
    Request,
    Response,
    StreamingResponse,
    TestClient,
    sse_event,
)


class _StreamApp:
    """Backend serving tail/telemetry shapes, tagged with its own id."""

    def __init__(self, backend_id: str):
        self.backend_id = backend_id

    def handle(self, request: Request) -> Response:
        segments = [s for s in request.path.split("/") if s]
        if segments[-1:] == ["tail"]:
            if segments[0] == "jobs" and segments[1] == "404":
                return JsonResponse({"error": "no job 404"}, status=404)
            if request.query.get("refuse"):
                return JsonResponse(
                    {"error": "too many subscribers"},
                    status=503,
                    headers={"Retry-After": "1.0"},
                )
            last_id = request.headers.get("Last-Event-ID", "")
            backend = self.backend_id

            def generate():
                yield sse_event({"backend": backend, "last_id": last_id}, event="hello", id=1)
                for i in range(2, 5):
                    yield sse_event({"seq": i}, event="log", id=i)
                if request.query.get("explode"):
                    # A worker dying mid-stream surfaces to the router as a
                    # transport error on the relay read.
                    raise RuntimeError("backend crashed mid-stream")

            return StreamingResponse(generate())
        if request.path == "/service/telemetry":
            return JsonResponse(
                {
                    "uptime_seconds": 5.0,
                    "counters": {"flush.rows": 10.0, f"only.{self.backend_id}": 1.0},
                    "gauges": {"flush.pending_rows": 2.0},
                    "histograms": {},
                    "tail": {
                        "streams": 1,
                        "subscribers": 2,
                        "subscribed_total": 3,
                        "evicted_total": 0,
                    },
                    "jobs": {"queued": 1},
                    "open_shards": 1,
                }
            )
        return JsonResponse({"backend": self.backend_id, "path": request.path})


@pytest.fixture
def fleet():
    """Two streaming backends registered as w0/w1 behind a real router."""

    class _FakeProcess:
        pid = 1000

        def poll(self):
            return None

    servers, threads = [], []
    supervisor = FleetSupervisor(lambda wid, url: ["unused"], workers=2)
    for worker_id in ("w0", "w1"):
        server = make_server(_StreamApp(worker_id))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        thread.start()
        servers.append(server)
        threads.append(thread)
        host, port = server.server_address[:2]
        supervisor._handles[worker_id].process = _FakeProcess()
        supervisor.on_register(worker_id, f"http://{host}:{port}", pid=1000)
    router = FleetRouter(supervisor, failover_timeout=0.5)
    try:
        yield supervisor, router, TestClient(router)
    finally:
        router.close()
        for server in servers:
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=2)


class TestTailRelay:
    def test_project_tail_streams_from_the_ring_owner(self, fleet):
        supervisor, _, client = fleet
        events = client.sse("/projects/alpha/tail").collect(timeout=10)
        assert len(events) == 4
        hello = events[0].json()
        assert hello["backend"] == supervisor.route("alpha")
        assert [e.id for e in events] == ["1", "2", "3", "4"]

    def test_relayed_tails_do_not_accumulate_upstream_connections(self, fleet):
        supervisor, router, client = fleet
        for _ in range(20):
            assert len(client.sse("/projects/alpha/tail").collect(timeout=10)) == 4
        upstream = router._client_for(supervisor.url_for(supervisor.route("alpha")))
        assert upstream._all == set()

    def test_last_event_id_header_is_forwarded_upstream(self, fleet):
        _, _, client = fleet
        events = client.sse(
            "/projects/alpha/tail", headers={"Last-Event-ID": "37"}
        ).collect(timeout=10)
        assert events[0].json()["last_id"] == "37"

    def test_job_tail_relays_through_any_worker(self, fleet):
        _, _, client = fleet
        events = client.sse("/jobs/7/tail").collect(timeout=10)
        assert len(events) == 4
        assert events[0].json()["backend"] in ("w0", "w1")

    def test_upstream_refusal_is_relayed_buffered_with_headers(self, fleet):
        _, _, client = fleet
        stream = client.sse("/projects/alpha/tail?refuse=1")
        assert stream.status == 503
        assert stream.headers.get("Retry-After") == "1.0"

    def test_unknown_job_404_passes_through(self, fleet):
        _, _, client = fleet
        assert client.sse("/jobs/404/tail").status == 404

    def test_backend_death_mid_stream_ends_the_relay_cleanly(self, fleet):
        """The subscriber sees a truncated-but-clean stream (EOF), keeps
        its cursor, and reconnects; the router must not blow up or retry
        mid-stream (which could re-frame rows the client already has)."""
        _, _, client = fleet
        events = client.sse("/projects/alpha/tail?explode=1").collect(timeout=10)
        # Everything yielded before the crash was relayed; nothing raised.
        assert [e.id for e in events] == ["1", "2", "3", "4"]

    def test_all_workers_down_is_a_503_with_retry_after(self, fleet):
        supervisor, router, client = fleet
        for worker_id in ("w0", "w1"):
            supervisor.note_unreachable(worker_id)
            supervisor._handles[worker_id].url = "http://127.0.0.1:1"  # nobody listens
        stream = client.sse("/projects/alpha/tail")
        assert stream.status == 503
        assert "Retry-After" in stream.headers


class TestTelemetryFanIn:
    def test_counters_and_tail_sum_across_workers(self, fleet):
        _, _, client = fleet
        body = client.get("/service/telemetry").json()
        assert body["role"] == "router"
        assert body["counters"]["flush.rows"] == 20.0  # 10 from each worker
        assert body["counters"]["only.w0"] == 1.0
        assert body["counters"]["only.w1"] == 1.0
        assert body["gauges"]["flush.pending_rows"] == 4.0
        assert body["tail"] == {
            "streams": 2,
            "subscribers": 4,
            "subscribed_total": 6,
            "evicted_total": 0,
        }
        assert body["jobs"] == {"queued": 1}  # shared store: first answer wins
        assert set(body["workers"]) == {"w0", "w1"}

    def test_dead_worker_shows_an_error_block_not_a_failure(self, fleet):
        supervisor, _, client = fleet
        supervisor._handles["w1"].url = "http://127.0.0.1:1"
        body = client.get("/service/telemetry").json()
        assert body["counters"]["flush.rows"] == 10.0  # only w0 contributes
        assert "error" in body["workers"]["w1"]

    def test_stream_mode_emits_aggregated_snapshots(self, fleet):
        _, _, client = fleet
        events = client.sse("/service/telemetry?stream=1&interval=0.05").collect(
            max_events=2, timeout=10
        )
        assert [e.event for e in events] == ["telemetry", "telemetry"]
        assert events[0].json()["counters"]["flush.rows"] == 20.0

    def test_bad_interval_is_a_400(self, fleet):
        _, _, client = fleet
        assert client.get("/service/telemetry?stream=1&interval=x").status == 400


class TestHttpClientStream:
    def test_stream_reads_chunks_without_buffering_and_closes(self, fleet):
        supervisor, _, _ = fleet
        url = supervisor.url_for("w0")
        with HttpClient(url) as client:
            stream = client.stream("/projects/alpha/tail")
            assert stream.ok
            assert "text/event-stream" in stream.headers.get("Content-Type", "")
            events = stream.sse().collect(timeout=10)
            assert len(events) == 4

    def test_non_2xx_stream_can_be_drained_buffered(self, fleet):
        supervisor, _, _ = fleet
        url = supervisor.url_for("w0")
        with HttpClient(url) as client:
            stream = client.stream("/projects/alpha/tail?refuse=1")
            assert stream.status == 503
            assert b"too many" in stream.read()

    def test_closed_streams_leave_no_connection_behind(self, fleet):
        supervisor, _, _ = fleet
        with HttpClient(supervisor.url_for("w0")) as client:
            assert client.get("/projects/alpha/stats").ok
            for _ in range(20):
                assert len(client.stream("/projects/alpha/tail").sse().collect(timeout=10)) == 4
                client.stream("/projects/alpha/tail?refuse=1").read()
            # Only the thread's keep-alive connection is still held.
            assert len(client._all) == 1

    def test_connect_failure_raises_transport_error(self):
        from repro.errors import TransportError

        with HttpClient("http://127.0.0.1:1", timeout=0.5) as client:
            with pytest.raises(TransportError):
                client.stream("/projects/alpha/tail")
