"""Router-level QoS: one admission point fronting the whole fleet.

Same harness as ``test_router.py`` — in-thread echo backends behind a real
:class:`FleetRouter` — but with a policy store and admission controller
attached.  The properties under test: admission is decided *before* the
proxy hop (a throttled request never reaches a worker), the policy admin
surface lives on the router's control plane, and every denial or outage
answer carries a ``Retry-After``.
"""

from __future__ import annotations

import threading

import pytest

from repro.fleet import FleetRouter, FleetSupervisor
from repro.qos import AdmissionController, PolicyRule, PolicyStore
from repro.service.server import make_server
from repro.webapp.framework import JsonResponse, Request, Response, TestClient


class _CountingEchoApp:
    """Echo backend that counts the requests that actually reached it."""

    def __init__(self, backend_id: str):
        self.backend_id = backend_id
        self.hits = 0

    def handle(self, request: Request) -> Response:
        self.hits += 1
        if request.path == "/service/stats":
            return JsonResponse({"backend": self.backend_id, "open_shards": []})
        return JsonResponse({"backend": self.backend_id, "path": request.path})


class _FakeProcess:
    def __init__(self, pid: int):
        self.pid = pid

    def poll(self):
        return None


@pytest.fixture
def qos_fleet(tmp_path):
    """Two counting echo backends behind a QoS-enforcing router."""
    servers, backends = [], {}
    supervisor = FleetSupervisor(lambda wid, url: ["unused"], workers=2)
    for worker_id in ("w0", "w1"):
        app = _CountingEchoApp(worker_id)
        server = make_server(app)
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        ).start()
        servers.append(server)
        backends[worker_id] = app
        host, port = server.server_address[:2]
        supervisor._handles[worker_id].process = _FakeProcess(1000)
        supervisor.on_register(worker_id, f"http://{host}:{port}", pid=1000)
    policies = PolicyStore.open(tmp_path)
    admission = AdmissionController(policies, refresh_interval=0.0)
    router = FleetRouter(
        supervisor, failover_timeout=0.5, policies=policies, admission=admission
    )
    try:
        yield supervisor, router, TestClient(router), backends
    finally:
        router.close()
        for server in servers:
            server.shutdown()


class TestRouterAdmission:
    def test_throttled_request_never_reaches_a_worker(self, qos_fleet, tmp_path):
        supervisor, router, client, backends = qos_fleet
        router.policies.put(PolicyRule(selector="alpha", rate=1.0, burst=1.0))
        assert client.post("/projects/alpha/logs", json_body={"records": []}).status == 200
        owner = backends[supervisor.route("alpha")]
        hits_before = owner.hits
        denied = client.post("/projects/alpha/logs", json_body={"records": []})
        assert denied.status == 429
        assert float(denied.headers["Retry-After"]) > 0.0
        assert denied.json()["detail"]["reason"] == "rate"
        assert owner.hits == hits_before  # the worker never saw the request

    def test_byte_charge_uses_the_request_body_size(self, qos_fleet):
        _, router, client, _ = qos_fleet
        router.policies.put(PolicyRule(selector="alpha", byte_quota=32, window_seconds=30.0))
        big = client.post(
            "/projects/alpha/logs", json_body={"records": [{"pad": "x" * 64}]}
        )
        assert big.status == 413
        assert big.json()["detail"]["reason"] == "too_large"

    def test_stats_and_read_only_routes_are_never_admitted(self, qos_fleet):
        _, router, client, _ = qos_fleet
        router.policies.put(PolicyRule(selector="alpha", rate=1.0, burst=1.0))
        client.post("/projects/alpha/logs", json_body={"records": []})  # drain the bucket
        for _ in range(3):
            assert client.get("/projects/alpha/stats").status == 200

    def test_project_stats_carry_the_router_qos_view(self, qos_fleet):
        supervisor, router, client, _ = qos_fleet
        router.policies.put(PolicyRule(selector="alpha", rate=5.0))
        client.post("/projects/alpha/logs", json_body={"records": []})
        body = client.get("/projects/alpha/stats").json()
        assert body["worker"] == supervisor.route("alpha")
        assert body["qos"]["admitted"] == 1
        assert body["qos"]["policy"]["selector"] == "alpha"

    def test_aggregated_stats_carry_the_global_qos_view(self, qos_fleet):
        _, router, client, _ = qos_fleet
        router.policies.put(PolicyRule(selector="alpha", rate=1.0, burst=1.0))
        client.post("/projects/alpha/logs", json_body={"records": []})
        client.post("/projects/alpha/logs", json_body={"records": []})  # throttled
        qos = client.get("/service/stats").json()["qos"]
        assert qos["admitted"] == 1
        assert qos["throttled"] == 1
        assert "alpha" in qos["tenants"]

    def test_policy_admin_lives_on_the_router_control_plane(self, qos_fleet):
        _, _, client, backends = qos_fleet
        hits_before = sum(app.hits for app in backends.values())
        assert client.put("/service/policy/team_*", json_body={"rate": 5.0}).status == 200
        conflict = client.put("/service/policy/team_a", json_body={"rate": 50.0})
        assert conflict.status == 409
        assert conflict.json()["detail"]["code"] == "shadowed"
        table = client.get("/service/policy").json()
        assert table["enforcing"] is True
        assert [r["selector"] for r in table["rules"]] == ["team_*"]
        # Policy admin is control-plane work: no backend was consulted.
        assert sum(app.hits for app in backends.values()) == hits_before

    def test_plain_router_has_no_policy_surface(self):
        supervisor = FleetSupervisor(lambda wid, url: ["unused"], workers=1)
        router = FleetRouter(supervisor)
        try:
            client = TestClient(router)
            assert client.get("/service/policy").status == 404
        finally:
            router.close()


class TestFailoverBackoff:
    def test_unreachable_worker_503_carries_retry_after(self, qos_fleet):
        supervisor, _, client, _ = qos_fleet
        victim = supervisor.route("alpha")
        with supervisor._lock:
            handle = supervisor._handles[victim]
            handle.url = "http://127.0.0.1:1"
            handle.ready.clear()
        response = client.post("/projects/alpha/logs", json_body={"records": []})
        assert response.status == 503
        assert float(response.headers["Retry-After"]) > 0.0
