"""WorkerAgent unit tests: registration, heartbeats, and orphan detection.

The orphan detector is the regression of interest: a worker whose
supervisor process died (nothing answers heartbeats anymore) must fire
``on_orphaned`` after the timeout instead of beating into the void
forever — a SIGKILLed harness must not leave immortal worker processes.
A *transient* control-plane outage shorter than the timeout must not.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.fleet.worker import DEFAULT_ORPHAN_TIMEOUT, WorkerAgent
from repro.service.server import make_server
from repro.webapp.framework import JsonResponse, Request, WebApp


def _control_plane():
    """A minimal supervisor stub: accepts register + heartbeat POSTs."""
    app = WebApp("control")
    beats = []

    @app.route("/fleet/register", methods=("POST",))
    def register(request: Request):
        return JsonResponse({"ok": True, "worker": request.get_json()["worker_id"]})

    @app.route("/fleet/heartbeat", methods=("POST",))
    def heartbeat(request: Request):
        beats.append(request.get_json()["worker_id"])
        return JsonResponse({"ok": True})

    server = make_server(app)
    _track_connections(server)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}", beats


def _track_connections(server):
    server.accepted = []
    original = server.get_request

    def tracking_get_request():
        request, addr = original()
        server.accepted.append(request)
        return request, addr

    server.get_request = tracking_get_request


def _stop(server, thread):
    # shutdown() only stops the accept loop; handler threads already
    # parked on a keep-alive connection would keep answering.  A dead
    # *process* takes its sockets with it, so the stub must too.
    server.shutdown()
    for sock in server.accepted:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
    server.server_close()
    thread.join(timeout=2)


def _wait_for(predicate, *, timeout: float, message: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(message)


class TestHeartbeats:
    def test_registers_and_beats(self):
        server, thread, url, beats = _control_plane()
        agent = WorkerAgent("w7", url, interval=0.05)
        try:
            agent.start("http://127.0.0.1:59999")
            _wait_for(lambda: len(beats) >= 3, timeout=5.0,
                      message="expected heartbeats to land")
            assert agent.heartbeat_age() is not None
            assert agent.orphaned_for() is None
            assert agent.info()["id"] == "w7"
        finally:
            agent.stop()
            _stop(server, thread)

    def test_default_orphan_timeout_outlives_supervisor_hung_threshold(self):
        # A live supervisor restarts a silent worker at its heartbeat
        # timeout; the worker must wait comfortably longer before
        # concluding the supervisor itself is dead.
        from repro.fleet.supervisor import DEFAULT_HEARTBEAT_TIMEOUT

        assert DEFAULT_ORPHAN_TIMEOUT >= 2 * DEFAULT_HEARTBEAT_TIMEOUT


class TestOrphanDetection:
    def test_fires_on_orphaned_when_the_control_plane_dies(self):
        server, thread, url, beats = _control_plane()
        orphaned = threading.Event()
        agent = WorkerAgent(
            "w0", url, interval=0.05, orphan_timeout=0.3,
            on_orphaned=orphaned.set,
        )
        try:
            agent.start("http://127.0.0.1:59999")
            _wait_for(lambda: len(beats) >= 2, timeout=5.0,
                      message="expected heartbeats before the outage")
            _stop(server, thread)
            assert orphaned.wait(5.0), "orphan callback never fired"
            assert agent.orphaned_for() is not None
            assert agent.orphaned_for() >= 0.3
        finally:
            agent.stop()

    def test_transient_outage_does_not_orphan(self):
        server, thread, url, beats = _control_plane()
        host, port = server.server_address[:2]
        orphaned = threading.Event()
        agent = WorkerAgent(
            "w0", url, interval=0.05, orphan_timeout=2.0,
            on_orphaned=orphaned.set,
        )
        try:
            agent.start("http://127.0.0.1:59999")
            _wait_for(lambda: len(beats) >= 2, timeout=5.0,
                      message="expected heartbeats before the blip")
            _stop(server, thread)
            _wait_for(lambda: agent.orphaned_for() is not None, timeout=5.0,
                      message="expected failing heartbeats during the blip")
            # Control plane comes back on the same port well inside the
            # orphan timeout: the failure streak must reset, not fire.
            app = WebApp("control2")

            @app.route("/fleet/heartbeat", methods=("POST",))
            def heartbeat(_request: Request):
                return JsonResponse({"ok": True})

            server2 = make_server(app, host=host, port=port)
            _track_connections(server2)
            thread2 = threading.Thread(
                target=server2.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
            )
            thread2.start()
            try:
                _wait_for(lambda: agent.orphaned_for() is None, timeout=5.0,
                          message="expected the failure streak to reset")
                assert not orphaned.is_set()
            finally:
                _stop(server2, thread2)
        finally:
            agent.stop()

    def test_orphan_timeout_none_disables_detection(self):
        orphaned = threading.Event()
        agent = WorkerAgent(
            "w0", "http://127.0.0.1:1", interval=0.02, orphan_timeout=None,
            on_orphaned=orphaned.set,
        )
        # Never registered, so drive the beat loop directly: every beat
        # fails, but with no timeout the loop just keeps trying.
        thread = threading.Thread(target=agent._beat, daemon=True)
        thread.start()
        try:
            time.sleep(0.3)
            assert not orphaned.is_set()
            assert agent.orphaned_for() is not None
        finally:
            agent.stop()
            thread.join(timeout=2)
