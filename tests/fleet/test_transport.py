"""HttpClient unit tests: keep-alive reuse, retry, and error mapping.

The backend counts TCP accepts, which is the observable that matters:
N requests from one thread over a keep-alive client must cost one
connection, not N.
"""

from __future__ import annotations

import socketserver
import threading

import pytest

from repro.errors import TransportError
from repro.fleet import HttpClient
from repro.service.server import make_server
from repro.webapp.framework import HttpError, JsonResponse, Request, WebApp


class _CountingServer:
    """A live WebApp server that counts accepted TCP connections."""

    def __init__(self):
        app = WebApp("counting")
        self.requests = 0

        @app.route("/ping", methods=("GET", "POST"))
        def ping(request: Request):
            self.requests += 1
            return JsonResponse({"pong": True, "body": request.get_json()})

        @app.route("/boom")
        def boom(_request: Request):
            raise HttpError(503, "backend unhappy")

        self.server = make_server(app)
        self.connections = 0
        original = self.server.get_request

        def counting_get_request():
            result = original()
            self.connections += 1
            return result

        self.server.get_request = counting_get_request
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=2)


@pytest.fixture
def backend():
    server = _CountingServer()
    try:
        yield server
    finally:
        server.close()


class _StaleKeepAlive(socketserver.BaseRequestHandler):
    """Answers one request as HTTP/1.1, then closes without saying so."""

    def handle(self):
        self.request.recv(65536)
        body = b'{"pong": true}'
        self.request.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )


@pytest.fixture
def stale_backend():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StaleKeepAlive)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


class TestKeepAlive:
    def test_many_requests_share_one_connection(self, backend):
        with HttpClient(backend.url) as client:
            for _ in range(10):
                assert client.get("/ping").ok
        assert backend.requests == 10
        assert backend.connections == 1

    def test_each_thread_gets_its_own_connection(self, backend):
        with HttpClient(backend.url) as client:
            done = threading.Barrier(3)

            def hammer():
                for _ in range(5):
                    client.get("/ping")
                done.wait()

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            done.wait()
            for thread in threads:
                thread.join()
        assert backend.requests == 10
        # One socket per thread — not one per request, not one shared.
        assert backend.connections == 2

    def test_retries_once_when_the_keepalive_socket_went_stale(self, stale_backend):
        # The server claims HTTP/1.1 keep-alive but silently closes after
        # every response — exactly what a worker restart does to the
        # router's cached connection.  The client must retry each request
        # on a fresh socket instead of surfacing the stale-socket error.
        with HttpClient(stale_backend) as client:
            for _ in range(3):
                assert client.get("/ping").json() == {"pong": True}

    def test_replaced_connections_are_released(self, stale_backend):
        with HttpClient(stale_backend) as client:
            for _ in range(5):
                assert client.get("/ping").ok
            assert len(client._all) == 1


class TestErrors:
    def test_json_helpers_raise_on_http_errors(self, backend):
        with HttpClient(backend.url) as client:
            with pytest.raises(TransportError, match="503"):
                client.get_json("/boom")

    def test_unreachable_host_raises_transport_error(self):
        with HttpClient("http://127.0.0.1:1", timeout=0.5) as client:
            with pytest.raises(TransportError):
                client.get("/ping")

    def test_base_url_must_be_http(self):
        with pytest.raises(TransportError, match="http://host:port"):
            HttpClient("ftp://127.0.0.1:21")

    def test_post_json_round_trips_a_body(self, backend):
        with HttpClient(backend.url) as client:
            body = client.post_json("/ping", {"records": [1, 2, 3]})
        assert body == {"pong": True, "body": {"records": [1, 2, 3]}}
