"""Socket-facing adapter: real HTTP requests onto the in-process framework.

:mod:`repro.webapp.framework` is deliberately socket-free (tests and
benchmarks drive apps through :class:`~repro.webapp.framework.TestClient`).
This module is the thin bridge that ``repro serve`` uses to put the same
:class:`~repro.webapp.framework.WebApp` behind a real port, built entirely
on the standard library:

* :func:`make_server` — a :class:`http.server.ThreadingHTTPServer` whose
  handler translates each socket request into a framework
  :class:`~repro.webapp.framework.Request`, dispatches it, and writes the
  framework :class:`~repro.webapp.framework.Response` back.  Thread-per-
  request matches the service layer's locking model (per-shard RLocks).
* :func:`serve` — ``make_server`` + ``serve_forever`` with a clean
  KeyboardInterrupt exit; the CLI calls this.

Unexpected handler exceptions become a 500 JSON error instead of killing
the worker thread, so one bad request never takes the service down.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..webapp.framework import Request, Response, StreamingResponse, WebApp


def _handler_class(app: WebApp, quiet: bool) -> type[BaseHTTPRequestHandler]:
    class FrameworkHTTPHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "flordb-service"
        # TCP_NODELAY on every accepted socket.  A response goes out as
        # two sends (headers, then body) and an SSE stream as one send per
        # frame; under Nagle the second send waits for the ACK of the
        # first, which a keep-alive client delays by ~40 ms.
        disable_nagle_algorithm = True

        def _dispatch(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            parts = urlsplit(self.path)
            query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
            request = Request(
                method=self.command,
                path=parts.path or "/",
                query=query,
                headers={k: v for k, v in self.headers.items()},
                body=body,
            )
            try:
                response = app.handle(request)
            except Exception as exc:  # noqa: BLE001 - keep the worker alive
                response = Response(
                    body=json.dumps({"error": f"internal error: {exc}"}),
                    status=500,
                    headers={"Content-Type": "application/json"},
                )
            if isinstance(response, StreamingResponse):
                self._send_stream(response)
                return
            payload = response.body.encode("utf-8")
            self.send_response(response.status)
            for key, value in response.headers.items():
                self.send_header(key, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _send_stream(self, response: StreamingResponse) -> None:
            """Write an iterator body with chunked transfer encoding.

            Each chunk is flushed as soon as the handler yields it — that
            is the entire point of a streaming response: an SSE tail event
            reaches the subscriber the moment its row commits, not when
            the (never-ending) body completes.  A client that disconnects
            surfaces as a broken pipe on write; the handler closes the
            body iterator (releasing its tail subscription) and drops the
            connection instead of killing the worker thread.
            """
            self.send_response(response.status)
            for key, value in response.headers.items():
                self.send_header(key, value)
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            try:
                for chunk in response.chunks:
                    data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
                    if not data:
                        continue
                    self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
                    self.wfile.flush()
                self.wfile.write(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionError, TimeoutError, OSError):
                # Subscriber went away mid-stream; nothing to answer.
                self.close_connection = True
            except Exception:  # noqa: BLE001 - stream already started; can
                # only terminate it (the status line is long gone).
                self.close_connection = True
            finally:
                response.close()

        do_GET = _dispatch
        do_POST = _dispatch
        do_PUT = _dispatch
        do_DELETE = _dispatch

        def log_message(self, fmt: str, *args) -> None:  # noqa: A003
            if not quiet:
                super().log_message(fmt, *args)

    return FrameworkHTTPHandler


def make_server(
    app: WebApp, host: str = "127.0.0.1", port: int = 0, *, quiet: bool = True
) -> ThreadingHTTPServer:
    """Bind ``app`` to ``host:port`` (port 0 picks a free one) without serving yet."""
    return ThreadingHTTPServer((host, port), _handler_class(app, quiet))


def serve(
    app: WebApp,
    host: str = "127.0.0.1",
    port: int = 8230,
    *,
    quiet: bool = False,
    ready: Callable[[str, int], None] | None = None,
    shutdown_event: threading.Event | None = None,
) -> None:
    """Serve ``app`` until interrupted (or ``shutdown_event`` is set).

    ``ready`` is called with the bound ``(host, port)`` once the socket is
    listening — tests use it to learn the ephemeral port before connecting.
    """
    server = make_server(app, host, port, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]
    if ready is not None:
        ready(str(bound_host), int(bound_port))
    watcher = None
    if shutdown_event is not None:
        watcher = threading.Thread(
            target=lambda: (shutdown_event.wait(), server.shutdown()), daemon=True
        )
        watcher.start()
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if watcher is not None:
            shutdown_event.set()
            watcher.join(timeout=1.0)
