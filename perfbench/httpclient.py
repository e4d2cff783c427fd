"""Open-loop HTTP load and an SSE reader, on stdlib ``http.client`` only.

Sockets keep ``http.client``'s default options; nothing here tunes
``TCP_NODELAY`` or ``TCP_QUICKACK``, so whatever the server's socket
handling costs shows up in the numbers.

Each connection is driven by one thread that sends a precomputed schedule.
A request is sent at its due time, or as soon as the connection is free if
the previous reply came late; latency is timed from the *due* time, so a
stall also charges the requests queued behind it.  The thread records how
late each send was and the largest number of requests overdue at once.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field

from inputs import Request


@dataclass
class Outcome:
    request: Request
    status: int
    latency_ms: float
    late_ms: float
    #: perf_counter_ns at send and at reply, for client-side spans.
    sent_ns: int
    done_ns: int
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and 200 <= self.status < 300


@dataclass
class LoadResult:
    outcomes: list[Outcome] = field(default_factory=list)
    max_backlog: int = 0


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host, self.port, self.timeout = host, port, timeout
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict[str, str] | None = None) -> tuple[int, bytes]:
        hdrs = {"Content-Type": "application/json"} if body is not None else {}
        hdrs.update(headers or {})
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                self.conn.request(method, path, body=body, headers=hdrs)
                resp = self.conn.getresponse()
                return resp.status, resp.read()
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def run_schedule(conn: Connection, schedule: list[Request], t0: float,
                 result: LoadResult, keep_body: bool = False) -> None:
    """Send ``schedule`` (due times relative to ``t0``) on ``conn``."""
    dues = [t0 + r.due for r in schedule]
    for i, req in enumerate(schedule):
        due = dues[i]
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        # Requests already overdue when this one goes out.
        backlog = 0
        j = i + 1
        while j < len(dues) and dues[j] <= now:
            backlog += 1
            j += 1
        result.max_backlog = max(result.max_backlog, backlog)
        sent_ns = time.perf_counter_ns()
        rid = f"{req.kind}-{i}"
        try:
            status, body = conn.request(req.method, req.path, req.body, {"X-Request-Id": rid})
            error = ""
        except (ConnectionError, http.client.HTTPException, OSError) as exc:
            status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        result.outcomes.append(Outcome(
            request=req, status=status,
            latency_ms=(done - due) * 1e3, late_ms=max(0.0, now - due) * 1e3,
            sent_ns=sent_ns, done_ns=time.perf_counter_ns(),
            body=body if keep_body or status >= 300 else b"",
            error=error or ("" if 200 <= status < 300 else f"HTTP {status}: {body[:200]!r}"),
        ))


def closed_loop(conn: Connection, path: str, n: int) -> list[float]:
    """Round-trip ms of ``n`` back-to-back GETs of ``path`` on ``conn``."""
    times = []
    for _ in range(n):
        started = time.perf_counter()
        status, body = conn.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {body[:200]!r}")
        times.append((time.perf_counter() - started) * 1e3)
    return times


def start_load(conn: Connection, schedule: list[Request], t0: float,
               keep_body: bool = False) -> tuple[threading.Thread, LoadResult]:
    result = LoadResult()
    thread = threading.Thread(target=run_schedule, args=(conn, schedule, t0, result, keep_body),
                              name="perfbench-load", daemon=True)
    thread.start()
    return thread, result


class SseReader:
    """Reads an SSE stream on its own thread, stamping each event's arrival.

    ``events`` holds ``(arrival perf_counter, event id, data dict)`` for
    every ``log`` event.
    """

    def __init__(self, host: str, port: int, path: str, headers: dict[str, str]):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.conn.request("GET", path, headers=headers)
        self.resp = self.conn.getresponse()
        if self.resp.status != 200:
            raise RuntimeError(f"tail {path} -> {self.resp.status}: {self.resp.read()[:200]!r}")
        self.events: list[tuple[float, int, dict]] = []
        self.start_seq: int | None = None
        self.error = ""
        self._started = threading.Event()
        self._stop = False
        self.thread = threading.Thread(target=self._run, name="perfbench-sse", daemon=True)
        self.thread.start()
        if not self._started.wait(30):
            raise RuntimeError("tail stream sent no greeting within 30 s")

    def _run(self) -> None:
        event, ident, data = None, None, []
        try:
            while not self._stop:
                line = self.resp.readline()
                if not line:
                    return
                line = line.decode().rstrip("\r\n")
                if line.startswith(":"):
                    # The greeting names the cursor the stream starts after.
                    if self.start_seq is None and "from seq" in line:
                        self.start_seq = int(line.rsplit(" ", 1)[1])
                        self._started.set()
                    continue
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("id:"):
                    ident = int(line[3:].strip())
                elif line.startswith("data:"):
                    data.append(line[5:].strip())
                elif line == "":
                    if event == "log" and ident is not None:
                        self.events.append((time.perf_counter(), ident, json.loads("\n".join(data))))
                    event, ident, data = None, None, []
        except (OSError, ValueError, http.client.HTTPException) as exc:
            if not self._stop:
                self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._started.set()

    def close(self) -> None:
        """Shut the socket down so the reader thread sees EOF, then close."""
        self._stop = True
        try:
            if self.conn.sock is not None:
                self.conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.thread.join(timeout=10)
        self.conn.close()
