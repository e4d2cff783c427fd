"""fleet_tail — appends and a live tail, both through the fleet router.

Why this workload: it is the only one where the router and the tail plane
do the work.  ``repro serve --workers 1`` fronts one worker; open-loop
64-row appends go through the router to a preloaded 200k-row tenant, and
one SSE subscriber tails that tenant through the router, so every publish
re-queries a large shard and is relayed twice.  There are no dataframe
reads: those are serve_mixed's.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from urllib.parse import quote, urlsplit

import checks
import inputs
from common import db_bytes, p50, percentile
from httpclient import Connection, SseReader, closed_loop, start_load
from procs import Server, preload

BIG = "big"
APPEND_RATE = 10.0
BURST = 3
#: Rows per append: the serve default flush size, so every append is
#: flushed and published on arrival.  With smaller appends the tail lag
#: follows the server's 0.5 s flush timer, whose phase no client controls.
ROWS = 64
PROBES = 21
#: Gap between SSE events that starts a new frame (one publish's rows
#: arrive back to back).
FRAME_GAP_S = 0.002
TAIL_PATH = f"/projects/{BIG}/tail?keepalive=1"
# A Last-Event-ID past the watermark is clamped to it: the tail starts
# with the first row appended after subscribing.
TAIL_HEADERS = {"Last-Event-ID": str(10**15)}


def count_after(conn: Connection, seq: int) -> int:
    """Stored rows past ``seq``; ``primary=1`` flushes pending rows first."""
    q = quote(f"SELECT COUNT(*) AS n FROM logs WHERE seq > {int(seq)}")
    return int(conn.get_json(f"/projects/{BIG}/sql?primary=1&q={q}")["records"][0]["n"])


class Fixture:
    def __init__(self, ctx, directory: Path):
        self.tenants = directory / "tenants"
        runs, steps = (4, 50) if ctx.tiny else (100, 500)
        started = time.perf_counter()
        self.preloaded = preload(self.tenants, BIG, runs, steps, ctx.seed)
        booted = time.perf_counter()
        self.server = Server(ctx.src, self.tenants, directory / "server.log", ("--workers", "1"))
        self.server.note_children()
        warm = time.perf_counter()
        self.preload_s, self.boot_s = booted - started, warm - booted
        conn = Connection(self.server.host, self.server.port)
        try:
            count_after(conn, 0)
            SseReader(self.server.host, self.server.port, TAIL_PATH, TAIL_HEADERS).close()
        finally:
            conn.close()
        self.closed = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.server.close()


def setup(ctx, directory: Path) -> Fixture:
    return Fixture(ctx, directory)


def schedule(seed: int, seconds: float) -> list[inputs.Request]:
    rng = random.Random(seed)
    dues = inputs.bursts(APPEND_RATE, BURST, seconds)
    return [
        inputs.Request(due, "POST", f"/projects/{BIG}/logs", inputs.append_body(rng, i, ROWS), "append", BIG, i)
        for i, due in enumerate(dues)
    ]


def measure(ctx, fx: Fixture) -> dict:
    host, port = fx.server.host, fx.server.port
    reader = SseReader(host, port, TAIL_PATH, TAIL_HEADERS)
    start_seq = reader.start_seq
    appends = schedule(ctx.seed, ctx.seconds)
    conn = Connection(host, port)
    t0 = time.perf_counter() + 0.05
    thread, res = start_load(conn, appends, t0)
    thread.join(ctx.seconds + 120)
    window = time.perf_counter() - t0
    errors = []
    if thread.is_alive():
        errors.append("load generator did not finish within the run")
    ok = [o for o in res.outcomes if o.ok]
    stored = count_after(conn, start_seq)
    deadline = time.perf_counter() + 30
    while len(reader.events) < stored and time.perf_counter() < deadline and not reader.error:
        time.sleep(0.01)
    floor, hop = [], []
    if ctx.recorder is not None:
        # Traced run only: back-to-back probes of the router's own route,
        # and of one proxied GET through the router vs straight to the worker.
        floor = closed_loop(conn, "/healthz", PROBES)
        worker = urlsplit(conn.get_json(f"/fleet/resolve?project={BIG}")["url"])
        direct = Connection(worker.hostname, worker.port)
        probe = f"/projects/{BIG}/sql?q={quote('SELECT 1 AS one')}"
        via_router = closed_loop(conn, probe, PROBES)
        straight = closed_loop(direct, probe, PROBES)
        direct.close()
        hop = [p50(via_router) - p50(straight)]
    rss = fx.server.peak_rss_mb()
    reader.close()
    conn.close()
    if reader.error:
        errors.append(f"tail stream failed: {reader.error}")

    seqs = [seq for _, seq, _ in reader.events]
    errors += checks.tail_trail(seqs, start_seq, stored, ROWS * len(ok))
    for o in res.outcomes:
        if not o.ok:
            errors.append(f"{o.request.method} {o.request.path}: {o.error}")
            break

    # Tail lag: due time of an append until its last row arrives.
    arrived: dict[int, float] = {}
    for at, _, data in reader.events:
        index = int(data["ctx_id"])
        arrived[index] = max(arrived.get(index, 0.0), at)
    lags, over_ack = [], []
    for o in ok:
        at = arrived.get(o.request.index)
        if at is None:
            continue
        lags.append((at - (t0 + o.request.due)) * 1e3)
        over_ack.append(at * 1e3 - o.done_ns / 1e6)
    if len(lags) < len(ok):
        errors.append(f"tail: {len(ok) - len(lags)} acknowledged appends never arrived")
    total_rows = fx.preloaded + stored
    outcome = {
        "metrics": {
            "peak_rss_mb": rss,
            "write_p50_ms": p50([o.latency_ms for o in ok]),
            "read_p50_ms": p50(lags) if lags else 0.0,
        },
        "attempted": len(res.outcomes),
        "failed": len(res.outcomes) - len(ok),
        "errors": errors,
        "after_close": lambda: {"stored_bytes_per_row": db_bytes(fx.tenants / BIG) / total_rows},
    }
    if ctx.recorder is not None:
        recorder = ctx.recorder
        recorder.enabled = True
        for o in res.outcomes:
            recorder.add_span("http.append", o.sent_ns, o.done_ns, f"append-{o.request.index}")
        gaps = [b[0] - a[0] for a, b in zip(reader.events, reader.events[1:])]
        frames = 1 + sum(1 for g in gaps if g > FRAME_GAP_S) if reader.events else 0
        outcome["layers"] = {
            "service.server.floor_p50_ms": p50(floor),
            "fleet.router.hop_p50_ms": hop[0],
            "service.append_p90_ms": percentile([o.latency_ms for o in ok], 90),
            "obs.tail.lag_p90_ms": percentile(lags, 90) if lags else 0.0,
            "obs.tail.lag_over_ack_p50_ms": p50(over_ack) if over_ack else 0.0,
            "obs.tail.rows_per_frame": len(reader.events) / frames if frames else 0.0,
            "client.send_late_p90_ms": percentile([o.late_ms for o in res.outcomes], 90),
            "client.max_backlog": res.max_backlog,
            "preload_s": fx.preload_s,
            "boot_s": fx.boot_s,
        }
        outcome["trace_wall_ms"] = window * 1e3
        outcome["trace_report"] = recorder.report(window * 1e3, None)
    return outcome
