"""serve_mixed — one ``repro serve`` with writes beside reads.

Why this workload: it puts appends and reads side by side on the service's
socket, HTTP, shard pool and query layers.  One connection carries
open-loop 16-row appends over 12 tenants with a seeded Zipf skew, more
tenants than the pool's 8 resident shards, so shards are evicted and
reopened; a quarter of the appends go to a preloaded 200k-row tenant, which
keeps it resident (a cold read of it stalls the whole server for seconds
and the open loop would fall behind).  A
second connection carries open-loop dashboard refreshes: an SQL aggregate
on a random small tenant, the frame of the busiest small tenant and
``latest=1`` on the big tenant, sent together,
plus ``/healthz`` on every fourth refresh.  There is no tail subscriber and
no router.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from urllib.parse import quote

import checks
import inputs
from common import db_bytes, p50, percentile
from httpclient import Connection, closed_loop, start_load
from procs import Server, preload

BIG = "t00"
TENANTS = inputs.tenant_names(12)
POOL_CAPACITY = 8  # the serve default; the client models its LRU to label cold appends
APPEND_RATE = 10.0  # requests/s on the append connection
REFRESH_PERIOD = 1.25  # seconds between dashboard refreshes on the read connection
REFRESH_OFFSET = 0.1  # refreshes fall between append bursts
BURST = 3  # appends due together (see inputs.bursts)
FLOOR_PROBES = 21
BIG_SHARE = 0.25
#: One dashboard refresh, in send order; ``/healthz`` rides every fourth.
PANELS = ("sql_agg", "small_frame", "big_latest")
HEALTHZ_EVERY = 4
SQL_AGG = "SELECT value_name, COUNT(*) AS n, MAX(seq) AS last FROM logs GROUP BY value_name"


def read_path(shape: str, tenant: str) -> str:
    if shape == "big_latest":
        return f"/projects/{BIG}/dataframe?names=loss,acc&latest=1"
    if shape == "small_frame":
        return f"/projects/{tenant}/dataframe?names=loss,acc"
    if shape == "sql_agg":
        return f"/projects/{tenant}/sql?q={quote(SQL_AGG)}"
    return "/healthz"


class Fixture:
    def __init__(self, ctx, directory: Path):
        self.tenants = directory / "tenants"
        big_runs, steps, small_runs = (4, 50, 2) if ctx.tiny else (100, 500, 4)
        started = time.perf_counter()
        self.preloaded = {BIG: preload(self.tenants, BIG, big_runs, steps, ctx.seed)}
        for i, name in enumerate(TENANTS[1:]):
            self.preloaded[name] = preload(self.tenants, name, small_runs, 50, ctx.seed * 100 + i)
        booted = time.perf_counter()
        self.server = Server(ctx.src, self.tenants, directory / "server.log")
        warm = time.perf_counter()
        self.preload_s, self.boot_s = booted - started, warm - booted
        conn = Connection(self.server.host, self.server.port)
        try:
            for shape in (*PANELS, "healthz"):
                status, body = conn.request("GET", read_path(shape, TENANTS[1]))
                if status != 200:
                    raise RuntimeError(f"warm-up {shape} -> {status}: {body[:200]!r}")
        finally:
            conn.close()
        self.closed = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.server.close()


def setup(ctx, directory: Path) -> Fixture:
    return Fixture(ctx, directory)


def schedules(seed: int, seconds: float) -> tuple[list[inputs.Request], list[inputs.Request]]:
    rng = random.Random(seed)
    dues = inputs.bursts(APPEND_RATE, BURST, seconds)
    targets = inputs.skewed_tenants(rng, TENANTS, len(dues), BIG, BIG_SHARE)
    appends = [
        inputs.Request(due, "POST", f"/projects/{t}/logs", inputs.append_body(rng, i), "append", t, i)
        for i, (due, t) in enumerate(zip(dues, targets))
    ]
    busiest = max(sorted(set(targets) - {BIG}), key=targets.count)
    reads = []
    for k in range(max(1, int(seconds / REFRESH_PERIOD))):
        due = REFRESH_OFFSET + k * REFRESH_PERIOD
        shapes = PANELS + (("healthz",) if k % HEALTHZ_EVERY == HEALTHZ_EVERY - 1 else ())
        for shape in shapes:
            tenant = busiest if shape == "small_frame" else rng.choice(TENANTS[1:])
            reads.append(inputs.Request(due, "GET", read_path(shape, tenant), None, shape, tenant))
    return appends, reads


def cold_appends(appends, reads) -> set[int]:
    """Append indexes whose tenant was not among the pool's most recently
    used shards when sent, replaying both connections in due-time order."""
    events = sorted(
        [(o.request.due, o.request.tenant or BIG, o.request.index) for o in appends]
        + [(o.request.due, BIG if o.request.kind == "big_latest" else o.request.tenant, -1)
           for o in reads if o.request.kind != "healthz"]
    )
    recent: list[str] = []
    cold = set()
    for _, tenant, index in events:
        if index >= 0 and tenant not in recent:
            cold.add(index)
        if tenant in recent:
            recent.remove(tenant)
        recent.append(tenant)
        del recent[:-POOL_CAPACITY]
    return cold


def measure(ctx, fx: Fixture) -> dict:
    appends, reads = schedules(ctx.seed, ctx.seconds)
    host, port = fx.server.host, fx.server.port
    aconn, rconn = Connection(host, port), Connection(host, port)
    t0 = time.perf_counter() + 0.05
    athread, ares = start_load(aconn, appends, t0)
    rthread, rres = start_load(rconn, reads, t0, keep_body=True)
    athread.join(ctx.seconds + 120)
    rthread.join(ctx.seconds + 120)
    window = time.perf_counter() - t0
    errors = []
    if athread.is_alive() or rthread.is_alive():
        errors.append("load generator did not finish within the run")

    acked = {t: 0 for t in TENANTS}
    for o in ares.outcomes:
        if o.ok:
            acked[o.request.tenant] += 1
    # Read barrier: an SQL read with primary=1 flushes the tenant's pending rows first.
    stored = {}
    for tenant in TENANTS:
        result = aconn.get_json(f"/projects/{tenant}/sql?primary=1&q={quote('SELECT COUNT(*) AS n FROM logs')}")
        stored[tenant] = int(result["records"][0]["n"])
    expected = {t: fx.preloaded[t] + inputs.ROWS_PER_APPEND * acked[t] for t in TENANTS}
    errors += checks.acked_equals_stored(expected, stored)
    # Traced run only: the round-trip floor of back-to-back requests.
    floor = closed_loop(aconn, "/healthz", FLOOR_PROBES) if ctx.recorder is not None else []
    rss = fx.server.peak_rss_mb()
    aconn.close()
    rconn.close()
    for o in ares.outcomes + rres.outcomes:
        if not o.ok:
            errors.append(f"{o.request.method} {o.request.path}: {o.error}")
            break

    ok_appends = [o for o in ares.outcomes if o.ok]
    data_reads = [o for o in rres.outcomes if o.ok and o.request.kind != "healthz"]
    failed = sum(1 for o in ares.outcomes + rres.outcomes if not o.ok)
    total_rows = sum(stored.values())
    metrics = {
        "peak_rss_mb": rss,
        "write_p50_ms": p50([o.latency_ms for o in ok_appends]),
        "read_p50_ms": p50([o.latency_ms for o in data_reads]),
    }
    outcome = {
        "metrics": metrics,
        "attempted": len(ares.outcomes) + len(rres.outcomes),
        "failed": failed,
        "errors": errors,
        "after_close": lambda: {
            "stored_bytes_per_row": sum(db_bytes(fx.tenants / t) for t in TENANTS) / total_rows
        },
    }
    if ctx.recorder is not None:
        outcome["layers"] = layer_metrics(ctx.recorder, fx, ares, rres, p50(floor))
        outcome["trace_wall_ms"] = window * 1e3
        outcome["trace_report"] = ctx.recorder.report(window * 1e3, None)
    return outcome


def service_ms(o) -> float:
    return (o.done_ns - o.sent_ns) / 1e6


def layer_metrics(recorder, fx, ares, rres, floor: float) -> dict[str, float]:
    recorder.enabled = True
    for o in ares.outcomes + rres.outcomes:
        recorder.add_span(f"http.{o.request.kind}", o.sent_ns, o.done_ns, f"{o.request.kind}-{o.request.index}")
    ok_appends = [o for o in ares.outcomes if o.ok]
    cold = cold_appends(ok_appends, [o for o in rres.outcomes if o.ok])
    layers = {
        "service.server.floor_p50_ms": floor,
        "service.append_over_floor_p50_ms": p50([service_ms(o) for o in ok_appends]) - floor,
        "service.pool.cold_tenant_append_p50_ms": _p50_or_0([service_ms(o) for o in ok_appends if o.request.index in cold]),
        "service.pool.hot_tenant_append_p50_ms": _p50_or_0([service_ms(o) for o in ok_appends if o.request.index not in cold]),
        "service.append_p90_ms": percentile([o.latency_ms for o in ok_appends], 90),
        "service.read_p90_ms": percentile([o.latency_ms for o in rres.outcomes if o.ok and o.request.kind != "healthz"], 90),
        "client.send_late_p90_ms": percentile([o.late_ms for o in ares.outcomes + rres.outcomes], 90),
        "client.max_backlog": max(ares.max_backlog, rres.max_backlog),
        "preload_s": fx.preload_s,
        "boot_s": fx.boot_s,
    }
    for shape in PANELS:
        layers[f"service.read_{shape}_p50_ms"] = _p50_or_0(
            [o.latency_ms for o in rres.outcomes if o.ok and o.request.kind == shape])
    bodies = [len(o.body) for o in rres.outcomes if o.ok and o.request.kind != "healthz"]
    layers["service.response_bytes_per_read"] = sum(bodies) / len(bodies) if bodies else 0.0
    return layers


def _p50_or_0(values: list[float]) -> float:
    return p50(values) if values else 0.0
