#!/usr/bin/env python
"""End-to-end smoke test of the worker fleet over real sockets.

What CI runs (and any developer can run locally):

1. boot ``repro serve --workers 2`` — router + supervisor in front, two
   worker subprocesses on ephemeral ports — and wait for full
   registration;
2. find two projects the hash ring places on *different* workers
   (``GET /fleet/resolve``) and ingest a batch to each through the router;
3. SIGKILL one worker by pid, poll ``GET /fleet/workers`` until the
   supervisor has respawned and re-registered the same worker id under a
   new pid, then ingest again and read both projects back with a primary
   read — routing must still resolve identically;
4. check the aggregated ``GET /service/stats`` names every worker with
   its id, owned-shard count and a fresh heartbeat age;
5. time 21 back-to-back keep-alive ``GET /healthz`` through the router,
   and as many proxied project reads, and fail if either p50 reaches
   20 ms (the Nagle/delayed-ACK stall of a socket without
   ``TCP_NODELAY`` costs ~44 ms a request);
6. SIGTERM the supervisor and verify the drain hand-off exits 0.

Exits non-zero with a diagnostic on any failure.  Usage::

    PYTHONPATH=src python tools/fleet_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from urllib.parse import quote

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.testing import FleetProcess, keepalive_p50_ms  # noqa: E402

WORKERS = 2
BATCH = 8
RECOVERY_TIMEOUT = 60.0
KEEPALIVE_P50_BOUND_MS = 20.0


def _ingest(fleet: FleetProcess, project: str, tag: str) -> list[str]:
    values = [f"{tag}.r{i}" for i in range(BATCH)]
    body = fleet.post(
        f"/projects/{project}/logs",
        {
            "filename": "train.py",
            "records": [
                {"name": "metric", "value": value, "ctx_id": i}
                for i, value in enumerate(values)
            ],
        },
    )
    if body["queued"] != BATCH:
        raise AssertionError(f"queued {body['queued']} of {BATCH} records")
    return values


def _stored(fleet: FleetProcess, project: str) -> set[str]:
    fleet.get(f"/projects/{project}/dataframe?names=metric&primary=1")
    query = quote("SELECT value FROM logs WHERE value_name = 'metric'")
    body = fleet.get(f"/projects/{project}/sql?q={query}")
    return {str(record["value"]) for record in body["records"]}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="flor-fleet-smoke-") as tmp:
        root = Path(tmp) / "host"
        with FleetProcess(root, workers=WORKERS) as fleet:
            print(f"fleet up at {fleet.base_url} ({WORKERS} workers)")
            placed = fleet.projects_on_distinct_workers(2)
            (victim_project, victim), (other_project, other) = placed.items()
            print(f"placement: {victim_project}->{victim}, {other_project}->{other}")

            expected = {victim_project: set(), other_project: set()}
            for project in placed:
                expected[project].update(_ingest(fleet, project, "pre"))
            print(f"ingested {BATCH} records to each project through the router")

            old_pid = fleet.kill_worker9(victim)
            print(f"SIGKILLed worker {victim} (pid {old_pid})")
            took = fleet.wait_worker_recovered(victim, old_pid, timeout=RECOVERY_TIMEOUT)
            new_pid = fleet.worker_view(victim)["pid"]
            print(f"supervisor respawned {victim} as pid {new_pid} in {took:.2f}s")

            if fleet.resolve(victim_project) != victim:
                print("FAIL: ring placement changed across the restart", file=sys.stderr)
                return 1
            for project in placed:
                expected[project].update(_ingest(fleet, project, "post"))
            print("post-recovery ingest routed and acknowledged")

            for project in placed:
                stored = _stored(fleet, project)
                # The kill window may eat pre-kill unflushed rows on the
                # victim (they were never sealed); post-recovery rows and
                # the untouched worker's rows must all be present.
                must_have = (
                    {v for v in expected[project] if v.startswith("post")}
                    if project == victim_project
                    else expected[project]
                )
                missing = must_have - stored
                if missing:
                    print(f"FAIL: {project} lost rows {sorted(missing)}", file=sys.stderr)
                    return 1
            print("both projects read back consistent through the router")

            stats = fleet.get("/service/stats")
            for worker_id, worker_stats in stats["workers"].items():
                if "error" in worker_stats:
                    print(f"FAIL: {worker_id} unreachable in aggregation", file=sys.stderr)
                    return 1
                ident = worker_stats["worker"]
                if ident["id"] != worker_id or ident["heartbeat_age"] is None:
                    print(f"FAIL: bad identity block for {worker_id}: {ident}", file=sys.stderr)
                    return 1
                print(
                    f"  {worker_id}: pid {ident['pid']}, "
                    f"{ident['owned_shards']} shards, "
                    f"heartbeat {ident['heartbeat_age']:.2f}s ago"
                )

            for path in ("/healthz", f"/projects/{other_project}/stats"):
                p50 = keepalive_p50_ms(fleet.base_url, path)
                print(f"keep-alive GET {path}: p50 {p50:.2f} ms")
                if p50 >= KEEPALIVE_P50_BOUND_MS:
                    print(
                        f"FAIL: keep-alive p50 {p50:.2f} ms >= {KEEPALIVE_P50_BOUND_MS} ms",
                        file=sys.stderr,
                    )
                    return 1

            code = fleet.terminate()
            if code != 0:
                print(f"FAIL: supervisor exited {code} after SIGTERM", file=sys.stderr)
                return 1
            print("supervisor drained the fleet and exited 0 after SIGTERM")

    print("fleet smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
