"""T15 — Multi-tenant QoS: admission control isolates cold tenants from hot ones.

A 10:1 hot/cold tenant mix drives the QoS-enabled service: the hot tenant
hammers the bulk-append endpoint from several threads while the cold
tenant trickles requests.  With a rate policy on the hot tenant the
admission layer answers its excess with ``429`` + ``Retry-After`` (never
queuing it), so the cold tenant's p99 append latency stays within an
asserted bound instead of queueing behind the flood.

Claims asserted:

* the hot tenant is actually throttled (positive 429 count) while the
  cold tenant is never throttled and sees zero errors;
* cold-tenant p99 append latency stays under ``COLD_P99_BOUND_S``;
* with QoS disabled the admission hook is a no-op — the T8-style
  throughput run shows no throttles and no measurable regression versus
  a QoS-enabled-but-unlimited service (the policy table alone must not
  tax the hot path).
"""

from __future__ import annotations

import threading
import time

from conftest import report

from repro.qos import PolicyRule
from repro.service import FlorService
from repro.webapp.framework import TestClient
from repro.workloads import ServiceLoadReport, ServiceWorkload

HOT_THREADS = 4
HOT_REQUESTS_PER_THREAD = 60
COLD_REQUESTS = 40
#: Sustained rate allowed to the hot tenant — far below its offered load.
HOT_RATE = 40.0
HOT_BURST = 10.0
#: The fairness bound: cold-tenant p99 append latency with the hot tenant
#: flooding.  In-process transport, so the bound is pure service time.
COLD_P99_BOUND_S = 0.25


class _TenantDriver(threading.Thread):
    """Posts ``requests`` appends for one tenant, honoring 429 backoff."""

    def __init__(self, client, project: str, requests: int, pause: float = 0.0):
        super().__init__(daemon=True)
        self.client = client
        self.url = f"/projects/{project}/logs"
        self.requests = requests
        self.pause = pause
        self.latencies: list[float] = []
        self.throttles = 0
        self.gave_up = 0  #: still 429 after the retry budget — client's choice
        self.errors = 0  #: non-throttle failures; always a bug

    def run(self) -> None:
        for i in range(self.requests):
            payload = {"records": [{"name": "metric", "value": float(i), "ctx_id": i}]}
            attempt = 0
            while True:
                started = time.perf_counter()
                response = self.client.post(self.url, json_body=payload)
                if response.status == 429 and attempt < 6:
                    self.throttles += 1
                    retry_after = float(response.headers.get("Retry-After", "0.05"))
                    time.sleep(min(retry_after, 0.25))
                    attempt += 1
                    continue
                self.latencies.append(time.perf_counter() - started)
                if response.status == 429:
                    self.gave_up += 1
                elif not response.ok:
                    self.errors += 1
                break
            if self.pause:
                time.sleep(self.pause)

    def percentile(self, p: float) -> float:
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


def _run_mix(tmp_path, name: str, *, qos: bool):
    service = FlorService(
        tmp_path / name, qos=qos
    )
    try:
        if qos:
            service.policies.put(PolicyRule(selector="hot", rate=HOT_RATE, burst=HOT_BURST))
        client = TestClient(service.app())
        hot = [
            _TenantDriver(client, "hot", HOT_REQUESTS_PER_THREAD)
            for _ in range(HOT_THREADS)
        ]
        cold = _TenantDriver(client, "cold", COLD_REQUESTS, pause=0.005)
        for driver in (*hot, cold):
            driver.start()
        for driver in (*hot, cold):
            driver.join()
        hot_stats = {
            "throttles": sum(d.throttles for d in hot),
            "gave_up": sum(d.gave_up for d in hot),
            "errors": sum(d.errors for d in hot),
        }
        snapshot = service.admission.snapshot() if service.admission else None
        return hot_stats, cold, snapshot
    finally:
        service.close()


def test_cold_tenant_p99_bounded_while_hot_is_throttled(benchmark, tmp_path):
    """10:1 hot/cold mix: hot throttled with 429s, cold p99 within bound."""
    hot_stats, cold, snapshot = benchmark.pedantic(
        lambda: _run_mix(tmp_path, "t15_qos", qos=True), rounds=1, iterations=1
    )
    cold_p99 = cold.percentile(99)
    report(
        "T15: hot/cold isolation under admission control (10:1 offered load)",
        [
            {
                "tenant": "hot",
                "throttles": hot_stats["throttles"],
                "gave_up": hot_stats["gave_up"],
                "errors": hot_stats["errors"],
                "admitted": snapshot["tenants"]["hot"]["admitted"],
            },
            {
                "tenant": "cold",
                "throttles": cold.throttles,
                "gave_up": cold.gave_up,
                "errors": cold.errors,
                "admitted": snapshot["tenants"]["cold"]["admitted"],
                "p99_ms": cold_p99 * 1e3,
            },
        ],
    )
    assert hot_stats["throttles"] > 0, "hot tenant was never throttled — the policy did nothing"
    assert hot_stats["errors"] == 0, "hot tenant saw non-throttle failures"
    assert (
        cold.throttles == 0 and cold.gave_up == 0 and cold.errors == 0
    ), "cold tenant was collateral damage"
    assert cold_p99 < COLD_P99_BOUND_S, (
        f"cold-tenant p99 {cold_p99 * 1e3:.1f}ms breached the "
        f"{COLD_P99_BOUND_S * 1e3:.0f}ms fairness bound"
    )
    assert snapshot["throttled"] >= hot_stats["throttles"]


def test_qos_off_has_no_throughput_tax(benchmark, tmp_path):
    """The T8 regression guard: disabled QoS must not slow the append path.

    ``qos=False`` leaves ``service.admission`` as ``None`` and the hook
    returns immediately; an enabled-but-unlimited service pays one bucket
    lookup per request.  Neither run may throttle, and the disabled run
    must not fall measurably behind the enabled one (it runs strictly
    less code).
    """

    def drive(name: str, *, qos: bool) -> ServiceLoadReport:
        service = FlorService(
            tmp_path / name, qos=qos
        )
        try:
            workload = ServiceWorkload(
                clients=4, requests_per_client=40, records_per_request=16, projects=2
            )
            return workload.run(TestClient(service.app()))
        finally:
            service.close()

    unlimited = drive("t15_qos_on", qos=True)
    plain = benchmark.pedantic(
        lambda: drive("t15_qos_off", qos=False), rounds=1, iterations=1
    )
    report(
        "T15: append throughput with QoS off vs on-but-unlimited",
        [
            {
                "mode": mode,
                "records_s": result.records_per_second,
                "throttles": result.throttles,
                "errors": result.errors,
                "p99_ms": result.percentile(99) * 1e3,
            }
            for mode, result in (("off", plain), ("on-unlimited", unlimited))
        ],
    )
    assert plain.throttles == 0 and plain.errors == 0
    assert unlimited.throttles == 0 and unlimited.errors == 0
    # Loose floor: catches a catastrophic regression (accidentally running
    # admission work with QoS off), not benchmark noise.
    assert plain.records_per_second >= 0.5 * unlimited.records_per_second, (
        f"QoS-off throughput {plain.records_per_second:.0f} rec/s fell behind "
        f"the QoS-on run ({unlimited.records_per_second:.0f} rec/s)"
    )
