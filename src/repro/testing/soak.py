"""The chaos soak: mixed service traffic under continuous injected faults.

:class:`ChaosSoak` is the engine behind ``benchmarks/bench_t13_chaos_soak.py``
and the tier-1 mini-soak.  One run is ``cycles`` rounds of:

1. **Storm** — ingest threads POST scenario-zoo batches (agent-session
   traces plus multi-project fan-out) through a :class:`FlorService` whose
   shards are built over fault-wrapped stores (``database is locked``
   contention, slow I/O), while reader threads issue barrier reads
   (``?primary=1`` — each success *seals* the batches acked before it) and
   ad-hoc SQL, and an embedded :class:`~repro.jobs.JobRunner` drains
   hindsight-backfill jobs on a lease clock skewed by the same plan.
   Failed requests are retried at-least-once, exactly as a real client
   treats an ambiguous ack.
2. **Recover** — the service closes and a fresh one reopens over the same
   root; the wall-clock cost of that transition is the measured recovery
   time.
3. **Verify** — every invariant checker runs against the recovered state:
   zero lost sealed rows, monotone ``logs.seq`` watermarks, zero
   double-replayed job versions, recovery within the scenario bound.

Everything nondeterministic flows from one :class:`FaultPlan`, so a red
soak is replayed by exporting the seed its failure printed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..jobs import JOBS_DB_FILENAME, JobRunner, JobStore, pool_session_provider
from ..relational.database import Database
from ..service import FlorService
from ..webapp.framework import TestClient
from ..workloads import BackfillJobWorkload
from ..workloads.scenarios import AgentSessionWorkload, MultiProjectFanoutWorkload
from .chaos import FaultPlan, SkewedClock
from .invariants import (
    AckLedger,
    check_monotone_watermark,
    check_no_lost_rows,
    check_recovery_time,
    check_single_replay,
    logs_watermark,
)

#: Names an agent-session tenant logs (the dataframe barrier reads these).
AGENT_NAMES = "tokens_in,tokens_out,tool,tool_latency,tool_status,eval_score"

#: ``_probe`` result for a tenant no acked POST has created yet.  GETs
#: deliberately never create projects, so early in a storm the sealer can
#: race the first ingest batch and draw a 404 — with nothing acked there
#: is nothing to seal, and the barrier is skipped rather than failed.
_UNBORN = -1


def chaos_shard_factory(
    root: Path | str,
    plan: FaultPlan,
    *,
    flush_mode: str | None = None,
):
    """A ``DatabasePool.shard_factory`` building fault-wrapped shards.

    Mirrors the pool's default construction but threads ``plan`` through
    both storage seams: the relational store may stall or raise ``database
    is locked`` (absorbed by the background flusher's retry loop or
    surfaced to the client as a failed request), and the blob store may
    stall.  Each tenant gets its own fault sites, so per-tenant schedules
    are independent of pool churn.
    """
    from ..config import ProjectConfig
    from ..core.session import Session
    from ..service.pool import SERVICE_FILENAME, ProjectShard
    from ..storage.faults import FaultyBlobStore, FaultyRelationalStore
    from ..storage.tiering import TieredBlobStore
    from ..versioning.objects import ObjectStore
    from ..versioning.repository import Repository

    root = Path(root)

    def factory(name: str) -> ProjectShard:
        config = ProjectConfig(root / name, name).ensure_layout()
        db = FaultyRelationalStore(
            Database(config.db_path), plan, site=f"shard.{name}.db"
        )
        blob_store = FaultyBlobStore(
            TieredBlobStore(
                ObjectStore(config.objects_dir), Path(config.objects_dir) / "archive"
            ),
            plan,
            site=f"shard.{name}.blob",
        )
        repository = Repository(config.objects_dir, config.root, store=blob_store)
        session = Session(
            config,
            db=db,
            repository=repository,
            default_filename=SERVICE_FILENAME,
            flush_mode=flush_mode,
        )
        return ProjectShard(name, session)

    return factory


@dataclass
class SoakReport:
    """What one chaos soak did, and whether the invariants held."""

    seed: int
    cycles: int = 0
    requests: int = 0
    request_errors: int = 0
    retried_batches: int = 0
    dropped_batches: int = 0
    resubmitted_batches: int = 0
    sealed_rows: int = 0
    backfills_succeeded: int = 0
    recovery_seconds: list[float] = field(default_factory=list)
    fault_stats: dict[str, Any] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: First few request failures, with context — so a red soak names the
    #: error instead of just counting it.
    error_samples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_recovery_seconds(self) -> float:
        return max(self.recovery_seconds, default=0.0)

    def as_rows(self) -> list[dict[str, Any]]:
        """Benchmark-table rows (one line per cycle plus a summary)."""
        fired = self.fault_stats.get("fired", {})
        return [
            {
                "seed": self.seed,
                "cycles": self.cycles,
                "requests": self.requests,
                "errors": self.request_errors,
                "retried": self.retried_batches,
                "resubmitted": self.resubmitted_batches,
                "sealed_rows": self.sealed_rows,
                "locked": fired.get("locked", 0),
                "slow": fired.get("slow", 0),
                "skew": fired.get("skew", 0),
                "max_recovery_s": self.max_recovery_seconds,
                "violations": len(self.violations),
            }
        ]


class ChaosSoak:
    """Drive mixed scenario-zoo traffic under one fault plan; see module doc."""

    def __init__(
        self,
        root: Path | str,
        plan: FaultPlan,
        *,
        cycles: int = 2,
        cycle_seconds: float = 1.0,
        agent_tenants: int = 2,
        fanout_tenants: int = 3,
        ingest_threads: int = 2,
        query_threads: int = 1,
        backfill: bool = True,
        pool_capacity: int = 4,
        recovery_bound_seconds: float = 20.0,
        max_batch_retries: int = 5,
    ):
        self.root = Path(root)
        self.plan = plan
        self.cycles = cycles
        self.cycle_seconds = cycle_seconds
        self.agent_projects = [f"agent_{i:02d}" for i in range(agent_tenants)]
        self.fanout = MultiProjectFanoutWorkload(
            tenants=fanout_tenants, batches_per_tenant=10**9, records_per_batch=6
        )
        self.ingest_threads = ingest_threads
        self.query_threads = query_threads
        self.backfill = backfill
        self.pool_capacity = pool_capacity
        self.recovery_bound_seconds = recovery_bound_seconds
        self.max_batch_retries = max_batch_retries
        self.ledger = AckLedger()
        self.report = SoakReport(seed=plan.seed)
        self._watermarks: dict[str, int] = {}
        #: Per-project ``dropped_rows_total`` at the last seal (or repair
        #: anchor); a probe that does not match breaks seal continuity
        #: (see ``_seal_barrier``).
        self._seal_state: dict[str, int] = {}
        self._probe_error: str = ""
        self._lock = threading.Lock()

    # ------------------------------------------------------------- plumbing
    def _note_error(self, context: str) -> None:
        """Count a failed request, keeping the first few with context."""
        with self._lock:
            self.report.request_errors += 1
            if len(self.report.error_samples) < 10:
                self.report.error_samples.append(context)

    def _all_projects(self) -> list[str]:
        return self.agent_projects + self.fanout.project_names()

    def _barrier_names(self, project: str) -> str:
        return AGENT_NAMES if project in self.agent_projects else self.fanout.value_name

    def _open_service(self) -> tuple[FlorService, JobStore]:
        store = JobStore.open(
            self.root, clock=SkewedClock(self.plan, site="jobs.clock")
        )
        service = FlorService(
            self.root,
            pool_capacity=self.pool_capacity,
            shard_factory=chaos_shard_factory(self.root, self.plan),
            job_store=store,
        )
        return service, store

    def _post_batch(self, client: TestClient, project: str, payload: dict) -> bool:
        """At-least-once delivery of one batch; ledger on first ack."""
        for attempt in range(self.max_batch_retries + 1):
            with self._lock:
                self.report.requests += 1
            try:
                response = client.post(f"/projects/{project}/logs", json_body=payload)
                ok = response.ok
                detail = "" if ok else f"status {response.status}: {response.body[:200]}"
            except Exception as exc:
                ok = False
                detail = repr(exc)
            if ok:
                by_name: dict[str, list[str]] = {}
                for record in payload["records"]:
                    by_name.setdefault(record["name"], []).append(str(record["value"]))
                for name, values in by_name.items():
                    self.ledger.record(project, name, values)
                if attempt:
                    with self._lock:
                        self.report.retried_batches += 1
                return True
            self._note_error(f"post {project} attempt {attempt}: {detail}")
        with self._lock:
            self.report.dropped_batches += 1
        return False

    def _probe(self, client: TestClient, project: str) -> int | None:
        """Read the tenant's monotone ``dropped_rows_total`` from ``/stats``."""
        try:
            response = client.get(f"/projects/{project}/stats")
            if response.status == 404:
                return _UNBORN
            if not response.ok:
                self._probe_error = f"status {response.status}: {response.body[:200]}"
                return None
            return int(response.json().get("dropped_rows_total", 0))
        except Exception as exc:
            self._probe_error = repr(exc)
            return None

    def _repair(self, client: TestClient, project: str) -> None:
        """Resubmit the project's unsealed batches (the at-least-once leg).

        Invoked when the drop-counter probe shows the shard may have shed
        acked rows — or was reopened, resetting its counters so continuity
        cannot be proven.  The originals are forgotten; the resubmissions
        are fresh acks that the next clean barrier can seal.
        """
        batches = self.ledger.forget_unsealed(project)
        with self._lock:
            self.report.resubmitted_batches += len(batches)
        for name, values in batches:
            payload = {
                "filename": "resubmit.py",
                "records": [
                    {"name": name, "value": value, "ctx_id": 0} for value in values
                ],
            }
            self._post_batch(client, project, payload)

    def _seal_barrier(self, client: TestClient, project: str) -> bool:
        """One durability barrier: a read-your-writes primary read.

        A 200 from ``?primary=1`` alone is not proof the batches acked
        before it survived: the flusher drops a batch after exhausting its
        write retries and defers the error, which *any* flushing request
        (a stats call, an eviction, another tenant's barrier) may consume
        first — leaving this read to succeed over a store that silently
        shed rows.  So sealing additionally requires the tenant's monotone
        ``dropped_rows_total`` to be unchanged across the read *and* equal
        to its value at the last successful seal.  Any break in that chain
        downgrades the barrier to a repair: unsealed batches are
        resubmitted rather than sealed.  (Across a service restart the
        counter resets; a clean shutdown flushed everything, so continuity
        from 0 is sound — a SIGKILL'd server gets no such credit, and its
        client must force a repair, as the T13 bench does.)
        """
        mark = self.ledger.mark(project)
        before = self._probe(client, project)
        if before == _UNBORN:
            # No acked POST has created this tenant yet, so the ledger
            # holds nothing for it; skip the barrier without charging an
            # error.  (An ack implies the POST path built the shard, so an
            # unborn probe can never hide acked rows.)
            return False
        if before is None:
            self._note_error(f"probe {project}: {self._probe_error}")
            return False
        state = self._seal_state.get(project)
        continuous = before == state if state is not None else before == 0
        if not continuous:
            # Anchor the new baseline to the probe taken *before*
            # resubmitting: a drop that hits the resubmissions themselves
            # then shows up as a fresh discontinuity at the next barrier
            # (probing after the repair would fold such a drop into the
            # baseline and let the next barrier seal lost rows).
            self._seal_state[project] = before
            self._repair(client, project)
            return False
        try:
            response = client.get(
                f"/projects/{project}/dataframe"
                f"?names={self._barrier_names(project)}&primary=1"
            )
            ok = response.ok
            detail = "" if ok else f"status {response.status}: {response.body[:200]}"
        except Exception as exc:
            ok = False
            detail = repr(exc)
        if not ok:
            self._note_error(f"barrier read {project}: {detail}")
            return False
        after = self._probe(client, project)
        if after != before:
            return False
        self.ledger.seal_through(mark, project)
        self._seal_state[project] = after
        return True

    # -------------------------------------------------------------- traffic
    def _storm(self, service: FlorService, store: JobStore, cycle: int) -> None:
        client = TestClient(service.app())
        stop = threading.Event()
        threads: list[threading.Thread] = []

        def agent_ingest(worker: int) -> None:
            workload = AgentSessionWorkload(
                sessions=10**6,
                turns_per_session=4,
                seed=self.plan.seed + cycle * 101 + worker,
                tag=f"c{cycle}.w{worker}",
            )
            payloads = workload.request_payloads()
            turn = 0
            while not stop.is_set():
                project = self.agent_projects[turn % len(self.agent_projects)]
                self._post_batch(client, project, next(payloads))
                turn += 1

        def fanout_ingest() -> None:
            fanout = MultiProjectFanoutWorkload(
                tenants=len(self.fanout.project_names()),
                batches_per_tenant=10**9,
                records_per_batch=self.fanout.records_per_batch,
                tag=f"{self.fanout.tag}.c{cycle}",
            )
            # Same tenant directories every cycle; per-cycle tag keeps
            # values globally unique for the ledger's set membership.
            fanout_names = self.fanout.project_names()
            for (_, payload), project in zip(
                fanout.request_payloads(),
                (fanout_names[i % len(fanout_names)] for i in range(10**9)),
            ):
                if stop.is_set():
                    return
                self._post_batch(client, project, payload)

        def sealer() -> None:
            index = 0
            projects = self._all_projects()
            while not stop.is_set():
                self._seal_barrier(client, projects[index % len(projects)])
                index += 1
                time.sleep(0.01)

        def querier() -> None:
            projects = self._all_projects()
            index = 0
            while not stop.is_set():
                project = projects[index % len(projects)]
                try:
                    client.get(
                        f"/projects/{project}/sql?q=SELECT COUNT(*) FROM logs"
                    )
                    client.get(f"/projects/{project}/stats")
                except Exception as exc:
                    self._note_error(f"query {project}: {exc!r}")
                index += 1
                time.sleep(0.005)

        for worker in range(self.ingest_threads):
            threads.append(threading.Thread(target=agent_ingest, args=(worker,)))
        threads.append(threading.Thread(target=fanout_ingest))
        threads.append(threading.Thread(target=sealer))
        for _ in range(self.query_threads):
            threads.append(threading.Thread(target=querier))

        runner = None
        backfill_job_id = None
        if self.backfill:
            runner = JobRunner(
                store,
                pool_session_provider(service.pool),
                workers=1,
                poll_interval=0.01,
                name=f"soak-c{cycle}",
            ).start()
            workload = self._backfill_workload()
            try:
                body = client.post(
                    f"/projects/{workload.project_names()[0]}/jobs/backfill",
                    json_body={
                        "filename": workload.filename,
                        "new_source": workload.hindsight_source(),
                    },
                ).json()
                backfill_job_id = body["job"]["id"]
            except Exception as exc:
                self._note_error(f"backfill submit: {exc!r}")

        for thread in threads:
            thread.start()
        time.sleep(self.cycle_seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)

        # Quiesce under suspended faults: finish the backfill (operator
        # retries are fair game for fault-failed attempts), then run one
        # final sealing barrier per tenant so the cycle ends with a known
        # sealed frontier.
        with self.plan.suspended():
            if runner is not None:
                for _ in range(3):
                    runner.run_until_idle(timeout=60.0)
                    failed = [
                        job.id
                        for job in store.list_jobs(state="failed")
                        if job.id == backfill_job_id
                    ]
                    if not failed:
                        break
                    for job_id in failed:
                        store.retry(job_id)
                runner.stop()
                if backfill_job_id is not None:
                    job = store.get(backfill_job_id)
                    if job is not None and job.state == "succeeded":
                        self.report.backfills_succeeded += 1
            for project in self._all_projects():
                # A flusher error recorded during the storm surfaces on the
                # first post-storm drain and clears; retry so the cycle ends
                # with every tenant's sealed frontier actually sealed.
                for _ in range(3):
                    if self._seal_barrier(client, project):
                        break
            for project in self._all_projects():
                shard = service.pool.get(project)
                self._watermarks[project] = logs_watermark(shard.session.db)

    def _backfill_workload(self) -> BackfillJobWorkload:
        return BackfillJobWorkload(projects=1, versions=2, epochs=2, steps=1)

    @staticmethod
    def _close_service(service: FlorService) -> None:
        """Close, absorbing one round of residual flusher errors.

        A write fault injected near the end of a storm can leave a recorded
        error that surfaces (and clears) on the close-time drain; the rows
        it covered were never sealed, so retrying the close loses nothing.
        """
        for attempt in range(3):
            try:
                service.close()
                return
            except Exception:
                if attempt == 2:
                    raise

    # ------------------------------------------------------------------ run
    def run(self) -> SoakReport:
        if self.backfill:
            with self.plan.suspended():
                self._backfill_workload().populate(self.root)

        service, store = self._open_service()
        try:
            for cycle in range(self.cycles):
                self._storm(service, store, cycle)
                # Recovery: close the whole service and reopen over the
                # same root.  Faults stay suspended so the measured cost is
                # the system's, not the schedule's.
                with self.plan.suspended():
                    started = time.perf_counter()
                    self._close_service(service)
                    store.close()
                    service, store = self._open_service()
                    client = TestClient(service.app())
                    for project in self._all_projects():
                        self._seal_barrier(client, project)
                    elapsed = time.perf_counter() - started
                    self.report.recovery_seconds.append(elapsed)
                    self.report.cycles += 1
                    self._verify(service, label=f"cycle{cycle}", recovery=elapsed)
        finally:
            self._close_service(service)
            store.close()
        self.report.sealed_rows = self.ledger.counts()["sealed_rows"]
        self.report.fault_stats = self.plan.stats()
        return self.report

    def _verify(self, service: FlorService, *, label: str, recovery: float) -> None:
        violations: list[str] = []
        for project in self._all_projects():
            shard = service.pool.get(project)
            shard.flush()
            db = shard.session.db
            violations += check_no_lost_rows(db, self.ledger, project)
            after = logs_watermark(db)
            violations += check_monotone_watermark(
                f"{label}/{project}", self._watermarks.get(project, 0), after
            )
        jobs_path = self.root / JOBS_DB_FILENAME
        if jobs_path.exists():
            jobs_db = Database(jobs_path)
            try:
                violations += check_single_replay(jobs_db)
            finally:
                jobs_db.close()
        violations += check_recovery_time(
            label, recovery, self.recovery_bound_seconds
        )
        self.report.violations.extend(violations)
