"""Tests for the benchmark workload generators."""

from __future__ import annotations

import ast

import pytest

from repro.workloads import (
    LoggingWorkload,
    PipelineWorkload,
    TrainingWorkload,
    VersionedScriptWorkload,
    populate_logs,
)


class TestLoggingWorkload:
    def test_populate_writes_expected_record_count(self, session):
        workload = LoggingWorkload(runs=2, loops_per_run=5, values_per_loop=3)
        written = workload.populate(session)
        assert written == workload.record_count == 30
        assert session.logs.count() == 30
        assert session.loops.count() == 10

    def test_populated_logs_are_queryable(self, session):
        populate_logs(session, runs=2, loops_per_run=3, values_per_loop=2)
        frame = session.dataframe("metric_0", "metric_1")
        assert len(frame) == 6
        assert frame["tstamp"].nunique() == 2


class TestTrainingWorkload:
    def test_instrumented_run_records_metrics(self, make_session):
        session = make_session("train")
        workload = TrainingWorkload(samples=120, epochs=2, batch_size=32)
        result = workload.run(session, use_flor=True)
        assert len(result.accuracies) == 2
        assert len(session.dataframe("acc")) == 2
        assert len(session.ts2vid.all(session.projid)) == 1

    def test_baseline_run_records_nothing(self, make_session):
        session = make_session("baseline")
        workload = TrainingWorkload(samples=120, epochs=2)
        workload.run(session, use_flor=False)
        assert session.logs.count() == 0


class TestVersionedScriptWorkload:
    def test_sources_parse_and_differ_across_versions(self):
        workload = VersionedScriptWorkload(versions=3)
        sources = [workload.source_for_version(v) for v in range(3)]
        for source in sources:
            ast.parse(source)
        assert len(set(sources)) == 3

    def test_hindsight_source_adds_weight_logging(self):
        workload = VersionedScriptWorkload(versions=3)
        assert "weight" not in workload.source_for_version(2)
        hindsight = workload.hindsight_source()
        ast.parse(hindsight)
        assert 'flor.log("weight"' in hindsight

    def test_record_all_versions_commits_each_version(self, make_session):
        session = make_session("versions")
        workload = VersionedScriptWorkload(versions=3, epochs=2, steps=2)
        vids = workload.record_all_versions(session)
        assert len(vids) == len(set(vids)) == 3
        assert len(session.ts2vid.all(session.projid)) == 3
        assert len(session.dataframe("loss")) == 3 * 2 * 2


class TestPipelineWorkload:
    def test_build_executor_runs_full_pipeline(self, make_session, tmp_path):
        session = make_session("pipe")
        workload = PipelineWorkload(documents=3, max_pages=4, epochs=1)
        executor, pipeline = workload.build_executor(session, tmp_path / "build")
        report = executor.build("run")
        assert report.executed == ["process_pdfs", "featurize", "train", "infer", "run"]
        assert pipeline.state.app is not None
        assert executor.build("run").executed == []


class TestServiceWorkload:
    def test_load_generator_drives_the_service(self, tmp_path):
        from repro.service import FlorService
        from repro.webapp.framework import TestClient
        from repro.workloads import ServiceWorkload

        service = FlorService(tmp_path / "svc")
        try:
            workload = ServiceWorkload(
                clients=4, requests_per_client=5, records_per_request=2, projects=2
            )
            result = workload.run(TestClient(service.app()))
            assert result.errors == 0
            assert result.requests == 20
            assert result.records == workload.total_records == 40
            assert len(result.latencies) == 20
            assert result.records_per_second > 0
            # Every acknowledged record is durable once the shards flush.
            total = 0
            for name in workload.project_names():
                with service.pool.checkout(name) as shard:
                    shard.flush()
                    total += shard.session.db.count("logs")
            assert total == 40
        finally:
            service.close()

    def test_percentiles_are_monotone(self):
        from repro.workloads import ServiceLoadReport

        report = ServiceLoadReport(
            requests=5, records=5, seconds=1.0, latencies=[0.5, 0.1, 0.3, 0.2, 0.4]
        )
        assert report.percentile(0) == 0.1
        assert report.percentile(50) == 0.3
        assert report.percentile(100) == 0.5
        assert report.percentile(50) <= report.percentile(99)

    def test_empty_report_percentile_is_zero(self):
        from repro.workloads import ServiceLoadReport

        report = ServiceLoadReport(requests=0, records=0, seconds=0.0)
        assert report.percentile(99) == 0.0


class TestServiceWorkloadBackoff:
    """429 + Retry-After handling in the load generator's retry loop."""

    class _ThrottlingClient:
        """Answers 429 (with a Retry-After) N times per URL, then 202."""

        def __init__(self, throttles_before_success: int, retry_after: str | None = "0.001"):
            from collections import defaultdict

            self.throttles_before_success = throttles_before_success
            self.retry_after = retry_after
            self.attempts = defaultdict(int)
            self.lock = __import__("threading").Lock()

        def post(self, url, json_body=None, body=b""):
            from repro.webapp.framework import Response

            with self.lock:
                self.attempts[url] += 1
                attempt = self.attempts[url]
            if attempt <= self.throttles_before_success:
                headers = {}
                if self.retry_after is not None:
                    headers["Retry-After"] = self.retry_after
                return Response(body='{"error": "throttled"}', status=429, headers=headers)
            return Response(body='{"queued": 1}', status=202, headers={})

    def test_throttled_requests_retry_until_admitted(self):
        from repro.workloads import ServiceWorkload

        workload = ServiceWorkload(
            clients=1, requests_per_client=1, backoff_base=0.001, backoff_cap=0.01
        )
        client = self._ThrottlingClient(throttles_before_success=3)
        report = workload.run(client)
        assert report.errors == 0
        assert report.throttles == 3
        assert report.requests == 1
        assert len(report.latencies) == 1  # backoff sleeps are not latency samples

    def test_retry_budget_exhaustion_is_an_error_not_a_hang(self):
        from repro.workloads import ServiceWorkload

        workload = ServiceWorkload(
            clients=1,
            requests_per_client=1,
            max_retries=2,
            backoff_base=0.001,
            backoff_cap=0.01,
        )
        client = self._ThrottlingClient(throttles_before_success=100)
        report = workload.run(client)
        assert report.throttles == 2  # the budget, not 100
        assert report.errors == 1  # final attempt still throttled -> error

    def test_retry_after_header_floors_the_backoff_delay(self, monkeypatch):
        from repro import workloads
        from repro.workloads import ServiceWorkload

        sleeps = []
        monkeypatch.setattr(workloads.generator.time, "sleep", sleeps.append)
        workload = ServiceWorkload(
            clients=1, requests_per_client=1, backoff_base=0.0001, backoff_cap=2.0
        )
        client = self._ThrottlingClient(throttles_before_success=1, retry_after="0.75")
        report = workload.run(client)
        assert report.errors == 0
        assert sleeps == [0.75]  # the server hint beat the tiny schedule floor

    def test_backoff_cap_bounds_even_huge_retry_after(self, monkeypatch):
        from repro import workloads
        from repro.workloads import ServiceWorkload

        sleeps = []
        monkeypatch.setattr(workloads.generator.time, "sleep", sleeps.append)
        workload = ServiceWorkload(
            clients=1, requests_per_client=1, backoff_base=0.001, backoff_cap=0.5
        )
        client = self._ThrottlingClient(throttles_before_success=1, retry_after="3600")
        workload.run(client)
        assert sleeps == [0.5]  # one slow tenant never parks a thread for an hour

    def test_garbled_retry_after_falls_back_to_schedule(self):
        from repro.workloads import ServiceWorkload

        assert ServiceWorkload._retry_after({"Retry-After": "soon"}) == 0.0
        assert ServiceWorkload._retry_after({"retry-after": "1.5"}) == 1.5
        assert ServiceWorkload._retry_after({}) == 0.0
        assert ServiceWorkload._retry_after(None) == 0.0
