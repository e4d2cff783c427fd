"""Tests for the per-table repositories."""

from __future__ import annotations

import pytest

from repro.relational.records import (
    BuildDepRecord,
    LogRecord,
    LoopRecord,
    ObjectRecord,
    Ts2VidRecord,
)
from repro.relational.repositories import (
    BuildDepRepository,
    LogRepository,
    LoopRepository,
    ObjectRepository,
    Ts2VidRepository,
)


@pytest.fixture()
def log_repo(db):
    return LogRepository(db)


@pytest.fixture()
def loop_repo(db):
    return LoopRepository(db)


class TestLogRepository:
    def test_add_and_retrieve_in_insertion_order(self, log_repo):
        log_repo.add(LogRecord.create("p", "t1", "f.py", 1, "acc", 0.1))
        log_repo.add(LogRecord.create("p", "t1", "f.py", 1, "acc", 0.2))
        values = [r.decoded() for r in log_repo.all("p")]
        assert values == [0.1, 0.2]

    def test_by_names_filters(self, log_repo):
        log_repo.add_many(
            [
                LogRecord.create("p", "t", "f.py", 1, "acc", 0.5),
                LogRecord.create("p", "t", "f.py", 1, "loss", 1.5),
            ]
        )
        assert [r.value_name for r in log_repo.by_names("p", ["loss"])] == ["loss"]
        assert log_repo.by_names("p", []) == []

    def test_distinct_names_and_tstamps(self, log_repo):
        log_repo.add_many(
            [
                LogRecord.create("p", "t1", "f.py", 1, "acc", 1),
                LogRecord.create("p", "t2", "f.py", 1, "acc", 2),
                LogRecord.create("p", "t2", "f.py", 1, "loss", 3),
            ]
        )
        assert log_repo.distinct_names("p") == ["acc", "loss"]

    def test_projects_are_isolated(self, log_repo):
        log_repo.add(LogRecord.create("p1", "t", "f.py", 1, "acc", 1))
        log_repo.add(LogRecord.create("p2", "t", "f.py", 1, "acc", 2))
        assert len(log_repo.all("p1")) == 1
        assert log_repo.count() == 2


class TestLoopRepository:
    def test_add_and_query_by_context(self, loop_repo):
        loop_repo.add(LoopRecord("p", "t", "f.py", 1, 0, "epoch", 0, "0"))
        loop_repo.add(LoopRecord("p", "t", "f.py", 2, 1, "step", 0, "batch0"))
        records = loop_repo.by_context("p", "t", "f.py")
        assert [r.loop_name for r in records] == ["epoch", "step"]

    def test_get_specific_context(self, loop_repo):
        loop_repo.add(LoopRecord("p", "t", "f.py", 7, 0, "epoch", 3, "3"))
        record = loop_repo.get("p", "t", "f.py", 7)
        assert record is not None and record.loop_iteration == 3
        assert loop_repo.get("p", "t", "f.py", 99) is None

    def test_replace_on_same_primary_key(self, loop_repo):
        loop_repo.add(LoopRecord("p", "t", "f.py", 1, 0, "epoch", 0, "a"))
        loop_repo.add(LoopRecord("p", "t", "f.py", 1, 0, "epoch", 0, "b"))
        assert loop_repo.count() == 1
        assert loop_repo.get("p", "t", "f.py", 1).iteration_value == "b"


class TestTs2VidRepository:
    def test_add_latest_and_lookup(self, db):
        repo = Ts2VidRepository(db)
        repo.add(Ts2VidRecord("p", "2025-01-01T00:00:00", "2025-01-01T01:00:00", "v1"))
        repo.add(Ts2VidRecord("p", "2025-01-02T00:00:00", "2025-01-02T01:00:00", "v2", "run"))
        assert repo.latest("p").vid == "v2"
        assert len(repo.all("p")) == 2


class TestObjectRepository:
    def test_put_get_and_overwrite(self, db):
        repo = ObjectRepository(db)
        key = dict(projid="p", tstamp="t", filename="f.py", ctx_id=1, value_name="ckpt::epoch")
        repo.put(ObjectRecord(**key, contents=b"one"))
        repo.put(ObjectRecord(**key, contents=b"two"))
        assert repo.get(**key).contents == b"two"
        assert repo.count() == 1

    def test_list_keys_filtered_by_tstamp(self, db):
        repo = ObjectRepository(db)
        repo.put(ObjectRecord("p", "t1", "f.py", 1, "ckpt::epoch", b"x"))
        repo.put(ObjectRecord("p", "t2", "f.py", 1, "ckpt::epoch", b"y"))
        assert len(repo.list_keys("p")) == 2
        assert len(repo.list_keys("p", "t1")) == 1

    def test_get_missing_returns_none(self, db):
        repo = ObjectRepository(db)
        assert repo.get("p", "t", "f.py", 1, "nope") is None


class TestBuildDepRepository:
    def test_add_and_query_by_vid(self, db):
        repo = BuildDepRepository(db)
        repo.add_many(
            [
                BuildDepRecord("v1", "featurize", ("process_pdfs",), ("python featurize.py",)),
                BuildDepRecord("v1", "train", ("featurize",), ("python train.py",)),
            ]
        )
        records = repo.by_vid("v1")
        assert [r.target for r in records] == ["featurize", "train"]
        assert repo.by_vid("v2") == []
