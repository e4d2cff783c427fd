"""Session-level tests for the async record path (repro.runtime wiring)."""

from __future__ import annotations

import threading

import pytest

from repro import ProjectConfig, Session
from repro.core.checkpoint import CheckpointKey
from repro.errors import RecordingError
from repro.relational.database import Database
from repro.runtime import ASYNC, SYNC


class TestFlushModes:
    def test_record_sessions_default_to_async(self, session):
        assert session.flush_mode == ASYNC
        assert session.flusher.mode == ASYNC

    def test_replay_sessions_default_to_sync(self, project):
        with Session(project, default_filename="t.py") as recorder:
            recorder.log("acc", 1.0)
            recorder.commit()
        with Session(
            project,
            mode="replay",
            default_filename="t.py",
            replay_tstamp="2020-01-01T00:00:00.000000",
        ) as replayer:
            assert replayer.flush_mode == SYNC

    def test_explicit_sync_mode(self, project):
        with Session(project, default_filename="t.py", flush_mode="sync") as session:
            assert session.flusher.mode == SYNC
            session.log("acc", 1.0)
            session.flush()
            assert session.logs.count() == 1

    def test_invalid_flush_mode_rejected(self, project):
        with pytest.raises(RecordingError):
            Session(project, flush_mode="weird")


class TestAsyncFlush:
    def test_flush_is_a_read_your_writes_barrier(self, session):
        for i in range(50):
            session.log("acc", i * 0.1)
        session.flush()
        assert session.logs.count() == 50
        assert session.pending_records == 0

    def test_flush_without_wait_hands_off_and_returns(self, session):
        session.log("acc", 1.0)
        session.flush(wait=False)
        assert session.pending_log_records == 0  # staged rows left the buffer
        session.flush()  # barrier
        assert session.logs.count() == 1

    def test_stage_threshold_submits_in_the_background(self, session):
        session._stage_threshold = 10
        for i in range(25):
            session.log("acc", float(i))
        # At least two threshold crossings submitted without an explicit flush.
        assert session.flusher.stats.submitted_batches >= 2
        session.flush()
        assert session.logs.count() == 25

    def test_dataframe_after_async_logging_sees_every_row(self, session):
        for epoch in session.loop("epoch", range(5)):
            session.log("loss", 1.0 / (epoch + 1))
        frame = session.dataframe("loss")
        assert len(frame) == 5

    def test_iteration_auto_index_survives_background_submits(self, session):
        session._stage_threshold = 1  # force a submit on every log
        with session.iteration("document", None, "a.pdf"):
            session.log("pages", 3)
        with session.iteration("document", None, "b.pdf"):
            session.log("pages", 5)
        session.flush()
        iterations = sorted(
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "document"
        )
        assert iterations == [0, 1]

    def test_iteration_auto_index_continues_after_explicit_and_loops(self, session):
        with session.iteration("document", 7, "x.pdf"):
            pass
        with session.iteration("document", None, "y.pdf"):
            pass  # continues past the explicit index
        for _ in session.loop("page", range(3)):
            pass
        with session.iteration("page", None, "extra"):
            pass  # continues past the recorded loop iterations
        session.flush()
        documents = sorted(
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "document"
        )
        pages = sorted(
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "page"
        )
        assert documents == [7, 8]
        assert pages == [0, 1, 2, 3]

    def test_iteration_auto_index_restarts_each_epoch(self, session):
        with session.iteration("document", None, "a.pdf"):
            pass
        session.commit("epoch 1")
        with session.iteration("document", None, "b.pdf"):
            pass
        session.flush()
        iterations = [
            r.loop_iteration
            for r in session.loops.all(session.projid)
            if r.loop_name == "document"
        ]
        assert iterations == [0, 0]  # fresh tstamp, fresh numbering


class TestFlushFailure:
    def test_sync_flush_failure_keeps_records_for_retry(self, project, monkeypatch):
        """Regression: a failed inline write must not lose staged records."""
        with Session(project, default_filename="t.py", flush_mode="sync") as session:
            session.log("acc", 0.9)

            def broken_transaction():
                raise RuntimeError("disk on fire")

            monkeypatch.setattr(session.db, "transaction", broken_transaction)
            with pytest.raises(RuntimeError):
                session.flush()
            monkeypatch.undo()
            assert session.pending_records == 1  # restored, not dropped
            session.flush()
            assert session.logs.count() == 1


class TestLifecycle:
    def test_close_flushes_staged_records(self, tmp_path):
        config = ProjectConfig(tmp_path / "proj", "p").ensure_layout()
        db = Database(config.db_path)
        session = Session(config, db=db, default_filename="t.py")
        session.log("acc", 0.9)
        session.close()
        assert db.count("logs") == 1
        db.close()

    def test_checkpoints_drain_before_commit(self, session):
        state = {"w": 0.0}
        with session.checkpointing(state=state):
            for epoch in session.loop("epoch", range(3)):
                state["w"] += 1.0
                session.log("w", state["w"])
        session.commit("run")
        # After the commit barrier every saved checkpoint is durable.
        assert session.checkpoints.saved >= 1
        stored = session.objects.count()
        assert stored >= session.checkpoints.saved

    def test_object_reads_wait_for_in_flight_checkpoints(self, tmp_path):
        """Object reads are a barrier on the async checkpoint writer, the
        way dataframe reads are on the log flusher: a checkpoint the writer
        still holds must be stored before ``session.objects`` answers."""
        config = ProjectConfig(tmp_path / "proj", "p").ensure_layout()
        db = _HeldObjectWrites(config.db_path)
        session = Session(config, db=db, default_filename="t.py", flush_mode="async")
        try:
            with session.checkpointing(state={"w": 1.0}):
                session.checkpoints.save(
                    CheckpointKey(session.projid, session.tstamp, "t.py", 1, "epoch")
                )
            keys = []
            reader = threading.Thread(
                target=lambda: keys.extend(session.objects.list_keys(session.projid))
            )
            reader.start()
            reader.join(timeout=0.2)  # the writer is held: the read must wait
            db.release.set()
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert [name for *_rest, name in keys] == ["ckpt::epoch"]
        finally:
            db.release.set()
            session.close()
            db.close()


class _HeldObjectWrites(Database):
    """A database whose ``obj_store`` writes wait until ``release`` is set."""

    def __init__(self, path):
        super().__init__(path)
        self.release = threading.Event()

    def execute(self, sql, params=()):
        if "INTO obj_store" in sql:
            self.release.wait()
        return super().execute(sql, params)
