"""record_train — an in-process training script.

Why this workload: it is the paper's record path with nothing else in the
way.  Many short runs of nested ``epoch`` x ``step`` loops log four scalars a
step, checkpoint real NumPy state every epoch, read ``flor.dataframe``
progress over the growing history after each epoch and end with
``flor.commit``.  The runtime buffer and flusher, relational inserts and
index upkeep, the version store and incremental query merges do the work;
no socket is touched.

The traced run adds hindsight rounds after the measured window: each adds
one new epoch-level statement to the latest training source and
``HindsightEngine.backfill``s it into the last few recorded versions with a
selective ``ReplayPlan``, then reads the new column.  That measures the
propagation, replay, checkpoint-restore and version-store layers.  (A gated
hindsight workload was dropped: on the host this benchmark was built on its
CPU-bound rounds swung by up to 1.8x between whole runs, beyond any bound.)
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import checks
import inputs
from common import db_bytes, p50, self_rss_mb

PROGRESS_NAMES = ("loss", "acc")
#: Traced run only: hindsight rounds, each replaying this many recent versions.
HINDSIGHT_ROUNDS = 4
HINDSIGHT_VERSIONS = 4
SCRIPT = "train.py"


class EveryEpoch:
    """Checkpoint after every epoch, so the work per run is fixed."""

    def should_checkpoint(self, iteration: int, iter_seconds: float, ckpt_seconds: float) -> bool:
        return True


class Fixture:
    def __init__(self, ctx, project: Path):
        from repro import ProjectConfig, Session, flor

        self.flor = flor
        self.scale = inputs.TrainScale(warm_runs=1, steps=8) if ctx.tiny else inputs.TrainScale()
        self.project = project
        self.session = Session(ProjectConfig(project, "train"), checkpoint_policy=EveryEpoch())
        self.session.track(SCRIPT)
        self.rng = random.Random(ctx.seed)
        self.logged = 0
        self.vids: list[str] = []
        self.last_source = ""
        self.read_ms: list[float] = []
        self.last_frame = None
        self.closed = False
        for _ in range(self.scale.warm_runs):
            self.train_run()

    def _progress(self, _epoch: int) -> None:
        started = time.perf_counter()
        self.last_frame = self.flor.dataframe(*PROGRESS_NAMES)
        self.read_ms.append((time.perf_counter() - started) * 1e3)

    def train_run(self) -> tuple[float, float]:
        """One training run; returns (run wall s up to a returned ``flor.commit``, commit ms)."""
        source = self.last_source = inputs.train_script(self.rng, self.scale)
        script = self.project / SCRIPT
        script.write_text(source)
        code = compile(source, str(script), "exec")
        namespace = {"__file__": str(script), "flor": self.flor, "progress": self._progress}
        started = time.perf_counter()
        with self.flor.using(self.session):
            exec(code, namespace)  # noqa: S102 - the generated training script
            committed = time.perf_counter()
            self.vids.append(self.flor.commit())
        done = time.perf_counter()
        self.logged += self.scale.epochs * self.scale.steps * inputs.TRAIN_LOGS_PER_STEP
        return done - started, (done - committed) * 1e3

    def count(self, sql: str, params=()) -> int:
        frame = self.session.sql(sql, params=params)
        return int(frame.to_records()[0]["n"])

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.session.close()


def setup(ctx, directory: Path) -> Fixture:
    return Fixture(ctx, directory / "project")


def install_spans(recorder) -> None:
    from repro import Session
    from repro.core import checkpoint, session as session_mod
    from repro.query import engine
    from repro.relational import database
    from repro.runtime import flusher
    from repro.versioning import repository

    recorder.hook(Session, "log", "core.session.log", hot=True)
    recorder.hook(getattr(flusher, "BackgroundFlusher", None), "drain", "runtime.flush_wait")
    recorder.hook(getattr(flusher, "BackgroundFlusher", None), "submit", "runtime.submit",
                  after=lambda _r, a, _k: recorder.count("rows_submitted", len(a[1]) + len(a[2])))
    recorder.hook_context(getattr(database, "Database", None), "transaction", "relational.txn")
    recorder.hook(getattr(database, "Database", None), "executemany", "relational.executemany")
    recorder.hook(getattr(checkpoint, "CheckpointManager", None), "save", "core.checkpoint.save")
    recorder.hook(getattr(checkpoint, "CheckpointManager", None), "drain", "core.checkpoint.drain")
    recorder.hook(getattr(repository, "Repository", None), "commit", "versioning.commit")
    recorder.hook(getattr(engine, "QueryEngine", None), "dataframe", "query.dataframe",
                  after=lambda r, _a, _k: recorder.count("query.rows", len(r)))
    recorder.hook(session_mod.Session, "commit", "flor.commit")


def install_hindsight_spans(recorder) -> None:
    from repro.core import checkpoint, hindsight, session as session_mod
    from repro.versioning import repository

    recorder.hook(getattr(repository, "Repository", None), "read_file", "versioning.read_file")
    # The engine calls these through names bound in its own module.
    recorder.hook(hindsight, "propagate_statements", "core.propagation.propagate")
    recorder.hook(hindsight, "replay_source", "core.replay.replay_source")
    recorder.hook(session_mod.Session, "__init__", "core.replay.session_open",
                  when=lambda *a, **k: k.get("mode") == session_mod.REPLAY)
    recorder.hook(getattr(checkpoint, "CheckpointManager", None), "restore", "core.checkpoint.restore")
    recorder.hook(getattr(hindsight, "HindsightEngine", None), "backfill", "core.hindsight.backfill")


def hindsight_rounds(ctx, fx: Fixture, recorder) -> tuple[list[float], list[str]]:
    """Backfill rounds over the recorded history; returns round ms and errors."""
    from repro import HindsightEngine, ReplayPlan

    install_hindsight_spans(recorder)
    engine = HindsightEngine(fx.session)
    versions = fx.vids[-HINDSIGHT_VERSIONS:]
    probes = inputs.train_probes(random.Random(ctx.seed + 1), fx.last_source, fx.scale, HINDSIGHT_ROUNDS)
    rounds, errors = [], []
    recorder.enabled = True
    for probe in probes:
        before = _count_rows(fx)
        started = time.perf_counter()
        report = engine.backfill(SCRIPT, new_source=probe.source, versions=versions,
                                 plan=ReplayPlan.only(epoch=probe.epochs),
                                 extra_globals={"progress": lambda _epoch: None})
        frame = fx.session.dataframe(probe.name)
        rounds.append((time.perf_counter() - started) * 1e3)
        recorder.count("iterations_executed", report.iterations_executed)
        recorder.count("iterations_skipped", report.iterations_skipped)
        expected = len(versions) * len(probe.epochs)
        named = fx.count("SELECT COUNT(*) AS n FROM logs WHERE value_name = ?", (probe.name,))
        distinct = fx.count("SELECT COUNT(*) AS n FROM (SELECT DISTINCT tstamp, filename, ctx_id"
                            " FROM logs WHERE value_name = ?)", (probe.name,))
        errors += checks.hindsight_round(probe.name, expected, _count_rows(fx) - before, named, distinct)
        if len(frame) < expected:
            errors.append(f"hindsight {probe.name}: read returned {len(frame)} rows, expected >= {expected}")
        failed = [v for v in report.versions if not v.ok]
        if failed:
            errors.append(f"hindsight {probe.name}: {len(failed)} versions failed: {failed[0].error}")
    recorder.enabled = False
    return rounds, errors


def hindsight_metrics(recorder, rounds: list[float]) -> dict[str, float]:
    def mean(name: str) -> float:
        values = recorder.durations_ms(name)
        return sum(values) / len(values) if values else 0.0

    replay = recorder.self_times().get("core.replay.replay_source")
    executed = recorder.counters.get("iterations_executed", 0)
    skipped = recorder.counters.get("iterations_skipped", 0)
    return {
        "core.hindsight.round_p50_ms": p50(rounds),
        "versioning.read_file_ms": mean("versioning.read_file"),
        "core.propagation.propagate_ms": mean("core.propagation.propagate"),
        "core.replay.session_open_ms": mean("core.replay.session_open"),
        # Replay time outside the replay session's constructor.
        "core.replay.exec_ms": replay["self_ms"] / replay["count"] if replay else 0.0,
        "core.checkpoint.restore_ms": mean("core.checkpoint.restore"),
        "core.replay.skip_ratio": skipped / (executed + skipped) if executed + skipped else 0.0,
    }


def layer_metrics(recorder) -> dict[str, float]:
    def mean(name: str) -> float:
        values = recorder.durations_ms(name)
        return sum(values) / len(values) if values else 0.0

    calls, total_ns = recorder.hot.get("core.session.log", [0, 0])
    txns = len(recorder.durations_ms("relational.txn")) + len(recorder.durations_ms("relational.executemany"))
    reads = len(recorder.durations_ms("query.dataframe"))
    return {
        "core.session.log_ns": total_ns / calls if calls else 0.0,
        "runtime.flush_wait_ms": mean("runtime.flush_wait"),
        "relational.txn_ms": mean("relational.txn"),
        "relational.txns": txns,
        "relational.rows_per_txn": recorder.counters.get("rows_submitted", 0) / txns if txns else 0.0,
        "core.checkpoint.save_ms": mean("core.checkpoint.save"),
        "core.checkpoint.drain_ms": mean("core.checkpoint.drain"),
        "versioning.commit_ms": mean("versioning.commit"),
        "query.dataframe_ms": mean("query.dataframe"),
        "query.rows_returned": recorder.counters.get("query.rows", 0) / reads if reads else 0.0,
    }


def measure(ctx, fx: Fixture) -> dict:
    recorder = ctx.recorder
    if recorder is not None:
        install_spans(recorder)
    fx.read_ms.clear()
    run_walls: list[float] = []
    commits: list[float] = []  # per-layer only: sub-2 ms and too noisy to gate
    traced_walls: list[float] = []
    untraced_walls: list[float] = []
    started = time.perf_counter()
    runs = 0
    while time.perf_counter() - started < ctx.seconds or runs == 0:
        if recorder is not None:
            # Alternate traced and untraced runs: the difference is the
            # tracing overhead, measured on the same history.
            recorder.enabled = runs % 2 == 0
        wall, commit_ms = fx.train_run()
        (traced_walls if recorder is not None and recorder.enabled else untraced_walls).append(wall)
        run_walls.append(wall)
        commits.append(commit_ms)
        runs += 1
    if recorder is not None:
        recorder.enabled = False

    # Correctness: stored rows equal logged rows, and the last incrementally
    # maintained frame equals a cold read through a fresh session.
    from repro import ProjectConfig, Session

    stored = _count_rows(fx)
    cached = (list(fx.last_frame.columns), fx.last_frame.to_records())
    with Session(ProjectConfig(fx.project, "train")) as fresh:
        cold_frame = fresh.dataframe(*PROGRESS_NAMES)
    cold = (list(cold_frame.columns), cold_frame.to_records())
    errors = checks.record_train(fx.logged, stored, cached, cold)

    metrics = {
        "peak_rss_mb": self_rss_mb(),
        # A run's logs are written once flor.commit returns.
        "write_p50_ms": p50(run_walls) * 1e3,
        "read_p50_ms": p50(fx.read_ms),
    }
    outcome = {
        "metrics": metrics,
        "attempted": runs,
        "failed": 0,
        "errors": errors,
        "after_close": lambda: {"stored_bytes_per_row": db_bytes(fx.project) / stored},
    }
    if recorder is not None:
        layers = layer_metrics(recorder)
        layers["flor.commit_p50_ms"] = p50(commits)
        per_run = fx.scale.epochs * fx.scale.steps * inputs.TRAIN_LOGS_PER_STEP
        # From the untraced half of the runs, so spans do not slow it.
        layers["record.logs_per_s"] = per_run * len(untraced_walls) / sum(untraced_walls) if untraced_walls else 0.0
        overhead = (p50(traced_walls) - p50(untraced_walls)) * 1e3 if untraced_walls else None
        rounds, hindsight_errors = hindsight_rounds(ctx, fx, recorder)
        errors += hindsight_errors
        layers.update(hindsight_metrics(recorder, rounds))
        outcome["layers"] = layers
        outcome["trace_wall_ms"] = sum(traced_walls) * 1e3 + sum(rounds)
        outcome["trace_report"] = recorder.report(outcome["trace_wall_ms"], overhead)
    return outcome


def _count_rows(fx: Fixture) -> int:
    return fx.count("SELECT COUNT(*) AS n FROM logs")
