"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.workloads import VersionedScriptWorkload


@pytest.fixture()
def recorded_project(tmp_path):
    """A project directory holding three recorded versions of train.py."""
    from repro import ProjectConfig, Session

    root = tmp_path / "proj"
    # No explicit projid: the CLI will resolve the same default (the directory
    # name), which is how a user would run it against an existing project.
    session = Session(ProjectConfig(root))
    workload = VersionedScriptWorkload(versions=3, epochs=3, steps=2)
    workload.record_all_versions(session)
    session.close()
    return root, workload


class TestQueries:
    def test_names_lists_log_names(self, recorded_project, capsys):
        root, _ = recorded_project
        assert main(["--project", str(root), "names"]) == 0
        out = capsys.readouterr().out
        assert "loss" in out
        assert "lr" in out

    def test_versions_lists_epochs(self, recorded_project, capsys):
        root, _ = recorded_project
        assert main(["--project", str(root), "versions"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4  # header + three epochs
        assert "version 0" in out

    def test_dataframe_prints_pivot(self, recorded_project, capsys):
        root, _ = recorded_project
        assert main(["--project", str(root), "dataframe", "loss"]) == 0
        out = capsys.readouterr().out
        assert "tstamp" in out and "loss" in out

    def test_dataframe_latest_restricts_rows(self, recorded_project, capsys):
        root, _ = recorded_project
        main(["--project", str(root), "dataframe", "loss"])
        full = capsys.readouterr().out
        main(["--project", str(root), "dataframe", "loss", "--latest"])
        latest = capsys.readouterr().out
        assert len(latest.splitlines()) < len(full.splitlines())

    def test_dataframe_since_until_pushdown(self, recorded_project, capsys):
        """--since/--until bound the scan; an impossible range prints no rows."""
        root, _ = recorded_project
        main(["--project", str(root), "dataframe", "loss"])
        full = capsys.readouterr().out
        assert main(
            ["--project", str(root), "dataframe", "loss", "--since", "9999"]
        ) == 0
        empty = capsys.readouterr().out
        assert len(empty.splitlines()) < len(full.splitlines())
        assert main(
            ["--project", str(root), "dataframe", "loss", "--since", "0", "--until", "9999"]
        ) == 0
        bounded = capsys.readouterr().out
        assert len(bounded.splitlines()) == len(full.splitlines())

    def test_sql_direct_and_pivot(self, recorded_project, capsys):
        root, _ = recorded_project
        assert main(["--project", str(root), "sql", "SELECT COUNT(*) AS n FROM logs"]) == 0
        assert "n" in capsys.readouterr().out
        assert (
            main(
                [
                    "--project",
                    str(root),
                    "sql",
                    "SELECT COUNT(*) AS rows FROM pivot",
                    "--names",
                    "loss",
                ]
            )
            == 0
        )
        assert "rows" in capsys.readouterr().out

    def test_sql_write_statement_fails_cleanly(self, recorded_project, capsys):
        root, _ = recorded_project
        assert main(["--project", str(root), "sql", "DELETE FROM logs"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_counts_tables(self, recorded_project, capsys):
        root, _ = recorded_project
        assert main(["--project", str(root), "stats"]) == 0
        out = capsys.readouterr().out
        assert "logs" in out and "commits" in out

    def test_empty_project(self, tmp_path, capsys):
        assert main(["--project", str(tmp_path / "fresh"), "names"]) == 0
        assert "no log names" in capsys.readouterr().err


class TestBuild:
    @pytest.fixture()
    def make_project(self, tmp_path):
        """A project directory with a shell-recipe Makefile."""
        root = tmp_path / "buildproj"
        root.mkdir()
        (root / "in.txt").write_text("payload\n")
        (root / "Makefile").write_text(
            "out.txt: in.txt\n"
            "\t@cp in.txt out.txt\n"
            "final: out.txt\n"
            "\t@touch final\n"
        )
        return root

    def test_build_runs_shell_recipes(self, make_project, capsys):
        root = make_project
        assert main(["--project", str(root), "build", "final"]) == 0
        out = capsys.readouterr().out
        assert "RUN" in out and "built 'final': 2 executed" in out
        assert (root / "out.txt").read_text() == "payload\n"
        assert (root / "final").exists()

    def test_second_build_is_cached(self, make_project, capsys):
        root = make_project
        main(["--project", str(root), "build", "final"])
        capsys.readouterr()
        assert main(["--project", str(root), "build", "final"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out

    def test_force_and_jobs_flags(self, make_project, capsys):
        root = make_project
        main(["--project", str(root), "build", "final"])
        capsys.readouterr()
        assert main(["--project", str(root), "build", "final", "--force", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out and "jobs=2" in out

    def test_default_target_is_first_rule(self, make_project, capsys):
        root = make_project
        assert main(["--project", str(root), "build"]) == 0
        assert "built 'out.txt'" in capsys.readouterr().out

    def test_build_records_version_and_deps(self, make_project, capsys):
        from repro import ProjectConfig, Session

        root = make_project
        assert main(["--project", str(root), "build", "final"]) == 0
        with Session(ProjectConfig(root)) as session:
            latest = session.ts2vid.latest(session.projid)
            assert latest is not None and latest.root_target == "final"
            targets = {r.target for r in session.build_deps.by_vid(latest.vid)}
        assert targets == {"out.txt", "final"}

    def test_no_record_skips_versioning(self, make_project, capsys):
        from repro import ProjectConfig, Session

        root = make_project
        assert main(["--project", str(root), "build", "final", "--no-record"]) == 0
        with Session(ProjectConfig(root)) as session:
            assert session.ts2vid.all(session.projid) == []

    def test_unknown_target_fails_cleanly(self, make_project, capsys):
        root = make_project
        assert main(["--project", str(root), "build", "ghost"]) == 2
        assert "no rule to make target" in capsys.readouterr().err

    def test_missing_makefile_fails_cleanly(self, tmp_path, capsys):
        root = tmp_path / "bare"
        assert main(["--project", str(root), "build", "x"]) == 2
        assert "no such Makefile" in capsys.readouterr().err

    def test_missing_prerequisite_fails_cleanly(self, make_project, capsys):
        root = make_project
        (root / "in.txt").unlink()
        assert main(["--project", str(root), "build", "final"]) == 2
        assert "missing prerequisite" in capsys.readouterr().err


class TestBackfill:
    def test_backfill_from_source_file(self, recorded_project, capsys, tmp_path):
        root, workload = recorded_project
        new_source = tmp_path / "new_train.py"
        new_source.write_text(workload.hindsight_source())
        exit_code = main(
            [
                "--project",
                str(root),
                "backfill",
                "train.py",
                "--source",
                str(new_source),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "new_records" in out
        # The new column is now queryable through the CLI as well.
        main(["--project", str(root), "dataframe", "weight"])
        assert "weight" in capsys.readouterr().out

    def test_backfill_with_iteration_restriction(self, recorded_project, tmp_path, capsys):
        root, workload = recorded_project
        new_source = tmp_path / "new_train.py"
        new_source.write_text(workload.hindsight_source())
        exit_code = main(
            [
                "--project",
                str(root),
                "backfill",
                "train.py",
                "--source",
                str(new_source),
                "--loop",
                "epoch",
                "--epoch",
                "2",
            ]
        )
        assert exit_code == 0
        assert "iterations_skipped" in capsys.readouterr().out

    def test_backfill_missing_script_fails(self, recorded_project, capsys):
        root, _ = recorded_project
        assert main(["--project", str(root), "backfill", "ghost.py"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeParser:
    def test_serve_subcommand_is_wired(self):
        from repro.cli import _cmd_serve, build_parser

        args = build_parser().parse_args(
            ["--project", "/srv/flor", "serve", "--port", "0", "--pool-capacity", "4"]
        )
        assert args.func is _cmd_serve
        assert args.project == "/srv/flor"
        assert args.port == 0
        assert args.pool_capacity == 4
        assert args.workers == 0

    def test_serve_help_mentions_shards(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        out = capsys.readouterr().out
        assert "shard" in out
        assert "--pool-capacity" in out


class TestBackfillDryRun:
    def test_dry_run_prints_the_patch_plan_without_replaying(
        self, recorded_project, capsys, tmp_path
    ):
        root, workload = recorded_project
        new_source = tmp_path / "new_train.py"
        new_source.write_text(workload.hindsight_source())
        exit_code = main(
            [
                "--project",
                str(root),
                "backfill",
                "train.py",
                "--source",
                str(new_source),
                "--dry-run",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "dry run: patch plan" in out
        assert 'flor.log("weight", state["w"])' in out
        assert "after old line" in out
        # Nothing was replayed: the weight column is still entirely empty.
        assert main(["--project", str(root), "sql",
                     "SELECT COUNT(*) AS n FROM logs WHERE value_name = 'weight'"]) == 0
        assert "0" in capsys.readouterr().out

    def test_dry_run_reports_dropped_statements(self, recorded_project, capsys, tmp_path):
        root, workload = recorded_project
        new_source = tmp_path / "new_train.py"
        new_source.write_text(
            workload.hindsight_source() + '\nif False:\n    flor.log("ghost", 1)'
        )
        assert main(
            [
                "--project",
                str(root),
                "backfill",
                "train.py",
                "--source",
                str(new_source),
                "--dry-run",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "dropped" in out
        assert "ghost" in out


@pytest.fixture()
def jobs_root(tmp_path):
    """A multi-tenant root with one populated project, as `serve` sees it."""
    from repro.workloads import BackfillJobWorkload

    workload = BackfillJobWorkload(projects=1, versions=2, epochs=2, steps=1)
    root = tmp_path / "host"
    workload.populate(root)
    source = tmp_path / "new_train.py"
    source.write_text(workload.hindsight_source())
    return root, workload, source


class TestJobsCli:
    def _submit(self, root, source, *extra):
        return main(
            [
                "--project",
                str(root),
                "jobs",
                "submit",
                "tenant_00",
                "train.py",
                "--source",
                str(source),
                *extra,
            ]
        )

    def test_submit_then_run_then_watch(self, jobs_root, capsys):
        root, workload, source = jobs_root
        assert self._submit(root, source) == 0
        assert "queued" in capsys.readouterr().out

        assert main(["--project", str(root), "jobs", "run", "--timeout", "60"]) == 0
        assert "succeeded=1" in capsys.readouterr().out

        assert main(["--project", str(root), "jobs", "watch", "1", "--timeout", "5"]) == 0
        out = capsys.readouterr().out
        assert "[succeeded]" in out
        assert "version" in out  # per-version progress events streamed

    def test_status_with_events(self, jobs_root, capsys):
        root, _, source = jobs_root
        self._submit(root, source)
        capsys.readouterr()
        assert main(["--project", str(root), "jobs", "status", "1", "--events"]) == 0
        out = capsys.readouterr().out
        assert "[queued]" in out
        assert "submitted" in out

    def test_cancel_then_retry_then_list(self, jobs_root, capsys):
        root, _, source = jobs_root
        self._submit(root, source)
        assert main(["--project", str(root), "jobs", "cancel", "1"]) == 0
        assert "[cancelled]" in capsys.readouterr().out
        assert main(["--project", str(root), "jobs", "retry", "1"]) == 0
        assert "[queued]" in capsys.readouterr().out
        assert main(["--project", str(root), "jobs", "list", "--state", "queued"]) == 0
        assert "job 1" in capsys.readouterr().out

    def test_retry_of_queued_job_errors_cleanly(self, jobs_root, capsys):
        root, _, source = jobs_root
        self._submit(root, source)
        capsys.readouterr()
        assert main(["--project", str(root), "jobs", "retry", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_job_id_errors_cleanly(self, jobs_root, capsys):
        root, _, _ = jobs_root
        assert main(["--project", str(root), "jobs", "status", "42"]) == 2
        assert "no such job" in capsys.readouterr().err


class TestJobsParser:
    def test_serve_gains_job_workers(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--job-workers", "3"])
        assert args.job_workers == 3
        assert build_parser().parse_args(["serve"]).job_workers == 0

    def test_jobs_submit_parser_carries_plan_flags(self):
        from repro.cli import _cmd_jobs_submit, build_parser

        args = build_parser().parse_args(
            ["jobs", "submit", "alpha", "train.py", "--epoch", "2", "3", "--priority", "1"]
        )
        assert args.func is _cmd_jobs_submit
        assert args.name == "alpha"
        assert args.epoch == [2, 3]
        assert args.priority == 1


class TestServeShutdownSignals:
    def test_sigterm_and_sigint_set_the_shutdown_event(self):
        """Container deployments stop `serve` with SIGTERM: the installed
        handler must route it into the shutdown event so workers drain."""
        import os
        import signal
        import threading

        from repro.cli import _install_shutdown_signals

        previous = {
            sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            event = threading.Event()
            _install_shutdown_signals(event)
            os.kill(os.getpid(), signal.SIGTERM)
            assert event.wait(timeout=5)

            event = threading.Event()
            _install_shutdown_signals(event)
            os.kill(os.getpid(), signal.SIGINT)
            assert event.wait(timeout=5)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    def test_installation_from_a_worker_thread_is_skipped_not_fatal(self):
        import threading

        from repro.cli import _install_shutdown_signals

        errors = []
        event = threading.Event()

        def attempt() -> None:
            try:
                _install_shutdown_signals(event)
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        thread = threading.Thread(target=attempt)
        thread.start()
        thread.join()
        assert errors == []
