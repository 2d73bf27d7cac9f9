"""CLI exit codes follow the errors taxonomy (ISSUE satellite f).

Scripts and CI steps branch on exit status without scraping stderr, so
each taxonomy family owns a distinct code — checked here through real
``python -m repro.experiments.cli`` subprocesses, plus the in-process
mapping rules (most-specific exception class wins).
"""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.errors import (
    EXIT_CHECKPOINT,
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_QUARANTINE,
    EXIT_TASK_FAILURE,
    EXIT_USAGE,
    CheckpointError,
    CheckpointWriteError,
    ConfigurationError,
    ReproError,
    TaskExecutionError,
    TaskQuarantinedError,
    UnitDeadlineError,
    exit_code_for,
)
from repro.experiments import cli
from repro.faultsim import SeedPointResult
from repro.runtime import CampaignCheckpoint


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


@pytest.fixture()
def clean_store(tmp_path):
    path = tmp_path / "ck.json"
    store = CampaignCheckpoint(path)
    store.put("k-0", SeedPointResult(ber=1e-5, seed=0, accuracy=0.5, events=1))
    store.flush()
    return path


class TestSubprocessExitCodes:
    def test_fsck_clean_store_exits_zero(self, clean_store):
        proc = run_cli("checkpoint", "fsck", str(clean_store))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "clean" in proc.stdout

    def test_fsck_damaged_store_exits_checkpoint_code(self, clean_store):
        data = clean_store.read_bytes()
        clean_store.write_bytes(data[:-7])  # tear the last record
        proc = run_cli("checkpoint", "fsck", str(clean_store))
        assert proc.returncode == EXIT_CHECKPOINT
        assert "DAMAGED" in proc.stdout

    def test_fsck_repair_of_damaged_store_exits_zero(self, clean_store):
        data = clean_store.read_bytes()
        clean_store.write_bytes(data[:-7])
        proc = run_cli("checkpoint", "fsck", str(clean_store), "--repair")
        assert proc.returncode == EXIT_OK, proc.stdout
        rescan = run_cli("checkpoint", "fsck", str(clean_store), "--json")
        assert rescan.returncode == EXIT_OK
        assert json.loads(rescan.stdout)["unrecoverable"] == 0

    def test_fsck_missing_path_exits_checkpoint_code(self, tmp_path):
        proc = run_cli("checkpoint", "fsck", str(tmp_path / "nope"))
        assert proc.returncode == EXIT_CHECKPOINT
        assert "error:" in proc.stderr

    def test_argparse_usage_error_exits_two(self):
        proc = run_cli("--no-such-flag")
        assert proc.returncode == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("fig5", "--speculative"),
            ("fig2", "--chaos", "x"),
            ("fig1", "--shard-samples", "4"),
            ("fig7", "--adaptive-ber"),
            ("fig2", "--ci-halfwidth", "0.02"),
            ("fig6", "--max-seeds", "4"),
        ],
        ids=[
            "speculative", "chaos", "shard-samples",
            "adaptive-ber", "ci-halfwidth", "max-seeds",
        ],
    )
    def test_retired_speculative_flag_exits_two(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_USAGE
        assert argv[1] in proc.stderr


@pytest.fixture()
def stub_figure(monkeypatch):
    """Swap fig1 for a no-op, so a flag the CLI accepts returns at once."""
    runs = []
    stub = SimpleNamespace(
        run=lambda **kwargs: runs.append(kwargs) or {},
        format_report=lambda payload: "stub report",
    )
    monkeypatch.setitem(cli._FIGURES, "fig1", stub)
    return runs


class TestConfigurationRejectedBeforeAnyFigure:
    """Bad settings exit 3 without running a figure (in-process CLI)."""

    def test_negative_worker_count(self, stub_figure, capsys):
        assert cli.main(["fig1", "--workers", "-2"]) == EXIT_CONFIG
        assert stub_figure == []
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("deadline", ["nan", "inf"])
    def test_non_finite_unit_deadline(self, stub_figure, capsys, deadline):
        assert cli.main(["fig1", "--unit-deadline", deadline]) == EXIT_CONFIG
        assert stub_figure == []
        assert "deadline" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--unit-deadline", "0", "deadline"),
            ("--unit-deadline", "-1", "deadline"),
            ("--unit-deadline", "1e12", "deadline"),
            ("--max-attempts", "0", "max_attempts"),
            ("--max-attempts", "-3", "max_attempts"),
        ],
    )
    def test_unrunnable_retry_setting(self, stub_figure, capsys, flag, value, field):
        assert cli.main(["fig1", flag, value]) == EXIT_CONFIG
        assert stub_figure == []
        assert field in capsys.readouterr().err

    def test_degenerate_planner_step(self, monkeypatch, capsys):
        # A planner step that cannot grow the plan is a configuration
        # error (exit 3), not a fault-model failure deep in the loop.
        from repro.tmr import plan_tmr

        stub = SimpleNamespace(
            run=lambda **kwargs: plan_tmr(
                None, None, None, 1e-4, 0.5, [], step=-0.25
            ),
            format_report=lambda payload: "stub report",
        )
        monkeypatch.setitem(cli._FIGURES, "fig5", stub)
        assert cli.main(["fig5"]) == EXIT_CONFIG
        assert "step" in capsys.readouterr().err


class TestCheckpointRepairFailure:
    def test_fsck_repair_whose_rewrite_fails_exits_checkpoint_code(
        self, clean_store, monkeypatch, capsys
    ):
        """A full disk during ``fsck --repair`` is a typed checkpoint
        failure (exit 6), not a traceback, and the store is left as-is."""
        with open(clean_store, "a") as handle:  # a duplicate to repair
            handle.write(clean_store.read_text().splitlines()[1] + "\n")
        before = clean_store.read_bytes()

        def disk_full(fd):
            raise OSError(errno.ENOSPC, "No space left on device (test)")

        monkeypatch.setattr(os, "fsync", disk_full)
        code = cli.main(["checkpoint", "fsck", str(clean_store), "--repair"])
        assert code == EXIT_CHECKPOINT
        assert "error:" in capsys.readouterr().err
        assert clean_store.read_bytes() == before
        assert [p.name for p in clean_store.parent.iterdir()] == ["ck.json"]


class TestExitCodeMapping:
    def test_codes_are_distinct(self):
        codes = [
            EXIT_OK,
            EXIT_FAILURE,
            EXIT_USAGE,
            EXIT_CONFIG,
            EXIT_TASK_FAILURE,
            EXIT_QUARANTINE,
            EXIT_CHECKPOINT,
        ]
        assert len(set(codes)) == len(codes)

    def test_most_specific_class_wins(self):
        # Quarantine subclasses TaskExecutionError; CheckpointError
        # subclasses ConfigurationError — the mapping must check the
        # leaf classes first or everything collapses to the base codes.
        assert exit_code_for(TaskQuarantinedError("x")) == EXIT_QUARANTINE
        assert exit_code_for(TaskExecutionError("x")) == EXIT_TASK_FAILURE
        assert exit_code_for(CheckpointWriteError("x")) == EXIT_CHECKPOINT
        assert exit_code_for(CheckpointError("x")) == EXIT_CHECKPOINT
        assert exit_code_for(ConfigurationError("x")) == EXIT_CONFIG

    def test_unmapped_errors_fall_back_to_one(self):
        assert exit_code_for(ReproError("x")) == EXIT_FAILURE
        assert exit_code_for(UnitDeadlineError("x")) == EXIT_FAILURE
        assert exit_code_for(RuntimeError("x")) == EXIT_FAILURE
