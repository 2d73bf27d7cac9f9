"""Fault-injection chaos harness for the distributed backend.

Real worker *processes* are spawned against a temp queue; one is
SIGKILLed mid-lease (while stalled inside a task, heartbeats and all).
The protocol's promise under that failure: the stale lease expires, a
surviving worker reclaims and re-runs the unit, and — because every unit
is a pure function of its spec — the final sweep is bit-identical
(checkpoint keys, accuracies, event counts) to the pool backend, with
nothing quarantined and nothing lost.

The victim is stalled deterministically by a certain ``slow_unit`` chaos
spec in the batch payload: it claims one task, then sleeps far past the
test's deadline while its heartbeat thread keeps the lease alive — so
only SIGKILL (which stops the heartbeats) can release the task, which is
exactly the failure mode under test.  The payload is then rewritten
without chaos before the healthy worker starts.

CI tier-2 re-runs this module with ``REPRO_PARITY_WORKERS=2``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faultsim import CampaignConfig
from repro.runtime import (
    CampaignEngine,
    TaskSpec,
    WorkQueue,
    batch_task_keys,
    data_fingerprint,
    model_fingerprint,
)
from repro.runtime.chaos import ChaosSpec
from repro.runtime.distributed import prepare_batch, shard_paths, write_payload
from repro.runtime.checkpoint import CampaignCheckpoint

BERS = [0.0, 1e-5, 1e-4]
LEASE_TIMEOUT = 2.0
DEADLINE = 120.0


@pytest.fixture()
def config():
    return CampaignConfig(
        seeds=(0, 1),
        batch_size=12,
        max_samples=24,
    )


def spawn_worker(root: Path, name: str):
    """Start one real CLI worker subprocess against ``root``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    log = open(root / f"{name}.log", "wb")
    try:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "worker",
                "--queue",
                str(root),
                "--worker-id",
                name,
                "--poll",
                "0.05",
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
    finally:
        log.close()


def wait_until(predicate, deadline=DEADLINE, message="condition"):
    """Poll ``predicate`` until true or fail the test after ``deadline``."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {deadline}s waiting for {message}")


class TestSigkillChaos:
    def test_sigkill_mid_lease_reclaims_and_stays_bit_identical(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval

        # Reference: the pool backend, checkpointed so we can compare
        # keys and rows (not just reduced results) against the shards.
        pool = CampaignEngine(workers=1, checkpoint_path=tmp_path / "pool.json")
        ref = pool.run_sweep(qm, x, y, BERS, config=config)

        tasks = [
            TaskSpec(ber=ber, seeds=tuple(config.seeds)) for ber in BERS
        ]
        units = [unit for task in tasks for unit in task.subtasks()]
        trim_x, trim_y = x[: config.max_samples], y[: config.max_samples]
        keys = batch_task_keys(
            model_fingerprint(qm), data_fingerprint(trim_x, trim_y), config, units
        )

        root = tmp_path / "batch"
        queue = prepare_batch(
            root, qm, x, y, config, units, keys, list(range(len(units))),
            lease_timeout=LEASE_TIMEOUT, max_attempts=5,
            chaos=ChaosSpec(slow_unit_rate=1.0, slow_unit_seconds=600),
        )

        victim = healthy = None
        try:
            # The victim claims one task and stalls inside it, heartbeat
            # thread running, until SIGKILLed.
            victim = spawn_worker(root, "victim")
            wait_until(
                lambda: queue.stats().leased >= 1,
                message="the victim to claim a lease",
            )
            victim_key = next(
                key for key in keys if queue.task(key)["state"] == "leased"
            )

            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            # Drop the stall before the survivor loads the payload (the
            # rewrite is atomic, so no reader sees a partial file).
            write_payload(root, qm, x, y, config, units, chaos=None)

            # A healthy worker drains the queue; the victim's lease
            # expires (no more heartbeats) and is reclaimed on attempt 2.
            healthy = spawn_worker(root, "healthy")
            wait_until(
                lambda: not queue.has_work(),
                message="the queue to settle after the kill",
            )
            healthy.wait(timeout=30)  # settles -> worker exits on its own
        finally:
            for proc in (victim, healthy):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()

        # Stale-lease reclaim re-ran exactly the killed unit.
        stats = queue.stats()
        assert stats.done == len(units)
        assert stats.quarantined == 0
        victim_row = queue.task(victim_key)
        assert victim_row["state"] == "done"
        assert victim_row["attempts"] == 2
        assert victim_row["owner"] == "healthy"
        others = [queue.task(key)["attempts"] for key in keys if key != victim_key]
        assert others == [1] * (len(units) - 1)
        # The victim died before writing anything: every row came from
        # the survivor's shard.
        merged = CampaignCheckpoint.merge_shards(
            root / "chaos-merged.json", shard_paths(root)
        )
        assert dict(merged.items()) == {
            key: result
            for key, result in CampaignCheckpoint(tmp_path / "pool.json").items()
            if key in set(keys)
        }

        # And the *sweep* is bit-identical: an engine resuming purely
        # from the chaos-run shards reproduces the pool results without
        # recomputing anything.
        resumed = CampaignEngine(
            workers=1, checkpoint_path=root / "chaos-merged.json", resume=True
        )
        got = resumed.run_sweep(qm, x, y, BERS, config=config)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in ref]
        assert resumed.last_stats.computed_units == 0


class TestShortLeaseHeartbeat:
    def test_heartbeats_keep_live_workers_from_being_reclaimed(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        # The inverse chaos case: a lease *much shorter* than a unit's
        # compute time must never be reclaimed from a live worker — the
        # heartbeat thread (beating at a third of the timeout) keeps it
        # current, so the batch completes without spurious double
        # execution or quarantine, bit-identically.
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ref = CampaignEngine(workers=1).run_sweep(
            qm, x, y, BERS[:2], config=config
        )
        engine = CampaignEngine(
            workers=2,
            backend="distributed",
            queue_dir=tmp_path / "q",
            lease_timeout=0.5,
        )
        got = engine.run_sweep(qm, x, y, BERS[:2], config=config)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in ref]
        (batch_dir,) = sorted((tmp_path / "q").iterdir())
        stats = WorkQueue(batch_dir).stats()
        assert stats.settled
        assert stats.quarantined == 0
        assert stats.done == len(BERS[:2]) * len(config.seeds)
