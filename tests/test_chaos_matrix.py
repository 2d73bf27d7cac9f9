"""Chaos matrix: worker crash + torn write + slow unit, both backends.

The PR's acceptance drill (mirrored by the CI tier-2 ``chaos-matrix``
step): run one sweep under a chaos spec that crashes workers, tears
checkpoint writes and slows units, at 2 workers, on **both** executors —
and require bit-identity with an undisturbed single-worker pool run.
Afterwards ``fsck`` must report the surviving stores clean (repairing
any torn shard lines the crashes left behind), proving the detect/
contain/recover loop actually closes.

Distributed chaos kills real worker processes mid-lease (``os._exit``)
and tears real shard appends, so this module exercises lease expiry,
respawn budgets and CRC salvage end to end.  CI uploads the fsck JSON
report as an artifact.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.faultsim import CampaignConfig
from repro.runtime import CampaignEngine, ChaosSpec, RetryPolicy, fsck

BERS = [1e-5, 1e-4]

#: The matrix spec: every recovery path below 50% so retries converge.
CHAOS = ChaosSpec(
    seed=13,
    worker_crash_rate=0.25,
    torn_write_rate=0.25,
    slow_unit_rate=0.3,
    slow_unit_seconds=0.02,
)

RETRY = RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.1)


@pytest.fixture()
def config():
    return CampaignConfig(
        seeds=(0, 1),
        batch_size=12,
        max_samples=24,
    )


@pytest.fixture()
def undisturbed(tiny_quantized, tiny_eval, config):
    qm, _ = tiny_quantized
    x, y = tiny_eval
    return [
        r.to_dict()
        for r in CampaignEngine(workers=1).run_sweep(
            qm, x, y, BERS, config=config
        )
    ]


class TestChaosMatrix:
    def test_pool_chaos_run_is_bit_identical_and_store_clean(
        self, tiny_quantized, tiny_eval, config, tmp_path, undisturbed
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "chaos-pool.json"
        engine = CampaignEngine(
            workers=2, checkpoint_path=ckpt, chaos=CHAOS, retry=RETRY
        )
        got = engine.run_sweep(qm, x, y, BERS, config=config)
        assert [r.to_dict() for r in got] == undisturbed
        # Pool torn writes are rolled back + retried in-process, so the
        # store must already be clean with every unit's record present.
        report = fsck(ckpt)
        assert report.clean and report.unrecoverable == 0
        assert report.intact_records == len(BERS) * len(config.seeds)

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="needs POSIX subprocesses"
    )
    def test_distributed_chaos_run_is_bit_identical_and_fsck_recovers(
        self, tiny_quantized, tiny_eval, config, tmp_path, undisturbed
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        engine = CampaignEngine(
            workers=2,
            backend="distributed",
            queue_dir=tmp_path / "q",
            checkpoint_path=tmp_path / "chaos-dist.json",
            lease_timeout=2.0,
            chaos=CHAOS,
            retry=RETRY,
        )
        got = engine.run_sweep(qm, x, y, BERS, config=config)
        assert [r.to_dict() for r in got] == undisturbed

        # Real crashes tore real shard lines; fsck names the damage,
        # repair quarantines it, and the repaired set holds every record
        # the batch needed (torn keys were recomputed by reclaims).
        (batch_dir,) = sorted((tmp_path / "q").iterdir())
        before = fsck(batch_dir / "shards")
        repaired = fsck(batch_dir / "shards", repair=True)
        after = fsck(batch_dir / "shards")
        assert after.clean and after.unrecoverable == 0
        if before.damaged_lines:
            assert repaired.repaired
        # Every key with a damaged line still has an intact copy — the
        # reclaiming worker re-appended it — so nothing was dropped.
        assert before.dropped_keys == []

        # The merged batch store and the engine checkpoint verify clean
        # and carry the full sweep; the JSON report round-trips (the CI
        # artifact format).
        merged = fsck(batch_dir / "merged.json")
        assert merged.clean
        assert merged.intact_records == len(BERS) * len(config.seeds)
        doc = json.dumps(after.to_dict())
        assert json.loads(doc)["unrecoverable"] == 0
