"""Chaos matrix: worker crash + torn write + slow unit on the pool.

The resilience drill (mirrored by the CI tier-2 ``chaos-matrix`` step):
run one sweep under a chaos spec that crashes workers, tears checkpoint
writes and slows units, on a 2-worker pool — and require bit-identity
with an undisturbed single-worker run.  Afterwards ``fsck`` must report
the checkpoint clean with every record present, proving the detect/
contain/recover loop actually closes.
"""

from __future__ import annotations

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
        assert report.records == len(BERS) * len(config.seeds)
