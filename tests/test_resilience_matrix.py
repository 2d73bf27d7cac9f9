"""Resilience matrix: transient unit errors + torn writes + slow units.

The runtime's recovery drill (mirrored by the CI tier-2
``resilience-matrix`` step): run one sweep under deterministic runtime
faults (the ``runtime_faults`` fixture) that fail units transiently,
tear checkpoint writes and slow units, on a 2-worker pool — and require
bit-identity with an undisturbed single-worker run.  Afterwards
``fsck`` must report the checkpoint clean with every record present,
proving the detect/contain/recover loop actually closes.  Poison tags
are the one deliberately non-convergent fault: they fail every attempt,
exhaust the retry budget, and surface as a
:class:`~repro.errors.TaskQuarantinedError`.
"""

from __future__ import annotations

import pytest

from repro.errors import TaskExecutionError, TaskQuarantinedError
from repro.faultsim import CampaignConfig
from repro.runtime import (
    CampaignEngine,
    RetryPolicy,
    TaskSpec,
    data_fingerprint,
    fsck,
    model_fingerprint,
)

BERS = [1e-5, 1e-4]

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


class TestResilienceMatrix:
    @pytest.mark.parametrize(
        "unit_faults, write_faults",
        [
            # Seed 8 fails two units' first attempts (and one retry),
            # slows a unit and tears two appends.
            (
                dict(seed=8, transient=0.25, slow_unit=0.3, slow_seconds=0.02),
                dict(seed=8, torn_write=0.25),
            ),
            # Seed 5 fails two of the four units' first attempts, at a
            # rate that makes repeated retries likely.
            (dict(seed=5, transient=0.5, slow_unit=0.25, slow_seconds=0.01), {}),
            # Seed 1 fills the disk on three appends, one of them a
            # retried flush, and slows units.
            (
                dict(seed=1, slow_unit=0.5, slow_seconds=0.01),
                dict(seed=1, enospc=0.5),
            ),
            # Control: the wrappers armed at rate zero change nothing.
            (dict(seed=0), dict(seed=0)),
        ],
        ids=["torn-writes", "deep-retries", "enospc-writes", "armed-idle"],
    )
    def test_pool_faulty_run_is_bit_identical_and_store_clean(
        self, tiny_quantized, tiny_eval, config, tmp_path, undisturbed,
        runtime_faults, unit_faults, write_faults,
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        runtime_faults.units(**unit_faults)
        runtime_faults.writes(**write_faults)
        ckpt = tmp_path / "faulty-pool.json"
        engine = CampaignEngine(workers=2, checkpoint_path=ckpt, retry=RETRY)
        got = engine.run_sweep(qm, x, y, BERS, config=config)
        assert [r.to_dict() for r in got] == undisturbed
        # Torn writes are rolled back + retried in-process, so the store
        # must already be clean with every unit's record present.
        report = fsck(ckpt)
        assert report.clean and report.unrecoverable == 0
        assert report.records == len(BERS) * len(config.seeds)

    def test_poison_tag_quarantines_with_keys(
        self, tiny_quantized, tiny_eval, config, runtime_faults
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        runtime_faults.units(poison=("doomed",))
        engine = CampaignEngine(
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        )
        tasks = [
            TaskSpec(ber=BERS[0], seed=0, tag="healthy"),
            TaskSpec(ber=BERS[0], seed=1, tag="doomed"),
        ]
        with pytest.raises(TaskQuarantinedError, match="doomed") as info:
            engine.evaluate_tasks(qm, x, y, tasks, config=config)
        assert info.value.tag == "doomed"
        assert len(info.value.quarantined_keys) == 1

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_failing_slices_name_their_point_once(
        self, tiny_quantized, tiny_eval, config, tmp_path, runtime_faults,
        force_slices, workers,
    ):
        """Every slice of a poisoned point fails; the quarantine names the
        point's key once, with the window in the message, and the healthy
        point is still stored under its own key."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        runtime_faults.units(poison=("doomed",))
        force_slices(7)
        ckpt = tmp_path / "campaign.json"
        engine = CampaignEngine(
            workers=workers,
            checkpoint_path=ckpt,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        )
        tasks = [
            TaskSpec(ber=BERS[0], seed=0, tag="healthy"),
            TaskSpec(ber=BERS[0], seed=1, tag="doomed"),
        ]
        fps = model_fingerprint(qm), data_fingerprint(x[:24], y[:24])
        keys = [task.key(*fps, config) for task in tasks]
        with pytest.raises(TaskQuarantinedError, match=r"samples \[\d+, \d+\)") as info:
            engine.evaluate_tasks(qm, x, y, tasks, config=config)
        assert info.value.tag == "doomed"
        assert info.value.task_key == keys[1]
        assert info.value.quarantined_keys == (keys[1],)
        report = fsck(ckpt)
        assert report.clean and report.records == 1
        assert keys[0] in ckpt.read_text()

    def test_permanent_slice_failure_names_its_point(
        self, tiny_quantized, tiny_eval, force_slices
    ):
        """A keyless batch computes the failing point's key on demand."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        bad = CampaignConfig(
            seeds=(0,), batch_size=12, max_samples=24, injector="no-such-injector"
        )
        task = TaskSpec(ber=BERS[0], seed=0, tag="bad")
        force_slices(7)
        window = r"samples \[0, 7\) failed"
        with pytest.raises(TaskExecutionError, match=window) as info:
            CampaignEngine(workers=1).evaluate_tasks(qm, x, y, [task], config=bad)
        fps = model_fingerprint(qm), data_fingerprint(x[:24], y[:24])
        assert info.value.task_key == task.key(*fps, bad)
        assert info.value.tag == "bad"
