"""Tests for intra-task seed sharding: seed-batch tasks and subtask resume.

A seed-batch :class:`TaskSpec` (``seeds=``) shards into per-seed subtasks
inside :meth:`CampaignEngine.evaluate_tasks`; the checkpoint is keyed at
subtask granularity, so interrupting a batch mid-way ("kill mid-batch")
and resuming must recompute exactly the missing seeds and still produce
results bit-identical to the serial loops.  The engine slices pending
points along the sample axis by itself, and slicing never reaches the
checkpoint: one (BER, seed, plan) point is one row for any worker count.
"""

from __future__ import annotations

import json

import pytest

import repro.runtime
from repro.errors import ConfigurationError
from repro.experiments.common import make_engine
from repro.faultsim import CampaignConfig, evaluate_seed_point
from repro.faultsim.campaign import CampaignResult, run_point, run_sweep
from repro.runtime import (
    CampaignEngine,
    TaskSpec,
    data_fingerprint,
    fsck,
    model_fingerprint,
)
from repro.runtime.checkpoint import record_crc

BER = 1e-4
SEEDS = (0, 1, 2, 3)


@pytest.fixture()
def config():
    return CampaignConfig(seeds=SEEDS, batch_size=12, max_samples=24)


def as_dicts(results):
    return [r.to_dict() for r in results]


class StopAfter:
    """Progress reporter that simulates a crash after ``limit`` events."""

    def __init__(self, limit: int):
        self.limit = limit
        self.events = 0

    def __call__(self, event) -> None:
        self.events += 1
        if self.events >= self.limit:
            raise KeyboardInterrupt(f"simulated kill after {self.limit} subtasks")


class TestTaskSpecShapes:
    def test_point_and_batch_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            TaskSpec(ber=BER)
        with pytest.raises(ConfigurationError, match="exactly one"):
            TaskSpec(ber=BER, seed=0, seeds=(0, 1))

    def test_empty_seed_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            TaskSpec(ber=BER, seeds=())

    def test_subtasks_expand_in_seed_order(self):
        task = TaskSpec(ber=BER, seeds=(5, 3, 8), tag="batch")
        subs = task.subtasks()
        assert [t.seed for t in subs] == [5, 3, 8]
        assert all(not t.is_batch for t in subs)
        assert all(t.ber == BER and t.tag == "batch" for t in subs)
        # A point task is its own singleton expansion.
        point = TaskSpec(ber=BER, seed=7)
        assert point.subtasks() == (point,)

    def test_batch_task_has_no_single_key(self):
        config = CampaignConfig(seeds=(0, 1))
        batch = TaskSpec(ber=BER, seeds=(0, 1))
        with pytest.raises(ConfigurationError, match="no single key"):
            batch.key("m", "d", config)
        # Its subtasks key exactly like the equivalent point tasks.
        keys = [t.key("m", "d", config) for t in batch.subtasks()]
        assert keys == [
            TaskSpec(ber=BER, seed=s).key("m", "d", config) for s in (0, 1)
        ]


class TestSeedBatchEvaluation:
    def test_batch_task_reduces_to_run_point(self, tiny_quantized, tiny_eval, config):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        serial = run_point(qm, x, y, BER, config=config)
        for workers in (1, 3):
            engine = CampaignEngine(workers=workers)
            (result,) = engine.evaluate_tasks(
                qm, x, y, [TaskSpec(ber=BER, seeds=SEEDS)], config=config
            )
            assert isinstance(result, CampaignResult)
            assert result.to_dict() == serial.to_dict()

    def test_mixed_point_and_batch_tasks(self, tiny_quantized, tiny_eval, config):
        """One batch per-slot shape: point tasks yield SeedPointResults,
        batch tasks CampaignResults, in task order."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        tasks = [
            TaskSpec(ber=BER, seed=1),
            TaskSpec(ber=BER, seeds=SEEDS),
            TaskSpec(ber=3e-5, seed=0),
        ]
        engine = CampaignEngine(workers=2)
        point_a, batch, point_b = engine.evaluate_tasks(
            qm, x, y, tasks, config=config
        )
        assert engine.last_stats.total_units == 2 + len(SEEDS)
        reference = run_point(qm, x, y, BER, config=config)
        assert batch.to_dict() == reference.to_dict()
        assert point_a.accuracy == reference.per_seed[1]
        serial_b = run_sweep(
            qm, x, y, [3e-5],
            config=CampaignConfig(seeds=(0,), batch_size=12, max_samples=24),
        )[0]
        assert point_b.accuracy == serial_b.per_seed[0]

    def test_stats_count_subtask_units(self, tiny_quantized, tiny_eval, config):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        engine = CampaignEngine(workers=1)
        engine.evaluate_tasks(
            qm, x, y, [TaskSpec(ber=BER, seeds=SEEDS)], config=config
        )
        assert engine.last_stats.total_units == len(SEEDS)
        assert engine.last_stats.computed_units == len(SEEDS)


class TestSubtaskGranularResume:
    def test_kill_mid_batch_then_resume_recomputes_only_missing(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """Kill a seed-batch evaluation after 2 of 4 seeds; the resumed
        engine must serve those 2 from checkpoint, recompute exactly the
        missing 2, and match the uninterrupted serial result."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        serial = run_point(qm, x, y, BER, config=config)

        killed = CampaignEngine(
            workers=1, checkpoint_path=ckpt, progress=StopAfter(2)
        )
        with pytest.raises(KeyboardInterrupt):
            killed.evaluate_tasks(
                qm, x, y, [TaskSpec(ber=BER, seeds=SEEDS)], config=config
            )
        # The two finished subtasks are on disk as per-seed records.
        lines = ckpt.read_text().splitlines()
        assert json.loads(lines[0]) == {"version": 3}
        finished = [json.loads(line) for line in lines[1:]]
        assert sorted(row["seed"] for row in finished) == [0, 1]

        resumed = CampaignEngine(workers=2, checkpoint_path=ckpt, resume=True)
        (result,) = resumed.evaluate_tasks(
            qm, x, y, [TaskSpec(ber=BER, seeds=SEEDS)], config=config
        )
        assert resumed.last_stats.cached_units == 2
        assert resumed.last_stats.computed_units == len(SEEDS) - 2
        assert result.to_dict() == serial.to_dict()

    def test_kill_mid_sweep_resume_is_bit_identical(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """The same contract through run_sweep's seed-batch tasks, with
        the kill landing inside the second BER's batch."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        bers = [3e-5, BER]
        ckpt = tmp_path / "campaign.json"
        serial = run_sweep(qm, x, y, bers, config=config)

        kill_at = len(SEEDS) + 1  # first BER done, second BER 1/4 seeds in
        killed = CampaignEngine(
            workers=1, checkpoint_path=ckpt, progress=StopAfter(kill_at)
        )
        with pytest.raises(KeyboardInterrupt):
            killed.run_sweep(qm, x, y, bers, config=config)

        resumed = CampaignEngine(workers=3, checkpoint_path=ckpt, resume=True)
        results = resumed.run_sweep(qm, x, y, bers, config=config)
        assert resumed.last_stats.cached_units == kill_at
        assert resumed.last_stats.computed_units == 2 * len(SEEDS) - kill_at
        assert as_dicts(results) == as_dicts(serial)

    def test_batch_and_point_tasks_share_checkpoint_entries(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """A seed-batch task resumes from entries written by the
        equivalent point tasks (identity lives at subtask granularity)."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        points = [TaskSpec(ber=BER, seed=s) for s in SEEDS]
        CampaignEngine(workers=1, checkpoint_path=ckpt).evaluate_tasks(
            qm, x, y, points, config=config
        )
        engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        (batch,) = engine.evaluate_tasks(
            qm, x, y, [TaskSpec(ber=BER, seeds=SEEDS)], config=config
        )
        assert engine.last_stats.computed_units == 0
        assert engine.last_stats.cached_units == len(SEEDS)
        assert batch.to_dict() == run_point(qm, x, y, BER, config=config).to_dict()


class TestAutoSampleShard:
    """The engine's own slicing decision: fill the pool, never over-split."""

    def counter_config(self, seeds=(0,)):
        return CampaignConfig(
            seeds=seeds,
            batch_size=12,
            max_samples=24,
        )

    def test_chooser_math(self):
        from repro.runtime import auto_sample_shard

        # One unit, four workers: 4 slices of ceil(24/4) = 6 samples.
        assert auto_sample_shard(24, 4, 1) == 6
        # Two units, eight workers: 4 slices per unit.
        assert auto_sample_shard(24, 8, 2) == 6
        # Enough units already — no slicing.
        assert auto_sample_shard(24, 4, 8) is None
        assert auto_sample_shard(24, 4, 4) is None
        # Serial engine or empty batch — no slicing.
        assert auto_sample_shard(24, 1, 1) is None
        assert auto_sample_shard(24, 4, 0) is None
        # Cannot slice finer than one sample.
        assert auto_sample_shard(5, 16, 1) == 1
        assert auto_sample_shard(1, 16, 1) is None

    def test_chooser_fills_pool_without_oversplitting(self):
        from repro.runtime import auto_sample_shard

        for workers in (2, 3, 4, 7, 16):
            for n_units in (1, 2, 3, 5):
                for n_samples in (8, 24, 100):
                    shard = auto_sample_shard(n_samples, workers, n_units)
                    if shard is None:
                        assert n_units >= workers or n_samples <= 1
                        continue
                    target = -(-workers // n_units)  # slices wanted per unit
                    slices = -(-n_samples // shard)
                    # Fills the pool (unless the sample axis is too short
                    # to split further)...
                    assert slices * n_units >= workers or shard == 1
                    # ...with the *smallest achievable* slice count at or
                    # above the target (uniform slice sizes skip counts),
                    # re-balanced to the largest size realizing it.
                    achievable = {
                        -(-n_samples // s) for s in range(1, n_samples + 1)
                    }
                    wanted = min(
                        (c for c in achievable if c >= target),
                        default=max(achievable),
                    )
                    assert slices == wanted, (workers, n_units, n_samples)
                    assert shard == -(-n_samples // slices)

    def test_auto_engine_fills_pool_bit_identically(
        self, tiny_quantized, tiny_eval
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = self.counter_config()
        serial = run_point(qm, x, y, BER, config=config)
        events = []
        engine = CampaignEngine(workers=4, progress=events.append)
        result = engine.run_point(qm, x, y, BER, config=config)
        assert len(events) == 4
        assert engine.last_stats.total_units == 1
        assert result.to_dict() == serial.to_dict()

    def test_auto_no_split_when_pool_already_full(
        self, tiny_quantized, tiny_eval
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = self.counter_config(seeds=(0, 1, 2, 3))
        events = []
        engine = CampaignEngine(workers=2, progress=events.append)
        engine.run_point(qm, x, y, BER, config=config)
        assert len(events) == 4
        assert engine.last_stats.total_units == 4

    def test_slices_only_the_pending_points(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        """The decision counts points the checkpoint did not serve: a
        resumed batch with one point left slices it to fill the pool."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = self.counter_config(seeds=(0, 1))
        ckpt = tmp_path / "campaign.json"
        tasks = [TaskSpec(ber=BER, seed=0), TaskSpec(ber=BER, seed=1)]
        CampaignEngine(workers=1, checkpoint_path=ckpt).evaluate_tasks(
            qm, x, y, tasks[:1], config=config
        )
        events = []
        engine = CampaignEngine(
            workers=2, checkpoint_path=ckpt, resume=True, progress=events.append
        )
        engine.evaluate_tasks(qm, x, y, tasks, config=config)
        assert [event.cached for event in events] == [True, False, False]
        stats = engine.last_stats
        assert (stats.cached_units, stats.computed_units) == (1, 1)


class TestPointIdentity:
    """One checkpoint identity per (BER, seed, plan), however it ran."""

    config = CampaignConfig(seeds=(0, 1), batch_size=12, max_samples=24)

    def point_key(self, qm, x, y, seed):
        limit = self.config.max_samples
        return TaskSpec(ber=BER, seed=seed).key(
            model_fingerprint(qm), data_fingerprint(x[:limit], y[:limit]),
            self.config,
        )

    @pytest.mark.parametrize(
        "writer, reader", [(2, 1), (1, 2)], ids=["pool-then-serial", "serial-then-pool"]
    )
    def test_one_seed_point_resumes_across_worker_counts(
        self, tiny_quantized, tiny_eval, tmp_path, writer, reader
    ):
        """A lone point on two workers runs as slices by itself, writes
        one plain point row, and serves a serial resume (and back)."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        task = TaskSpec(ber=BER, seed=0)
        serial = evaluate_seed_point(qm, x, y, BER, 0, config=self.config)
        ckpt = tmp_path / "campaign.json"
        events = []
        first = CampaignEngine(
            workers=writer, checkpoint_path=ckpt, progress=events.append
        )
        assert first.evaluate_tasks(qm, x, y, [task], config=self.config) == [serial]
        assert len(events) == writer  # two workers: two slices, one point
        rows = [json.loads(line) for line in ckpt.read_text().splitlines()[1:]]
        assert [row["key"] for row in rows] == [self.point_key(qm, x, y, 0)]
        assert "accuracy" in rows[0]

        resumed = CampaignEngine(workers=reader, checkpoint_path=ckpt, resume=True)
        assert resumed.evaluate_tasks(qm, x, y, [task], config=self.config) == [serial]
        assert resumed.last_stats.computed_units == 0
        assert resumed.last_stats.cached_units == 1

    def test_old_slice_rows_take_the_damaged_line_path(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        """A store holding a per-slice row from an older engine still
        loads: the row is reported as ``fields`` damage, the point row is
        served, and the next flush compacts the slice row away."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        tasks = [TaskSpec(ber=BER, seed=0), TaskSpec(ber=BER, seed=1)]
        (point,) = CampaignEngine(workers=1, checkpoint_path=ckpt).evaluate_tasks(
            qm, x, y, tasks[:1], config=self.config
        )
        old = {
            "key": "5" * 32, "ber": BER, "seed": 0, "start": 0, "stop": 12,
            "correct": 7, "total": 12, "events": 3,
        }
        old["crc"] = record_crc(old)
        with open(ckpt, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(old, sort_keys=True) + "\n")
        damaged = [{"line": 3, "key": old["key"], "reason": "fields"}]
        assert fsck(ckpt).damaged == damaged

        engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        with pytest.warns(RuntimeWarning, match=r"damaged line\(s\) \[3\]"):
            results = engine.evaluate_tasks(qm, x, y, tasks, config=self.config)
        assert results[0] == point
        stats = engine.last_stats
        assert (stats.cached_units, stats.computed_units) == (1, 1)
        report = fsck(ckpt)
        assert report.clean and report.records == 2
        assert old["key"] not in ckpt.read_text()

    def test_retired_sample_shard_surface(self):
        with pytest.raises(TypeError):
            CampaignEngine(sample_shard=2)
        with pytest.raises(TypeError):
            make_engine(sample_shard=2)
        assert not hasattr(repro.runtime, "SAMPLE_SHARD_AUTO")
