"""Distributed backend parity and shard-merge tests.

The work-queue backend's contract is the engine's own determinism
contract stretched across process boundaries: for any worker count,
``CampaignEngine(backend="distributed")`` must produce bit-identical
accuracies, event counts and checkpoint keys to the pool backend —
including under ``sample_shard="auto"`` + ``replay`` — because every
unit is a pure function of its spec.  ``merge_shards`` must make shard
layout unobservable: any partition of rows into shards, in any order,
with duplicates, loads identically to the single-file checkpoint.

CI tier-2 re-runs this module with ``REPRO_PARITY_WORKERS=2``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import CheckpointError, TaskExecutionError
from repro.faultsim import CampaignConfig, ProtectionPlan
from repro.faultsim.campaign import SampleSliceResult, SeedPointResult
from repro.runtime import (
    CampaignCheckpoint,
    CampaignEngine,
    ChaosSpec,
    TaskSpec,
    WorkQueue,
    data_fingerprint,
    model_fingerprint,
)

PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))
BERS = [0.0, 1e-5, 1e-4]


@pytest.fixture()
def config():
    return CampaignConfig(
        seeds=(0, 1),
        batch_size=12,
        max_samples=24,
    )


def as_dicts(results):
    return [r.to_dict() for r in results]


def checkpoint_keys(path):
    return set(dict(CampaignCheckpoint(path).items()))


def dist_engine(tmp_path, name, **kwargs):
    """A distributed engine with its queue under a private directory."""
    kwargs.setdefault("workers", PARITY_WORKERS)
    kwargs.setdefault("lease_timeout", 20.0)
    return CampaignEngine(
        backend="distributed", queue_dir=tmp_path / name, **kwargs
    )


class TestDistributedParity:
    def test_sweep_matches_pool(self, tiny_quantized, tiny_eval, config, tmp_path):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        pool = CampaignEngine(
            workers=PARITY_WORKERS, checkpoint_path=tmp_path / "pool.json"
        )
        ref = pool.run_sweep(qm, x, y, BERS, config=config)
        dist = dist_engine(
            tmp_path, "q", checkpoint_path=tmp_path / "dist.json"
        )
        got = dist.run_sweep(qm, x, y, BERS, config=config)
        assert as_dicts(got) == as_dicts(ref)
        # Bit-identical checkpoint keys *and* rows, not just results.
        assert checkpoint_keys(tmp_path / "dist.json") == checkpoint_keys(
            tmp_path / "pool.json"
        )
        assert dist.last_stats.computed_units == len(BERS) * len(config.seeds)

    def test_shard_auto_replay_matches_pool(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        pool = CampaignEngine(
            workers=PARITY_WORKERS,
            checkpoint_path=tmp_path / "pool.json",
            sample_shard="auto",
            replay=True,
        )
        ref = pool.run_sweep(qm, x, y, BERS, config=config)
        dist = dist_engine(
            tmp_path,
            "q",
            checkpoint_path=tmp_path / "dist.json",
            sample_shard="auto",
            replay=True,
        )
        got = dist.run_sweep(qm, x, y, BERS, config=config)
        assert as_dicts(got) == as_dicts(ref)
        assert checkpoint_keys(tmp_path / "dist.json") == checkpoint_keys(
            tmp_path / "pool.json"
        )

    def test_protected_task_batch_matches_pool(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        plan = ProtectionPlan().set("c1", "st_mul", 1.0)
        tasks = [
            TaskSpec(ber=1e-4, seeds=(0, 1), tag="plain"),
            TaskSpec(ber=1e-4, seeds=(0, 1), protection=plan, tag="protected"),
            TaskSpec(ber=3e-5, seed=0, tag="point"),
        ]
        ref = CampaignEngine(workers=PARITY_WORKERS).evaluate_tasks(
            qm, x, y, tasks, config=config
        )
        got = dist_engine(tmp_path, "q").evaluate_tasks(
            qm, x, y, tasks, config=config
        )
        assert as_dicts(got) == as_dicts(ref)

    def test_resume_serves_pool_written_checkpoint(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        # The two backends share one content-addressed store: a
        # distributed engine resumes work the pool backend checkpointed
        # without recomputing a single unit (and vice versa by key
        # symmetry, which test_sweep_matches_pool establishes).
        qm, _ = tiny_quantized
        x, y = tiny_eval
        shared = tmp_path / "shared.json"
        pool = CampaignEngine(workers=1, checkpoint_path=shared)
        ref = pool.run_sweep(qm, x, y, BERS, config=config)
        dist = dist_engine(tmp_path, "q", checkpoint_path=shared, resume=True)
        got = dist.run_sweep(qm, x, y, BERS, config=config)
        assert as_dicts(got) == as_dicts(ref)
        assert dist.last_stats.computed_units == 0
        assert dist.last_stats.cached_units == len(BERS) * len(config.seeds)

    def test_queue_requires_directory(self):
        with pytest.raises(Exception, match="queue_dir"):
            CampaignEngine(backend="distributed")

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception, match="backend"):
            CampaignEngine(backend="threads")


def synthetic_rows(n_points=14, n_slices=10):
    """Deterministic mixed point/slice rows keyed like real checkpoints."""
    rows = {}
    for i in range(n_points):
        rows[f"point-{i:03d}"] = SeedPointResult(
            ber=1e-6 * (i + 1), seed=i % 3, accuracy=1.0 - i / 100.0, events=i
        )
    for i in range(n_slices):
        rows[f"slice-{i:03d}"] = SampleSliceResult(
            ber=1e-5, seed=i % 2, start=8 * i, stop=8 * i + 8,
            correct=7, total=8, events=2 * i,
        )
    return rows


class TestMergeShards:
    @pytest.mark.parametrize("partition_seed", [0, 1, 2, 3])
    def test_any_partition_any_order_loads_identically(
        self, tmp_path, partition_seed
    ):
        rows = synthetic_rows()
        single = CampaignCheckpoint(tmp_path / "single.json", flush_every=100)
        for key, result in rows.items():
            single.put(key, result)
        single.flush()

        rng = random.Random(partition_seed)
        n_shards = rng.randint(1, 5)
        shards = [
            CampaignCheckpoint(
                tmp_path / f"shard-{i}.jsonl", flush_every=100
            )
            for i in range(n_shards)
        ]
        items = list(rows.items())
        rng.shuffle(items)  # any order
        for key, result in items:
            shards[rng.randrange(n_shards)].put(key, result)
            if rng.random() < 0.3:  # duplicated rows across shards
                shards[rng.randrange(n_shards)].put(key, result)
        for shard in shards:
            shard.flush()

        merged = CampaignCheckpoint.merge_shards(
            tmp_path / "merged.json",
            [shard.path for shard in shards] + [tmp_path / "never-written.jsonl"],
        )
        assert dict(merged.items()) == dict(
            CampaignCheckpoint(tmp_path / "single.json").items()
        )
        # The merged file reloads to the same state (one row per key).
        reloaded = CampaignCheckpoint(tmp_path / "merged.json")
        assert dict(reloaded.items()) == rows

    def test_corrupt_line_salvage_applies_per_shard(self, tmp_path):
        rows = synthetic_rows(n_points=4, n_slices=2)
        shard = CampaignCheckpoint(tmp_path / "shard-0.jsonl", flush_every=100)
        for key, result in rows.items():
            shard.put(key, result)
        shard.flush()
        with open(shard.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn-row", "ber": 1e-\n')

        with pytest.warns(RuntimeWarning, match="salvaged"):
            merged = CampaignCheckpoint.merge_shards(
                tmp_path / "merged.json", [shard.path]
            )
        assert dict(merged.items()) == rows
        with pytest.raises(CheckpointError, match="damaged"):
            CampaignCheckpoint.merge_shards(
                tmp_path / "merged-strict.json", [shard.path], strict=True
            )

    def test_merge_into_existing_target_accumulates(self, tmp_path):
        rows = synthetic_rows(n_points=6, n_slices=0)
        items = sorted(rows.items())
        first, second = items[:3], items[3:]
        for batch in (first, second):
            shard = CampaignCheckpoint(tmp_path / "shard.jsonl", flush_every=100)
            for key, result in batch:
                shard.put(key, result)
            shard.flush()
            CampaignCheckpoint.merge_shards(
                tmp_path / "merged.json", [shard.path]
            )
        assert dict(CampaignCheckpoint(tmp_path / "merged.json").items()) == rows


class TestFailurePropagation:
    """Worker exceptions carry the failing task's key and tag (both backends)."""

    def expected_key(self, qm, x, y, task, config):
        trim_x, trim_y = x[: config.max_samples], y[: config.max_samples]
        return task.key(
            model_fingerprint(qm), data_fingerprint(trim_x, trim_y), config
        )

    @pytest.mark.parametrize("workers", [1, PARITY_WORKERS])
    def test_pool_backend_reports_key_and_tag(
        self, tiny_quantized, tiny_eval, config, monkeypatch, workers
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval

        def explode(*args, **kwargs):
            raise ZeroDivisionError("injected failure")

        # Patching the engine module's reference survives fork, so the
        # pool path exercises the same failure route as workers=1.
        monkeypatch.setattr(
            "repro.runtime.engine.evaluate_seed_point", explode
        )
        task = TaskSpec(ber=1e-5, seed=0, tag="regression/fails")
        engine = CampaignEngine(workers=workers)
        with pytest.raises(TaskExecutionError) as err:
            engine.evaluate_tasks(qm, x, y, [task], config=config)
        assert err.value.tag == "regression/fails"
        assert err.value.task_key == self.expected_key(qm, x, y, task, config)
        message = str(err.value)
        assert "regression/fails" in message
        assert err.value.task_key in message
        assert "ZeroDivisionError: injected failure" in message

    def test_distributed_backend_quarantines_poison_task(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        task = TaskSpec(ber=1e-5, seed=0, tag="poison")
        engine = dist_engine(
            tmp_path, "q", workers=2, max_attempts=2, lease_timeout=10.0,
            chaos=ChaosSpec(fail_tags=("poison",)),
        )
        with pytest.raises(TaskExecutionError) as err:
            engine.evaluate_tasks(qm, x, y, [task], config=config)
        assert err.value.tag == "poison"
        assert err.value.task_key == self.expected_key(qm, x, y, task, config)
        assert "quarantined" in str(err.value)
        # The queue recorded the quarantine with the key in the error.
        (batch_dir,) = sorted((tmp_path / "q").iterdir())
        (key, attempts, error), = WorkQueue(batch_dir).quarantined()
        assert key == err.value.task_key
        assert attempts == 2
        assert key in error
