"""One execution path: every way of running a unit agrees bit for bit.

A (BER, seed) unit is always evaluated by one quantized forward (which
may resume a sibling's faulty prefix; ``tests/test_prefix_reuse.py``).
The runtime can still reach that forward several ways — the serial
:func:`~repro.faultsim.run_point` loop, recombined
:func:`~repro.faultsim.evaluate_sample_slice` windows, and
:class:`~repro.runtime.CampaignEngine` in-process or on the fork pool,
with or without sample sharding — and all of them must return the same
accuracy and the same events for

* both injectors (operation- and neuron-level),
* both conv execution modes (standard and Winograd),
* BER 0, a low BER (sparse events) and a knee BER (every sample struck),
* unprotected and TMR-protected points, alone or batched as the planner
  batches them,

down to the per-category event counts, not just their totals.

CI tier-2 re-runs this module with ``REPRO_PARITY_WORKERS=2``.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.faultsim import (
    CampaignConfig,
    NeuronLevelInjector,
    OperationLevelInjector,
    ProtectionPlan,
    evaluate_seed_point,
    run_point,
)
from repro.runtime import CampaignEngine, TaskSpec
from repro.winograd.opcount import ADD_CATEGORIES

#: Worker count for the multi-worker regime (CI tier-2 sets this to 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

N_SAMPLES = 24
BATCH = 12

BER_LOW = 2e-6
BER_KNEE = 2e-4

MODES = ["standard", "winograd"]
INJECTORS = ["operation", "neuron"]


def counter_config(injector="operation", seeds=(0, 1)):
    return CampaignConfig(
        seeds=seeds,
        batch_size=BATCH,
        max_samples=N_SAMPLES,
        injector=injector,
    )


def model_for(tiny_quantized, mode):
    return tiny_quantized[0] if mode == "standard" else tiny_quantized[1]


def make_injector(config, ber, seed, sample_base=0):
    kind = NeuronLevelInjector if config.injector == "neuron" else OperationLevelInjector
    return kind(ber, seed=seed, config=config.fault_config, sample_base=sample_base)


def category_counts(qm, x, config, ber, seed, size):
    """Per-category events of one seed, evaluated in windows of ``size``."""
    totals = Counter()
    for start in range(0, N_SAMPLES, size):
        stop = min(start + size, N_SAMPLES)
        injector = make_injector(config, ber, seed, sample_base=start)
        qm.predict(x[start:stop], injector=injector, batch_size=BATCH)
        totals.update(injector.event_counts)
    return {cat: n for cat, n in totals.items() if n}


def protection_plans(qm):
    """Planner-style candidates: a fault-free layer, fault-free multiplies,
    and half of every addition replicated (a partial TMR fraction)."""
    names = [layer.name for layer in qm.injectable_layers()]
    half_adds = ProtectionPlan()
    for name in names:
        for category in ADD_CATEGORIES:
            half_adds.set(name, category, 0.5)
    return {
        "first_layer": ProtectionPlan.fault_free_layer(names[0], names),
        "muls": ProtectionPlan.fault_free_muls(names),
        "half_adds": half_adds,
    }


class TestEnginePathParity:
    """engine(workers, shard) == serial run_point, for every cell."""

    @pytest.mark.parametrize("injector", INJECTORS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("ber", [0.0, BER_LOW, BER_KNEE])
    @pytest.mark.parametrize("shard", [None, 7], ids=["whole", "shard7"])
    def test_engine_matches_serial(
        self, tiny_quantized, tiny_eval, shard, ber, mode, injector
    ):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        config = counter_config(injector=injector)
        serial = run_point(qm, x, y, ber, config=config)
        for workers in (1, PARITY_WORKERS):
            engine = CampaignEngine(workers=workers, sample_shard=shard)
            result = engine.run_point(qm, x, y, ber, config=config)
            assert result.to_dict() == serial.to_dict(), workers
            assert engine.last_stats.computed_units == engine.last_stats.total_units
        if ber == BER_KNEE:
            assert all(events > 0 for events in serial.events_per_seed)


class TestEventCategoryParity:
    """Not just totals: every diagnostics bucket sees the same events."""

    @pytest.mark.parametrize("injector", INJECTORS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("size", [1, 7])
    def test_per_category_counts_survive_slicing(
        self, tiny_quantized, tiny_eval, size, mode, injector
    ):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        config = counter_config(injector=injector)
        whole = category_counts(qm, x, config, BER_KNEE, 1, N_SAMPLES)
        sliced = category_counts(qm, x, config, BER_KNEE, 1, size)
        assert whole, "knee workload injected nothing"
        assert sliced == whole
        # The totals the campaign reports are the sum of these buckets.
        point = evaluate_seed_point(qm, x, y, BER_KNEE, 1, config=config)
        assert point.events == sum(whole.values())


class TestProtectedPathParity:
    """Protection thins the draw identically on every path."""

    @pytest.mark.parametrize("plan_name", ["first_layer", "muls", "half_adds"])
    @pytest.mark.parametrize("mode", MODES)
    def test_protected_point_matches_serial(
        self, tiny_quantized, tiny_eval, mode, plan_name
    ):
        qm = model_for(tiny_quantized, mode)
        x, y = tiny_eval
        config = counter_config()
        plan = protection_plans(qm)[plan_name]
        serial = run_point(qm, x, y, BER_KNEE, config=config, protection=plan)
        bare = run_point(qm, x, y, BER_KNEE, config=config)
        assert sum(serial.events_per_seed) < sum(bare.events_per_seed)
        for workers, shard in ((1, None), (PARITY_WORKERS, 7)):
            engine = CampaignEngine(workers=workers, sample_shard=shard)
            result = engine.run_point(
                qm, x, y, BER_KNEE, config=config, protection=plan
            )
            assert result.to_dict() == serial.to_dict(), (workers, shard)

    @pytest.mark.parametrize("workers", [1, PARITY_WORKERS], ids=["serial", "pool"])
    def test_candidate_batch_matches_serial_per_plan(
        self, tiny_quantized, tiny_eval, workers
    ):
        """A planner-style batch of candidate plans, one task per plan."""
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        plans = list(protection_plans(qm).values())
        tasks = [
            TaskSpec(ber=BER_KNEE, seeds=config.seeds, protection=plan)
            for plan in plans
        ]
        engine = CampaignEngine(workers=workers)
        results = engine.evaluate_tasks(qm, x, y, tasks, config=config)
        serial = [
            run_point(qm, x, y, BER_KNEE, config=config, protection=plan)
            for plan in plans
        ]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in serial]
        assert engine.last_stats.total_units == len(plans) * len(config.seeds)


class TestCrossWorkerResume:
    """A checkpoint written by one executor serves the other, unit for unit."""

    @pytest.mark.parametrize(
        "writer, reader",
        [(PARITY_WORKERS, 1), (1, PARITY_WORKERS)],
        ids=["pool-then-serial", "serial-then-pool"],
    )
    def test_resume_serves_every_unit(
        self, tiny_quantized, tiny_eval, tmp_path, writer, reader
    ):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        ckpt = tmp_path / "campaign.json"
        bers = [BER_LOW, BER_KNEE]
        first = CampaignEngine(
            workers=writer, sample_shard=7, checkpoint_path=ckpt
        ).run_sweep(qm, x, y, bers, config=config)
        resumed = CampaignEngine(
            workers=reader, sample_shard=7, checkpoint_path=ckpt, resume=True
        )
        again = resumed.run_sweep(qm, x, y, bers, config=config)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        assert resumed.last_stats.computed_units == 0
        assert resumed.last_stats.cached_units == resumed.last_stats.total_units
