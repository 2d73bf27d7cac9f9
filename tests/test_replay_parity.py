"""Golden-run replay parity suite.

The acceptance gate of the dirty-sample replay executor
(:mod:`repro.faultsim.replay`): serving an evaluation from the golden-run
cache must be **bit-identical** to the full forward — accuracy, total
events and per-category event counts — for

* both injectors (operation- and neuron-level),
* both conv execution modes (standard and Winograd),
* BER 0 (pure cache lookup), a low BER (sparse dirty sets), and a
  knee-saturating BER (every sample dirty — replay degrades gracefully
  to a full recompute),
* sample slices recombined from a cache-backed engine with any worker
  count, including kill/resume at slice granularity.

CI tier-2 re-runs this module with ``REPRO_PARITY_WORKERS=2``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faultsim import (
    CampaignConfig,
    FaultModelConfig,
    NeuronLevelInjector,
    OperationLevelInjector,
    ProtectionPlan,
    ReplayStats,
    build_golden_run,
    combine_slice_results,
    evaluate_sample_slice,
    evaluate_seed_point,
    replay_forward,
    run_point,
)
from repro.runtime import CampaignEngine, TaskSpec

#: Worker count for the multi-worker regime (CI tier-2 sets this to 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

N_SAMPLES = 24
BATCH = 12

#: BER regimes the acceptance criteria pin: quiet (usually zero events),
#: low (sparse dirty sets — the regime replay accelerates), and
#: knee-saturating (every sample dirty — replay must still be exact).
BER_QUIET = 1e-12
BER_LOW = 2e-6
BER_KNEE = 2e-4
BER_SATURATE = 2e-3


def counter_config(injector="operation", seeds=(0, 1)):
    return CampaignConfig(
        seeds=seeds,
        batch_size=BATCH,
        max_samples=N_SAMPLES,
        injector=injector,
    )


def golden_for(qm, x, config):
    return build_golden_run(
        qm,
        x[: config.max_samples],
        injector_kind=config.injector,
        fault_config=config.fault_config,
        batch_size=config.batch_size,
    )


def make_injector(config, ber, seed):
    if config.injector == "neuron":
        return NeuronLevelInjector(ber, seed=seed, config=config.fault_config)
    return OperationLevelInjector(ber, seed=seed, config=config.fault_config)


class TestReplayBitIdentity:
    """replay(evaluate_*) == full forward, element for element."""

    @pytest.mark.parametrize("injector", ["operation", "neuron"])
    @pytest.mark.parametrize("mode", ["standard", "winograd"])
    @pytest.mark.parametrize("ber", [0.0, BER_LOW, BER_KNEE])
    def test_seed_point_parity(self, tiny_quantized, tiny_eval, mode, injector, ber):
        qm = tiny_quantized[0] if mode == "standard" else tiny_quantized[1]
        x, y = tiny_eval
        config = counter_config(injector=injector)
        golden = golden_for(qm, x, config)
        full = evaluate_seed_point(qm, x, y, ber, 0, config=config)
        replayed = evaluate_seed_point(
            qm, x, y, ber, 0, config=config, golden=golden
        )
        assert (replayed.accuracy, replayed.events) == (full.accuracy, full.events)

    def test_knee_workload_injects_events(self, tiny_quantized, tiny_eval):
        """Guard: the knee BER actually exercises injection."""
        _, qm = tiny_quantized
        x, y = tiny_eval
        result = evaluate_seed_point(qm, x, y, BER_KNEE, 0, config=counter_config())
        assert result.events > 0

    @pytest.mark.parametrize("injector", ["operation", "neuron"])
    @pytest.mark.parametrize("mode", ["standard", "winograd"])
    def test_per_category_event_counts_match(
        self, tiny_quantized, tiny_eval, mode, injector
    ):
        """Not just totals: every diagnostics bucket sees the same events."""
        qm = tiny_quantized[0] if mode == "standard" else tiny_quantized[1]
        x, y = tiny_eval
        config = counter_config(injector=injector)
        golden = golden_for(qm, x, config)

        inj_full = make_injector(config, BER_KNEE, 1)
        qm.evaluate(x[:N_SAMPLES], y[:N_SAMPLES], injector=inj_full, batch_size=BATCH)
        inj_replay = make_injector(config, BER_KNEE, 1)
        replay_forward(qm, golden, inj_replay, (0, N_SAMPLES))
        assert dict(inj_full.event_counts) == dict(inj_replay.event_counts)

    @pytest.mark.parametrize("size", (1, 7, N_SAMPLES))
    def test_slices_recombine_bit_identically(self, tiny_quantized, tiny_eval, size):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        golden = golden_for(qm, x, config)
        full = evaluate_seed_point(qm, x, y, BER_KNEE, 0, config=config)
        parts = [
            evaluate_sample_slice(
                qm, x, y, BER_KNEE, 0,
                (start, min(start + size, N_SAMPLES)),
                config=config, golden=golden,
            )
            for start in range(0, N_SAMPLES, size)
        ]
        combined = combine_slice_results(parts)
        assert (combined.accuracy, combined.events) == (full.accuracy, full.events)

    def test_protection_thins_replay_too(self, tiny_quantized, tiny_eval):
        """Protected evaluations replay through the same golden run."""
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        golden = golden_for(qm, x, config)
        names = [layer.name for layer in qm.injectable_layers()]
        plan = ProtectionPlan.fault_free_layer(names[0], names)
        full = evaluate_seed_point(
            qm, x, y, BER_KNEE, 0, config=config, protection=plan
        )
        replayed = evaluate_seed_point(
            qm, x, y, BER_KNEE, 0, config=config, protection=plan, golden=golden
        )
        assert (replayed.accuracy, replayed.events) == (full.accuracy, full.events)

    def test_default_config_replays_bit_identically(self, tiny_quantized, tiny_eval):
        """A campaign on the default fault model replays bit-identically,
        both the BER-0 cache lookup and a faulty point."""
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = CampaignConfig(seeds=(0,), batch_size=BATCH, max_samples=N_SAMPLES)
        golden = build_golden_run(
            qm, x[:N_SAMPLES], injector_kind=config.injector,
            fault_config=config.fault_config, batch_size=BATCH,
        )
        for ber in (0.0, BER_KNEE):
            full = evaluate_seed_point(qm, x, y, ber, 0, config=config)
            replayed = evaluate_seed_point(
                qm, x, y, ber, 0, config=config, golden=golden
            )
            assert (replayed.accuracy, replayed.events) == (
                full.accuracy, full.events,
            )

    def test_golden_check_rejects_structural_mismatch(
        self, tiny_quantized, tiny_eval
    ):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        golden = golden_for(qm, x, config)
        with pytest.raises(ConfigurationError, match="injector"):
            evaluate_seed_point(
                qm, x, y, 0.0, 0,
                config=counter_config(injector="neuron"), golden=golden,
            )
        short = CampaignConfig(
            seeds=(0,), batch_size=BATCH, max_samples=N_SAMPLES - 4,
        )
        with pytest.raises(ConfigurationError, match="samples"):
            evaluate_seed_point(qm, x, y, 0.0, 0, config=short, golden=golden)
        ablated = CampaignConfig(
            seeds=(0,), batch_size=BATCH, max_samples=N_SAMPLES,
            fault_config=FaultModelConfig(amplify_input_transform_adds=True),
        )
        with pytest.raises(ConfigurationError, match="fault model"):
            evaluate_seed_point(qm, x, y, 0.0, 0, config=ablated, golden=golden)


class TestReplayDirtySets:
    """The executor recomputes exactly what the faults touch."""

    def test_no_events_recomputes_nothing(self, tiny_quantized, tiny_eval):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        golden = golden_for(qm, x, config)
        injector = make_injector(config, BER_QUIET, 0)
        stats = ReplayStats()
        replay_forward(qm, golden, injector, (0, N_SAMPLES), stats=stats)
        assert sum(injector.event_counts.values()) == 0
        assert stats.total_recomputed == 0

    def test_saturating_ber_recomputes_every_sample(
        self, tiny_quantized, tiny_eval
    ):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        golden = golden_for(qm, x, config)
        injector = make_injector(config, BER_SATURATE, 0)
        stats = ReplayStats()
        replay_forward(qm, golden, injector, (0, N_SAMPLES), stats=stats)
        assert stats.recomputed[qm.output_name] == N_SAMPLES
        assert max(stats.recomputed.values()) == N_SAMPLES

    def test_low_ber_recomputes_partial_and_growing_sets(
        self, tiny_quantized, tiny_eval
    ):
        """The dirty set is a proper subset that propagates downstream."""
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        golden = golden_for(qm, x, config)
        injector = make_injector(config, BER_LOW, 0)
        stats = ReplayStats()
        replay_forward(qm, golden, injector, (0, N_SAMPLES), stats=stats)
        assert sum(injector.event_counts.values()) > 0
        counts = [stats.recomputed[n.name] for n in qm.nodes if n.op != "QInput"]
        assert any(0 < c < N_SAMPLES for c in counts), counts
        # Dirty rows (outputs that actually changed) never exceed the
        # recompute set, and a sample once struck keeps its layer's
        # downstream nodes in the recompute set unless the change died.
        for name, recomputed in stats.recomputed.items():
            assert stats.dirty[name] <= recomputed

    def test_replay_window_validation(self, tiny_quantized, tiny_eval):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        golden = golden_for(qm, x, config)
        injector = make_injector(config, BER_LOW, 0)
        with pytest.raises(ConfigurationError, match="out of range"):
            replay_forward(qm, golden, injector, (0, N_SAMPLES + 1))


class TestReplayEngine:
    """CampaignEngine(replay=True) across workers, shards and resume."""

    @pytest.mark.parametrize("shard", [None, 7])
    def test_replay_engine_matches_serial(self, tiny_quantized, tiny_eval, shard):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        serial = run_point(qm, x, y, BER_KNEE, config=config)
        for workers in (1, PARITY_WORKERS):
            engine = CampaignEngine(
                workers=workers, replay=True, sample_shard=shard
            )
            result = engine.run_point(qm, x, y, BER_KNEE, config=config)
            assert result.to_dict() == serial.to_dict(), (shard, workers)

    def test_ber_zero_is_pure_lookup(self, tiny_quantized, tiny_eval):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        plain = run_point(qm, x, y, 0.0, config=config)
        engine = CampaignEngine(workers=1, replay=True)
        assert engine.run_point(qm, x, y, 0.0, config=config).to_dict() == (
            plain.to_dict()
        )

    def test_one_golden_run_serves_all_plans(self, tiny_quantized, tiny_eval):
        """Planner-style candidate batches share a single clean forward."""
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        names = [layer.name for layer in qm.injectable_layers()]
        engine = CampaignEngine(workers=1, replay=True)
        tasks = [
            TaskSpec(
                ber=BER_KNEE,
                seeds=config.seeds,
                protection=ProtectionPlan.fault_free_layer(name, names),
            )
            for name in names
        ]
        engine_results = engine.evaluate_tasks(qm, x, y, tasks, config=config)
        assert len(engine._golden) == 1
        serial = [
            run_point(qm, x, y, BER_KNEE, config=config, protection=t.protection)
            for t in tasks
        ]
        assert [r.to_dict() for r in engine_results] == [
            r.to_dict() for r in serial
        ]

    def test_kill_mid_point_resume_with_replay_engine(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        """Slice-granular kill/resume with a cache-backed engine."""

        class StopAfter:
            def __init__(self, limit):
                self.limit, self.events = limit, 0

            def __call__(self, event):
                self.events += 1
                if self.events >= self.limit:
                    raise KeyboardInterrupt("simulated kill")

        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config(seeds=(0,))
        ckpt = tmp_path / "campaign.json"
        serial = run_point(qm, x, y, BER_KNEE, config=config)

        killed = CampaignEngine(
            workers=1, replay=True, sample_shard=7,
            checkpoint_path=ckpt, progress=StopAfter(2),
        )
        with pytest.raises(KeyboardInterrupt):
            killed.run_point(qm, x, y, BER_KNEE, config=config)

        resumed = CampaignEngine(
            workers=1, replay=True, sample_shard=7,
            checkpoint_path=ckpt, resume=True,
        )
        result = resumed.run_point(qm, x, y, BER_KNEE, config=config)
        assert resumed.last_stats.cached_units == 2
        assert resumed.last_stats.computed_units == 2
        assert result.to_dict() == serial.to_dict()
