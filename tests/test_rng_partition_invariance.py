"""Partition-invariance and statistics suite for the keyed fault sampler.

The acceptance gate of sample slicing: every fault draw is
a pure function of (campaign seed, layer, site, sample chunk), so

* a (BER, seed) evaluation recombined from sample slices of *any* size —
  and through the engine with *any* worker count — is bit-identical to
  the unsliced serial run (CI tier-2 re-runs this module with
  ``REPRO_PARITY_WORKERS=2``);
* the evaluation batch size cannot change results either;
* per-chunk Poisson event totals realize the analytic lambda.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faultsim import (
    CampaignConfig,
    FaultModelConfig,
    NeuronLevelInjector,
    combine_slice_results,
    evaluate_sample_slice,
    evaluate_seed_point,
    run_point,
)
from repro.runtime import CampaignEngine, TaskSpec

#: Worker count for the multi-worker regime (CI tier-2 sets this to 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

BER = 2e-4
N_SAMPLES = 24
BATCH = 12

#: Slice sizes the acceptance criteria pin: single sample, a size that
#: straddles chunk boundaries, the evaluation batch size, and the full set.
SLICE_SIZES = (1, 7, BATCH, N_SAMPLES)


def counter_config(seeds=(0, 1), chunk_samples=8, injector="operation"):
    return CampaignConfig(
        seeds=seeds,
        batch_size=BATCH,
        max_samples=N_SAMPLES,
        injector=injector,
        fault_config=FaultModelConfig(chunk_samples=chunk_samples),
    )


def slice_bounds(size):
    return [(s, min(s + size, N_SAMPLES)) for s in range(0, N_SAMPLES, size)]


class TestSlicePartitionInvariance:
    """evaluate_sample_slice ∘ combine_slice_results == evaluate_seed_point."""

    @pytest.mark.parametrize("mode", ["standard", "winograd"])
    @pytest.mark.parametrize("size", SLICE_SIZES)
    def test_any_slice_size_recombines_bit_identically(
        self, tiny_quantized, tiny_eval, mode, size
    ):
        qm = tiny_quantized[0] if mode == "standard" else tiny_quantized[1]
        x, y = tiny_eval
        config = counter_config()
        full = evaluate_seed_point(qm, x, y, BER, 0, config=config)
        parts = [
            evaluate_sample_slice(qm, x, y, BER, 0, bounds, config=config)
            for bounds in slice_bounds(size)
        ]
        combined = combine_slice_results(parts)
        assert combined.accuracy == full.accuracy
        assert combined.events == full.events
        assert full.events > 0, "workload too quiet to exercise injection"

    @pytest.mark.parametrize("size", (1, 7))
    def test_neuron_injector_is_partition_invariant_too(
        self, tiny_quantized, tiny_eval, size
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config(injector="neuron")
        full = evaluate_seed_point(qm, x, y, BER, 0, config=config)
        combined = combine_slice_results(
            [
                evaluate_sample_slice(qm, x, y, BER, 0, bounds, config=config)
                for bounds in slice_bounds(size)
            ]
        )
        assert (combined.accuracy, combined.events) == (full.accuracy, full.events)
        assert full.events > 0

    def test_batch_size_cannot_change_counter_results(
        self, tiny_quantized, tiny_eval
    ):
        """Counter draws are keyed by global sample index and register
        widths are per-sample, so forward batching is irrelevant."""
        _, qm = tiny_quantized
        x, y = tiny_eval
        reference = evaluate_seed_point(qm, x, y, BER, 0, config=counter_config())
        for batch_size in (1, 5, N_SAMPLES):
            config = CampaignConfig(
                seeds=(0, 1),
                batch_size=batch_size,
                max_samples=N_SAMPLES,
                fault_config=FaultModelConfig(chunk_samples=8),
            )
            other = evaluate_seed_point(qm, x, y, BER, 0, config=config)
            assert (other.accuracy, other.events) == (
                reference.accuracy,
                reference.events,
            ), batch_size

    def test_chunk_size_is_part_of_the_draw(self, tiny_quantized, tiny_eval):
        """Different chunking = different (valid) Monte-Carlo realization."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        a = evaluate_seed_point(
            qm, x, y, BER, 0, config=counter_config(chunk_samples=8)
        )
        b = evaluate_seed_point(
            qm, x, y, BER, 0, config=counter_config(chunk_samples=3)
        )
        assert a.events != b.events or a.accuracy != b.accuracy

    def test_slice_cover_validation(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        parts = [
            evaluate_sample_slice(qm, x, y, BER, 0, bounds, config=config)
            for bounds in ((0, 7), (14, N_SAMPLES))  # gap at [7, 14)
        ]
        with pytest.raises(ConfigurationError, match="gap"):
            combine_slice_results(parts)
        with pytest.raises(ConfigurationError, match="out of range"):
            evaluate_sample_slice(qm, x, y, BER, 0, (20, 40), config=config)
        # A contiguous-but-truncated cover is caught when the caller
        # states the expected total (as the engine does).
        head = [
            evaluate_sample_slice(qm, x, y, BER, 0, bounds, config=config)
            for bounds in ((0, 7), (7, 14))
        ]
        with pytest.raises(ConfigurationError, match="stops at"):
            combine_slice_results(head, expected_total=N_SAMPLES)



class TestEngineSampleSharding:
    """Engine-made sample slices across slice sizes and workers."""

    @pytest.mark.parametrize("shard", SLICE_SIZES)
    def test_sharded_engine_matches_serial_run_point(
        self, tiny_quantized, tiny_eval, shard, force_slices
    ):
        _, qm = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        serial = run_point(qm, x, y, BER, config=config)
        force_slices(shard)
        for workers in (1, PARITY_WORKERS):
            engine = CampaignEngine(workers=workers)
            result = engine.run_point(qm, x, y, BER, config=config)
            assert result.to_dict() == serial.to_dict(), (shard, workers)

    def test_shard_expands_unit_count(self, tiny_quantized, tiny_eval, force_slices):
        """Slices are dispatched and reported as units; stats count points."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config(seeds=(0, 1))
        events = []
        force_slices(7)
        engine = CampaignEngine(workers=1, progress=events.append)
        engine.run_point(qm, x, y, BER, config=config)
        # 24 samples / 7 per slice = 4 slices per seed, 2 seeds.
        assert len(events) == 2 * 4
        assert {event.total for event in events} == {2 * 4}
        assert engine.last_stats.total_units == 2

    def test_full_set_shard_keeps_plain_point_units(
        self, tiny_quantized, tiny_eval, force_slices
    ):
        """shard >= n_samples must not slice."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config(seeds=(0, 1))
        events = []
        force_slices(N_SAMPLES)
        engine = CampaignEngine(workers=1, progress=events.append)
        engine.run_point(qm, x, y, BER, config=config)
        assert len(events) == 2
        assert engine.last_stats.total_units == 2

    def test_kill_mid_point_resume_recomputes_only_unfinished_points(
        self, tiny_quantized, tiny_eval, tmp_path, force_slices
    ):
        """Point-granular checkpointing under slicing: interrupt after the
        first seed's 4 slices and one slice of the second; only the
        finished point is on disk, as one plain point row, and the resume
        recomputes exactly the unfinished point."""

        class StopAfter:
            def __init__(self, limit):
                self.limit, self.events = limit, 0

            def __call__(self, event):
                self.events += 1
                if self.events >= self.limit:
                    raise KeyboardInterrupt("simulated kill")

        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config(seeds=(0, 1))
        ckpt = tmp_path / "campaign.json"
        serial = run_point(qm, x, y, BER, config=config)

        force_slices(7)
        killed = CampaignEngine(
            workers=1, checkpoint_path=ckpt, progress=StopAfter(5)
        )
        with pytest.raises(KeyboardInterrupt):
            killed.run_point(qm, x, y, BER, config=config)
        rows = [json.loads(line) for line in ckpt.read_text().splitlines()[1:]]
        assert [row["seed"] for row in rows] == [0]
        assert "accuracy" in rows[0] and "correct" not in rows[0]

        resumed = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        result = resumed.run_point(qm, x, y, BER, config=config)
        assert resumed.last_stats.cached_units == 1
        assert resumed.last_stats.computed_units == 1
        assert result.to_dict() == serial.to_dict()

    def test_slice_tasks_have_no_identity(self, tiny_quantized, tiny_eval):
        """A slice is keyless and never accepted as a submitted task."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config(seeds=(0,))
        (part, *_) = TaskSpec(ber=BER, seed=0).sample_subtasks(N_SAMPLES, 7)
        with pytest.raises(ConfigurationError, match="slice"):
            part.key("m", "d", config)
        with pytest.raises(ConfigurationError, match="slices"):
            CampaignEngine(workers=1).evaluate_tasks(
                qm, x, y, [part], config=config
            )

    def test_task_spec_slice_shape_validation(self):
        with pytest.raises(ConfigurationError, match="point tasks"):
            TaskSpec(ber=BER, seeds=(0, 1), sample_slice=(0, 7))
        with pytest.raises(ConfigurationError, match="start < stop"):
            TaskSpec(ber=BER, seed=0, sample_slice=(7, 7))
        with pytest.raises(ConfigurationError, match="subtasks"):
            TaskSpec(ber=BER, seeds=(0, 1)).sample_subtasks(N_SAMPLES, 7)
        sliced = TaskSpec(ber=BER, seed=0, sample_slice=(0, 7))
        assert sliced.sample_subtasks(N_SAMPLES, 3) == (sliced,)


class _FakeFmt:
    width = 8


class _FakeLayer:
    name = "stats_layer"
    out_fmt = _FakeFmt()


class TestCounterSchemeStatistics:
    """Keyed per-chunk draws realize the fault model's analytic lambda."""

    NEURONS = 64
    N = 32
    RUNS = 40

    def _events(self) -> np.ndarray:
        """Injected event totals over RUNS independent campaigns."""
        ber = 1e-3
        layer = _FakeLayer()
        config = FaultModelConfig(chunk_samples=8)
        totals = []
        for seed in range(self.RUNS):
            injector = NeuronLevelInjector(ber, seed=seed, config=config)
            injector.begin_inference(self.N)
            injector.visit_output(
                layer, np.zeros((self.N, self.NEURONS), dtype=np.int64)
            )
            totals.append(injector.event_counts["neuron"])
        return np.asarray(totals, dtype=np.float64)

    def test_chunk_poisson_totals_match_stream_lambda(self):
        """Mean/variance bounds: per-run totals are Poisson(lambda) with
        lambda = ber * neurons * width * n."""
        lam = 1e-3 * self.NEURONS * _FakeFmt.width * self.N  # = 16.384
        counter = self._events()
        sigma = np.sqrt(lam / self.RUNS)
        # Means within 4 standard errors of the analytic lambda (the
        # seeds are fixed, so this is deterministic, not flaky).
        assert abs(counter.mean() - lam) < 4 * sigma
        # Poisson variance ~ lambda; allow a loose factor-of-two band for
        # the small sample of runs.
        assert lam / 2 < counter.var() < lam * 2

    def test_counter_partitioning_preserves_the_totals(self):
        """Splitting the same campaign into sample slices yields the same
        per-run totals (the statistics test's invariance counterpart)."""
        ber = 1e-3
        layer = _FakeLayer()
        config = FaultModelConfig(chunk_samples=8)
        for seed in (0, 1, 2):
            whole = NeuronLevelInjector(ber, seed=seed, config=config)
            whole.begin_inference(self.N)
            whole.visit_output(
                layer, np.zeros((self.N, self.NEURONS), dtype=np.int64)
            )
            split_total = 0
            for start in range(0, self.N, 7):
                stop = min(start + 7, self.N)
                part = NeuronLevelInjector(
                    ber, seed=seed, config=config, sample_base=start
                )
                part.begin_inference(stop - start)
                part.visit_output(
                    layer, np.zeros((stop - start, self.NEURONS), dtype=np.int64)
                )
                split_total += part.event_counts["neuron"]
            assert split_total == whole.event_counts["neuron"]
