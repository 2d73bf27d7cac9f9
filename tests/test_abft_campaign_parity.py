"""ABFT-protected campaign points are first-class engine citizens.

Acceptance gate of the exact-integer ABFT tentpole: a campaign point whose
:class:`~repro.faultsim.ProtectionPlan` assigns the ``abft`` scheme must be

* **bit-identical** between the serial evaluator and the task engine for
  any worker count (CI tier-2 re-runs this module with
  ``REPRO_PARITY_WORKERS=2``),
* **partition-invariant** along the sample axis (slice sizes 1 and N
  recombine to the unsliced point), and
* **key-bound** to the scheme: an ABFT point never shares a checkpoint
  entry with an unprotected or TMR point, while legacy scheme-free plans
  keep their pre-scheme keys bit-for-bit.
"""

from __future__ import annotations

import os

import pytest

from repro.faultsim import (
    CampaignConfig,
    ProtectionPlan,
    SCHEME_ABFT,
    SCHEME_TMR,
    combine_slice_results,
    evaluate_sample_slice,
    evaluate_seed_point,
    run_point,
)
from repro.runtime import CampaignEngine, TaskSpec

#: Worker count for the multi-worker regime (CI tier-2 sets this to 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

N_SAMPLES = 24
BATCH = 12

BER_LOW = 2e-6
BER_KNEE = 2e-4


def counter_config(seeds=(0, 1)):
    return CampaignConfig(
        seeds=seeds,
        batch_size=BATCH,
        max_samples=N_SAMPLES,
    )


def abft_plan(qm):
    """ABFT on every injectable layer, no TMR fractions."""
    plan = ProtectionPlan()
    for layer in qm.injectable_layers():
        plan.set_scheme(layer.name, SCHEME_ABFT)
    return plan


def point_summary(result):
    """Everything observable about a CampaignResult, for exact comparison."""
    return result.to_dict()


class TestAbftEngineParity:
    """Serial evaluator == engine(workers=1) == engine(workers=N)."""

    @pytest.mark.parametrize("mode_index", [0, 1], ids=["standard", "winograd"])
    def test_worker_pool_parity(self, tiny_quantized, tiny_eval, mode_index):
        qm = tiny_quantized[mode_index]
        x, y = tiny_eval
        config = counter_config()
        plan = abft_plan(qm)
        serial = run_point(qm, x, y, BER_KNEE, config=config, protection=plan)
        one = CampaignEngine(workers=1).run_point(
            qm, x, y, BER_KNEE, config=config, protection=plan
        )
        many = CampaignEngine(workers=PARITY_WORKERS).run_point(
            qm, x, y, BER_KNEE, config=config, protection=plan
        )
        assert point_summary(one) == point_summary(serial)
        assert point_summary(many) == point_summary(serial)

    @pytest.mark.parametrize("ber", [0.0, BER_LOW, BER_KNEE])
    @pytest.mark.parametrize("mode_index", [0, 1], ids=["standard", "winograd"])
    def test_every_ber_regime_matches_serial(
        self, tiny_quantized, tiny_eval, mode_index, ber, force_slices
    ):
        """BER 0, a sparse BER and the knee, whole and sample-sliced."""
        qm = tiny_quantized[mode_index]
        x, y = tiny_eval
        config = counter_config()
        plan = abft_plan(qm)
        serial = run_point(qm, x, y, ber, config=config, protection=plan)
        for workers, shard in ((1, None), (PARITY_WORKERS, 7)):
            force_slices(shard)
            engine = CampaignEngine(workers=workers)
            result = engine.run_point(
                qm, x, y, ber, config=config, protection=plan
            )
            assert point_summary(result) == point_summary(serial), (
                workers,
                shard,
            )

    def test_abft_point_actually_detects_and_protects(
        self, tiny_quantized, tiny_eval
    ):
        """Guard: the knee point injects, ABFT corrects, accuracy recovers.

        The protected point's event total strictly exceeds the unprotected
        one (abft_detected/abft_corrected ride on top of the identical
        injection events), and correction never scores below the
        unprotected run.
        """
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        unprotected = evaluate_seed_point(qm, x, y, BER_KNEE, 0, config=config)
        protected = evaluate_seed_point(
            qm, x, y, BER_KNEE, 0, config=config, protection=abft_plan(qm)
        )
        assert unprotected.events > 0
        assert protected.events > unprotected.events
        assert protected.accuracy >= unprotected.accuracy

    def test_checkpoint_resume_serves_abft_points(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        plan = abft_plan(qm)
        ckpt = tmp_path / "campaign.json"
        first = CampaignEngine(
            workers=PARITY_WORKERS, checkpoint_path=ckpt
        ).run_point(qm, x, y, BER_KNEE, config=config, protection=plan)
        resumed_engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        again = resumed_engine.run_point(
            qm, x, y, BER_KNEE, config=config, protection=plan
        )
        assert point_summary(again) == point_summary(first)
        assert resumed_engine.last_stats.computed_units == 0


class TestAbftSampleSharding:
    """ABFT points recombine bit-identically from any sample partition."""

    @pytest.mark.parametrize("size", (1, 7, N_SAMPLES))
    @pytest.mark.parametrize("mode_index", [0, 1], ids=["standard", "winograd"])
    def test_slices_recombine_bit_identically(
        self, tiny_quantized, tiny_eval, mode_index, size
    ):
        qm = tiny_quantized[mode_index]
        x, y = tiny_eval
        config = counter_config()
        plan = abft_plan(qm)
        full = evaluate_seed_point(
            qm, x, y, BER_KNEE, 0, config=config, protection=plan
        )
        parts = [
            evaluate_sample_slice(
                qm, x, y, BER_KNEE, 0,
                (start, min(start + size, N_SAMPLES)),
                config=config, protection=plan,
            )
            for start in range(0, N_SAMPLES, size)
        ]
        combined = combine_slice_results(parts)
        assert (combined.accuracy, combined.events) == (full.accuracy, full.events)

    def test_sharding_engine_parity(self, tiny_quantized, tiny_eval, force_slices):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = counter_config()
        plan = abft_plan(qm)
        serial = run_point(qm, x, y, BER_KNEE, config=config, protection=plan)
        force_slices(7)
        sharded = CampaignEngine(workers=PARITY_WORKERS).run_point(
            qm, x, y, BER_KNEE, config=config, protection=plan
        )
        assert point_summary(sharded) == point_summary(serial)


class TestSchemeKeyBinding:
    """Task keys bind the per-layer scheme; legacy plans keep their keys."""

    MODEL_FP = "m" * 16
    DATA_FP = "d" * 16

    def _key(self, protection):
        return TaskSpec(ber=BER_KNEE, seed=0, protection=protection).key(
            self.MODEL_FP, self.DATA_FP, counter_config()
        )

    def test_abft_scheme_changes_the_key(self):
        plan = ProtectionPlan()
        plan.set_scheme("c1", SCHEME_ABFT)
        assert self._key(plan) != self._key(None)
        assert self._key(plan) != self._key(ProtectionPlan())

    def test_abft_and_tmr_schemes_key_differently(self):
        abft = ProtectionPlan()
        abft.set_scheme("c1", SCHEME_ABFT)
        tmr = ProtectionPlan()
        tmr.set_scheme("c1", SCHEME_TMR)
        assert self._key(abft) != self._key(tmr)

    def test_scheme_free_plans_keep_legacy_keys(self):
        """cache_key of a scheme-free plan is exactly the pre-scheme tuple,
        so every existing checkpoint entry stays addressable."""
        plan = ProtectionPlan()
        plan.set("c1", "st_mul", 0.5)
        assert plan.cache_key() == ((("c1", "st_mul"), 0.5),)

    def test_unsetting_scheme_restores_legacy_key(self):
        plan = ProtectionPlan()
        plan.set("c1", "st_mul", 0.5)
        legacy_key = self._key(plan)
        plan.set_scheme("c2", SCHEME_ABFT)
        assert self._key(plan) != legacy_key
        plan.set_scheme("c2", "none")
        assert self._key(plan) == legacy_key
