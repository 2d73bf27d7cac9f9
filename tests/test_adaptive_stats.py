"""Determinism suite for the adaptive sampling engine + input hardening.

The adaptive contract under test (``docs/RUNTIME.md``): stopping
decisions depend only on checkpoint-ordered per-seed results, so an
adaptive run is bit-identical — same stopped-point set, same accuracies,
same checkpoint keys — for any ``workers`` x ``sample_shard``
combination, and resumable from its checkpoint with zero
recomputation.

CI runs this file as the tier-2 adaptive-parity step with
``REPRO_PARITY_WORKERS=2``; locally it defaults to 4 workers.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.errors import ConfigurationError, FaultModelError
from repro.faultsim import (
    CampaignConfig,
    FaultModelConfig,
    campaign_lambda,
    evaluate_seed_point,
    validate_ber,
)
from repro.faultsim.sampling import CounterSampler
from repro.runtime import CampaignEngine, TaskSpec
from repro.stats import KneeConfig, StopRule, adaptive_sweep, knee_search

PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

# BER landmarks of the tiny fixture model: quiet floor, low-event region,
# the accuracy knee, saturation.
BER_QUIET = 1e-12
BER_LOW = 2e-6
BER_KNEE = 2e-4
BER_SATURATE = 2e-3
BERS = [BER_QUIET, BER_LOW, BER_KNEE, BER_SATURATE]

#: Loose enough that the quiet points settle at min_seeds, tight enough
#: that the knee/saturation points run to the seed budget.
RULE = StopRule(halfwidth=0.05, min_seeds=2, max_seeds=5)


def counter_config() -> CampaignConfig:
    """Campaign over the tiny fixtures' full 48 samples."""
    return CampaignConfig(
        seeds=(0, 1),
        batch_size=12,
    )


def checkpoint_keys(path) -> set[str]:
    """The set of task keys persisted in a v2 checkpoint file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {json.loads(line)["key"] for line in lines[1:]}


def sweep_signature(sweep) -> list[dict]:
    """The decision record of a sweep: everything the contract pins."""
    return [
        {
            "ber": p.ber,
            "seeds_used": p.seeds_used,
            "seeds_evaluated": p.seeds_evaluated,
            "stopped_early": p.stopped_early,
            "interval": p.interval.to_dict(),
            "mean_accuracy": p.result.mean_accuracy,
            "per_seed": list(p.result.per_seed),
            "events_per_seed": list(p.result.events_per_seed),
        }
        for p in sweep.points
    ]


# --- the determinism matrix -------------------------------------------------

# (workers, sample_shard): workers {1, N} x --shard-samples {off, auto,
# 8}; the fixed-size shard pair pins key-set identity across worker
# counts.
MATRIX = [
    (1, None),
    (PARITY_WORKERS, None),
    (1, "auto"),
    (PARITY_WORKERS, "auto"),
    (1, 8),
    (PARITY_WORKERS, 8),
]


@pytest.fixture(scope="module")
def matrix_runs(tiny_quantized, tiny_eval, tmp_path_factory):
    """One adaptive sweep per matrix cell, each on a fresh checkpoint."""
    qm_st, _ = tiny_quantized
    x, labels = tiny_eval
    runs = {}
    for workers, shard in MATRIX:
        ckpt = tmp_path_factory.mktemp("adaptive") / "campaign.json"
        engine = CampaignEngine(
            workers=workers, checkpoint_path=ckpt, sample_shard=shard
        )
        sweep = adaptive_sweep(
            qm_st, x, labels, BERS, config=counter_config(), rule=RULE,
            engine=engine,
        )
        runs[(workers, shard)] = (sweep, checkpoint_keys(ckpt))
    return runs


class TestAdaptiveDeterminism:
    def test_sweep_exercises_both_outcomes(self, matrix_runs):
        sweep, _ = matrix_runs[(1, None)]
        by_ber = {p.ber: p for p in sweep.points}
        assert by_ber[BER_QUIET].stopped_early
        assert by_ber[BER_QUIET].seeds_used == RULE.min_seeds
        assert not by_ber[BER_SATURATE].stopped_early
        assert by_ber[BER_SATURATE].seeds_used == RULE.max_seeds

    def test_decisions_identical_across_the_matrix(self, matrix_runs):
        reference = sweep_signature(matrix_runs[(1, None)][0])
        for cell, (sweep, _) in matrix_runs.items():
            assert sweep_signature(sweep) == reference, (
                f"adaptive decisions diverged at workers/shard={cell}"
            )

    def test_checkpoint_keys_identical_at_fixed_granularity(self, matrix_runs):
        """Same shard granularity => same persisted key set.

        Point granularity (shard off) must agree across worker counts;
        likewise a fixed slice size.  'auto' picks its slice size from
        the worker count (slice keys bind their window), so its key set
        is not compared across cells.
        """
        point_cells = [c for c in MATRIX if c[1] is None]
        point_keys = [matrix_runs[c][1] for c in point_cells]
        assert all(k == point_keys[0] for k in point_keys)

        slice8_cells = [c for c in MATRIX if c[1] == 8]
        slice8_keys = [matrix_runs[c][1] for c in slice8_cells]
        assert all(k == slice8_keys[0] for k in slice8_keys)
        assert slice8_keys[0] != point_keys[0]

    def test_units_match_seed_ledger(self, matrix_runs):
        sweep, _ = matrix_runs[(1, None)]
        assert sweep.total_units == sum(p.seeds_evaluated for p in sweep.points)
        assert sweep.total_units == sweep.computed_units + sweep.cached_units

    def test_saves_units_versus_fixed_grid(self, matrix_runs):
        """The whole point: fewer (seed x point) units than the fixed grid."""
        sweep, _ = matrix_runs[(1, None)]
        fixed_units = len(BERS) * RULE.max_seeds
        assert sweep.total_units < fixed_units
        assert any(p.stopped_early for p in sweep.points)


class TestAdaptiveResume:
    def test_resume_recomputes_nothing_and_agrees(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        ckpt = tmp_path / "campaign.json"
        first = adaptive_sweep(
            qm_st, x, labels, BERS, config=counter_config(), rule=RULE,
            engine=CampaignEngine(workers=1, checkpoint_path=ckpt),
        )
        assert first.computed_units == first.total_units
        resumed = adaptive_sweep(
            qm_st, x, labels, BERS, config=counter_config(), rule=RULE,
            engine=CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True),
        )
        assert resumed.computed_units == 0
        assert resumed.cached_units == resumed.total_units
        assert sweep_signature(resumed) == sweep_signature(first)
        # Cache hits across granularities too: a sharded resumed engine
        # reuses point rows only at matching keys, so it recomputes — but
        # the decisions still match (the matrix test); here we only pin
        # the point-granularity zero-recompute property.


class TestKneeSearch:
    def test_finds_the_fixture_knee(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        knee = knee_search(
            qm_st, x, labels,
            KneeConfig(lo=1e-7, hi=BER_SATURATE, tolerance_decades=0.5),
            config=counter_config(), rule=RULE,
            engine=CampaignEngine(workers=1),
        )
        assert knee.knee_ber is not None
        lo_b, hi_b = knee.bracket
        assert lo_b < knee.knee_ber < hi_b
        assert math.log10(hi_b) - math.log10(lo_b) <= 0.5 + 1e-9
        # The fixture model's cliff sits at ~2e-4.
        assert 1e-5 < knee.knee_ber < 1e-3
        bers = [p.ber for p in knee.points]
        assert bers == sorted(bers)
        assert knee.target_accuracy is not None

    def test_flat_window_reports_no_knee(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        knee = knee_search(
            qm_st, x, labels,
            KneeConfig(lo=1e-13, hi=1e-11),
            config=counter_config(), rule=RULE,
            engine=CampaignEngine(workers=1),
        )
        assert knee.knee_ber is None
        assert knee.bracket is None
        assert len(knee.points) == 2  # endpoints only, no bisection spend


class TestEngineObservationHook:
    def test_on_result_sees_every_unit_cached_first_in_index_order(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        ckpt = tmp_path / "campaign.json"
        tasks = [TaskSpec(ber=BER_LOW, seed=s) for s in (0, 1, 2)]
        config = counter_config()

        live_calls = []
        engine = CampaignEngine(workers=1, checkpoint_path=ckpt)
        engine.evaluate_tasks(
            qm_st, x, labels, tasks, config,
            on_result=lambda i, u, r, cached: live_calls.append((i, cached)),
        )
        assert sorted(i for i, _ in live_calls) == [0, 1, 2]
        assert all(not cached for _, cached in live_calls)

        cached_calls = []
        resumed = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        results = resumed.evaluate_tasks(
            qm_st, x, labels, tasks, config,
            on_result=lambda i, u, r, cached: cached_calls.append((i, cached)),
        )
        assert cached_calls == [(0, True), (1, True), (2, True)]
        assert [r.seed for r in results] == [0, 1, 2]


# --- input hardening (satellites 1 & 2) -------------------------------------


class TestBerValidation:
    @pytest.mark.parametrize("ber", [float("nan"), -1e-9, 1.0000001, float("inf")])
    def test_validate_ber_rejects(self, ber):
        with pytest.raises(ConfigurationError, match="ber"):
            validate_ber(ber)

    def test_validate_ber_rejects_non_numeric(self):
        with pytest.raises(ConfigurationError, match="ber"):
            validate_ber("not-a-rate")
        with pytest.raises(ConfigurationError, match="ber"):
            validate_ber(None)

    @pytest.mark.parametrize("ber", [0.0, 1.0, 1e-12, "1e-6"])
    def test_validate_ber_accepts_probabilities(self, ber):
        value = validate_ber(ber)
        assert isinstance(value, float)
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("ber", [float("nan"), -0.5, 2.0])
    def test_task_boundary_rejects_bad_ber(self, ber):
        with pytest.raises(ConfigurationError, match="ber"):
            TaskSpec(ber=ber, seed=0)

    def test_evaluate_seed_point_rejects_bad_ber(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        with pytest.raises(ConfigurationError, match="NaN"):
            evaluate_seed_point(qm_st, x, labels, float("nan"), 0)


class TestLambdaGuards:
    def test_campaign_lambda_validates_ber(self, tiny_quantized):
        qm_st, _ = tiny_quantized
        with pytest.raises(ConfigurationError, match="ber"):
            campaign_lambda(qm_st, -1.0, CampaignConfig())

    @staticmethod
    def draw(ber: float, ops_per_sample: int, exposure: float = 1):
        """One site draw over a single-sample batch (λ = ber·ops·exp·chunk)."""
        sampler = CounterSampler(seed=0, ber=ber, config=FaultModelConfig())
        sampler.begin_batch(1)
        return sampler.site_events(
            "conv1", "weight", 1, ops_per_sample, exposure, 1.0, (4,)
        )

    def test_poisson_rate_guard_names_the_site(self):
        chunk = FaultModelConfig().chunk_samples
        with pytest.raises(FaultModelError, match="layer 'conv1'.*site 'weight'"):
            self.draw(0.5, int(1e19 / (0.5 * chunk)))
        with pytest.raises(FaultModelError, match="sampler's limit"):
            self.draw(0.5, 1, exposure=float("inf"))

    def test_sane_rate_still_draws(self):
        chunk = FaultModelConfig().chunk_samples
        events = self.draw(2.0 / chunk, 1)  # λ = 2 per chunk
        assert events is None or len(events) > 0
