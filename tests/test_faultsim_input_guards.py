"""Input hardening at the fault-simulation boundaries.

A BER is a probability: :func:`repro.faultsim.validate_ber` rejects NaN,
infinities, negatives, values above one and non-numbers, and every entry
point that takes a BER (``TaskSpec``, ``evaluate_seed_point``,
``campaign_lambda``) goes through it.  The counter sampler's Poisson
draw refuses a rate beyond its limit and names the layer and site.
"""

from __future__ import annotations

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
from repro.runtime import TaskSpec


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
