"""Tests for protection plans, site census and campaign running."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FaultModelError
from repro.faultsim import (
    CampaignConfig,
    FaultModelConfig,
    ProtectionPlan,
    expected_faults_per_image,
    layer_exposure,
    model_exposure,
    run_point,
    run_sweep,
)


class TestProtectionPlan:
    def test_default_fraction_zero(self):
        assert ProtectionPlan().fraction("any", "st_mul") == 0.0

    def test_set_and_get(self):
        plan = ProtectionPlan()
        plan.set("c1", "st_mul", 0.5)
        assert plan.fraction("c1", "st_mul") == 0.5

    def test_rejects_bad_category(self):
        with pytest.raises(FaultModelError):
            ProtectionPlan().set("c1", "division", 0.5)

    def test_rejects_bad_fraction(self):
        with pytest.raises(FaultModelError):
            ProtectionPlan().set("c1", "st_mul", 1.5)

    def test_fault_free_layer_requires_known_layer(self):
        with pytest.raises(FaultModelError):
            ProtectionPlan.fault_free_layer("ghost", ["c1"])

    def test_copy_is_independent(self):
        plan = ProtectionPlan()
        plan.set("c1", "st_mul", 0.5)
        other = plan.copy()
        other.set("c1", "st_mul", 1.0)
        assert plan.fraction("c1", "st_mul") == 0.5

    def test_cache_key_stable(self):
        a = ProtectionPlan()
        a.set("c1", "st_mul", 0.5)
        a.set("c2", "st_add", 0.25)
        b = ProtectionPlan()
        b.set("c2", "st_add", 0.25)
        b.set("c1", "st_mul", 0.5)
        assert a.cache_key() == b.cache_key()


class TestSiteCensus:
    def test_exposure_matches_op_counts(self, tiny_quantized):
        qm_st, _ = tiny_quantized
        config = FaultModelConfig()
        layer = qm_st.injectable_layers()[0]
        exposure = layer_exposure(layer, config)
        width = layer.in_fmt.width
        assert exposure["st_mul"] == layer.op_counts.st_mul * 2 * width
        assert exposure["st_add"] == layer.op_counts.st_add * layer.acc_width

    def test_model_exposure_covers_all_layers(self, tiny_quantized):
        qm_st, _ = tiny_quantized
        exposure = model_exposure(qm_st, FaultModelConfig())
        assert set(exposure) == {l.name for l in qm_st.injectable_layers()}

    def test_expected_faults_linear_in_ber(self, tiny_quantized):
        qm_st, _ = tiny_quantized
        lam1 = expected_faults_per_image(qm_st, 1e-8)
        lam2 = expected_faults_per_image(qm_st, 2e-8)
        assert lam2 == pytest.approx(2 * lam1)

    def test_protection_reduces_expected_faults(self, tiny_quantized):
        qm_st, _ = tiny_quantized
        layers = [l.name for l in qm_st.injectable_layers()]
        plan = ProtectionPlan.fault_free_muls(layers)
        assert expected_faults_per_image(qm_st, 1e-8, protection=plan) < (
            expected_faults_per_image(qm_st, 1e-8)
        )

    def test_winograd_exposure_below_standard(self, tiny_quantized):
        """Fewer multiplications -> less exposed mul state."""
        qm_st, qm_wg = tiny_quantized
        assert expected_faults_per_image(qm_wg, 1e-8) < expected_faults_per_image(
            qm_st, 1e-8
        )


class TestCampaign:
    def test_zero_ber_point_is_fault_free(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, y = tiny_eval
        result = run_point(qm_st, x, y, 0.0, CampaignConfig(seeds=(0,)))
        assert result.mean_accuracy == qm_st.evaluate(x, y)
        assert result.events_per_seed == [0]

    def test_accuracy_monotone_trend(self, tiny_quantized, tiny_eval):
        """Accuracy at a destructive BER is far below the fault-free point."""
        qm_st, _ = tiny_quantized
        x, y = tiny_eval
        config = CampaignConfig(seeds=(0, 1), max_samples=32)
        low = run_point(qm_st, x, y, 1e-8, config)
        high = run_point(qm_st, x, y, 3e-4, config)
        assert high.mean_accuracy < low.mean_accuracy

    def test_sweep_preserves_order(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, y = tiny_eval
        bers = [1e-8, 1e-6]
        results = run_sweep(qm_st, x, y, bers, CampaignConfig(seeds=(0,), max_samples=16))
        assert [r.ber for r in results] == bers

    def test_neuron_injector_selectable(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, y = tiny_eval
        config = CampaignConfig(seeds=(0,), injector="neuron", max_samples=16)
        result = run_point(qm_st, x, y, 1e-5, config)
        assert 0.0 <= result.mean_accuracy <= 1.0

    def test_unknown_injector_raises(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, y = tiny_eval
        with pytest.raises(ValueError):
            run_point(qm_st, x, y, 1e-6, CampaignConfig(seeds=(0,), injector="cosmic"))

    def test_result_serializable(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, y = tiny_eval
        result = run_point(qm_st, x, y, 1e-7, CampaignConfig(seeds=(0,), max_samples=8))
        payload = result.to_dict()
        assert set(payload) >= {"ber", "lambda", "mean_accuracy", "per_seed"}


class TestCampaignConfigValidation:
    """A bad batch size or sample limit fails at construction, not mid-run."""

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ConfigurationError, match="batch_size"):
            CampaignConfig(batch_size=batch_size)

    @pytest.mark.parametrize("max_samples", [0, -3])
    def test_max_samples_below_one_rejected(self, max_samples):
        with pytest.raises(ConfigurationError, match="max_samples"):
            CampaignConfig(max_samples=max_samples)
