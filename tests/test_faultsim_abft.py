"""Tests for the ABFT checksum-detection baseline.

Beyond the coverage-baseline behaviour, this module pins the exactness
contract of the checksum kernels: both sides of the checksum identity are
pure int64 contractions, so channel sums past 2^53 — where float64 silently
rounds — must produce zero false detections (the regression the float64
einsum path used to fail), and malformed Winograd contexts fail with a
clean :class:`~repro.errors.FaultModelError` instead of a bare
TypeError/AttributeError.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import FaultModelError
from repro.faultsim import (
    AbftChecker,
    FaultModelConfig,
    NeuronLevelInjector,
    OperationLevelInjector,
    detection_coverage,
)
from repro.fixedpoint import QFormat
from repro.quantized.qops import QConvDirect, QLinear


class TestNoFaults:
    def test_no_false_positives_standard(self, tiny_quantized, tiny_eval):
        """Fault-free inference must produce zero checksum mismatches —
        the checksum identity is exact in integer arithmetic."""
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        report = detection_coverage(qm_st, x[:8], inner_injector=None)
        assert report.total_detections == 0
        assert sum(report.checked.values()) > 0

    def test_no_false_positives_winograd(self, tiny_quantized, tiny_eval):
        _, qm_wg = tiny_quantized
        x, _ = tiny_eval
        report = detection_coverage(qm_wg, x[:8], inner_injector=None)
        assert report.total_detections == 0

    def test_output_unchanged_by_checker(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        clean = qm_st.forward(x[:8])
        checked = qm_st.forward(x[:8], injector=AbftChecker(None))
        np.testing.assert_array_equal(clean, checked)


class TestDetection:
    @pytest.mark.parametrize("mode_index", [0, 1])
    def test_detects_operation_faults(self, tiny_quantized, tiny_eval, mode_index):
        qm = tiny_quantized[mode_index]
        x, _ = tiny_eval
        inner = OperationLevelInjector(3e-4, seed=0)
        report = detection_coverage(qm, x[:16], inner)
        assert sum(inner.event_counts.values()) > 0
        assert report.any_fault_detected

    def test_detection_rate_bounded(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        report = detection_coverage(qm_st, x[:8], OperationLevelInjector(1e-4, seed=1))
        for layer in report.checked:
            assert 0.0 <= report.detection_rate(layer) <= 1.0

    def test_neuron_faults_escape_accumulator_abft(self, tiny_quantized, tiny_eval):
        """Post-requantization neuron flips are outside the GEMM checksum's
        protection domain (a known ABFT limitation)."""
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        report = detection_coverage(qm_st, x[:8], NeuronLevelInjector(1e-4, seed=0))
        assert report.total_detections == 0


class TestReport:
    def test_rates_and_totals_consistent(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        report = detection_coverage(qm_st, x[:8], OperationLevelInjector(3e-4, seed=2))
        assert report.total_detections == sum(report.detections.values())
        assert set(report.detections) <= set(report.checked)


class TestZeroBerFalsePositives:
    """BER 0 wired through a real (but silent) injector: still zero FPs."""

    @pytest.mark.parametrize("mode_index", [0, 1], ids=["standard", "winograd"])
    @pytest.mark.parametrize(
        "injector_cls", [OperationLevelInjector, NeuronLevelInjector]
    )
    def test_zero_detections(self, tiny_quantized, tiny_eval, mode_index, injector_cls):
        qm = tiny_quantized[mode_index]
        x, _ = tiny_eval
        inner = injector_cls(0.0, seed=0, config=FaultModelConfig())
        report = detection_coverage(qm, x[:8], inner)
        assert sum(inner.event_counts.values()) == 0
        assert report.total_detections == 0
        assert sum(report.checked.values()) > 0


class TestChecksumExactness:
    """Regression: checksums past 2^53 must stay exact (pure int64 path).

    The original float64 einsum checksum rounded ``2^53 + 1`` to ``2^53``
    and flagged *clean* accumulators.  Both layers are built so the true
    channel sum is exactly ``2^53 + 1``, which float64 cannot represent.
    """

    BIG_W = 2**30
    BIG_X = 2**22

    def test_construction_actually_crosses_float53(self):
        """Guard: the magic numbers do land on a float-unrepresentable sum."""
        channel_sum = self.BIG_W * self.BIG_X * 2 + 1
        assert channel_sum == 2**53 + 1
        assert int(float(channel_sum)) != channel_sum

    def _forward_checked(self, layer, x):
        checker = AbftChecker(None)
        layer.forward([x], injector=checker)
        return checker.report()

    def test_linear_no_false_positives_past_float53(self):
        # Channel sum of the single accumulator row: 2^52+1 + 2^52 = 2^53+1.
        layer = QLinear(
            name="fc_big",
            inputs=("in",),
            out_fmt=QFormat(32, 0),
            weight_int=np.array(
                [[self.BIG_W, 1], [self.BIG_W, 0]], dtype=np.int64
            ),
            bias_acc=np.zeros(2, dtype=np.int64),
            in_fmt=QFormat(32, 0),
            w_fmt=QFormat(32, 0),
            acc_width=64,
        )
        x = np.array([[self.BIG_X, 1]], dtype=np.int64)
        report = self._forward_checked(layer, x)
        assert report.total_detections == 0
        assert report.checked == {"fc_big": 1}

    def test_direct_conv_no_false_positives_past_float53(self):
        # Same arithmetic through the im2col/GEMM path: a 1x1 conv whose
        # two output channels accumulate to 2^53 + 1 at the one position.
        weight = np.zeros((2, 2, 1, 1), dtype=np.int64)
        weight[0, 0, 0, 0], weight[0, 1, 0, 0] = self.BIG_W, 1
        weight[1, 0, 0, 0] = self.BIG_W
        layer = QConvDirect(
            name="conv_big",
            inputs=("in",),
            out_fmt=QFormat(32, 0),
            weight_int=weight,
            bias_acc=np.zeros(2, dtype=np.int64),
            in_fmt=QFormat(32, 0),
            w_fmt=QFormat(32, 0),
            kernel=1,
            stride=1,
            padding=0,
            acc_width=64,
        )
        x = np.zeros((1, 2, 1, 1), dtype=np.int64)
        x[0, 0, 0, 0] = self.BIG_X
        x[0, 1, 0, 0] = 1
        report = self._forward_checked(layer, x)
        assert report.total_detections == 0
        assert report.checked == {"conv_big": 1}


class TestWinogradGuards:
    """Malformed Winograd contexts fail loudly with FaultModelError."""

    def test_empty_sub_contexts_raises_fault_model_error(self):
        checker = AbftChecker(None)
        layer = SimpleNamespace(name="wg")
        with pytest.raises(FaultModelError, match="at least one"):
            checker.visit_winograd(
                layer, [], np.zeros((1, 1, 2, 2), dtype=np.int64)
            )

    def test_missing_u_int_raises_fault_model_error(self):
        checker = AbftChecker(None)
        layer = SimpleNamespace(name="wg")
        ctx = SimpleNamespace(u_int=None)
        with pytest.raises(FaultModelError, match="keep_intermediates"):
            checker.visit_winograd(
                layer, [(None, ctx)], np.zeros((1, 1, 2, 2), dtype=np.int64)
            )


class TestEventCountsAndCorrection:
    """Engine-facing surface: merged event_counts and snapshot repair."""

    BER = 3e-4

    def test_event_counts_merge_inner_and_abft(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        inner = OperationLevelInjector(self.BER, seed=0)
        checker = AbftChecker(inner, correct=True)
        qm_st.forward(x[:16], injector=checker)
        counts = checker.event_counts
        report = checker.report()
        assert report.any_fault_detected
        assert counts["abft_detected"] == report.total_detections
        assert counts["abft_corrected"] == counts["abft_detected"]
        inner_total = sum(inner.event_counts.values())
        assert inner_total > 0
        assert sum(counts.values()) == (
            inner_total + counts["abft_detected"] + counts["abft_corrected"]
        )

    def test_event_counts_empty_without_inner_or_faults(
        self, tiny_quantized, tiny_eval
    ):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        checker = AbftChecker(None)
        qm_st.forward(x[:8], injector=checker)
        assert checker.event_counts == {}

    def test_correction_restores_accuracy(self, tiny_quantized, tiny_eval):
        """Detect => recompute: the corrected run scores at least as well
        as the unprotected one under the identical fault pattern."""
        qm_st, _ = tiny_quantized
        x, y = tiny_eval
        faulty = qm_st.evaluate(
            x[:24], y[:24],
            injector=OperationLevelInjector(self.BER, seed=0),
            batch_size=24,
        )
        checker = AbftChecker(OperationLevelInjector(self.BER, seed=0), correct=True)
        corrected = qm_st.evaluate(x[:24], y[:24], injector=checker, batch_size=24)
        assert checker.report().any_fault_detected
        assert corrected >= faulty

    def test_layer_restriction_skips_unlisted_layers(
        self, tiny_quantized, tiny_eval
    ):
        """layers= scopes both checking cost and the detection report."""
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        names = [layer.name for layer in qm_st.injectable_layers()]
        checker = AbftChecker(
            OperationLevelInjector(self.BER, seed=0), layers={names[0]}
        )
        qm_st.forward(x[:16], injector=checker)
        assert set(checker.report().checked) == {names[0]}
