"""Tests for the operation-level and neuron-level fault injectors."""

import numpy as np
import pytest

from repro.faultsim import (
    BerConvention,
    FaultModelConfig,
    FaultSemantics,
    NeuronLevelInjector,
    OperationLevelInjector,
    ProtectionPlan,
    expected_faults_per_image,
)
from repro.faultsim.operation_level import gather_flat, register_flip_delta
from repro.faultsim.sampling import bit_lengths
from repro.utils.im2col import im2col_patches
from repro.winograd.opcount import ALL_CATEGORIES


def stage_width_of(ref: np.ndarray, acc_width: int) -> int:
    """Sum-register width the injector picks for the one sample of ``ref``."""
    return int(OperationLevelInjector._sample_widths(ref[None], acc_width)[0])


def stage_width(max_abs: int, acc_width: int) -> int:
    """Sum-register width the injector picks for a sample peaking at ``max_abs``."""
    return stage_width_of(np.array([[max_abs, -1]], dtype=np.int64), acc_width)


class TestStageRegisterWidth:
    def test_caps_at_acc_width(self):
        assert stage_width(2**40, 20) == 20

    def test_narrow_stage_gets_narrow_register(self):
        assert stage_width(100, 20) == 8  # 7 bits + sign

    def test_degenerate(self):
        assert stage_width(0, 20) == 2

    @pytest.mark.parametrize("k", [0, 1, 7, 15, 30])
    def test_negative_extreme_dominates(self, k):
        ref = np.array([[-(2**k), 1]], dtype=np.int64)
        assert stage_width_of(ref, 40) == max(2, (2**k).bit_length() + 1)

    def test_all_zero_sample(self):
        assert stage_width_of(np.zeros((1, 4), dtype=np.int64), 20) == 2

    def test_position_major_matches_sample_major(self):
        """A ``(t*t, K, N*T)`` stage array sizes each image's register the
        same as its sample-major ``(N, K, T, t*t)`` copy."""
        rng = np.random.default_rng(5)
        n, k, tiles = 3, 4, 5
        stage = rng.integers(-(1 << 20), 1 << 20, size=(16, k, n * tiles))
        stage[:, :, tiles : 2 * tiles] >>= 12  # a narrow middle image
        sample_major = stage.reshape(16, k, n, tiles).transpose(2, 1, 3, 0)
        expected = [
            stage_width_of(sample_major[i].reshape(1, -1), 40) for i in range(n)
        ]
        got = OperationLevelInjector._sample_widths(stage.reshape(-1, n, tiles), 40)
        assert got.tolist() == expected
        assert expected[1] < expected[0]

    def test_bit_lengths_matches_int_bit_length(self):
        edges = [0, 2**63 - 1]
        for k in range(63):
            edges += [2**k - 1, 2**k]
        random = np.random.default_rng(0).integers(0, 2**63 - 1, size=10_000)
        random >>= np.random.default_rng(1).integers(0, 63, size=10_000)
        for values in (edges, random.tolist()):
            got = bit_lengths(np.array(values, dtype=np.int64))
            assert got.tolist() == [int(v).bit_length() for v in values]


class TestRegisterFlipDelta:
    def test_delta_power_of_two(self):
        values = np.array([0, 3, -7, 100], dtype=np.int64)
        deltas = register_flip_delta(values, 4, 8, 0)
        assert set(np.abs(deltas).tolist()) == {16}

    def test_scale_pow_shifts_delta(self):
        values = np.array([0], dtype=np.int64)
        assert register_flip_delta(values, 0, 8, 5)[0] == 32


class TestGatherFlat:
    """One flat offset per event reads what the six-array index reads."""

    @staticmethod
    def events(view, rng, count=500):
        return tuple(rng.integers(0, d, size=count) for d in view.shape)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_patches_view(self, rng, stride, padding):
        x = rng.integers(-(2**15), 2**15, size=(3, 4, 9, 8)).astype(np.int64)
        cols = im2col_patches(x, (3, 3), stride, padding)
        img, cc, rr, ss, pp, qq = index = self.events(cols, rng)
        np.testing.assert_array_equal(
            gather_flat(cols, index), cols[img, cc, rr, ss, pp, qq]
        )

    def test_linear_view(self, rng):
        x_int = rng.integers(-(2**15), 2**15, size=(5, 11)).astype(np.int64)
        view = x_int[:, :, None, None, None, None]
        index = self.events(view, rng)
        np.testing.assert_array_equal(gather_flat(view, index), view[index])
        np.testing.assert_array_equal(gather_flat(view, index), x_int[index[:2]])


class TestInjectorBasics:
    def test_zero_ber_is_identity(self, tiny_quantized, tiny_eval):
        qm_st, qm_wg = tiny_quantized
        x, _ = tiny_eval
        for qm in (qm_st, qm_wg):
            clean = qm.forward(x[:8])
            injected = qm.forward(x[:8], injector=OperationLevelInjector(0.0, seed=1))
            np.testing.assert_array_equal(clean, injected)

    def test_deterministic_given_seed(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        a = qm_st.forward(x[:8], injector=OperationLevelInjector(1e-5, seed=7))
        b = qm_st.forward(x[:8], injector=OperationLevelInjector(1e-5, seed=7))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        a = qm_st.forward(x[:8], injector=OperationLevelInjector(1e-4, seed=1))
        b = qm_st.forward(x[:8], injector=OperationLevelInjector(1e-4, seed=2))
        assert not np.array_equal(a, b)

    def test_rejects_negative_ber(self):
        with pytest.raises(ValueError):
            OperationLevelInjector(-1e-9)

    def test_event_counts_track_categories(self, tiny_quantized, tiny_eval):
        qm_st, qm_wg = tiny_quantized
        x, _ = tiny_eval
        inj = OperationLevelInjector(1e-4, seed=0)
        qm_st.forward(x[:8], injector=inj)
        assert inj.event_counts["st_mul"] > 0
        assert inj.event_counts["st_add"] > 0
        inj_wg = OperationLevelInjector(1e-4, seed=0)
        qm_wg.forward(x[:8], injector=inj_wg)
        assert inj_wg.event_counts["wg_mul"] > 0

    def test_event_cap_binds(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        config = FaultModelConfig(max_events_per_category=5)
        inj = OperationLevelInjector(1e-3, seed=0, config=config)
        qm_st.forward(x[:8], injector=inj)
        assert inj.capped

    def test_poisson_event_rate_matches_lambda(self, tiny_quantized, tiny_eval):
        """Injected event totals should track the analytic exposure."""
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        ber = 1e-5
        lam_per_image = expected_faults_per_image(qm_st, ber)
        inj = OperationLevelInjector(ber, seed=0)
        qm_st.forward(x[:24], injector=inj)
        total = sum(inj.event_counts.values())
        expected = lam_per_image * 24
        assert expected * 0.5 < total < expected * 1.5


class TestProtectionThinning:
    def test_full_protection_is_identity(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        layers = [l.name for l in qm_st.injectable_layers()]
        plan = ProtectionPlan()
        for layer in layers:
            for cat in ALL_CATEGORIES:
                plan.set(layer, cat, 1.0)
        clean = qm_st.forward(x[:8])
        injected = qm_st.forward(
            x[:8], injector=OperationLevelInjector(1e-4, seed=0, protection=plan)
        )
        np.testing.assert_array_equal(clean, injected)

    def test_partial_protection_reduces_events(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        layers = [l.name for l in qm_st.injectable_layers()]
        plan = ProtectionPlan()
        for layer in layers:
            plan.set(layer, "st_mul", 0.9)
        unprotected = OperationLevelInjector(1e-4, seed=0)
        protected = OperationLevelInjector(1e-4, seed=0, protection=plan)
        qm_st.forward(x[:16], injector=unprotected)
        qm_st.forward(x[:16], injector=protected)
        assert (
            protected.event_counts["st_mul"] < unprotected.event_counts["st_mul"] * 0.4
        )

    def test_category_protection_zeroes_category(self, tiny_quantized, tiny_eval):
        qm_wg, = (tiny_quantized[1],)
        x, _ = tiny_eval
        layers = [l.name for l in qm_wg.injectable_layers()]
        plan = ProtectionPlan.fault_free_muls(layers)
        inj = OperationLevelInjector(1e-4, seed=0, protection=plan)
        qm_wg.forward(x[:8], injector=inj)
        assert inj.event_counts.get("wg_mul", 0) == 0
        assert inj.event_counts.get("st_mul", 0) == 0


class TestSemanticVariants:
    def test_result_all_weakens_muls(self, tiny_quantized, tiny_eval):
        """Without the wide product register, multiplication faults shrink —
        the deltas under RESULT_ALL are bounded by the sum-register width."""
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        ber = 3e-5
        clean = qm_st.forward(x[:16]).astype(np.float64)

        def damage(config):
            out = qm_st.forward(
                x[:16], injector=OperationLevelInjector(ber, seed=3, config=config)
            )
            return float(np.abs(out - clean).sum())

        paper = damage(FaultModelConfig(semantics=FaultSemantics.PAPER))
        uniform = damage(FaultModelConfig(semantics=FaultSemantics.RESULT_ALL))
        assert uniform < paper

    def test_per_op_convention_reduces_rate(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        per_bit = OperationLevelInjector(
            1e-5, seed=0, config=FaultModelConfig(convention=BerConvention.PER_BIT)
        )
        per_op = OperationLevelInjector(
            1e-5, seed=0, config=FaultModelConfig(convention=BerConvention.PER_OP)
        )
        qm_st.forward(x[:16], injector=per_bit)
        qm_st.forward(x[:16], injector=per_op)
        assert sum(per_op.event_counts.values()) < sum(per_bit.event_counts.values())

    def test_amplified_input_adds_more_damaging(self, tiny_quantized, tiny_eval):
        qm_wg = tiny_quantized[1]
        x, _ = tiny_eval
        layers = [l.name for l in qm_wg.injectable_layers()]
        # Isolate input-transform adds.
        plan = ProtectionPlan.fault_free_category(
            tuple(c for c in ALL_CATEGORIES if c != "wg_input_add"), layers
        )
        clean = qm_wg.forward(x[:16]).astype(np.float64)

        def damage(amplify):
            config = FaultModelConfig(amplify_input_transform_adds=amplify)
            total = 0.0
            for seed in range(4):
                out = qm_wg.forward(
                    x[:16],
                    injector=OperationLevelInjector(
                        3e-4, seed=seed, config=config, protection=plan
                    ),
                )
                total += float(np.abs(out - clean).sum())
            return total

        assert damage(True) > damage(False)


class TestNeuronLevelInjector:
    def test_cannot_distinguish_st_from_wg(self, tiny_quantized, tiny_eval):
        """The paper's Fig. 1 argument, exactly: neuron-level injection
        produces identical results for both convolution algorithms."""
        qm_st, qm_wg = tiny_quantized
        x, _ = tiny_eval
        out_st = qm_st.forward(x[:16], injector=NeuronLevelInjector(1e-4, seed=5))
        out_wg = qm_wg.forward(x[:16], injector=NeuronLevelInjector(1e-4, seed=5))
        np.testing.assert_array_equal(out_st, out_wg)

    def test_injects_events(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        inj = NeuronLevelInjector(1e-3, seed=0)
        qm_st.forward(x[:8], injector=inj)
        assert inj.event_counts["neuron"] > 0

    def test_outputs_stay_in_format_range(self, tiny_quantized, tiny_eval):
        qm_st, _ = tiny_quantized
        x, _ = tiny_eval
        out = qm_st.forward(x[:8], injector=NeuronLevelInjector(1e-3, seed=0))
        fmt = qm_st.output_fmt
        assert out.max() <= fmt.qmax and out.min() >= fmt.qmin

    def test_rejects_negative_ber(self):
        with pytest.raises(ValueError):
            NeuronLevelInjector(-1.0)
