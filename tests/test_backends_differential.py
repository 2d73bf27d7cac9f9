"""Cross-backend differential suite: the bit-identity contract.

Every production forward runs on ``optimized``; ``reference`` is the
oracle it is checked against here, selected per model with
``set_kernel_backend``.  Every kernel backend must return exactly the
int64 values the ``reference`` backend produces — stage by stage (each protocol method,
fast paths and int64 fallbacks, bound-fed and bound-free probes) and end
to end (model forward, campaign evaluation under both conv modes, both
injectors and BERs from zero through the accuracy knee).  Because the
contract holds, the backend choice never enters model fingerprints or
checkpoint keys, and a checkpoint written under one backend is
byte-identical to one written under another (at ``workers=1``, where
completion order is deterministic).

``REPRO_PARITY_WORKERS`` scales the engine-based parity tests' worker
count (CI runs them at 2); the byte-identity test always pins
``workers=1`` since multi-worker completion order may legally reorder
checkpoint rows.
"""

from __future__ import annotations

import importlib
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from repro.backends import (
    BACKEND_NAMES,
    BoundedCache,
    DEFAULT_BACKEND,
    EINSUM_PATHS,
    format_bound,
    get_backend,
    kron_row_bound,
    row_bound,
)
from repro.errors import ConfigurationError
from repro.faultsim import (
    CampaignConfig,
    INJECTOR_NEURON,
    INJECTOR_OPERATION,
    evaluate_seed_point,
    run_sweep,
)
from repro.fixedpoint import QFormat, requantize
from repro.runtime import CampaignEngine, model_fingerprint
from repro.winograd import get_transform

#: Worker count for the engine-based parity tests (CI sets 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "1"))

#: Every non-reference backend, each checked against the reference oracle.
ALT_BACKENDS = [n for n in BACKEND_NAMES if n != "reference"]

REFERENCE = get_backend("reference")


@pytest.fixture(params=ALT_BACKENDS)
def alt(request):
    """Each non-reference backend instance."""
    return get_backend(request.param)


#: (N, C, T) of the position-major stage tests: the base shape, one
#: image, one channel, and an odd tile count on an odd batch.
STAGE_SHAPES = [(2, 3, 5), (1, 3, 5), (2, 1, 5), (3, 3, 9)]
STAGE_SHAPE_IDS = ["base", "n1", "c1", "odd-t"]


def restore_backend(qmodel):
    """Reset a (session-scoped, shared) model to the production backend."""
    qmodel.set_kernel_backend(DEFAULT_BACKEND)


def assert_stage_output(out, ref, in_f64_window):
    """The Winograd stage contract against the int64 reference result.

    Inside the float64 window the output is float64 and every value is an
    integer; beyond it (and always for the reference oracle, called with
    ``in_f64_window=False``) the output is int64.  Either way the values
    equal the reference's bit for bit.
    """
    assert ref.dtype == np.int64
    if in_f64_window:
        assert out.dtype == np.float64
        assert np.array_equal(out, np.trunc(out))
        out = out.astype(np.int64)
    else:
        assert out.dtype == np.int64
    np.testing.assert_array_equal(out, ref)


def stage_inputs(arr):
    """A stage operand as int64 and as the exact float64 the chain hands on."""
    return arr, arr.astype(np.float64)


# --- stage-level differential tests ------------------------------------------
class TestStageParity:
    """Each protocol method, reference vs every other backend."""

    @pytest.mark.parametrize("m", [2, 4])
    def test_filter_transform(self, alt, rng, m):
        tf = get_transform(m, 3)
        w = rng.integers(-(1 << 7), 1 << 7, size=(5, 3, 3, 3)).astype(np.int64)
        ref = REFERENCE.filter_transform(tf, w)
        out = alt.filter_transform(tf, w)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("magnitude", [1 << 12, 1 << 50], ids=["f64", "int64"])
    @pytest.mark.parametrize("n,c,t_count", STAGE_SHAPES, ids=STAGE_SHAPE_IDS)
    def test_input_transform(self, alt, rng, m, magnitude, n, c, t_count):
        """Fast fused-GEMM path and the beyond-f64-window fallback."""
        tf = get_transform(m, 3)
        t = tf.m + tf.r - 1
        tiles = rng.integers(
            -magnitude, magnitude, size=(t * t, c, n * t_count)
        ).astype(np.int64)
        ref = REFERENCE.input_transform(tf, tiles)
        assert ref.shape == tiles.shape
        amp = kron_row_bound(tf.bt_int)
        for x_bound in (None, magnitude):
            in_window = (x_bound or int(np.abs(tiles).max())) * amp < 2**52
            for src in stage_inputs(tiles):
                assert_stage_output(REFERENCE.input_transform(tf, src), ref, False)
                out = alt.input_transform(tf, src, x_bound=x_bound)
                assert_stage_output(out, ref, in_window)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("magnitude", [1 << 16, 1 << 50], ids=["f64", "int64"])
    @pytest.mark.parametrize("n,c,t_count", STAGE_SHAPES, ids=STAGE_SHAPE_IDS)
    def test_output_transform(self, alt, rng, m, magnitude, n, c, t_count):
        tf = get_transform(m, 3)
        t = tf.m + tf.r - 1
        k = c + 1  # output channels; 4 in the base shape
        m_arr = rng.integers(
            -magnitude, magnitude, size=(t * t, k, n * t_count)
        ).astype(np.int64)
        ref = REFERENCE.output_transform(tf, m_arr)
        assert ref.shape == (m * m, k, n * t_count)
        amp = kron_row_bound(tf.at_int)
        for m_bound in (None, magnitude):
            in_window = (m_bound or int(np.abs(m_arr).max())) * amp < 2**52
            for src in stage_inputs(m_arr):
                assert_stage_output(REFERENCE.output_transform(tf, src), ref, False)
                out = alt.output_transform(tf, src, m_bound=m_bound)
                assert_stage_output(out, ref, in_window)

    @pytest.mark.parametrize(
        "magnitude", [1 << 15, 1 << 27], ids=["f64", "int64-blocked"]
    )
    @pytest.mark.parametrize(
        "n,c,t_count", [(2, 64, 7), (1, 64, 7), (2, 1, 7), (3, 64, 9)],
        ids=STAGE_SHAPE_IDS,
    )
    def test_channel_gemm(self, alt, rng, magnitude, n, c, t_count):
        """f64 BLAS path and the blocked int64 fallback (2^27·2^27·C > 2^52)."""
        k, t = 5, 4
        assert (magnitude**2 * c < 2**52) == (magnitude == 1 << 15)
        u = rng.integers(
            -magnitude, magnitude, size=(t * t, c, n * t_count)
        ).astype(np.int64)
        v = rng.integers(-magnitude, magnitude, size=(t * t, k, c)).astype(np.int64)
        ref = REFERENCE.channel_reduce(u, v)
        assert ref.shape == (t * t, k, n * t_count)
        in_window = magnitude == 1 << 15
        for bounds in ({}, {"u_bound": magnitude, "v_bound": magnitude}):
            for u_src, v_src in zip(stage_inputs(u), stage_inputs(v)):
                assert_stage_output(REFERENCE.channel_reduce(u_src, v_src), ref, False)
                out = alt.channel_reduce(u_src, v_src, **bounds)
                assert_stage_output(out, ref, in_window)

    @pytest.mark.parametrize("magnitude", [1 << 12, 1 << 24], ids=["f64", "int64"])
    def test_im2col_gemm_matrix_and_view(self, alt, rng, magnitude):
        """Materialized (N,C*R*S,P*Q) matrix and strided 6-D view agree."""
        from repro.utils.im2col import im2col, im2col_patches

        x = rng.integers(-magnitude, magnitude, size=(2, 8, 9, 9)).astype(np.int64)
        w = rng.integers(-magnitude, magnitude, size=(4, 8 * 3 * 3)).astype(np.int64)
        matrix = im2col(x, (3, 3), 1, 1)
        view = im2col_patches(x, (3, 3), 1, 1)
        ref = REFERENCE.im2col_gemm(w, matrix)
        for cols in (matrix, view):
            for bounds in ({}, {"w_bound": magnitude, "x_bound": magnitude}):
                out = alt.im2col_gemm(w, cols, **bounds)
                assert out.dtype == np.int64
                np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("magnitude", [1 << 12, 1 << 26], ids=["f64", "int64"])
    @pytest.mark.parametrize("images_per_block", [1, 2])
    @pytest.mark.parametrize(
        "n,kernel,stride,padding",
        [(5, 3, 1, 1), (1, 3, 1, 1), (4, 3, 2, 0), (3, 1, 1, 0), (3, 5, 2, 2)],
        ids=["remainder", "n1", "s2-p0", "k1", "k5-s2-p2"],
    )
    def test_im2col_gemm_across_image_blocks(
        self, alt, rng, monkeypatch, magnitude, images_per_block, n, kernel, stride,
        padding,
    ):
        """Image blocks of one and two images: remainders, N=1, odd geometries."""
        im2col_module = importlib.import_module("repro.utils.im2col")
        c, k = 3, 4
        x = rng.integers(-magnitude, magnitude, size=(n, c, 7, 8)).astype(np.int64)
        w = rng.integers(-magnitude, magnitude, size=(k, c * kernel**2)).astype(np.int64)
        matrix = im2col_module.im2col(x, (kernel, kernel), stride, padding)
        view = im2col_module.im2col_patches(x, (kernel, kernel), stride, padding)
        ref = REFERENCE.im2col_gemm(w, matrix)
        # per_block() sizes a block by one image's f64 im2col matrix.
        image_bytes = matrix[0].size * 8
        monkeypatch.setattr(im2col_module, "BLOCK_BYTES", images_per_block * image_bytes)
        assert im2col_module.per_block(image_bytes) == images_per_block
        for cols in (matrix, view):
            for bounds in ({}, {"w_bound": magnitude, "x_bound": magnitude}):
                out = alt.im2col_gemm(w, cols, **bounds)
                assert out.dtype == np.int64
                np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("magnitude", [1 << 12, 1 << 24], ids=["f64", "int64"])
    def test_linear_gemm(self, alt, rng, magnitude):
        x = rng.integers(-magnitude, magnitude, size=(6, 40)).astype(np.int64)
        w = rng.integers(-magnitude, magnitude, size=(4, 40)).astype(np.int64)
        ref = REFERENCE.linear_gemm(x, w)
        for bounds in ({}, {"w_bound": magnitude, "x_bound": magnitude}):
            out = alt.linear_gemm(x, w, **bounds)
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize(
        "acc_frac,out_fmt,extra",
        [
            (20, QFormat(16, 12), Fraction(1)),  # downshift (den > 1)
            (10, QFormat(16, 14), Fraction(1)),  # upshift (num > 1)
            (18, QFormat(16, 11), Fraction(1, 9)),  # Winograd scale ratio
        ],
    )
    def test_requantize(self, alt, rng, acc_frac, out_fmt, extra):
        """Rational rescale + half-away-from-zero round + saturate."""
        acc = rng.integers(-(1 << 40), 1 << 40, size=(3, 7, 11))
        # Include exact .5 ties of both signs and the format edges.
        acc.flat[:6] = [5 << 7, -(5 << 7), 1, -1, 0, 1 << 40]
        ref = requantize(acc, acc_frac, out_fmt, extra_ratio=extra)
        out = alt.requantize(acc, acc_frac, out_fmt, extra_ratio=extra)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize(
        "acc_frac,out_fmt,extra",
        [
            (18, QFormat(16, 11), Fraction(1, 9)),  # x / 1152: exact ties
            (10, QFormat(16, 14), Fraction(1, 3)),  # 16x / 3: no ties
        ],
    )
    def test_requantize_fast_path_window_edge(self, alt, acc_frac, out_fmt, extra):
        """Accumulators with ``max_abs * num + den // 2`` just under 2^62,
        the largest the int64 fast path takes: negative values, and values
        whose rescaled remainder is ``den // 2`` (exact ties when ``den``
        is even), at both ends of the range."""
        ratio = extra * Fraction(2) ** (out_fmt.frac - acc_frac)
        num, den = ratio.numerator, ratio.denominator
        max_abs = (2**62 - 1 - den // 2) // num
        assert max_abs * num + den // 2 < 2**62 <= (max_abs + 1) * num + den // 2
        half = den // 2 * pow(num, -1, den) % den  # acc * num = den // 2 (mod den)
        ties = [q * den + half for q in (0, 1, 7, (max_abs - half) // den)]
        acc = np.array(
            [-max_abs, max_abs, -1, 0, *ties, *(-a for a in ties)], dtype=np.int64
        )
        # The 16-bit format clips the edge values; a 62-bit one shows their
        # rounding.
        wide = QFormat(62, out_fmt.frac)
        for fmt in (out_fmt, wide):
            ref = requantize(acc, acc_frac, fmt, extra_ratio=extra)
            out = alt.requantize(acc, acc_frac, fmt, extra_ratio=extra)
            np.testing.assert_array_equal(out, ref)
        assert int(np.abs(ref).max()) < wide.qmax

    def test_requantize_extreme_magnitude_delegates_exactly(self, alt):
        """Accumulators at 2^52 with a 2^10 numerator exceed the int64
        fast-path window; the object-dtype fallback must still match."""
        acc = np.array([1 << 52, -(1 << 52), 12345], dtype=np.int64)
        out_fmt = QFormat(16, 14)
        ref = requantize(acc, 4, out_fmt)  # ratio = 2**10
        out = alt.requantize(acc, 4, out_fmt)
        np.testing.assert_array_equal(out, ref)

    def test_requantize_empty(self, alt):
        out = alt.requantize(np.empty((0, 3), dtype=np.int64), 12, QFormat(16, 10))
        assert out.shape == (0, 3)

    def test_returns_fresh_arrays(self, alt, rng):
        """Two successive calls must not alias each other's output."""
        tf = get_transform(2, 3)
        tiles = rng.integers(-(1 << 10), 1 << 10, size=(16, 2, 3)).astype(np.int64)
        a = alt.input_transform(tf, tiles)
        snapshot = a.copy()
        alt.input_transform(tf, tiles + 1)
        np.testing.assert_array_equal(a, snapshot)


class TestWholeConvParity:
    """Full integer Winograd conv: y/u/m intermediates bit-identical."""

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("keep", [False, True])
    def test_conv_and_intermediates(self, alt, rng, m, keep):
        from repro.winograd import transform_filter_int, winograd_conv2d_int

        tf = get_transform(m, 3)
        x = rng.integers(-(1 << 12), 1 << 12, size=(2, 8, 12, 12)).astype(np.int64)
        w = rng.integers(-(1 << 7), 1 << 7, size=(4, 8, 3, 3)).astype(np.int64)
        v = transform_filter_int(w, tf)
        ref = winograd_conv2d_int(
            x, v, padding=1, m=m, keep_intermediates=keep, backend=REFERENCE
        )
        out = winograd_conv2d_int(
            x,
            v,
            padding=1,
            m=m,
            keep_intermediates=keep,
            backend=alt,
            x_bound=1 << 12,
            v_bound=int(np.abs(v).max()),
        )
        np.testing.assert_array_equal(out.y_int, ref.y_int)
        if keep:
            np.testing.assert_array_equal(out.u_int, ref.u_int)
            np.testing.assert_array_equal(out.m_int, ref.m_int)

    def test_mixed_regime_chain(self, alt, rng):
        """Input stage inside the f64 window, channel and output stages
        beyond it (a large V): float64 U feeds the exact int64 fallback."""
        from repro.winograd import transform_filter_int, winograd_conv2d_int

        tf = get_transform(2, 3)
        x, w = mixed_regime_operands(rng)
        v = transform_filter_int(w, tf)
        kw = dict(padding=1, m=2, x_bound=1 << 15, v_bound=int(np.abs(v).max()))
        ref = winograd_conv2d_int(x, v, backend=REFERENCE, **kw)
        out = winograd_conv2d_int(x, v.astype(np.float64), backend=alt, **kw)
        assert (out.u_int.dtype, out.m_int.dtype) == (np.float64, np.int64)
        assert out.y_int.dtype == np.int64
        for name in ("u_int", "m_int", "y_int"):
            np.testing.assert_array_equal(getattr(out, name), getattr(ref, name))

    def test_mixed_regime_abft_injection(self, alt, rng):
        """An ABFT-wrapped operation-level injection on the mixed-regime
        layer: same output and events under both backends, where the
        checksum's channel GEMM gets float64 U beyond the f64 window."""
        from repro.faultsim import AbftChecker, OperationLevelInjector
        from repro.quantized.qops import QConvWinograd, conv_op_counts

        x, weight = mixed_regime_operands(rng)
        layer = QConvWinograd(
            name="wide", inputs=("x",), out_fmt=QFormat(62, 8),
            weight_int=weight, bias_acc=np.zeros(4, dtype=np.int64),
            in_fmt=QFormat(16, 8), w_fmt=QFormat(38, 12), padding=1,
            in_shape=x.shape[1:],
            op_counts=conv_op_counts("winograd", 3, 4, 3, 1, x.shape[2:], m=2),
        )
        results = []
        for backend in ("reference", alt.name):
            layer.kernel_backend = backend
            layer.prepare()
            checker = AbftChecker(OperationLevelInjector(1e-3, seed=5), correct=True)
            checker.begin_inference(len(x))
            y = layer.forward([x], injector=checker)
            results.append((y, checker.event_counts))
        (y_ref, counts_ref), (y_alt, counts_alt) = results
        assert counts_ref["abft_detected"] > 0
        assert counts_alt == counts_ref
        np.testing.assert_array_equal(y_alt, y_ref)


def mixed_regime_operands(rng):
    """A 16-bit input and 2^36 weights for ``F(2, 3)``: the input transform
    is inside the f64 window and the channel GEMM beyond it, with products
    past 2^53 that float64 would round (every sum stays below 2^63)."""
    from repro.winograd import transform_filter_int

    x = rng.integers(-(1 << 15), 1 << 15, size=(2, 3, 7, 9))
    w = rng.integers(-(1 << 36), 1 << 36, size=(4, 3, 3, 3))
    tf = get_transform(2, 3)
    u_bound = (1 << 15) * kron_row_bound(tf.bt_int)
    v_bound = int(np.abs(transform_filter_int(w, tf)).max())
    assert u_bound < 2**52 <= u_bound * v_bound * 3
    return x, w


# --- model-level differential tests ------------------------------------------
class TestModelParity:
    """Forward passes and campaign units across backends, modes, injectors."""

    @pytest.mark.parametrize("model_idx", [0, 1], ids=["standard", "winograd"])
    def test_forward_trace_bit_identical(self, alt, tiny_quantized, tiny_eval, model_idx):
        """Every node output of a fault-free forward pass is identical."""
        qm = tiny_quantized[model_idx]
        x, _ = tiny_eval
        try:
            qm.set_kernel_backend("reference")
            ref = qm.forward_trace(x[:8])
            qm.set_kernel_backend(alt.name)
            out = qm.forward_trace(x[:8])
        finally:
            restore_backend(qm)
        assert ref.keys() == out.keys()
        for name in ref:
            np.testing.assert_array_equal(out[name], ref[name], err_msg=name)

    @pytest.mark.parametrize("model_idx", [0, 1], ids=["standard", "winograd"])
    @pytest.mark.parametrize("injector", [INJECTOR_OPERATION, INJECTOR_NEURON])
    @pytest.mark.parametrize("ber", [0.0, 1e-7, 1e-5], ids=["zero", "low", "knee"])
    def test_seed_point_parity(
        self, alt, tiny_quantized, tiny_eval, model_idx, injector, ber
    ):
        """accuracy AND event counts identical for each (BER, seed) unit."""
        qm = tiny_quantized[model_idx]
        x, y = tiny_eval
        config = CampaignConfig(seeds=(0, 1), batch_size=12, max_samples=24,
                                injector=injector)
        try:
            qm.set_kernel_backend("reference")
            ref = [evaluate_seed_point(qm, x, y, ber, s, config) for s in config.seeds]
            qm.set_kernel_backend(alt.name)
            out = [evaluate_seed_point(qm, x, y, ber, s, config) for s in config.seeds]
        finally:
            restore_backend(qm)
        assert out == ref

    def test_engine_sweep_parity(self, alt, tiny_quantized, tiny_eval):
        """Full engine sweeps (REPRO_PARITY_WORKERS workers) agree with the
        serial reference sweep under the alternative backend."""
        qm = tiny_quantized[1]
        x, y = tiny_eval
        bers = [1e-5, 3e-5]
        config = CampaignConfig(seeds=(0, 1), batch_size=12, max_samples=24)
        try:
            qm.set_kernel_backend("reference")
            serial = [r.to_dict() for r in run_sweep(qm, x, y, bers, config=config)]
            qm.set_kernel_backend(alt.name)
            engine = CampaignEngine(workers=PARITY_WORKERS)
            swept = [
                r.to_dict() for r in engine.run_sweep(qm, x, y, bers, config=config)
            ]
        finally:
            restore_backend(qm)
        assert swept == serial


class TestCheckpointByteIdentity:
    """A fig-3 style engine run writes byte-identical checkpoint files
    under every backend (workers=1: deterministic completion order)."""

    def test_checkpoint_files_byte_identical(
        self, alt, tiny_quantized, tiny_eval, tmp_path
    ):
        qm = tiny_quantized[1]
        x, y = tiny_eval
        bers = [0.0, 1e-5, 3e-5]
        config = CampaignConfig(seeds=(0, 1), batch_size=12, max_samples=24)
        ref_ckpt = tmp_path / "reference.json"
        alt_ckpt = tmp_path / "alt.json"
        try:
            qm.set_kernel_backend("reference")
            CampaignEngine(workers=1, checkpoint_path=ref_ckpt).run_sweep(
                qm, x, y, bers, config=config
            )
            qm.set_kernel_backend(alt.name)
            CampaignEngine(workers=1, checkpoint_path=alt_ckpt).run_sweep(
                qm, x, y, bers, config=config
            )
        finally:
            restore_backend(qm)
        ref_bytes = ref_ckpt.read_bytes()
        assert len(ref_bytes) > 0
        assert alt_ckpt.read_bytes() == ref_bytes

    def test_checkpoint_shared_across_backends(
        self, alt, tiny_quantized, tiny_eval, tmp_path
    ):
        """A checkpoint written under one backend is fully served from
        cache when resumed under another (keys exclude the backend)."""
        qm = tiny_quantized[0]
        x, y = tiny_eval
        bers = [1e-5]
        config = CampaignConfig(seeds=(0, 1), batch_size=12, max_samples=24)
        ckpt = tmp_path / "shared.json"
        try:
            qm.set_kernel_backend("reference")
            CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
                qm, x, y, bers, config=config
            )
            qm.set_kernel_backend(alt.name)
            engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
            engine.run_sweep(qm, x, y, bers, config=config)
        finally:
            restore_backend(qm)
        assert engine.last_stats.cached_units == len(config.seeds)
        assert engine.last_stats.computed_units == 0


class TestFingerprintStability:
    """The backend is execution strategy: identity hashes must not move."""

    def test_model_fingerprint_ignores_backend(self, alt, tiny_quantized):
        for qm in tiny_quantized:
            try:
                qm.set_kernel_backend("reference")
                before = model_fingerprint(qm)
                qm.set_kernel_backend(alt.name)
                assert model_fingerprint(qm) == before
            finally:
                restore_backend(qm)

    def test_set_kernel_backend_propagates_to_nodes(self, tiny_quantized):
        qm = tiny_quantized[1]
        try:
            qm.set_kernel_backend("reference")
            for node in qm.injectable_layers():
                assert node.kernel_backend == "reference"
        finally:
            restore_backend(qm)
        assert DEFAULT_BACKEND == "optimized"
        for node in qm.injectable_layers():
            assert node.kernel_backend == "optimized"


# --- registry, errors, caches ------------------------------------------------
class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_backend("numba")

    def test_model_validates_backend_eagerly(self, tiny_quantized):
        with pytest.raises(ConfigurationError):
            tiny_quantized[0].set_kernel_backend("numba")

    def test_singletons(self):
        assert get_backend("reference") is get_backend("reference")
        assert get_backend("optimized") is get_backend("optimized")

    def test_names_and_availability(self):
        assert BACKEND_NAMES == ("reference", "optimized")
        for name in BACKEND_NAMES:
            assert get_backend(name).name == name


class TestBoundedCache:
    def test_fifo_eviction_at_capacity(self):
        cache = BoundedCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache and "b" in cache and "c" in cache
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_reput_existing_key_does_not_evict(self):
        cache = BoundedCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2 and cache.get("a") == 10
        assert cache.stats()["evictions"] == 0

    def test_hit_miss_counters(self):
        cache = BoundedCache(capacity=4)
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["capacity"] == 4

    def test_clear_preserves_counters(self):
        cache = BoundedCache(capacity=4)
        cache.put("x", 1)
        cache.get("x")
        cache.clear()
        assert len(cache) == 0 and cache.stats()["hits"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedCache(capacity=0)

    def test_einsum_path_cache_is_bounded_and_shared(self):
        """The reference kernels and the backend layer share one capped
        cache (the previously unbounded module global)."""
        from repro.backends import reference

        assert reference.EINSUM_PATHS is EINSUM_PATHS
        assert isinstance(EINSUM_PATHS, BoundedCache)
        assert EINSUM_PATHS.capacity == 256

    def test_cache_stats_hook(self, alt):
        stats = alt.cache_stats()
        assert set(stats) == {"einsum_paths", "fused_transforms"}
        for counters in stats.values():
            assert set(counters) == {
                "size", "capacity", "hits", "misses", "evictions",
            }


class TestMemoryRetention:
    def test_forwards_retain_no_activation_buffers(self, tiny_quantized, tiny_eval):
        """Backend temporaries die with their call: after two fault-free
        forwards only the fused-matrix and einsum-path caches may remain
        allocated from the backend layer, nothing activation-sized."""
        qm = tiny_quantized[1]
        x, _ = tiny_eval
        try:
            qm.set_kernel_backend("optimized")
            tracemalloc.start()
            try:
                for _ in range(2):
                    qm.forward(x)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
        finally:
            restore_backend(qm)
        retained = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/repro/backends/*")]
        )
        assert sum(stat.size for stat in retained.statistics("filename")) < 64 * 1024


class TestBoundHelpers:
    def test_format_bound(self):
        assert format_bound(16) == 1 << 15
        assert format_bound(8) == 1 << 7

    def test_row_and_kron_bounds(self):
        mat = np.array([[1, -2], [3, 4]])
        assert row_bound(mat) == 7
        assert kron_row_bound(mat) == 49
        kron = np.kron(mat, mat)
        assert int(np.abs(kron).sum(axis=1).max()) == 49

    def test_bounds_are_conservative_for_tiny_model(self, tiny_quantized):
        """The format-derived activation bound dominates every actual
        layer-input magnitude (the invariant the probes rely on)."""
        qm = tiny_quantized[0]
        for node in qm.injectable_layers():
            assert format_bound(node.in_fmt.width) >= node.in_fmt.qmax

