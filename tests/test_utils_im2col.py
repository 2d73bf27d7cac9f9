"""Tests for repro.utils.im2col."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.utils.im2col import col2im, conv_output_size, im2col, pad_nchw


def reference_conv(x, w, stride, padding):
    """Naive direct convolution for cross-checking."""
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    p = conv_output_size(h, r, stride, padding)
    q = conv_output_size(wd, s, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    out = np.zeros((n, k, p, q))
    for i in range(p):
        for j in range(q):
            patch = xp[:, :, i * stride : i * stride + r, j * stride : j * stride + s]
            out[:, :, i, j] = np.einsum("ncrs,kcrs->nk", patch, w)
    return out


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size,k,s,p,expected", [(32, 3, 1, 1, 32), (32, 3, 2, 1, 16), (7, 7, 2, 3, 4)]
    )
    def test_values(self, size, k, s, p, expected):
        assert conv_output_size(size, k, s, p) == expected

    def test_rejects_degenerate(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)


class TestPadNchw:
    def test_noop_for_zero(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        assert pad_nchw(x, 0) is x
        assert pad_nchw(x, (0, 0)) is x

    @pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float32])
    @pytest.mark.parametrize("padding", [1, 2, (1, 0), (0, 2), (2, 1)])
    def test_matches_np_pad(self, rng, dtype, padding):
        x = (rng.standard_normal((3, 5, 6, 4)) * 1000).astype(dtype)
        x = x[:, ::2]  # a non-contiguous input
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        expected = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
        padded = pad_nchw(x, padding)
        assert padded.dtype == expected.dtype
        assert padded.flags.c_contiguous
        np.testing.assert_array_equal(padded, expected)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            pad_nchw(np.zeros((1, 1, 4, 4)), (1, -1))

    def test_pads_spatial_only(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        padded = pad_nchw(x, 2)
        assert padded.shape == (2, 3, 8, 8)
        assert np.all(padded[:, :, :2, :] == 0)

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            pad_nchw(np.zeros((3, 4, 4)), 1)


class TestIm2colConvolution:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 3)])
    def test_matches_reference_conv(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 9, 8))
        w = rng.standard_normal((5, 3, 3, 3))
        cols = im2col(x, (3, 3), stride, padding)
        p = conv_output_size(9, 3, stride, padding)
        q = conv_output_size(8, 3, stride, padding)
        out = (w.reshape(5, -1) @ cols).reshape(2, 5, p, q)
        np.testing.assert_allclose(out, reference_conv(x, w, stride, padding), atol=1e-10)

    def test_reduction_axis_is_c_major(self, rng):
        """The fault injector depends on the (c, r, s) ordering."""
        x = rng.standard_normal((1, 2, 4, 4))
        cols = im2col(x, (3, 3), 1, 0)
        # Element (c=1, r=0, s=0) of output (0, 0) is x[0, 1, 0, 0].
        assert cols[0, 9, 0] == pytest.approx(x[0, 1, 0, 0])

    def test_integer_dtype_preserved(self):
        x = np.arange(32, dtype=np.int64).reshape(1, 2, 4, 4)
        cols = im2col(x, (2, 2), 1, 0)
        assert cols.dtype == np.int64


def gemm_cols(x, kernel, stride, padding):
    """The ``(C*R*S, N*P*Q)`` gather whose adjoint :func:`col2im` is."""
    cols = im2col(x, kernel, stride, padding)
    return cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)


class TestCol2im:
    def test_adjoint_property(self, rng):
        """<gather(x), y> == <x, col2im(y)> — required for conv backward."""
        x = rng.standard_normal((2, 3, 6, 6))
        cols = gemm_cols(x, (3, 3), 2, 1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, (3, 3), 2, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(4, 9),
        w=st.integers(4, 9),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
    )
    def test_adjoint_property_hypothesis(self, h, w, stride, padding):
        rng = np.random.default_rng(h * 100 + w * 10 + stride + padding)
        x = rng.standard_normal((2, 2, h, w))
        cols = gemm_cols(x, (3, 3), stride, padding)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, (3, 3), stride, padding)).sum())
        assert abs(lhs - rhs) < 1e-8

    def test_rejects_shape_mismatch(self, rng):
        x = rng.standard_normal((2, 2, 5, 6))
        cols = gemm_cols(x, (3, 3), 1, 0)  # (18, 2 * 3 * 4)
        assert col2im(cols, x.shape, (3, 3), 1, 0).shape == x.shape
        with pytest.raises(ShapeError):  # the batched (N, C*R*S, P*Q) layout
            col2im(im2col(x, (3, 3), 1, 0), x.shape, (3, 3), 1, 0)
        with pytest.raises(ShapeError):
            col2im(cols.T, x.shape, (3, 3), 1, 0)
