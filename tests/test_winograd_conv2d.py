"""Tests for 2-D Winograd convolution kernels (float and integer)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.utils.im2col import im2col
from repro.winograd import (
    TileGrid,
    assemble_tiles,
    extract_tiles,
    filter_stage_layout,
    transform_filter_int,
    winograd_conv2d_float,
    winograd_conv2d_int,
)


def direct_conv_int(x, w, padding):
    """Exact integer direct convolution via im2col."""
    n, c, h, wd = x.shape
    k, _, r, s = w.shape
    cols = im2col(x, (r, s), 1, padding)
    out = np.einsum("kr,nrp->nkp", w.reshape(k, -1), cols)
    p, q = h + 2 * padding - r + 1, wd + 2 * padding - s + 1
    return out.reshape(n, k, p, q)


class TestTiling:
    def test_grid_geometry(self):
        grid = TileGrid(out_h=7, out_w=5, m=2, r=3)
        assert (grid.tiles_h, grid.tiles_w) == (4, 3)
        assert grid.num_tiles == 12
        assert grid.padded_in_h == 3 * 2 + 4

    def test_tile_origin(self):
        grid = TileGrid(out_h=4, out_w=4, m=2, r=3)
        assert grid.tile_origin(0) == (0, 0)
        assert grid.tile_origin(3) == (2, 2)

    def test_extract_assemble_roundtrip_values(self, rng):
        grid = TileGrid(out_h=6, out_w=6, m=2, r=3)
        x = rng.integers(-10, 10, size=(2, 3, 8, 8)).astype(np.int64)
        tiles = extract_tiles(x, grid)
        assert tiles.shape == (16, 3, 2 * 9)
        # Column n*T + 0 of every row is image n's top-left 4x4 window.
        first = tiles.reshape(4, 4, 3, 2, 9)[..., 0].transpose(3, 2, 0, 1)
        np.testing.assert_array_equal(first, x[:, :, :4, :4])

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_extract_matches_explicit_windows(self, rng, m, padding):
        """Folded padding + partial edge tiles equal an explicit zero-pad
        followed by per-tile slicing."""
        h, w = 7, 9
        out_h, out_w = h + 2 * padding - 2, w + 2 * padding - 2
        grid = TileGrid(out_h=out_h, out_w=out_w, m=m, r=3)
        x = rng.integers(-100, 100, size=(2, 3, h, w)).astype(np.int64)
        xp = np.zeros((2, 3, grid.padded_in_h, grid.padded_in_w), dtype=np.int64)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        t = grid.t
        tiles = extract_tiles(x, grid, padding).reshape(t, t, 3, 2, grid.num_tiles)
        for tile in range(grid.num_tiles):
            oh, ow = grid.tile_origin(tile)
            window = xp[:, :, oh : oh + t, ow : ow + t]
            np.testing.assert_array_equal(
                tiles[..., tile].transpose(3, 2, 0, 1), window
            )

    @pytest.mark.parametrize("m", [2, 4])
    def test_assemble_scatters_and_crops(self, rng, m):
        grid = TileGrid(out_h=7, out_w=5, m=m, r=3)
        n, k = 2, 3
        full = rng.integers(
            -50, 50, size=(n, k, grid.tiles_h * m, grid.tiles_w * m)
        ).astype(np.int64)
        tiles = (
            full.reshape(n, k, grid.tiles_h, m, grid.tiles_w, m)
            .transpose(3, 5, 1, 0, 2, 4)
            .reshape(m * m, k, n * grid.num_tiles)
        )
        out = assemble_tiles(tiles, grid)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, full[:, :, :7, :5])

    def test_gather_and_scatter_cast_into_dtype(self, rng):
        """The gather writes the requested dtype and the scatter casts exact
        float64 tiles back to a C-contiguous int64 array."""
        grid = TileGrid(out_h=7, out_w=5, m=2, r=3)
        x = rng.integers(-(1 << 40), 1 << 40, size=(2, 3, 7, 5)).astype(np.int64)
        tiles = extract_tiles(x, grid, 1, dtype=np.float64)
        assert tiles.dtype == np.float64
        np.testing.assert_array_equal(tiles, extract_tiles(x, grid, 1))
        out_tiles = tiles[:4] * 3  # any exact float64 (m*m, K, N*T) tiles
        out = assemble_tiles(out_tiles, grid, dtype=np.int64)
        assert out.dtype == np.int64 and out.flags.c_contiguous
        np.testing.assert_array_equal(
            out, assemble_tiles(out_tiles.astype(np.int64), grid)
        )

    def test_assemble_crops_overhang(self, rng):
        grid = TileGrid(out_h=3, out_w=3, m=2, r=3)
        tiles = rng.integers(0, 5, size=(4, 1, grid.num_tiles)).astype(np.int64)
        out = assemble_tiles(tiles, grid)
        assert out.shape == (1, 1, 3, 3)

    def test_extract_rejects_oversized_input(self, rng):
        grid = TileGrid(out_h=2, out_w=2, m=2, r=3)
        with pytest.raises(ShapeError):
            extract_tiles(np.zeros((1, 1, 20, 20)), grid)


class TestFloatWinograd:
    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_direct(self, rng, m, padding):
        x = rng.standard_normal((2, 3, 10, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        y = winograd_conv2d_float(x, w, padding=padding, m=m)
        expected = direct_conv_int(x, w, padding)
        np.testing.assert_allclose(y, expected, atol=1e-9)

    def test_bias_applied(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = np.array([1.0, -2.0, 0.5])
        y = winograd_conv2d_float(x, w, bias=b, padding=1, m=2)
        y0 = winograd_conv2d_float(x, w, padding=1, m=2)
        np.testing.assert_allclose(y - y0, np.broadcast_to(b.reshape(1, 3, 1, 1), y.shape))

    def test_rejects_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            winograd_conv2d_float(
                rng.standard_normal((1, 3, 8, 8)), rng.standard_normal((2, 4, 3, 3))
            )

    def test_rejects_non_square_kernel(self, rng):
        with pytest.raises(ShapeError):
            winograd_conv2d_float(
                rng.standard_normal((1, 3, 8, 8)), rng.standard_normal((2, 3, 3, 5))
            )


class TestIntegerWinograd:
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_scaled_output_exact(self, rng, m, padding):
        """y_int == output_scale_2d * direct integer convolution, exactly."""
        x = rng.integers(-(2**12), 2**12, size=(2, 5, 9, 8)).astype(np.int64)
        w = rng.integers(-(2**12), 2**12, size=(4, 5, 3, 3)).astype(np.int64)
        from repro.winograd import get_transform

        tf = get_transform(m, 3)
        v = transform_filter_int(w, tf)
        ctx = winograd_conv2d_int(x, v, padding=padding, m=m)
        direct = direct_conv_int(x, w, padding)
        out_h, out_w = direct.shape[2], direct.shape[3]
        np.testing.assert_array_equal(
            ctx.y_int[:, :, :out_h, :out_w], direct * tf.output_scale_2d
        )

    def test_intermediates_kept_and_dropped(self, rng):
        x = rng.integers(-100, 100, size=(1, 2, 6, 6)).astype(np.int64)
        w = rng.integers(-100, 100, size=(2, 2, 3, 3)).astype(np.int64)
        from repro.winograd import get_transform

        v = transform_filter_int(w, get_transform(2, 3))
        kept = winograd_conv2d_int(x, v, m=2, keep_intermediates=True)
        assert kept.u_int is not None and kept.m_int is not None
        dropped = winograd_conv2d_int(x, v, m=2, keep_intermediates=False)
        assert dropped.u_int is None and dropped.m_int is None
        np.testing.assert_array_equal(kept.y_int, dropped.y_int)

    def test_rejects_bad_filter_shape(self, rng):
        x = rng.integers(-10, 10, size=(1, 2, 6, 6)).astype(np.int64)
        with pytest.raises(ShapeError):
            winograd_conv2d_int(x, np.zeros((2, 2, 3, 3), dtype=np.int64), m=2)

    def test_large_values_stay_exact(self):
        """Worst-case magnitudes (int16 extremes) through the int path."""
        x = np.full((1, 4, 6, 6), 32767, dtype=np.int64)
        w = np.full((2, 4, 3, 3), -32768, dtype=np.int64)
        from repro.winograd import get_transform

        tf = get_transform(2, 3)
        v = transform_filter_int(w, tf)
        ctx = winograd_conv2d_int(x, v, padding=1, m=2)
        direct = direct_conv_int(x, w, 1)
        np.testing.assert_array_equal(ctx.y_int, direct * tf.output_scale_2d)


class TestContextAnnotations:
    def test_optional_intermediates_declared_optional(self):
        """Regression: u_int/m_int are None when intermediates are dropped,
        so their declared types must admit None (they used to claim a bare
        np.ndarray)."""
        import typing

        from repro.winograd.conv2d import WinogradConvContext

        hints = typing.get_type_hints(WinogradConvContext)
        for name in ("u_int", "m_int"):
            assert type(None) in typing.get_args(hints[name]), (
                f"{name} must be annotated np.ndarray | None"
            )
        for name in ("v_int", "y_int"):
            assert hints[name] is np.ndarray


class TestEinsumPathCache:
    """The integer path's cached contraction paths stay integer-exact."""

    def test_cached_paths_match_unoptimized_einsum(self):
        from repro.backends import EINSUM_PATHS
        from repro.winograd.transforms import get_transform

        rng = np.random.default_rng(3)
        tf = get_transform(2, 3)
        x = rng.integers(-500, 500, size=(3, 5, 10, 10)).astype(np.int64)
        w = rng.integers(-80, 80, size=(7, 5, 3, 3)).astype(np.int64)

        v = transform_filter_int(w, tf)
        ctx = winograd_conv2d_int(x, v, padding=0, m=2)
        # The filter transform, input transform and output transform each
        # memoize one path per operand-shape signature.
        assert len(EINSUM_PATHS) >= 3

        g, bt = tf.g_int, tf.bt_int
        v_ref = np.einsum("ij,kcjl,ml->kcim", g, w, g, optimize=False)
        np.testing.assert_array_equal(v, filter_stage_layout(v_ref))
        grid = TileGrid(out_h=8, out_w=8, m=2, r=3)
        tiles = extract_tiles(x, grid).reshape(4, 4, -1)
        u_ref = np.einsum("ia,jb,abx->ijx", bt, bt, tiles, optimize=False)
        np.testing.assert_array_equal(ctx.u_int, u_ref.reshape(ctx.u_int.shape))

    def test_repeated_shapes_reuse_one_path(self):
        from repro.backends import EINSUM_PATHS
        from repro.winograd.transforms import get_transform

        tf = get_transform(2, 3)
        rng = np.random.default_rng(4)
        w = rng.integers(-10, 10, size=(4, 3, 3, 3)).astype(np.int64)
        before = len(EINSUM_PATHS)
        transform_filter_int(w, tf)
        after_first = len(EINSUM_PATHS)
        transform_filter_int(w, tf)
        assert len(EINSUM_PATHS) == after_first >= before
