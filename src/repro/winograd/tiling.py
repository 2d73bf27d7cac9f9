"""Tile extraction and assembly for 2-D Winograd convolution.

``F(m x m, r x r)`` processes the padded input in overlapping ``t x t``
tiles (``t = m + r - 1``) with stride ``m`` and produces non-overlapping
``m x m`` output tiles.  The helpers here convert between NCHW feature maps
and the position-major tile layout the convolution kernels work in:
``(t*t, C, N*T)`` input tiles and ``(m*m, K, N*T)`` output tiles, one
row per tile element and one column per (image, tile).  In that layout
every stage of the pipeline is a plain matrix product over rows or a
batch of them, with no transposes between stages.  The gather folds in
the zero padding, so any output size is supported.

The integer pipeline's stage arrays are exact integers in the kernel
backend's stage dtype (float64 in ``optimized``, int64 in
``reference``): :func:`extract_tiles` gathers straight into that dtype
and :func:`assemble_tiles` casts back to int64 during its scatter, so
neither conversion costs a pass of its own.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.utils.mathx import ceil_div

__all__ = ["TileGrid", "extract_tiles", "assemble_tiles"]


class TileGrid:
    """Geometry of the Winograd tile decomposition for one layer.

    Parameters
    ----------
    out_h, out_w:
        Output spatial size of the convolution.
    m:
        Winograd output-tile size.
    r:
        Filter size (input tiles are ``t = m + r - 1`` wide).
    """

    def __init__(self, out_h: int, out_w: int, m: int, r: int):
        if out_h <= 0 or out_w <= 0:
            raise ShapeError(f"output size must be positive, got {out_h}x{out_w}")
        self.out_h = out_h
        self.out_w = out_w
        self.m = m
        self.r = r
        self.t = m + r - 1
        self.tiles_h = ceil_div(out_h, m)
        self.tiles_w = ceil_div(out_w, m)

    @property
    def num_tiles(self) -> int:
        """Number of tiles per (image, channel)."""
        return self.tiles_h * self.tiles_w

    @property
    def padded_in_h(self) -> int:
        """Input height after edge padding to a whole number of tiles."""
        return (self.tiles_h - 1) * self.m + self.t

    @property
    def padded_in_w(self) -> int:
        """Input width after edge padding to a whole number of tiles."""
        return (self.tiles_w - 1) * self.m + self.t

    def tile_origin(self, tile_index: int) -> tuple[int, int]:
        """Top-left output coordinate covered by flat ``tile_index``."""
        th, tw = divmod(tile_index, self.tiles_w)
        return th * self.m, tw * self.m

    def __repr__(self) -> str:
        return (
            f"TileGrid(out={self.out_h}x{self.out_w}, m={self.m}, r={self.r}, "
            f"tiles={self.tiles_h}x{self.tiles_w})"
        )


def extract_tiles(
    x: np.ndarray, grid: TileGrid, padding: int = 0, dtype=None
) -> np.ndarray:
    """Gather the overlapping ``t x t`` input tiles of an NCHW array.

    ``padding`` is the convolution's own symmetric zero padding; the
    right/bottom edge padding that completes partial tiles is added too.
    Both are folded into the gather, so the input is read once and never
    padded into a copy.  ``dtype`` (default ``x.dtype``) is the dtype of
    the tiles; the gather casts into it.

    Returns the position-major layout ``(t*t, C, N*T)`` with
    ``T = grid.num_tiles``: row ``i*t + j`` holds element ``(i, j)`` of
    every tile, channel-major, and column ``n*T + tile`` names one tile
    of one image.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got ndim={x.ndim}")
    n, c, h, w = x.shape
    need_h = grid.padded_in_h
    need_w = grid.padded_in_w
    if h + 2 * padding > need_h or w + 2 * padding > need_w:
        raise ShapeError(
            f"input {h}x{w} (padding {padding}) larger than tile grid expects "
            f"({need_h}x{need_w})"
        )
    m, t = grid.m, grid.t
    th, tw = grid.tiles_h, grid.tiles_w
    tiles = np.zeros((t, t, c, n, th, tw), dtype=x.dtype if dtype is None else dtype)
    for i in range(t):
        rows = _tile_span(i - padding, m, th, h)
        for j in range(t):
            cols = _tile_span(j - padding, m, tw, w)
            if rows is None or cols is None:
                continue
            (a0, a1, h0), (b0, b1, w0) = rows, cols
            src = x[:, :, h0 : h0 + (a1 - a0 - 1) * m + 1 : m,
                    w0 : w0 + (b1 - b0 - 1) * m + 1 : m]
            np.copyto(tiles[i, j, :, :, a0:a1, b0:b1], src.transpose(1, 0, 2, 3))
    return tiles.reshape(t * t, c, n * grid.num_tiles)


def _tile_span(offset: int, m: int, count: int, size: int):
    """Tiles whose element at ``offset + a*m`` lies inside ``[0, size)``.

    Returns ``(first, stop, first_source_index)`` over the tile index
    ``a``, or ``None`` when no tile reads a real input element there.
    """
    first = max(0, -(offset // m))
    stop = min(count, (size - 1 - offset) // m + 1)
    if stop <= first:
        return None
    return first, stop, offset + first * m


def assemble_tiles(tiles: np.ndarray, grid: TileGrid, dtype=None) -> np.ndarray:
    """Scatter ``(m*m, K, N*T)`` output tiles into a C-contiguous NCHW array.

    Row ``u*m + v`` of ``tiles`` holds output element ``(u, v)`` of every
    tile; the overhang of partial edge tiles is dropped.  ``dtype``
    (default ``tiles.dtype``) is the dtype of the result; the scatter
    casts into it (exact float64 integers truncate exactly to int64).
    """
    if tiles.ndim != 3:
        raise ShapeError(f"expected (m*m, K, N*T) tiles, got ndim={tiles.ndim}")
    m = grid.m
    mm, k, cols = tiles.shape
    if mm != m * m or cols % grid.num_tiles:
        raise ShapeError(f"tile array {tiles.shape} does not match grid {grid!r}")
    n = cols // grid.num_tiles
    src = tiles.reshape(m, m, k, n, grid.tiles_h, grid.tiles_w)
    out = np.empty(
        (n, k, grid.out_h, grid.out_w), dtype=tiles.dtype if dtype is None else dtype
    )
    for u in range(m):
        rows = -(-(grid.out_h - u) // m)
        for v in range(m):
            width = -(-(grid.out_w - v) // m)
            np.copyto(
                out[:, :, u::m, v::m],
                src[u, v, :, :, :rows, :width].transpose(1, 0, 2, 3),
                casting="unsafe",
            )
    return out
