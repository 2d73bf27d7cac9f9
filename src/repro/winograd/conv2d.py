"""2-D Winograd convolution kernels (float reference and integer-exact).

Two entry points:

* :func:`winograd_conv2d_float` — float64/float32 reference used by the
  float training framework's inference checks and by tests.
* :class:`WinogradConvContext` + :func:`winograd_conv2d_int` — the
  integer-exact pipeline used by quantized inference.  It exposes every
  intermediate (transformed inputs ``U``, transformed weights ``V``,
  products/accumulated ``M`` and scaled output ``Y_int``) so the
  operation-level fault injector can flip bits in any of them.

Both support unit stride with ``r x r`` kernels for any supported tile size;
larger kernels and strides are handled one level up by the DWM decomposition
(:mod:`repro.winograd.decompose`).

The integer pipeline's per-stage kernels (tile transforms and the channel
reduction) execute through a pluggable :mod:`repro.backends` backend —
bit-identical across backends by contract, so the choice affects
wall-clock only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import get_backend, kron_row_bound
from repro.backends.reference import filter_transform_int as _filter_transform_int
from repro.errors import ShapeError
from repro.utils.im2col import conv_output_size
from repro.winograd.tiling import TileGrid, assemble_tiles, extract_tiles
from repro.winograd.transforms import WinogradTransform, get_transform

__all__ = [
    "filter_stage_layout",
    "transform_filter_float",
    "transform_filter_int",
    "winograd_conv2d_float",
    "WinogradConvContext",
    "winograd_conv2d_int",
]


def transform_filter_float(weight: np.ndarray, tf: WinogradTransform) -> np.ndarray:
    """Compute ``G g G^T`` for every filter: (K, C, r, r) -> (K, C, t, t)."""
    g = tf.g
    return np.einsum("ij,kcjl,ml->kcim", g, weight, g, optimize=True)


def filter_stage_layout(v: np.ndarray, dtype=None) -> np.ndarray:
    """Re-lay ``(K, C, t, t)`` transformed filters position-major, ``(t*t, K, C)``.

    Row ``i*t + j`` is the ``(K, C)`` matrix the channel reduction
    multiplies tile element ``(i, j)`` by.  ``dtype`` (default
    ``v.dtype``) is cast to in the same copy.
    """
    k, c, t, _ = v.shape
    return np.ascontiguousarray(v.transpose(2, 3, 0, 1), dtype=dtype).reshape(t * t, k, c)


def transform_filter_int(weight_int: np.ndarray, tf: WinogradTransform) -> np.ndarray:
    """Integer filter transform ``G_int g G_int^T`` in the stage layout.

    Returns the ``(t*t, K, C)`` filters :func:`winograd_conv2d_int`
    consumes; the scale is ``g_scale**2``.
    """
    return filter_stage_layout(_filter_transform_int(weight_int, tf))


def _check_conv_args(x: np.ndarray, weight: np.ndarray) -> tuple[int, int]:
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError("expected NCHW input and KCRS weight")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"channel mismatch: input C={x.shape[1]}, weight C={weight.shape[1]}"
        )
    r, s = weight.shape[2], weight.shape[3]
    if r != s:
        raise ShapeError(f"winograd kernel must be square, got {r}x{s}")
    return r, s


def winograd_conv2d_float(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    padding: int = 0,
    m: int = 2,
) -> np.ndarray:
    """Float Winograd convolution ``F(m x m, r x r)``, unit stride.

    Parameters
    ----------
    x:
        Input activations, shape ``(N, C, H, W)``.
    weight:
        Filters, shape ``(K, C, r, r)``.
    bias:
        Optional per-output-channel bias, shape ``(K,)``.
    padding:
        Symmetric zero padding.
    m:
        Winograd output-tile size.
    """
    r, _ = _check_conv_args(x, weight)
    tf = get_transform(m, r)
    n, c, h, w = x.shape
    k = weight.shape[0]
    out_h = conv_output_size(h, r, 1, padding)
    out_w = conv_output_size(w, r, 1, padding)
    grid = TileGrid(out_h, out_w, tf.m, tf.r)

    t = tf.t
    tiles = extract_tiles(x.astype(np.float64, copy=False), grid, padding)
    bt = tf.bt
    u = np.einsum(
        "ia,jb,abx->ijx", bt, bt, tiles.reshape(t, t, -1), optimize=True
    ).reshape(t * t, c, -1)
    v = filter_stage_layout(
        transform_filter_float(weight.astype(np.float64, copy=False), tf)
    )
    # M[p, k, x] = sum_c V[p, k, c] * U[p, c, x], per tile position p.
    m_arr = np.matmul(v, u)
    at = tf.at
    y_tiles = np.einsum(
        "ui,vj,ijx->uvx", at, at, m_arr.reshape(t, t, -1), optimize=True
    )
    y = assemble_tiles(y_tiles.reshape(tf.m * tf.m, k, -1), grid)
    if bias is not None:
        y = y + bias.reshape(1, k, 1, 1)
    return y


@dataclass
class WinogradConvContext:
    """Every intermediate of one integer Winograd convolution.

    The fault injector consumes this to (a) look up operand values at
    sampled fault sites and (b) add fault deltas in the appropriate domain.
    ``u_int`` and ``m_int`` hold exact integers in the kernel backend's
    stage dtype — float64 in ``optimized`` (int64 where a stage's
    exactness probe failed), int64 in ``reference`` — and ``v_int`` is
    the filters as passed (float64 when ``QConvWinograd.prepare()`` ran
    on ``optimized``), so readers cast the elements they gather to
    int64.  ``y_int`` is always int64.
    The tile-domain arrays are position-major: axis 0 is the tile element
    ``i*t + j`` and the last axis of ``u_int``/``m_int`` is ``n*T + tile``
    (image-major), so the value image ``n``, channel ``c``, tile ``tile``
    and element ``(i, j)`` sit at ``[i*t + j, c, n*T + tile]``.

    Attributes
    ----------
    transform:
        The ``F(m, r)`` bundle used.
    grid:
        Tile geometry.
    u_int:
        Transformed input ``B^T d B`` (integer), shape ``(t*t, C, N*T)``;
        scale ``bt_scale**2`` relative to raw input integers.  ``None``
        when the convolution ran with ``keep_intermediates=False``.
    v_int:
        Transformed filters (integer), shape ``(t*t, K, C)``; scale
        ``g_scale**2`` relative to raw weight integers.
    m_int:
        Channel-accumulated element-wise products, shape ``(t*t, K, N*T)``.
        ``None`` when the convolution ran with ``keep_intermediates=False``.
    y_int:
        Scaled integer output accumulator (before bias/requantization),
        C-contiguous ``(N, K, out_h, out_w)``; scale ``output_scale_2d``
        relative to the direct convolution accumulator domain.
    """

    transform: WinogradTransform
    grid: TileGrid
    u_int: np.ndarray | None
    v_int: np.ndarray
    m_int: np.ndarray | None
    y_int: np.ndarray


def winograd_conv2d_int(
    x_int: np.ndarray,
    v_int: np.ndarray,
    padding: int = 0,
    m: int = 2,
    r: int = 3,
    keep_intermediates: bool = True,
    backend=None,
    x_bound: int | None = None,
    v_bound: int | None = None,
) -> WinogradConvContext:
    """Integer-exact Winograd convolution on quantized values.

    Parameters
    ----------
    x_int:
        Quantized input activations (stored integers), ``(N, C, H, W)``.
    v_int:
        Pre-transformed integer filters from :func:`transform_filter_int`,
        in the stage layout ``(t*t, K, C)``.
    padding:
        Symmetric zero padding.
    m, r:
        Tile and filter sizes (must match how ``v_int`` was produced).
    keep_intermediates:
        When False, ``u_int``/``m_int`` are not retained (saves memory when
        no fault injection is requested).
    backend:
        :class:`~repro.backends.base.KernelBackend` serving the transform
        and channel-reduction stages (default: the ``optimized`` backend).
        Every backend is bit-identical, so this changes wall-clock only.
    x_bound, v_bound:
        Optional conservative magnitude bounds on ``x_int``/``v_int``
        (e.g. from the quantization format).  When given, the stage
        bounds are derived from them — input ``x_bound * kron(B^T)`` row
        sums, channel product ``u_bound * v_bound * C``, and so on — and
        the backends skip their per-call magnitude scans.  ``x_bound``
        also picks the dtype the tiles are gathered into
        (:meth:`~repro.backends.base.KernelBackend.stage_dtype`).

    Returns
    -------
    A :class:`WinogradConvContext`; ``ctx.y_int`` is exactly
    ``output_scale_2d`` times the direct-convolution integer accumulator.
    """
    if backend is None:
        backend = get_backend()
    tf = get_transform(m, r)
    n, c, h, w = x_int.shape
    t = tf.t
    if v_int.ndim != 3 or v_int.shape[0] != t * t or v_int.shape[2] != c:
        raise ShapeError(
            f"v_int shape {v_int.shape} incompatible with C={c}, t={t} "
            "(expected (t*t, K, C))"
        )
    out_h = conv_output_size(h, r, 1, padding)
    out_w = conv_output_size(w, r, 1, padding)
    grid = TileGrid(out_h, out_w, tf.m, tf.r)

    # The stages chain in the backend's stage dtype; int64 only at the
    # node boundary, cast during the gather and the scatter.
    tiles = extract_tiles(x_int, grid, padding, dtype=backend.stage_dtype(x_bound))
    u = backend.input_transform(tf, tiles, x_bound=x_bound)
    del tiles
    u_bound = None if x_bound is None else int(x_bound) * kron_row_bound(tf.bt_int)
    m_arr = backend.channel_reduce(u, v_int, u_bound=u_bound, v_bound=v_bound)
    m_bound = (
        None
        if u_bound is None or v_bound is None
        else u_bound * int(v_bound) * c
    )
    y_tiles = backend.output_transform(tf, m_arr, m_bound=m_bound)
    y = assemble_tiles(y_tiles, grid, dtype=np.int64)

    return WinogradConvContext(
        transform=tf,
        grid=grid,
        u_int=u if keep_intermediates else None,
        v_int=v_int,
        m_int=m_arr if keep_intermediates else None,
        y_int=y,
    )
