"""Reference NumPy kernel backend (the bit-identity baseline).

The hot-path kernels extracted verbatim from ``winograd/conv2d.py`` and
``quantized/qops.py``; every other backend is differentially tested
against this one.  The tile transforms run as memoized-path int64
einsums, the channel GEMM and the im2col GEMM use the float64-exactness
fast path (BLAS matmul + rint when every partial sum provably fits the
f64 mantissa, int64 matmul otherwise), and requantization delegates to
the exact rational :func:`repro.fixedpoint.requantize`.

The exactness probes accept optional operand magnitude bounds (derived
from the layer's quantization format) and fall back to an actual
``np.abs(...).max()`` scan when no bound is supplied.

This backend is the int64 oracle: the Winograd stages cast their
operands (exact integers, int64 or float64) to int64 on entry and
return int64.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.backends.base import EINSUM_PATHS, KernelBackend, cached_einsum
from repro.fixedpoint import requantize as _fixedpoint_requantize

__all__ = [
    "ReferenceBackend",
    "channel_reduce",
    "exact_int_gemm",
    "filter_transform_int",
    "linear_gemm",
    "materialize_cols",
]


def filter_transform_int(weight_int: np.ndarray, tf) -> np.ndarray:
    """Integer filter transform ``G_int g G_int^T``; scale is ``g_scale**2``."""
    g = tf.g_int
    out = cached_einsum("ij,kcjl,ml->kcim", g, weight_int.astype(np.int64), g)
    return out.astype(np.int64)


def channel_reduce(
    u: np.ndarray,
    v: np.ndarray,
    u_bound: int | None = None,
    v_bound: int | None = None,
) -> np.ndarray:
    """Compute ``M[p, k, x] = sum_c V[p, k, c] * U[p, c, x]`` exactly.

    ``u`` is ``(t*t, C, N*T)`` and ``v`` is ``(t*t, K, C)``: one matrix
    product per tile position ``p``.  This is the arithmetic bottleneck
    of the integer path.  When every
    partial sum provably fits a float64 mantissa, the reduction runs as a
    batched BLAS matmul in float64 — exact and an order of magnitude
    faster than the int64 fallback.  The proof uses the supplied
    conservative ``u_bound``/``v_bound`` when available (skipping the
    full-tensor magnitude scan), the actual magnitudes otherwise; both
    probe sources choose between two exact paths, so results are
    identical either way.  ``u`` and ``v`` may be exact float64 integers;
    both are cast to int64 on entry, so the int64 fallback never runs
    in float64.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    c = u.shape[1]
    u_max = int(u_bound) if u_bound is not None else int(np.abs(u).max(initial=0))
    v_max = int(v_bound) if v_bound is not None else int(np.abs(v).max(initial=0))
    if u_max * v_max * c < 2**52:
        m_f = np.matmul(v.astype(np.float64), u.astype(np.float64))
        return np.rint(m_f).astype(np.int64)
    return np.matmul(v, u)  # int64 matmul: exact, slower


def materialize_cols(cols: np.ndarray) -> np.ndarray:
    """Materialize an im2col operand into its ``(N, C*R*S, P*Q)`` matrix.

    Accepts either the already-materialized matrix (returned unchanged)
    or the zero-copy strided ``(N, C, R, S, P, Q)`` patches view from
    :func:`repro.utils.im2col.im2col_patches`.
    """
    if cols.ndim == 3:
        return cols
    n, c, r, s, p, q = cols.shape
    return np.ascontiguousarray(cols).reshape(n, c * r * s, p * q)


def exact_int_gemm(
    weight: np.ndarray,
    cols: np.ndarray,
    w_bound: int | None = None,
    x_bound: int | None = None,
) -> np.ndarray:
    """``acc[n, k, p] = sum_r weight[k, r] * cols[n, r, p]`` exactly.

    Uses BLAS float64 when every partial sum provably fits the mantissa
    (from the supplied bounds when available, actual magnitudes
    otherwise), int64 otherwise.
    """
    cols = materialize_cols(cols)
    w_max = int(w_bound) if w_bound is not None else int(np.abs(weight).max(initial=0))
    x_max = int(x_bound) if x_bound is not None else int(np.abs(cols).max(initial=0))
    reduction = weight.shape[1]
    if w_max * x_max * reduction < 2**52:
        acc = np.matmul(
            weight.astype(np.float64), cols.astype(np.float64)
        )
        return np.rint(acc).astype(np.int64)
    return np.matmul(weight[None], cols)  # int64 matmul (exact, slower)


def linear_gemm(
    x: np.ndarray,
    weight: np.ndarray,
    w_bound: int | None = None,
    x_bound: int | None = None,
) -> np.ndarray:
    """``acc[n, k] = sum_f x[n, f] * weight[k, f]`` exactly (int64)."""
    w_max = int(w_bound) if w_bound is not None else int(np.abs(weight).max(initial=0))
    x_max = int(x_bound) if x_bound is not None else int(np.abs(x).max(initial=0))
    if w_max * x_max * weight.shape[1] < 2**52:
        return np.rint(
            x.astype(np.float64) @ weight.T.astype(np.float64)
        ).astype(np.int64)
    return x @ weight.T


class ReferenceBackend(KernelBackend):
    """The verbatim NumPy hot paths; bit-identity baseline for all backends."""

    name = "reference"

    def filter_transform(self, tf, weight_int: np.ndarray) -> np.ndarray:
        """Memoized-path int64 einsum ``G_int g G_int^T``."""
        return filter_transform_int(weight_int, tf)

    def input_transform(
        self, tf, tiles: np.ndarray, x_bound: int | None = None
    ) -> np.ndarray:
        """Memoized-path int64 einsum ``B^T d B`` (bounds unused here)."""
        bt = tf.bt_int
        t = bt.shape[0]
        tiles = np.asarray(tiles, dtype=np.int64)
        d = tiles.reshape(t, t, -1)
        u = cached_einsum(
            "ia,jb,abx->ijx", bt, bt, d, key=(bt.shape, bt.shape, d.shape[:2])
        )
        return u.reshape(tiles.shape)

    def output_transform(
        self, tf, m_arr: np.ndarray, m_bound: int | None = None
    ) -> np.ndarray:
        """Memoized-path int64 einsum ``A^T M A`` (bounds unused here)."""
        at = tf.at_int
        t = at.shape[1]
        m_arr = np.asarray(m_arr, dtype=np.int64)
        m_t = m_arr.reshape(t, t, -1)
        y = cached_einsum(
            "ui,vj,ijx->uvx", at, at, m_t, key=(at.shape, at.shape, m_t.shape[:2])
        )
        return y.reshape((at.shape[0] ** 2,) + m_arr.shape[1:])

    def channel_reduce(
        self,
        u: np.ndarray,
        v: np.ndarray,
        u_bound: int | None = None,
        v_bound: int | None = None,
    ) -> np.ndarray:
        """Batched f64 BLAS matmul with exactness probe; int64 fallback."""
        return channel_reduce(u, v, u_bound=u_bound, v_bound=v_bound)

    def im2col_gemm(
        self,
        weight2d: np.ndarray,
        cols: np.ndarray,
        w_bound: int | None = None,
        x_bound: int | None = None,
    ) -> np.ndarray:
        """f64 GEMM with exactness probe; int64 matmul fallback."""
        return exact_int_gemm(weight2d, cols, w_bound=w_bound, x_bound=x_bound)

    def linear_gemm(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        w_bound: int | None = None,
        x_bound: int | None = None,
    ) -> np.ndarray:
        """f64 GEMM with exactness probe; int64 matmul fallback."""
        return linear_gemm(x, weight, w_bound=w_bound, x_bound=x_bound)

    def requantize(
        self,
        acc: np.ndarray,
        acc_frac: int,
        out_fmt,
        extra_ratio: Fraction = Fraction(1),
    ) -> np.ndarray:
        """Exact rational rescale + round + saturate (fixedpoint kernel)."""
        return _fixedpoint_requantize(acc, acc_frac, out_fmt, extra_ratio=extra_ratio)

    def cache_stats(self) -> dict:
        """Einsum-path cache counters (the reference's only cache)."""
        return {"einsum_paths": EINSUM_PATHS.stats()}
