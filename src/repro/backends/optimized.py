"""Optimized NumPy kernel backend (bit-identical, substantially faster).

Same int64 results as :class:`~repro.backends.reference.ReferenceBackend`
for every input, from four levers:

* **Fused transform matrices** — the 2-D tile transforms ``B^T d B`` /
  ``A^T M A`` are evaluated as a single float64 BLAS GEMM against the
  precomputed Kronecker square ``kron(M, M)`` (cached per (transform,
  stage, dtype)), replacing the int64 einsum which has no BLAS kernel.
  The float64-exactness fast path of ``channel_reduce`` is thereby
  extended to the transform stages: a transform output entry is a dot
  product against one row of the Kronecker square, so every partial sum
  is bounded by ``operand_bound * max_row_abs_sum`` and the f64 GEMM is
  provably exact whenever that product stays under ``2**52``.
* **Preallocated scratch buffers** — per-layer f64/int64 temporaries are
  reused across calls via a bounded (tag, shape, dtype) pool, and the
  int64→f64→int64 conversions run as single fused ``np.copyto`` casts
  (including straight out of strided im2col views: zero-copy gather +
  cast in one pass).  Returned arrays are always freshly allocated.
* **No redundant rounding** — f64 GEMM results are provably exact
  integers, so the ``np.rint`` pass is skipped and the cast truncates
  exactly.
* **Blocked int64 fallbacks + vectorized requantize** — when a bound
  exceeds the f64 window the kernels fall back to cache-blocked 2-D
  int64 matmuls (still exact), and requantization runs the fixedpoint
  fast path in-place on a scratch buffer (2 allocations instead of ~6).

Bounds passed by callers are conservative (derived from quantization
formats); both probe outcomes select exact paths, so path choice never
changes results — the same invariant the reference backend relies on.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.backends.base import BoundedCache, EINSUM_PATHS, KernelBackend
from repro.backends.reference import ReferenceBackend, filter_transform_int
from repro.fixedpoint import requantize as _fixedpoint_requantize

__all__ = ["OptimizedBackend"]

#: Target int64 elements per operand block in the blocked matmul
#: fallbacks (roughly half an L2 cache worth of columns).
_INT64_BLOCK_ELEMS = 1 << 16

#: Partial sums below this magnitude are exactly representable in f64.
_F64_EXACT = 2**52


class OptimizedBackend(KernelBackend):
    """Scratch-buffer + fused-transform NumPy backend (bit-identical)."""

    name = "optimized"

    def __init__(self):
        """Set up the fused-matrix cache and the scratch-buffer pool."""
        self._reference = ReferenceBackend()
        #: (stage, m, r, dtype) -> (kron(M, M) as that dtype, row bound).
        self._fused = BoundedCache(capacity=64)
        #: (tag, shape, dtype) -> reusable scratch ndarray.
        self._scratch = BoundedCache(capacity=24)

    # --- internal helpers ----------------------------------------------------
    def _buf(self, tag: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Reusable uninitialized scratch array for one internal temporary."""
        key = (tag, shape, np.dtype(dtype).str)
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._scratch.put(key, buf)
        return buf

    def _fused_matrix(self, stage: str, tf, matrix: np.ndarray) -> tuple:
        """``(kron(M, M) as float64, max abs row sum)`` for a transform stage."""
        key = (stage, tf.m, tf.r, "float64")
        entry = self._fused.get(key)
        if entry is None:
            mat = np.asarray(matrix, dtype=np.int64)
            kron = np.kron(mat, mat)
            bound = int(np.abs(kron).sum(axis=1).max())
            entry = (kron.astype(np.float64), bound)
            self._fused.put(key, entry)
        return entry

    def _fused_apply(
        self, tag: str, kron_f: np.ndarray, flat_src: np.ndarray, out_shape: tuple
    ) -> np.ndarray:
        """One fused cast + GEMM + cast: ``out = flat_src @ kron_f.T`` exactly.

        ``flat_src`` is int64 ``(rows, in_dim)``; the result is a fresh
        int64 array of ``out_shape`` (whose trailing dims flatten to the
        kron's output dim).  Only valid when the caller proved every
        partial sum fits the f64 mantissa.
        """
        rows, in_dim = flat_src.shape
        out_dim = kron_f.shape[0]
        src_f = self._buf(tag + ".in", (rows, in_dim))
        np.copyto(src_f, flat_src, casting="unsafe")
        prod = self._buf(tag + ".out", (rows, out_dim))
        np.matmul(src_f, kron_f.T, out=prod)
        out = np.empty(out_shape, dtype=np.int64)
        np.copyto(out.reshape(rows, out_dim), prod, casting="unsafe")
        return out

    # --- protocol ------------------------------------------------------------
    def filter_transform(self, tf, weight_int: np.ndarray) -> np.ndarray:
        """Offline per-model transform: delegates to the reference einsum."""
        return filter_transform_int(weight_int, tf)

    def input_transform(
        self, tf, tiles: np.ndarray, x_bound: int | None = None
    ) -> np.ndarray:
        """``B^T d B`` as one f64 GEMM against ``kron(B^T, B^T)``."""
        kron_f, amp = self._fused_matrix("input", tf, tf.bt_int)
        x_max = (
            int(x_bound) if x_bound is not None
            else int(np.abs(tiles).max(initial=0))
        )
        n, c, t_count, th, tw = tiles.shape
        if x_max * amp < _F64_EXACT:
            flat = np.ascontiguousarray(tiles).reshape(n * c * t_count, th * tw)
            return self._fused_apply("it", kron_f, flat, tiles.shape)
        return self._reference.input_transform(tf, tiles, x_bound=x_bound)

    def output_transform(
        self, tf, m_arr: np.ndarray, m_bound: int | None = None
    ) -> np.ndarray:
        """``A^T M A`` as one f64 GEMM against ``kron(A^T, A^T)``."""
        kron_f, amp = self._fused_matrix("output", tf, tf.at_int)
        m_max = (
            int(m_bound) if m_bound is not None
            else int(np.abs(m_arr).max(initial=0))
        )
        n, k, t_count, th, tw = m_arr.shape
        if m_max * amp < _F64_EXACT:
            flat = np.ascontiguousarray(m_arr).reshape(n * k * t_count, th * tw)
            return self._fused_apply(
                "ot", kron_f, flat, (n, k, t_count, tf.m, tf.m)
            )
        return self._reference.output_transform(tf, m_arr, m_bound=m_bound)

    def channel_reduce(
        self,
        u: np.ndarray,
        v: np.ndarray,
        u_bound: int | None = None,
        v_bound: int | None = None,
    ) -> np.ndarray:
        """Batched f64 GEMM via fused transpose-casts; blocked int64 fallback."""
        n, c, t_count, th, tw = u.shape
        k = v.shape[0]
        u_max = int(u_bound) if u_bound is not None else int(np.abs(u).max(initial=0))
        v_max = int(v_bound) if v_bound is not None else int(np.abs(v).max(initial=0))
        nt = n * t_count
        out = np.empty((n, k, t_count, th, tw), dtype=np.int64)
        if u_max * v_max * c < _F64_EXACT:
            # One fused cast+transpose per operand, one batched DGEMM,
            # one fused cast+transpose back — no rint pass (the products
            # are exact integers) and no intermediate int64 copies.
            u_f = self._buf("cr.u", (th * tw, c, nt))
            np.copyto(
                u_f.reshape(th, tw, c, n, t_count),
                u.transpose(3, 4, 1, 0, 2),
                casting="unsafe",
            )
            v_f = self._buf("cr.v", (th * tw, k, c))
            np.copyto(
                v_f.reshape(th, tw, k, c), v.transpose(2, 3, 0, 1), casting="unsafe"
            )
            m_f = self._buf("cr.m", (th * tw, k, nt))
            np.matmul(v_f, u_f, out=m_f)
            np.copyto(
                out.transpose(3, 4, 1, 0, 2),
                m_f.reshape(th, tw, k, n, t_count),
                casting="unsafe",
            )
            return out
        # Exact int64 fallback: per tile position, a 2-D matmul blocked
        # over the (N*T) columns so operands stay cache-resident.
        block = max(1, _INT64_BLOCK_ELEMS // max(1, c))
        um = self._buf("cr.ui", (c, nt), np.int64)
        res = self._buf("cr.mi", (k, nt), np.int64)
        for i in range(th):
            for j in range(tw):
                vm = np.ascontiguousarray(v[:, :, i, j])
                np.copyto(um.reshape(c, n, t_count), u[:, :, :, i, j].transpose(1, 0, 2))
                for s in range(0, nt, block):
                    e = min(nt, s + block)
                    np.matmul(vm, um[:, s:e], out=res[:, s:e])
                np.copyto(out[:, :, :, i, j].transpose(1, 0, 2), res.reshape(k, n, t_count))
        return out

    def im2col_gemm(
        self,
        weight2d: np.ndarray,
        cols: np.ndarray,
        w_bound: int | None = None,
        x_bound: int | None = None,
    ) -> np.ndarray:
        """f64 GEMM straight out of the strided patches view when exact."""
        k, reduction = weight2d.shape
        if cols.ndim == 6:
            n = cols.shape[0]
            pq = cols.shape[4] * cols.shape[5]
        else:
            n, _, pq = cols.shape
        w_max = (
            int(w_bound) if w_bound is not None
            else int(np.abs(weight2d).max(initial=0))
        )
        x_max = (
            int(x_bound) if x_bound is not None
            else int(np.abs(cols).max(initial=0))
        )
        if w_max * x_max * reduction < _F64_EXACT:
            cols_f = self._buf("gm.cols", (n, reduction, pq))
            # Fused gather + cast: reads the strided view (or the
            # materialized matrix) directly into f64 scratch in one pass.
            np.copyto(
                cols_f.reshape(cols.shape) if cols.ndim == 6 else cols_f,
                cols,
                casting="unsafe",
            )
            acc_f = self._buf("gm.acc", (n, k, pq))
            np.matmul(weight2d.astype(np.float64), cols_f, out=acc_f)
            out = np.empty((n, k, pq), dtype=np.int64)
            np.copyto(out, acc_f, casting="unsafe")
            return out
        # Blocked exact int64 fallback.
        if cols.ndim == 6:
            cols_i = self._buf("gm.cols64", (n, reduction, pq), np.int64)
            np.copyto(cols_i.reshape(cols.shape), cols)
        else:
            cols_i = cols
        out = np.empty((n, k, pq), dtype=np.int64)
        block = max(1, _INT64_BLOCK_ELEMS // max(1, reduction))
        for s in range(0, pq, block):
            e = min(pq, s + block)
            out[:, :, s:e] = np.matmul(weight2d, cols_i[:, :, s:e])
        return out

    def linear_gemm(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        w_bound: int | None = None,
        x_bound: int | None = None,
    ) -> np.ndarray:
        """f64 GEMM with bound probe; exact int64 matmul fallback."""
        w_max = (
            int(w_bound) if w_bound is not None
            else int(np.abs(weight).max(initial=0))
        )
        x_max = (
            int(x_bound) if x_bound is not None
            else int(np.abs(x).max(initial=0))
        )
        if w_max * x_max * weight.shape[1] < _F64_EXACT:
            n, f = x.shape
            k = weight.shape[0]
            x_f = self._buf("ln.x", (n, f))
            np.copyto(x_f, x, casting="unsafe")
            w_f = weight.astype(np.float64)
            acc_f = self._buf("ln.acc", (n, k))
            np.matmul(x_f, w_f.T, out=acc_f)
            out = np.empty((n, k), dtype=np.int64)
            np.copyto(out, acc_f, casting="unsafe")
            return out
        return x @ weight.T

    def requantize(
        self,
        acc: np.ndarray,
        acc_frac: int,
        out_fmt,
        extra_ratio: Fraction = Fraction(1),
    ) -> np.ndarray:
        """In-place vectorized fixedpoint fast path (bit-identical).

        Runs the int64 rescale-round on a scratch buffer (multiply, abs,
        round, sign restore all in place) and returns the fresh clipped
        array; extreme scales delegate to the exact object-dtype
        fallback of :func:`repro.fixedpoint.requantize`.
        """
        shift = out_fmt.frac - acc_frac
        ratio = extra_ratio * (Fraction(2) ** shift)
        acc = np.asarray(acc, dtype=np.int64)
        num, den = ratio.numerator, ratio.denominator
        if acc.size == 0 or ratio <= 0:
            return _fixedpoint_requantize(acc, acc_frac, out_fmt, extra_ratio=extra_ratio)
        max_abs = int(np.max(np.abs(acc)))
        if max_abs * num + den // 2 >= 2**62:
            return _fixedpoint_requantize(acc, acc_frac, out_fmt, extra_ratio=extra_ratio)
        buf = self._buf("rq", acc.shape, np.int64)
        np.multiply(acc, num, out=buf)
        neg = buf < 0
        np.abs(buf, out=buf)
        buf += den // 2
        buf //= den
        np.negative(buf, out=buf, where=neg)
        return np.clip(buf, out_fmt.qmin, out_fmt.qmax)

    def cache_stats(self) -> dict:
        """Counters for the einsum-path, fused-matrix and scratch caches."""
        return {
            "einsum_paths": EINSUM_PATHS.stats(),
            "fused_transforms": self._fused.stats(),
            "scratch_buffers": self._scratch.stats(),
        }
