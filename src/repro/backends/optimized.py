"""Optimized NumPy kernel backend (bit-identical, substantially faster).

Same integer results as :class:`~repro.backends.reference.ReferenceBackend`
for every input, from four levers:

* **One GEMM per Winograd stage** — the stages work in the
  position-major layout (tiles and ``U`` ``(t*t, C, N*T)``, ``V``
  ``(t*t, K, C)``, ``M`` ``(t*t, K, N*T)``, output tiles
  ``(m*m, K, N*T)``), so each stage is one plain float64 BLAS GEMM with
  no transposing copy: ``kron(B^T, B^T) @ D``, then ``V @ U`` batched
  over the ``t*t`` positions, then ``kron(A^T, A^T) @ M``.  The
  Kronecker squares are cached per (transform, stage, dtype).  A
  transform output entry is a dot product against one row of the
  Kronecker square, so every partial sum is bounded by
  ``operand_bound * max_row_abs_sum`` and the f64 GEMM is provably exact
  whenever that product stays under ``2**52``.
* **Stage arrays stay float64** — the Winograd stage arrays are exact
  integers held in float64 (:meth:`OptimizedBackend.stage_dtype`): the
  tiles are gathered as f64, the transformed filters are re-laid as f64
  once per model, and each stage whose probe passes returns its f64 GEMM
  result as is, so int64 appears only at the node boundary
  (``assemble_tiles`` casts during its scatter).  A stage whose probe
  fails runs the exact int64 path on an int64 copy of its input, and the
  next stage casts back only if its own probe passes.  The direct-conv
  GEMM gathers + casts each cache-sized block of images straight out of
  the strided patches view into one f64 buffer, reused for every block,
  and runs one 2-D GEMM per block.  No buffer outlives its call.
* **No redundant rounding** — f64 GEMM results are provably exact
  integers, so the ``np.rint`` pass is skipped and casts truncate
  exactly.
* **Blocked int64 fallbacks + branch-free requantize** — when a bound
  exceeds the f64 window the kernels fall back to cache-blocked 2-D
  int64 matmuls (still exact), and requantization runs the fixedpoint
  fast path in place on one fresh int64 array, rounding half away from
  zero by one floor division (a right shift for a power-of-two divisor)
  with a sign-dependent offset (no ``|x|``, no masked sign restore).

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
from repro.utils.im2col import per_block

__all__ = ["OptimizedBackend"]

#: Target int64 elements per operand block in the blocked matmul
#: fallbacks (roughly half an L2 cache worth of columns).
_INT64_BLOCK_ELEMS = 1 << 16

#: Partial sums below this magnitude are exactly representable in f64.
_F64_EXACT = 2**52

#: Every integer of at most this magnitude is exactly representable in f64.
_F64_INT_MAX = 2**53


class OptimizedBackend(KernelBackend):
    """Fused-transform NumPy backend (bit-identical)."""

    name = "optimized"

    def __init__(self):
        """Set up the fused-matrix cache."""
        self._reference = ReferenceBackend()
        #: (stage, m, r, dtype) -> (kron(M, M) as that dtype, row bound).
        self._fused = BoundedCache(capacity=64)

    # --- internal helpers ----------------------------------------------------
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

    def _fused_apply(self, kron_f: np.ndarray, src: np.ndarray) -> np.ndarray:
        """One GEMM ``kron_f @ src`` over the position axis, in float64.

        ``src`` holds exact integers ``(in_dim, ...)`` in the
        position-major stage layout; only an int64 ``src`` is cast.  The
        result is a fresh float64 ``(out_dim, ...)`` array.  Only valid
        when the caller proved every partial sum fits the f64 mantissa.
        """
        flat = src.reshape(src.shape[0], -1).astype(np.float64, copy=False)
        return np.matmul(kron_f, flat).reshape((kron_f.shape[0],) + src.shape[1:])

    # --- protocol ------------------------------------------------------------
    def stage_dtype(self, bound: int | None) -> np.dtype:
        """float64 when every integer up to ``bound`` is exact in it."""
        if bound is not None and bound <= _F64_INT_MAX:
            return np.dtype(np.float64)
        return np.dtype(np.int64)

    def filter_transform(self, tf, weight_int: np.ndarray) -> np.ndarray:
        """Offline per-model transform: delegates to the reference einsum."""
        return filter_transform_int(weight_int, tf)

    def input_transform(
        self, tf, tiles: np.ndarray, x_bound: int | None = None
    ) -> np.ndarray:
        """``B^T d B`` as one f64 GEMM: ``kron(B^T, B^T) @ D``.

        Returns float64 when the probe proves the GEMM exact, else the
        reference's int64 result.
        """
        kron_f, amp = self._fused_matrix("input", tf, tf.bt_int)
        x_max = (
            int(x_bound) if x_bound is not None
            else int(np.abs(tiles).max(initial=0))
        )
        if x_max * amp < _F64_EXACT:
            return self._fused_apply(kron_f, tiles)
        return self._reference.input_transform(tf, tiles, x_bound=x_bound)

    def output_transform(
        self, tf, m_arr: np.ndarray, m_bound: int | None = None
    ) -> np.ndarray:
        """``A^T M A`` as one f64 GEMM: ``kron(A^T, A^T) @ M``.

        Returns float64 when the probe proves the GEMM exact, else the
        reference's int64 result.
        """
        kron_f, amp = self._fused_matrix("output", tf, tf.at_int)
        m_max = (
            int(m_bound) if m_bound is not None
            else int(np.abs(m_arr).max(initial=0))
        )
        if m_max * amp < _F64_EXACT:
            return self._fused_apply(kron_f, m_arr)
        return self._reference.output_transform(tf, m_arr, m_bound=m_bound)

    def channel_reduce(
        self,
        u: np.ndarray,
        v: np.ndarray,
        u_bound: int | None = None,
        v_bound: int | None = None,
    ) -> np.ndarray:
        """``V @ U`` batched over tile positions; blocked int64 fallback.

        Returns float64 when the probe proves the GEMM exact, else int64.
        """
        positions, c, nt = u.shape
        k = v.shape[1]
        u_max = int(u_bound) if u_bound is not None else int(np.abs(u).max(initial=0))
        v_max = int(v_bound) if v_bound is not None else int(np.abs(v).max(initial=0))
        if u_max * v_max * c < _F64_EXACT:
            # Both operands are already laid out for the batched DGEMM and
            # normally already float64; no rint pass (the products are
            # exact integers).
            return np.matmul(
                v.astype(np.float64, copy=False), u.astype(np.float64, copy=False)
            )
        # Exact int64 fallback: per tile position, a 2-D matmul blocked
        # over the (N*T) columns so operands stay cache-resident.
        u = u.astype(np.int64, copy=False)
        v = v.astype(np.int64, copy=False)
        block = max(1, _INT64_BLOCK_ELEMS // max(1, c))
        out = np.empty((positions, k, nt), dtype=np.int64)
        for p in range(positions):
            for s in range(0, nt, block):
                e = min(nt, s + block)
                np.matmul(v[p], u[p, :, s:e], out=out[p, :, s:e])
        return out

    def im2col_gemm(
        self,
        weight2d: np.ndarray,
        cols: np.ndarray,
        w_bound: int | None = None,
        x_bound: int | None = None,
    ) -> np.ndarray:
        """f64 GEMM per block of images, gathered from ``cols``, when exact."""
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
            weight_f = weight2d.astype(np.float64)
            out = np.empty((n, k, pq), dtype=np.int64)
            step = per_block(reduction * pq * 8)
            buf = np.empty(reduction * min(step, n) * pq)
            for a in range(0, n, step):
                b = min(step, n - a)
                block = buf[: reduction * b * pq].reshape(reduction, b * pq)
                # Fused gather + cast of this block of images, batch folded
                # into the columns: one 2-D GEMM per block.
                axes = (1, 2, 3, 0, 4, 5) if cols.ndim == 6 else (1, 0, 2)
                src = cols[a : a + b].transpose(axes)
                np.copyto(block.reshape(src.shape), src, casting="unsafe")
                acc_f = np.matmul(weight_f, block).reshape(k, b, pq)
                np.copyto(out[a : a + b].transpose(1, 0, 2), acc_f, casting="unsafe")
            return out
        # Blocked exact int64 fallback.
        if cols.ndim == 6:
            cols_i = np.empty((n, reduction, pq), dtype=np.int64)
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
            acc_f = np.matmul(x.astype(np.float64), weight.astype(np.float64).T)
            return acc_f.astype(np.int64)
        return x @ weight.T

    def requantize(
        self,
        acc: np.ndarray,
        acc_frac: int,
        out_fmt,
        extra_ratio: Fraction = Fraction(1),
    ) -> np.ndarray:
        """In-place vectorized fixedpoint fast path (bit-identical).

        Runs the int64 rescale-round on one fresh array (multiply, round
        and clip all in place) and returns it; extreme scales delegate to
        the exact object-dtype fallback of
        :func:`repro.fixedpoint.requantize`.

        Rounding half away from zero needs no ``|x|`` and no sign
        restore: for ``x = acc * num`` and ``h = den // 2``,
        ``floor((x + h) / den)`` is the rounded value of every ``x >= 0``,
        and of every ``x < 0`` too when ``den`` is odd (there are no
        ties).  With an even ``den`` a negative tie must round down, which
        ``floor((x + h - 1) / den)`` does without moving any other
        negative ``x``.  A power-of-two ``den`` (every direct conv, F(2,3)
        Winograd) floors by an arithmetic right shift instead of a
        division.
        """
        shift = out_fmt.frac - acc_frac
        ratio = extra_ratio * (Fraction(2) ** shift)
        acc = np.asarray(acc, dtype=np.int64)
        num, den = ratio.numerator, ratio.denominator
        if acc.size == 0 or ratio <= 0:
            return _fixedpoint_requantize(acc, acc_frac, out_fmt, extra_ratio=extra_ratio)
        max_abs = max(int(acc.max()), -int(acc.min()))
        if max_abs * num + den // 2 >= 2**62:
            return _fixedpoint_requantize(acc, acc_frac, out_fmt, extra_ratio=extra_ratio)
        buf = np.multiply(acc, num)
        if den % 2 == 0:
            buf -= buf < 0
        buf += den // 2
        if den & (den - 1):
            buf //= den
        else:
            buf >>= den.bit_length() - 1  # floor division by a power of two
        return np.clip(buf, out_fmt.qmin, out_fmt.qmax, out=buf)

    def cache_stats(self) -> dict:
        """Counters for the einsum-path and fused-matrix caches."""
        return {
            "einsum_paths": EINSUM_PATHS.stats(),
            "fused_transforms": self._fused.stats(),
        }
