"""Kernel-backend protocol and the shared bounded caches.

The quantized inference path bottoms out in four per-layer hot paths:
the Winograd tile transforms (filter/input/output), the channel GEMM
(:meth:`KernelBackend.channel_reduce`), the im2col direct-convolution
GEMM, and requantization.  :class:`KernelBackend` is the narrow protocol
a compute backend implements to serve those paths; every implementation
must be **bit-identical** to the ``reference`` backend (int64
accumulator semantics), which is what keeps campaign checkpoints
shareable across backends.  Inside a Winograd node the stage arrays are
exact integers in the backend's :meth:`KernelBackend.stage_dtype`
(float64 in ``optimized``, int64 in ``reference``); int64 appears at
the node boundary.

This module also hosts :class:`BoundedCache` — the size-capped mapping
behind the einsum-path memo (previously an unbounded module global in
``winograd/conv2d.py``) and the fused-transform-matrix cache — plus the
magnitude-bound helpers used by the float64-exactness probes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction

import numpy as np

__all__ = [
    "BoundedCache",
    "EINSUM_PATHS",
    "KernelBackend",
    "cached_einsum",
    "format_bound",
    "kron_row_bound",
    "row_bound",
]


class BoundedCache:
    """Insertion-ordered mapping with a size cap and hit/miss counters.

    Eviction is FIFO: when a *new* key would exceed ``capacity``, the
    oldest entry is dropped.  The cached workloads (einsum contraction
    paths, fused transform matrices) are keyed by a
    small set of recurring layer geometries, so FIFO behaves like LRU in
    practice while keeping ``put`` O(1) and the implementation trivial
    to reason about in forked worker processes.
    """

    def __init__(self, capacity: int):
        """Create an empty cache holding at most ``capacity`` entries."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: dict = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key, default=None):
        """Return the cached value for ``key`` (counts a hit or miss)."""
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return default
        self._hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert ``key``, evicting the oldest entry when over capacity."""
        if key not in self._data and len(self._data) >= self.capacity:
            oldest = next(iter(self._data))
            del self._data[oldest]
            self._evictions += 1
        self._data[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._data.clear()

    def __len__(self) -> int:
        """Number of live entries."""
        return len(self._data)

    def __contains__(self, key) -> bool:
        """Membership test without touching the hit/miss counters."""
        return key in self._data

    def stats(self) -> dict:
        """Counters snapshot: size, capacity, hits, misses, evictions."""
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }


#: (subscripts, structural key) -> precomputed np.einsum contraction path.
#: The integer pipeline evaluates the same handful of contraction shapes
#: for every batch of every layer of every campaign unit; recomputing the
#: optimal path each call costs more than some of the small contractions
#: themselves.  Exactness is unaffected: optimized paths only reassociate
#: integer sums/products, and int64 tensordot stays int64.  The cap keeps
#: a long campaign over many layer geometries from growing one dict per
#: process without bound.
EINSUM_PATHS = BoundedCache(capacity=256)


def cached_einsum(
    subscripts: str, *operands: np.ndarray, key: tuple | None = None
) -> np.ndarray:
    """``np.einsum`` with a memoized contraction path.

    ``key`` names the contraction's *structure*; callers whose operands
    carry a batch axis pass shapes with that axis dropped, so variable
    batch sizes share one cache entry per layer geometry instead of
    growing the cache per batch size (a path is a contraction order —
    valid for any batch extent).  ``None``
    falls back to the full operand shapes.
    """
    if key is None:
        key = tuple(op.shape for op in operands)
    cache_key = (subscripts,) + tuple(key)
    path = EINSUM_PATHS.get(cache_key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
        EINSUM_PATHS.put(cache_key, path)
    return np.einsum(subscripts, *operands, optimize=path)


def format_bound(width: int) -> int:
    """Magnitude bound of a ``width``-bit two's-complement stored integer.

    Every activation entering a quantized layer is saturated to its
    :class:`~repro.fixedpoint.qformat.QFormat` (and the neuron-level
    injector's bit flips stay within the stored width), so ``|x| <=
    2**(width-1)`` holds for all layer inputs.  The exactness probes use
    this instead of scanning ``np.abs(x).max()`` per call.
    """
    return 1 << (width - 1)


def row_bound(matrix: np.ndarray) -> int:
    """Maximum absolute row sum of an integer matrix.

    Applying the matrix to a vector bounded by ``b`` yields entries
    bounded by ``row_bound(matrix) * b`` — the amplification factor the
    transform-stage exactness probes rely on.
    """
    mat = np.asarray(matrix, dtype=np.int64)
    return int(np.abs(mat).sum(axis=1).max())


def kron_row_bound(matrix: np.ndarray) -> int:
    """Maximum absolute row sum of ``kron(matrix, matrix)``.

    Row sums of a Kronecker square are products of row-sum pairs, so the
    maximum is ``row_bound(matrix) ** 2`` — the amplification of the 2-D
    (row *and* column) application of a 1-D Winograd transform.
    """
    return row_bound(matrix) ** 2


class KernelBackend(ABC):
    """Compute backend for the quantized per-layer hot paths.

    Implementations MUST be bit-identical to the ``reference`` backend:
    every method returns exactly the integer values the reference NumPy
    code produces (the cross-backend differential suite in
    ``tests/test_backends_differential.py`` enforces this).  Because of
    that contract the backend choice never enters checkpoint keys or
    campaign fingerprints.

    All ``*_bound`` parameters are optional conservative magnitude
    bounds on the corresponding operand (``bound >= |operand|.max()``),
    typically derived from the layer's quantization format.  When given,
    a backend may use them for its float64-exactness probes instead of
    scanning the operand; when ``None`` it must fall back to the actual
    magnitudes.  Either probe source selects between two *exact* paths,
    so results never depend on which was used.

    The Winograd stage methods (:meth:`input_transform`,
    :meth:`channel_reduce`, :meth:`output_transform`) take and return
    **exact integers, int64 or float64**: a float64 array holds only
    integer values, each exactly representable.  A backend returns its
    :meth:`stage_dtype` where its arithmetic is exact in it and int64
    otherwise, and accepts either dtype from the previous stage, so the
    stages chain without a cast.  The other methods take and return int64.

    Returned arrays are always freshly allocated (callers accumulate
    into them and retain them in injector contexts).
    """

    #: Registry name of the backend.
    name: str = ""

    def stage_dtype(self, bound: int | None) -> np.dtype:
        """dtype to hand this backend Winograd stage operands in.

        ``bound`` is a magnitude bound on the operand (``None``: unknown).
        int64 here; a backend computing in float64 returns float64 when
        every integer up to ``bound`` is exactly representable, so the
        tile gather and the filter re-layout write the dtype it reads.
        """
        return np.dtype(np.int64)

    @abstractmethod
    def filter_transform(self, tf, weight_int: np.ndarray) -> np.ndarray:
        """Integer filter transform ``G_int g G_int^T``.

        ``(K, C, r, r) -> (K, C, t, t)`` int64; ``tf`` is the
        :class:`~repro.winograd.transforms.WinogradTransform` bundle.
        """

    @abstractmethod
    def input_transform(
        self, tf, tiles: np.ndarray, x_bound: int | None = None
    ) -> np.ndarray:
        """Integer input transform ``B^T d B`` per tile.

        ``(t*t, C, N*T) -> (t*t, C, N*T)`` exact integers, position-major: row
        ``i*t + j`` holds tile element ``(i, j)`` and column ``n*T + tile``
        one tile of one image (see :mod:`repro.winograd.tiling`).
        """

    @abstractmethod
    def output_transform(
        self, tf, m_arr: np.ndarray, m_bound: int | None = None
    ) -> np.ndarray:
        """Integer output transform ``A^T M A`` per tile.

        ``(t*t, K, N*T) -> (m*m, K, N*T)`` exact integers, position-major like
        :meth:`input_transform`.
        """

    @abstractmethod
    def channel_reduce(
        self,
        u: np.ndarray,
        v: np.ndarray,
        u_bound: int | None = None,
        v_bound: int | None = None,
    ) -> np.ndarray:
        """``M[p, k, x] = sum_c V[p, k, c] * U[p, c, x]`` exactly.

        ``u`` is ``(t*t, C, N*T)``, ``v`` is ``(t*t, K, C)`` and the result
        ``(t*t, K, N*T)``: one ``(K, C) @ (C, N*T)`` product per tile
        position ``p``.  Axis 1 of ``u`` is the contraction length.  All
        three are exact integers, int64 or float64.
        """

    @abstractmethod
    def im2col_gemm(
        self,
        weight2d: np.ndarray,
        cols: np.ndarray,
        w_bound: int | None = None,
        x_bound: int | None = None,
    ) -> np.ndarray:
        """``acc[n,k,p] = sum_r weight2d[k,r] * cols[n,r,p]`` exactly.

        ``cols`` is either the materialized ``(N, C*R*S, P*Q)`` im2col
        matrix or the zero-copy strided ``(N, C, R, S, P, Q)`` patches
        view (:func:`repro.utils.im2col.im2col_patches`); backends that
        cannot consume the view directly materialize it themselves.
        """

    @abstractmethod
    def linear_gemm(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        w_bound: int | None = None,
        x_bound: int | None = None,
    ) -> np.ndarray:
        """``acc[n,k] = sum_f x[n,f] * weight[k,f]`` exactly (int64)."""

    @abstractmethod
    def requantize(
        self,
        acc: np.ndarray,
        acc_frac: int,
        out_fmt,
        extra_ratio: Fraction = Fraction(1),
    ) -> np.ndarray:
        """Accumulator -> stored-integer output format, with saturation.

        Must match :func:`repro.fixedpoint.requantize` bit-for-bit
        (exact rational rescale, round half away from zero, clip).
        """

    def cache_stats(self) -> dict:
        """Snapshot of this backend's internal cache counters by name."""
        return {"einsum_paths": EINSUM_PATHS.stats()}
