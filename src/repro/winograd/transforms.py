"""Winograd transform bundles: float, exact-rational and scaled-integer forms.

A :class:`WinogradTransform` packages the three matrices of ``F(m, r)``
together with integer-scaled versions whose combined scale factor is tracked
exactly.  The quantized Winograd convolution uses only the integer matrices,
which makes the whole pipeline exact integer arithmetic: the fault-free
quantized Winograd output is *bit-identical* to the direct quantized
convolution (the paper's "lossless conversion" premise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.errors import TransformError
from repro.winograd.cook_toom import cook_toom_1d, scale_to_integer

__all__ = ["WinogradTransform", "get_transform", "SUPPORTED_TILES"]


#: Canonical F(2, 3) matrices (Lavin & Gray, CVPR 2016).
_LAVIN_F23_AT = [[1, 1, 1, 0], [0, 1, -1, -1]]
_LAVIN_F23_G = [
    [Fraction(1), Fraction(0), Fraction(0)],
    [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
    [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)],
    [Fraction(0), Fraction(0), Fraction(1)],
]
_LAVIN_F23_BT = [
    [1, 0, -1, 0],
    [0, 1, 1, 0],
    [0, -1, 1, 0],
    [0, 1, 0, -1],
]

#: Canonical F(4, 3) matrices (Lavin & Gray, CVPR 2016).
_LAVIN_F43_AT = [
    [1, 1, 1, 1, 1, 0],
    [0, 1, -1, 2, -2, 0],
    [0, 1, 1, 4, 4, 0],
    [0, 1, -1, 8, -8, 1],
]
_LAVIN_F43_G = [
    [Fraction(1, 4), Fraction(0), Fraction(0)],
    [Fraction(-1, 6), Fraction(-1, 6), Fraction(-1, 6)],
    [Fraction(-1, 6), Fraction(1, 6), Fraction(-1, 6)],
    [Fraction(1, 24), Fraction(1, 12), Fraction(1, 6)],
    [Fraction(1, 24), Fraction(-1, 12), Fraction(1, 6)],
    [Fraction(0), Fraction(0), Fraction(1)],
]
_LAVIN_F43_BT = [
    [4, 0, -5, 0, 1, 0],
    [0, -4, -4, 1, 1, 0],
    [0, 4, -4, -1, 1, 0],
    [0, -2, -1, 2, 1, 0],
    [0, 2, -1, -2, 1, 0],
    [0, 4, 0, -5, 0, 1],
]

#: Output tile sizes with canonical or generated transforms for r = 3.
SUPPORTED_TILES = (2, 4, 6)


def _to_fraction_array(rows: list[list]) -> np.ndarray:
    return np.array(
        [[Fraction(entry) for entry in row] for row in rows], dtype=object
    )


def _count_transform_adds(matrix_int: np.ndarray) -> int:
    """Additions needed to apply an integer transform matrix to one vector.

    Each output element is a dot product against one row; a row with ``z``
    non-zero coefficients costs ``z - 1`` additions (coefficient scalings are
    realized as shifts/adds on constant values and are not counted as
    multiplications, the standard Winograd accounting).
    """
    nnz_per_row = (matrix_int != 0).sum(axis=1)
    return int(np.maximum(nnz_per_row - 1, 0).sum())


@dataclass(frozen=True)
class WinogradTransform:
    """All representations of the ``F(m, r)`` transform set.

    Attributes
    ----------
    m, r:
        Output tile size and filter tap count; ``t = m + r - 1`` is the
        input-tile size.
    at_frac, g_frac, bt_frac:
        Exact matrices over :class:`fractions.Fraction`.
    at_int, g_int, bt_int:
        Integer-scaled matrices with scales ``at_scale``/``g_scale``/
        ``bt_scale`` such that e.g. ``AT == at_int / at_scale`` exactly.
    """

    m: int
    r: int
    at_frac: np.ndarray
    g_frac: np.ndarray
    bt_frac: np.ndarray
    at_int: np.ndarray = field(repr=False, default=None)
    g_int: np.ndarray = field(repr=False, default=None)
    bt_int: np.ndarray = field(repr=False, default=None)
    at_scale: int = 1
    g_scale: int = 1
    bt_scale: int = 1

    @property
    def t(self) -> int:
        """Input tile size ``m + r - 1``."""
        return self.m + self.r - 1

    # --- float views ---------------------------------------------------------
    @property
    def at(self) -> np.ndarray:
        """A^T as float64, shape (m, t)."""
        return self.at_frac.astype(np.float64)

    @property
    def g(self) -> np.ndarray:
        """G as float64, shape (t, r)."""
        return self.g_frac.astype(np.float64)

    @property
    def bt(self) -> np.ndarray:
        """B^T as float64, shape (t, t)."""
        return self.bt_frac.astype(np.float64)

    # --- integer-domain bookkeeping -------------------------------------------
    @property
    def output_scale_2d(self) -> int:
        """Scale factor of the 2-D integer output: (sA sB sG)^2.

        ``Y_int = at_int^T [ (g_int g g_int^T) ⊙ (bt_int d bt_int^T... ] ``
        evaluates to ``output_scale_2d`` times the exact real output.
        """
        return (self.at_scale * self.bt_scale * self.g_scale) ** 2

    # --- op-count metadata ------------------------------------------------------
    def input_transform_adds_per_tile(self) -> int:
        """Additions to compute ``B^T d B`` for one t×t tile of one channel."""
        per_vector = _count_transform_adds(self.bt_int)
        # Pass 1 applies B^T to each of t columns, pass 2 to each of t rows.
        return per_vector * self.t * 2

    def output_transform_adds_per_tile(self) -> int:
        """Additions to compute ``A^T M A`` for one t×t tile of one channel."""
        per_vector = _count_transform_adds(self.at_int)
        # Pass 1: A^T applied to t columns of M; pass 2: to m rows of A^T M.
        return per_vector * (self.t + self.m)

    def filter_transform_adds(self) -> int:
        """Additions to compute ``G g G^T`` for one r×r filter (offline)."""
        per_vector = _count_transform_adds(self.g_int)
        return per_vector * (self.r + self.t)

    def ewise_muls_per_tile(self) -> int:
        """Element-wise multiplications per (tile, channel) pair: t^2."""
        return self.t * self.t

    # --- validation ---------------------------------------------------------------
    def validate(self, rng: np.random.Generator | None = None) -> None:
        """Check the transform reproduces a direct 1-D correlation exactly.

        Raises :class:`TransformError` on mismatch.  The check is performed
        on integer inputs through the Fraction matrices, so it is exact.
        """
        rng = rng or np.random.default_rng(0)
        d = rng.integers(-50, 50, size=self.t).astype(object)
        g = rng.integers(-50, 50, size=self.r).astype(object)
        direct = np.array(
            [sum(g[j] * d[i + j] for j in range(self.r)) for i in range(self.m)],
            dtype=object,
        )
        transformed = self.at_frac @ ((self.g_frac @ g) * (self.bt_frac @ d))
        if any(Fraction(a) != Fraction(b) for a, b in zip(direct, transformed)):
            raise TransformError(
                f"F({self.m}, {self.r}) transform failed validation: "
                f"direct={direct}, winograd={transformed}"
            )

    @staticmethod
    def from_fraction_matrices(
        m: int, r: int, at: np.ndarray, g: np.ndarray, bt: np.ndarray
    ) -> "WinogradTransform":
        """Build a transform bundle from exact matrices, deriving integer forms."""
        at_int, at_scale = scale_to_integer(at)
        g_int, g_scale = scale_to_integer(g)
        bt_int, bt_scale = scale_to_integer(bt)
        return WinogradTransform(
            m=m,
            r=r,
            at_frac=at,
            g_frac=g,
            bt_frac=bt,
            at_int=at_int,
            g_int=g_int,
            bt_int=bt_int,
            at_scale=at_scale,
            g_scale=g_scale,
            bt_scale=bt_scale,
        )


_CANONICAL: dict[tuple[int, int], tuple[list, list, list]] = {
    (2, 3): (_LAVIN_F23_AT, _LAVIN_F23_G, _LAVIN_F23_BT),
    (4, 3): (_LAVIN_F43_AT, _LAVIN_F43_G, _LAVIN_F43_BT),
}

_CACHE: dict[tuple[int, int], WinogradTransform] = {}


def get_transform(m: int, r: int) -> WinogradTransform:
    """Return the transform bundle for ``F(m, r)``, cached.

    Uses the canonical Lavin matrices for F(2,3) and F(4,3) and exact
    Cook–Toom construction otherwise.
    """
    key = (m, r)
    if key in _CACHE:
        return _CACHE[key]
    if key in _CANONICAL:
        at_rows, g_rows, bt_rows = _CANONICAL[key]
        bundle = WinogradTransform.from_fraction_matrices(
            m,
            r,
            _to_fraction_array(at_rows),
            _to_fraction_array(g_rows),
            _to_fraction_array(bt_rows),
        )
    else:
        at, g, bt = cook_toom_1d(m, r)
        bundle = WinogradTransform.from_fraction_matrices(m, r, at, g, bt)
    bundle.validate()
    _CACHE[key] = bundle
    return bundle
