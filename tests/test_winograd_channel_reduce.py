"""Exactness tests for the reference ``channel_reduce`` fast-path boundary.

The integer Winograd pipeline reduces over channels either as a float64
BLAS matmul (exact only while every partial product magnitude stays inside
the 52-bit mantissa) or as an int64 matmul fallback.  Operands are in
the position-major stage layout: ``U`` ``(t*t, C, N*T)`` and ``V``
``(t*t, K, C)``.  The gate is ``u_max * v_max * c < 2**52`` computed
from actual magnitudes; these tests
construct inputs straddling that threshold and assert both paths remain
exact against an independent pure-Python integer reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.reference import channel_reduce

THRESHOLD = 2**52


def exact_reference(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Channel reduction with Python big-int arithmetic (overflow-proof).

    Position-major operands: ``u`` is ``(t*t, C, N*T)``, ``v`` is
    ``(t*t, K, C)`` and the result ``(t*t, K, N*T)``.
    """
    positions, c, cols = u.shape
    k = v.shape[1]
    out = np.zeros((positions, k, cols), dtype=np.int64)
    for p in range(positions):
        for ki in range(k):
            for x in range(cols):
                out[p, ki, x] = sum(
                    int(v[p, ki, ci]) * int(u[p, ci, x]) for ci in range(c)
                )
    return out


def make_inputs(u_val: int, v_vals: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Constant ``(4, C, 1)`` tiles and ``(4, 1, C)`` filters (t = 2, one tile)."""
    c = len(v_vals)
    u = np.full((4, c, 1), u_val, dtype=np.int64)
    v = np.broadcast_to(np.array(v_vals, dtype=np.int64), (4, 1, c)).copy()
    return u, v


class RintSpy:
    """Records whether the float64 fast path (which calls np.rint) ran."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = np.rint

        def spy(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "rint", spy)


class TestChannelReduceBoundary:
    def test_just_below_threshold_uses_fast_path_exactly(self, monkeypatch):
        # u_max * v_max * c == 2**52 - 2**26 < 2**52 -> float64 BLAS path.
        u, v = make_inputs(2**26, [2**26 - 1])
        assert int(np.abs(u).max()) * int(np.abs(v).max()) * 1 < THRESHOLD
        spy = RintSpy(monkeypatch)
        got = channel_reduce(u, v)
        assert spy.calls > 0, "expected the float64 fast path"
        np.testing.assert_array_equal(got, exact_reference(u, v))

    def test_at_threshold_uses_int64_fallback_exactly(self, monkeypatch):
        # u_max * v_max * c == 2**52 exactly -> the strict < fails -> int64.
        u, v = make_inputs(2**26, [2**26])
        assert int(np.abs(u).max()) * int(np.abs(v).max()) * 1 == THRESHOLD
        spy = RintSpy(monkeypatch)
        got = channel_reduce(u, v)
        assert spy.calls == 0, "expected the int64 fallback"
        np.testing.assert_array_equal(got, exact_reference(u, v))

    def test_above_threshold_sums_past_float53_stay_exact(self, monkeypatch):
        # Three channels of odd-valued products: the accumulated sum passes
        # 2**53 with low-order bits set, which float64 could not represent.
        u, v = make_inputs(2**26, [2**26 - 1, 2**26 - 3, 2**26 - 5])
        spy = RintSpy(monkeypatch)
        got = channel_reduce(u, v)
        assert spy.calls == 0, "expected the int64 fallback"
        ref = exact_reference(u, v)
        assert int(ref.max()) > 2**53
        np.testing.assert_array_equal(got, ref)

    def test_negative_magnitudes_gate_on_abs(self, monkeypatch):
        # Magnitude check must use |u|, |v|: negative extremes at the
        # threshold must also take the fallback.
        u, v = make_inputs(-(2**26), [2**26])
        spy = RintSpy(monkeypatch)
        got = channel_reduce(u, v)
        assert spy.calls == 0, "expected the int64 fallback"
        np.testing.assert_array_equal(got, exact_reference(u, v))

    @pytest.mark.parametrize(
        "n,c,t_count", [(2, 4, 3), (1, 4, 3), (2, 1, 3), (3, 4, 5)],
        ids=["base", "n1", "c1", "odd-t"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_small_values_fast_path(self, seed, n, c, t_count, monkeypatch):
        rng = np.random.default_rng(seed)
        u = rng.integers(-(2**15), 2**15, size=(16, c, n * t_count)).astype(np.int64)
        v = rng.integers(-(2**15), 2**15, size=(16, 3, c)).astype(np.int64)
        spy = RintSpy(monkeypatch)
        got = channel_reduce(u, v)
        assert spy.calls > 0, "expected the float64 fast path"
        np.testing.assert_array_equal(got, exact_reference(u, v))

    def test_float64_operands_beyond_threshold_reduce_in_int64(self):
        """Exact float64 stage arrays (what the ``optimized`` chain hands on)
        must not drag the int64 fallback into float64: each product here is
        an odd integer above 2**53, which float64 cannot hold."""
        u, v = make_inputs(2**26 + 1, [2**27 + 1, -(2**27 - 1), 2**27 + 3])
        expected = exact_reference(u, v)
        assert not np.array_equal(
            np.matmul(v.astype(np.float64), u.astype(np.float64)).astype(np.int64),
            expected,
        )
        u_f = u.astype(np.float64)
        for v_src in (v, v.astype(np.float64)):
            got = channel_reduce(u_f, v_src)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
