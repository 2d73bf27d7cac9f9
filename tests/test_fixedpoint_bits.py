"""Tests for repro.fixedpoint.bits — the fault model's bit-level kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultModelError
from repro.fixedpoint import (
    flip_bit,
    flip_delta,
    from_twos_complement,
    to_twos_complement,
)


class TestTwosComplement:
    def test_roundtrip_in_range(self):
        values = np.array([-128, -1, 0, 1, 127], dtype=np.int64)
        words = to_twos_complement(values, 8)
        assert np.array_equal(from_twos_complement(words, 8), values)

    def test_wraps_out_of_range(self):
        # 130 in 8-bit two's complement is -126.
        assert from_twos_complement(to_twos_complement(np.array([130]), 8), 8)[0] == -126

    def test_negative_encoding(self):
        assert to_twos_complement(np.array([-1]), 8)[0] == 255

    @pytest.mark.parametrize("width", [0, 63, 100])
    def test_rejects_bad_width(self, width):
        with pytest.raises(FaultModelError):
            to_twos_complement(np.array([0]), width)


class TestFlipBit:
    def test_low_bit(self):
        assert flip_bit(np.array([4]), 0, 8)[0] == 5

    def test_sign_bit_makes_negative(self):
        assert flip_bit(np.array([0]), 7, 8)[0] == -128

    def test_rejects_bit_out_of_range(self):
        with pytest.raises(FaultModelError):
            flip_bit(np.array([0]), 8, 8)

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.integers(-(2**30), 2**30),
        bit=st.integers(0, 15),
    )
    def test_involution(self, value, bit):
        """Flipping the same bit twice restores the register contents."""
        v = np.array([value], dtype=np.int64)
        twice = flip_bit(flip_bit(v, bit, 16), bit, 16)
        window = from_twos_complement(to_twos_complement(v, 16), 16)
        assert np.array_equal(twice, window)


class TestFlipDelta:
    def test_magnitude_is_power_of_two(self):
        deltas = flip_delta(np.arange(-50, 50, dtype=np.int64), 3, 8)
        assert set(np.abs(deltas).tolist()) == {8}

    def test_sign_depends_on_bit_value(self):
        # value 8 has bit 3 set -> flipping clears it: delta -8.
        assert flip_delta(np.array([8]), 3, 8)[0] == -8
        assert flip_delta(np.array([0]), 3, 8)[0] == +8

    def test_sign_bit_delta(self):
        assert flip_delta(np.array([0]), 7, 8)[0] == -128

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.integers(-(2**45), 2**45),
        bit=st.integers(0, 15),
    )
    def test_delta_bounded_by_register_width(self, value, bit):
        """No fault can inject more than the register's MSB weight —
        values wider than the window must not leak into the delta."""
        delta = int(flip_delta(np.array([value], dtype=np.int64), bit, 16)[0])
        assert abs(delta) == 2**bit

    @settings(max_examples=50, deadline=None)
    @given(value=st.integers(-(2**14), 2**14 - 1), bit=st.integers(0, 15))
    def test_delta_consistent_with_flip_for_in_range(self, value, bit):
        v = np.array([value], dtype=np.int64)
        assert flip_delta(v, bit, 16)[0] == flip_bit(v, bit, 16)[0] - value


def _decoded_delta(value: int, bit: int, width: int) -> int:
    """``decode(window ^ 2**bit) - decode(window)`` in Python integers."""

    def decode(word: int) -> int:
        return word - (1 << width) if word >> (width - 1) else word

    window = value & ((1 << width) - 1)
    return decode(window ^ (1 << bit)) - decode(window)


def _window_values(width: int) -> list[int]:
    """Values inside, straddling and wider than a ``width``-bit window."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    inside = [lo, hi, 0, -1, lo // 3, hi // 3]
    straddling = [hi + 1, lo - 1, 2 * hi + 1, 2 * lo]
    wider = [(1 << 62) - 1, -(1 << 62), 0x5A5A5A5A5A5A5A5, -0x3C3C3C3C3C3C3C3]
    return inside + straddling + wider


class TestFlipDeltaClosedForm:
    """The one-pass closed form against the encode/flip/decode oracle."""

    def test_every_width_and_bit(self):
        widths, bits, values, expected = [], [], [], []
        for width in range(1, 63):
            vals = _window_values(width)
            grid_bits = np.repeat(np.arange(width), len(vals))
            grid_vals = np.tile(np.array(vals, dtype=np.int64), width)
            want = [_decoded_delta(v, b, width) for b in range(width) for v in vals]
            assert flip_delta(grid_vals, grid_bits, width).tolist() == want
            widths += [width] * len(want)
            bits += grid_bits.tolist()
            values += grid_vals.tolist()
            expected += want
        # The same cases in one call with a per-element width.
        got = flip_delta(np.array(values), np.array(bits), np.array(widths))
        assert got.dtype == np.int64
        assert got.tolist() == expected

    @pytest.mark.parametrize(
        "bits,width",
        [
            (0, 0),
            (0, 63),
            (-1, 8),
            (8, 8),
            ([0, 0], [8, 0]),
            ([0, 0], [8, 63]),
            ([3, 8], [8, 8]),
            ([3, -1], [8, 8]),
        ],
        ids=["w0", "w63", "bit-neg", "bit-eq-width", "var-w0", "var-w63",
             "var-bit-eq-width", "var-bit-neg"],
    )
    def test_rejects_out_of_range(self, bits, width):
        with pytest.raises(FaultModelError):
            flip_delta(np.array([5, -5]), np.array(bits), np.array(width))
