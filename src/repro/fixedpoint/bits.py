"""Bit-level operations on two's-complement fixed-point integers.

These primitives realize the fault model: a soft error flips one bit of the
``width``-bit two's-complement representation of an operation result.  The
stored values live in int64 arrays; :func:`flip_bit` reproduces exactly what
an XOR on the hardware register would do, including sign-bit flips, and
:func:`flip_delta` gives the signed change such a flip makes in one pass,
from the flipped bit alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultModelError

__all__ = [
    "to_twos_complement",
    "from_twos_complement",
    "flip_bit",
    "flip_delta",
]


def to_twos_complement(values: np.ndarray, width: int) -> np.ndarray:
    """Encode signed integers as unsigned ``width``-bit two's-complement words.

    Values outside the representable range wrap modulo ``2**width``, exactly
    as a hardware register would store them.
    """
    _check_width(width)
    mask = np.int64((1 << width) - 1)
    return (np.asarray(values, dtype=np.int64) & mask).astype(np.int64)


def from_twos_complement(words: np.ndarray, width: int) -> np.ndarray:
    """Decode unsigned ``width``-bit words back to signed integers."""
    _check_width(width)
    words = np.asarray(words, dtype=np.int64)
    sign_bit = np.int64(1 << (width - 1))
    full = np.int64(1 << width)
    return np.where(words & sign_bit, words - full, words).astype(np.int64)


def flip_bit(values: np.ndarray, bits: np.ndarray | int, width: int) -> np.ndarray:
    """Flip bit ``bits`` of each value's ``width``-bit representation.

    Returns the signed integer value after the flip.  ``bits`` may be a
    scalar or an array broadcastable against ``values``.
    """
    _check_width(width)
    bits = np.asarray(bits, dtype=np.int64)
    if np.any(bits < 0) or np.any(bits >= width):
        raise FaultModelError(f"bit index out of range for width={width}")
    words = to_twos_complement(values, width)
    flipped = words ^ (np.int64(1) << bits)
    return from_twos_complement(flipped, width)


def flip_delta(
    values: np.ndarray, bits: np.ndarray | int, width: np.ndarray | int
) -> np.ndarray:
    """Signed change of a ``width``-bit register when bit ``bits`` flips.

    The register holds the ``width``-bit two's-complement *window* of each
    value; the delta is ``decode(window ^ bit) - decode(window)``.  Bit
    ``b`` of the window is bit ``b`` of the value, ``(values >> b) & 1``,
    so the delta is one closed form: ``+2**b`` when that bit is 0,
    ``-2**b`` when it is 1, and the opposite sign for the sign bit
    ``b == width - 1`` (it weighs ``-2**(width-1)``).  Values wider than
    the window contribute only through that one bit — the register never
    saw the high bits, so they cannot appear in the delta.  This bounded
    delta is what propagates linearly through the rest of the layer's
    computation.

    ``width`` is a scalar or a per-element array broadcastable against
    ``values``: the counter-based fault sampler sizes each sum register to
    its own sample's dynamic range (batch-wide maxima would couple a
    fault's delta to which other samples share its batch, breaking
    partition invariance), so one vectorized injection carries a width
    per event.
    """
    widths = np.asarray(width, dtype=np.int64)
    if widths.size and (int(widths.min()) < 1 or int(widths.max()) > 62):
        raise FaultModelError("width must be in [1, 62]")
    bits = np.asarray(bits, dtype=np.int64)
    if np.any(bits < 0) or np.any(bits >= widths):
        raise FaultModelError("bit index out of range for the register width")
    down = ((np.asarray(values, dtype=np.int64) >> bits) & 1) ^ (bits == widths - 1)
    return (np.int64(1) << bits) * (1 - 2 * down)


def _check_width(width: int) -> None:
    if not 1 <= width <= 62:
        raise FaultModelError(f"width must be in [1, 62], got {width}")
