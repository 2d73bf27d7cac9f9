"""Decomposable Winograd Method (DWM) for large kernels and strides.

The paper relies on DWM (Huang et al., AAAI 2020) to apply Winograd
convolution beyond the canonical 3x3/stride-1 case "without any accuracy
penalty".  DWM rewrites a convolution with kernel ``R x S`` and stride ``s``
as a *sum* of unit-stride 3x3 convolutions over polyphase-subsampled,
shifted views of the input:

1. **Polyphase stride split** — ``y[p] = Σ_r g[r] x[s p + r]`` groups taps by
   ``r = s a + b``; each residue ``b`` becomes a unit-stride convolution of
   the tap subsequence ``g_b[a] = g[s a + b]`` with the input phase
   ``x_b[i] = x[s i + b]``.
2. **Kernel chunking** — a unit-stride kernel longer than 3 taps is split
   into consecutive 3-tap chunks (the last chunk zero-padded); each chunk
   convolves a shifted input view and the partial outputs are summed.

Every resulting piece is a 3x3 unit-stride convolution, executable with any
``F(m, 3)`` transform.  The recomposition is an exact linear identity, so the
decomposed result equals the direct convolution bit-for-bit on integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.utils.mathx import ceil_div

__all__ = ["SubConvSpec", "decompose_conv", "extract_sub_kernel", "extract_sub_input"]

#: DWM target kernel size: every sub-convolution is 3x3 unit stride.
DWM_UNIT = 3


@dataclass(frozen=True)
class SubConvSpec:
    """One 3x3 unit-stride piece of a decomposed convolution.

    Attributes
    ----------
    phase_h, phase_w:
        Polyphase residues ``b`` in ``[0, stride)``.
    chunk_h, chunk_w:
        Kernel chunk indices ``j`` (each chunk covers taps ``3j .. 3j+2`` of
        the phase subsequence).
    taps_h, taps_w:
        Number of *real* (non-padding) taps of this chunk along each axis,
        in ``[1, 3]``.
    """

    phase_h: int
    phase_w: int
    chunk_h: int
    chunk_w: int
    taps_h: int
    taps_w: int

    @property
    def is_padded(self) -> bool:
        """True when the 3x3 sub-kernel contains zero-padded taps."""
        return self.taps_h < DWM_UNIT or self.taps_w < DWM_UNIT


def _axis_pieces(kernel: int, stride: int) -> list[tuple[int, int, int]]:
    """Decompose one axis: returns ``(phase, chunk, real_taps)`` triples."""
    pieces = []
    for phase in range(stride):
        taps_in_phase = ceil_div(max(kernel - phase, 0), stride)
        if taps_in_phase == 0:
            continue
        for chunk in range(ceil_div(taps_in_phase, DWM_UNIT)):
            real = min(DWM_UNIT, taps_in_phase - chunk * DWM_UNIT)
            pieces.append((phase, chunk, real))
    return pieces


def decompose_conv(kernel: tuple[int, int], stride: int) -> list[SubConvSpec]:
    """Enumerate the 3x3 unit-stride pieces of a ``kernel``/``stride`` conv.

    A canonical 3x3 stride-1 convolution decomposes into exactly one piece
    (itself), so callers can use this unconditionally.
    """
    r, s = kernel
    if r < 1 or s < 1 or stride < 1:
        raise ShapeError(f"invalid conv geometry kernel={kernel}, stride={stride}")
    pieces_h = _axis_pieces(r, stride)
    pieces_w = _axis_pieces(s, stride)
    return [
        SubConvSpec(
            phase_h=ph,
            phase_w=pw,
            chunk_h=ch,
            chunk_w=cw,
            taps_h=th,
            taps_w=tw,
        )
        for ph, ch, th in pieces_h
        for pw, cw, tw in pieces_w
    ]


def extract_sub_kernel(
    weight: np.ndarray, spec: SubConvSpec, stride: int
) -> np.ndarray:
    """Build the 3x3 (zero-padded) sub-kernel of ``spec`` from ``(K, C, R, S)``.

    Tap ``(a_h, a_w)`` of the sub-kernel is original tap
    ``(stride * (3 * chunk + a) + phase)`` along each axis, or zero when that
    index falls outside the original kernel.
    """
    k, c, r, s = weight.shape
    sub = np.zeros((k, c, DWM_UNIT, DWM_UNIT), dtype=weight.dtype)
    for ah in range(spec.taps_h):
        src_h = stride * (DWM_UNIT * spec.chunk_h + ah) + spec.phase_h
        if src_h >= r:
            continue
        for aw in range(spec.taps_w):
            src_w = stride * (DWM_UNIT * spec.chunk_w + aw) + spec.phase_w
            if src_w >= s:
                continue
            sub[:, :, ah, aw] = weight[:, :, src_h, src_w]
    return sub


def extract_sub_input(
    x_padded: np.ndarray,
    spec: SubConvSpec,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Slice the input view that ``spec``'s 3x3 sub-conv consumes.

    ``x_padded`` must already include the convolution's own zero padding.
    The returned view has spatial shape ``(out_h + 2, out_w + 2)`` — exactly
    what a valid 3x3 unit-stride convolution needs to produce
    ``out_h x out_w`` outputs.  Views that overhang the input (possible for
    zero-padded chunk taps) are zero-extended; the overhang only ever
    multiplies zero taps, so the identity is preserved.
    """
    n, c, hp, wp = x_padded.shape
    need = DWM_UNIT - 1
    h0 = spec.phase_h + stride * DWM_UNIT * spec.chunk_h
    w0 = spec.phase_w + stride * DWM_UNIT * spec.chunk_w
    h_last = h0 + stride * (out_h - 1 + need)
    w_last = w0 + stride * (out_w - 1 + need)

    pad_h = max(0, h_last + 1 - hp)
    pad_w = max(0, w_last + 1 - wp)
    if pad_h or pad_w:
        x_padded = np.pad(
            x_padded, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="constant"
        )
    view = x_padded[:, :, h0 : h_last + 1 : stride, w0 : w_last + 1 : stride]
    return np.ascontiguousarray(view)

