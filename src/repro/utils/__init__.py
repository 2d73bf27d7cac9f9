"""Shared utilities: RNG management, im2col, integer math, serialization."""

from repro.utils.rng import as_rng
from repro.utils.im2col import (
    conv_output_size,
    im2col,
    col2im,
    pad_nchw,
)
from repro.utils.mathx import ceil_div, ilog2, next_pow2, prod
from repro.utils.serialization import (
    load_json,
    save_json,
    load_npz_state,
    save_npz_state,
)

__all__ = [
    "as_rng",
    "conv_output_size",
    "im2col",
    "col2im",
    "pad_nchw",
    "ceil_div",
    "ilog2",
    "next_pow2",
    "prod",
    "load_json",
    "save_json",
    "load_npz_state",
    "save_npz_state",
]
