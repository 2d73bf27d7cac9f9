"""Winograd convolution engine: transforms, kernels, DWM, op counting."""

from repro.winograd.cook_toom import cook_toom_1d, default_points, scale_to_integer
from repro.winograd.transforms import SUPPORTED_TILES, WinogradTransform, get_transform
from repro.winograd.tiling import TileGrid, assemble_tiles, extract_tiles
from repro.winograd.conv2d import (
    WinogradConvContext,
    filter_stage_layout,
    transform_filter_float,
    transform_filter_int,
    winograd_conv2d_float,
    winograd_conv2d_int,
)
from repro.winograd.decompose import (
    SubConvSpec,
    decompose_conv,
    extract_sub_input,
    extract_sub_kernel,
)
from repro.winograd.opcount import (
    ADD_CATEGORIES,
    ALL_CATEGORIES,
    MUL_CATEGORIES,
    OpCounts,
    linear_counts,
    standard_conv_counts,
    winograd_conv_counts,
)

__all__ = [
    "cook_toom_1d",
    "default_points",
    "scale_to_integer",
    "SUPPORTED_TILES",
    "WinogradTransform",
    "get_transform",
    "TileGrid",
    "assemble_tiles",
    "extract_tiles",
    "WinogradConvContext",
    "filter_stage_layout",
    "transform_filter_float",
    "transform_filter_int",
    "winograd_conv2d_float",
    "winograd_conv2d_int",
    "SubConvSpec",
    "decompose_conv",
    "extract_sub_input",
    "extract_sub_kernel",
    "OpCounts",
    "linear_counts",
    "standard_conv_counts",
    "winograd_conv_counts",
    "MUL_CATEGORIES",
    "ADD_CATEGORIES",
    "ALL_CATEGORIES",
]
