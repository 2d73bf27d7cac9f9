"""Quantized (integer) node implementations.

Every class mirrors one graph op.  All activations are int64 arrays holding
stored integers of the node's :class:`~repro.fixedpoint.qformat.QFormat`;
weight-bearing layers carry everything the fault injector needs (formats,
geometry, operation census, raw operand arrays during the pass).

The two convolution implementations — :class:`QConvDirect` and
:class:`QConvWinograd` — compute *bit-identical* outputs in the fault-free
case (see ``tests/test_quantized_equivalence.py``), which pins the paper's
premise that Winograd is a lossless rewrite of the convolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.backends import DEFAULT_BACKEND, format_bound, get_backend
from repro.errors import ShapeError
from repro.fixedpoint import QFormat, rescale_round, saturate
from repro.quantized.interface import Injector
from repro.utils.im2col import conv_output_size, im2col, im2col_patches, pad_nchw
from repro.winograd.conv2d import filter_stage_layout, winograd_conv2d_int
from repro.winograd.decompose import (
    SubConvSpec,
    decompose_conv,
    extract_sub_input,
    extract_sub_kernel,
)
from repro.winograd.opcount import (
    OpCounts,
    linear_counts,
    standard_conv_counts,
    winograd_conv_counts,
)
from repro.winograd.transforms import get_transform

__all__ = [
    "QNode",
    "QInput",
    "QConvDirect",
    "QConvWinograd",
    "QLinear",
    "QAffine",
    "QReLU",
    "QMaxPool",
    "QAvgPool",
    "QGlobalAvgPool",
    "QFlatten",
    "QAdd",
    "QConcat",
]


@dataclass
class QNode:
    """Base quantized node: name, inputs and output format."""

    name: str
    inputs: tuple[str, ...]
    out_fmt: QFormat

    #: Per-image output shape, filled in by the quantizer.
    out_shape: tuple = ()

    def forward(self, xs: list[np.ndarray], injector: Injector | None = None) -> np.ndarray:
        raise NotImplementedError

    @property
    def op(self) -> str:
        return type(self).__name__


@dataclass
class QInput(QNode):
    """Quantizes the float network input into the input format."""

    def forward(self, xs, injector=None):
        from repro.fixedpoint import quantize

        return quantize(xs[0], self.out_fmt)


def _lazy_weight_bound(node) -> int:
    """Cached actual magnitude bound of a node's integer weights.

    Weights are static after quantization, so the scan runs once per
    layer per process and the exactness probes reuse the bound on every
    forward (satisfying the no-per-call-scan contract of the backends).
    """
    bound = getattr(node, "_weight_bound", None)
    if bound is None:
        bound = int(np.abs(node.weight_int).max(initial=0))
        node._weight_bound = bound
    return bound


@dataclass
class QConvDirect(QNode):
    """Direct (im2col/GEMM) integer convolution."""

    weight_int: np.ndarray = None  # (K, C, R, S)
    bias_acc: np.ndarray = None  # (K,) in accumulator units
    in_fmt: QFormat = None
    w_fmt: QFormat = None
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    acc_width: int = 32
    in_shape: tuple = ()
    op_counts: OpCounts = field(default_factory=OpCounts)
    #: Kernel backend name (resolved lazily per process; bit-identical
    #: across backends, so never part of model fingerprints).
    kernel_backend: str = DEFAULT_BACKEND

    @property
    def acc_frac(self) -> int:
        """Fractional bits of the accumulator domain."""
        return self.in_fmt.frac + self.w_fmt.frac

    def forward(self, xs, injector=None):
        (x,) = xs
        n, _, h, w = x.shape
        k = self.weight_int.shape[0]
        p = conv_output_size(h, self.kernel, self.stride, self.padding)
        q = conv_output_size(w, self.kernel, self.stride, self.padding)

        backend = get_backend(self.kernel_backend)
        # The backend and the injector both read the strided patches view
        # in place; the im2col matrix is never materialized.
        patches = im2col_patches(x, (self.kernel, self.kernel), self.stride, self.padding)
        acc = backend.im2col_gemm(
            self.weight_int.reshape(k, -1),
            patches,
            w_bound=_lazy_weight_bound(self),
            x_bound=format_bound(self.in_fmt.width),
        )
        acc = acc.reshape(n, k, p, q)
        acc += self.bias_acc.reshape(1, k, 1, 1)
        if injector is not None:
            injector.visit_direct(self, x, patches, acc)
        y = backend.requantize(acc, self.acc_frac, self.out_fmt)
        if injector is not None:
            y = injector.visit_output(self, y)
        return y


@dataclass
class QConvWinograd(QNode):
    """Integer-exact Winograd convolution (DWM-decomposed when needed)."""

    weight_int: np.ndarray = None  # original (K, C, R, S) integer weights
    bias_acc: np.ndarray = None
    in_fmt: QFormat = None
    w_fmt: QFormat = None
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    acc_width: int = 32
    m: int = 2
    in_shape: tuple = ()
    op_counts: OpCounts = field(default_factory=OpCounts)
    #: Filled by ``prepare()``: DWM pieces and their transformed filters,
    #: in the position-major stage layout ``(t*t, K, C)`` and the
    #: backend's stage dtype (exact integers).
    sub_specs: list[SubConvSpec] = field(default_factory=list)
    sub_filters: list[np.ndarray] = field(default_factory=list)
    #: Per-sub-filter magnitude bounds, filled by ``prepare()``; lets the
    #: backend exactness probes skip their per-call magnitude scans.
    sub_filter_bounds: list[int] = field(default_factory=list)
    #: Kernel backend name (resolved lazily per process; bit-identical
    #: across backends, so never part of model fingerprints).
    kernel_backend: str = DEFAULT_BACKEND

    @property
    def acc_frac(self) -> int:
        return self.in_fmt.frac + self.w_fmt.frac

    @property
    def transform(self):
        """The ``F(m, 3)`` transform bundle shared by every sub-conv."""
        return get_transform(self.m, 3)

    def prepare(self) -> None:
        """Decompose the kernel and pre-transform the integer filters."""
        tf = self.transform
        backend = get_backend(self.kernel_backend)
        self.sub_specs = decompose_conv((self.kernel, self.kernel), self.stride)
        self.sub_filters, self.sub_filter_bounds = [], []
        for spec in self.sub_specs:
            v = backend.filter_transform(
                tf, extract_sub_kernel(self.weight_int, spec, self.stride)
            )
            # The transformed filters are static, so their magnitude bound
            # is computed once here and reused by every forward's probes,
            # and the re-layout casts them to the backend's stage dtype.
            bound = int(np.abs(v).max(initial=0))
            self.sub_filters.append(filter_stage_layout(v, backend.stage_dtype(bound)))
            self.sub_filter_bounds.append(bound)

    def forward(self, xs, injector=None):
        (x,) = xs
        if not self.sub_specs:
            raise ShapeError(f"QConvWinograd '{self.name}' not prepared")
        n, c, h, w = x.shape
        k = self.weight_int.shape[0]
        out_h = conv_output_size(h, self.kernel, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel, self.stride, self.padding)

        backend = get_backend(self.kernel_backend)
        x_bound = format_bound(self.in_fmt.width)
        v_bounds = self.sub_filter_bounds or [None] * len(self.sub_specs)
        x = np.asarray(x, dtype=np.int64)
        # A 3x3 unit-stride conv is its own single DWM piece: it reads the
        # input directly and the tile gather folds in the padding.
        plain = self.kernel == 3 and self.stride == 1
        xp = None if plain else pad_nchw(x, self.padding)
        keep = injector is not None
        scale = self.transform.output_scale_2d

        # Every ctx.y_int is a fresh C-contiguous (N, K, out_h, out_w)
        # array; the injector mutates reshape-views of y_scaled in place,
        # which only alias because of that contiguity.
        y_scaled = None
        sub_contexts = []
        for spec, v_int, v_bound in zip(self.sub_specs, self.sub_filters, v_bounds):
            if plain:
                view, pad = x, self.padding
            else:
                view, pad = extract_sub_input(xp, spec, self.stride, out_h, out_w), 0
            ctx = winograd_conv2d_int(
                view, v_int, padding=pad, m=self.m, r=3, keep_intermediates=keep,
                backend=backend, x_bound=x_bound, v_bound=v_bound,
            )
            sub_contexts.append((spec, ctx))
            y_scaled = ctx.y_int if y_scaled is None else y_scaled + ctx.y_int

        y_scaled += self.bias_acc.reshape(1, k, 1, 1) * scale
        if injector is not None:
            injector.visit_winograd(self, sub_contexts, y_scaled)
        y = backend.requantize(
            y_scaled, self.acc_frac, self.out_fmt, extra_ratio=Fraction(1, scale)
        )
        if injector is not None:
            y = injector.visit_output(self, y)
        return y


@dataclass
class QLinear(QNode):
    """Integer fully-connected layer."""

    weight_int: np.ndarray = None  # (F_out, F_in)
    bias_acc: np.ndarray = None
    in_fmt: QFormat = None
    w_fmt: QFormat = None
    acc_width: int = 32
    in_shape: tuple = ()
    op_counts: OpCounts = field(default_factory=OpCounts)
    #: Kernel backend name (resolved lazily per process; bit-identical
    #: across backends, so never part of model fingerprints).
    kernel_backend: str = DEFAULT_BACKEND

    @property
    def acc_frac(self) -> int:
        return self.in_fmt.frac + self.w_fmt.frac

    def forward(self, xs, injector=None):
        (x,) = xs
        backend = get_backend(self.kernel_backend)
        acc = backend.linear_gemm(
            x,
            self.weight_int,
            w_bound=_lazy_weight_bound(self),
            x_bound=format_bound(self.in_fmt.width),
        )
        acc += self.bias_acc
        if injector is not None:
            injector.visit_linear(self, x, acc)
        y = backend.requantize(acc, self.acc_frac, self.out_fmt)
        if injector is not None:
            y = injector.visit_output(self, y)
        return y


@dataclass
class QAffine(QNode):
    """Per-channel integer affine (unfolded inference-time BatchNorm).

    ``y = (x * mult) >> SHIFT + shift`` with per-channel 2^SHIFT-scaled
    multipliers, the standard integer lowering of a frozen BN.
    """

    SHIFT = 24

    mult_int: np.ndarray = None  # (C,) multiplier, scaled by 2**SHIFT
    shift_int: np.ndarray = None  # (C,) additive term in output units
    in_fmt: QFormat = None

    def forward(self, xs, injector=None):
        (x,) = xs
        scaled = x * self.mult_int.reshape(1, -1, 1, 1)
        y = rescale_round(scaled, Fraction(1, 1 << self.SHIFT))
        y = y + self.shift_int.reshape(1, -1, 1, 1)
        return saturate(y, self.out_fmt)


@dataclass
class QReLU(QNode):
    """Integer ReLU (format-preserving)."""

    def forward(self, xs, injector=None):
        return np.maximum(xs[0], 0)


@dataclass
class QMaxPool(QNode):
    """Integer max pooling."""

    kernel: int = 2
    stride: int = 2
    padding: int = 0

    def forward(self, xs, injector=None):
        (x,) = xs
        n, c, h, w = x.shape
        if self.padding:
            # Pad with the format minimum so padding never wins the max.
            pad_val = self.out_fmt.qmin
            x = np.pad(
                x,
                ((0, 0), (0, 0), (self.padding,) * 2, (self.padding,) * 2),
                mode="constant",
                constant_values=pad_val,
            )
        cols = im2col(
            x.reshape(n * c, 1, *x.shape[2:]), (self.kernel,) * 2, self.stride, 0
        )
        p = conv_output_size(h, self.kernel, self.stride, self.padding)
        q = conv_output_size(w, self.kernel, self.stride, self.padding)
        return cols.max(axis=1).reshape(n, c, p, q)


@dataclass
class QAvgPool(QNode):
    """Integer average pooling with exact rounding."""

    kernel: int = 2
    stride: int = 2
    padding: int = 0

    def forward(self, xs, injector=None):
        (x,) = xs
        n, c, h, w = x.shape
        cols = im2col(
            x.reshape(n * c, 1, h, w), (self.kernel,) * 2, self.stride, self.padding
        )
        p = conv_output_size(h, self.kernel, self.stride, self.padding)
        q = conv_output_size(w, self.kernel, self.stride, self.padding)
        sums = cols.sum(axis=1)
        mean = rescale_round(sums, Fraction(1, self.kernel * self.kernel))
        return saturate(mean.reshape(n, c, p, q), self.out_fmt)


@dataclass
class QGlobalAvgPool(QNode):
    """Integer global average pooling."""

    def forward(self, xs, injector=None):
        (x,) = xs
        n, c, h, w = x.shape
        sums = x.sum(axis=(2, 3), dtype=np.int64)
        mean = rescale_round(sums, Fraction(1, h * w))
        return saturate(mean, self.out_fmt).reshape(n, c, 1, 1)


@dataclass
class QFlatten(QNode):
    """Flatten to (N, features)."""

    def forward(self, xs, injector=None):
        return xs[0].reshape(xs[0].shape[0], -1)


@dataclass
class QAdd(QNode):
    """Residual addition with format harmonization."""

    in_fmts: tuple[QFormat, QFormat] = None

    def forward(self, xs, injector=None):
        a, b = xs
        fa, fb = self.in_fmts
        a = rescale_round(a, Fraction(2) ** (self.out_fmt.frac - fa.frac))
        b = rescale_round(b, Fraction(2) ** (self.out_fmt.frac - fb.frac))
        return saturate(a + b, self.out_fmt)


@dataclass
class QConcat(QNode):
    """Channel concatenation with format harmonization."""

    in_fmts: tuple = ()

    def forward(self, xs, injector=None):
        parts = []
        for x, fmt in zip(xs, self.in_fmts):
            if fmt.frac != self.out_fmt.frac:
                x = saturate(
                    rescale_round(x, Fraction(2) ** (self.out_fmt.frac - fmt.frac)),
                    self.out_fmt,
                )
            parts.append(x)
        return np.concatenate(parts, axis=1)


def conv_op_counts(
    mode: str,
    in_channels: int,
    out_channels: int,
    kernel: int,
    stride: int,
    out_size: tuple[int, int],
    m: int,
    bias: bool = True,
) -> OpCounts:
    """Op census for one conv layer under the given execution mode."""
    if mode == "winograd":
        return winograd_conv_counts(
            in_channels, out_channels, (kernel, kernel), stride, out_size, m=m, bias=bias
        )
    return standard_conv_counts(
        in_channels, out_channels, (kernel, kernel), out_size, bias=bias
    )


def linear_op_counts(in_features: int, out_features: int) -> OpCounts:
    """Op census for a fully-connected layer."""
    return linear_counts(in_features, out_features)
