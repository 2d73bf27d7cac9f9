"""im2col / col2im and padding helpers for NCHW convolution.

:func:`im2col_patches` is the zero-copy gather behind both the float
training path (:mod:`repro.nn`) and the quantized direct-convolution path
(:mod:`repro.quantized`).  The reduction axis enumerates ``(c, r, s)`` in
C-major order — the *canonical accumulation order* that the operation-
level fault injector assumes when it reconstructs partial sums.

:func:`im2col` materializes the integer path's batched
``(N, C*R*S, P*Q)`` matrix.  :func:`col2im` is the adjoint of the float
path's single GEMM matrix ``(C*R*S, N*P*Q)`` (batch folded into the
columns), which :mod:`repro.nn` gathers straight from the patches view.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["conv_output_size", "pad_nchw", "im2col", "im2col_patches", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution produces non-positive output size "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def pad_nchw(x: np.ndarray, padding: int | tuple[int, int]) -> np.ndarray:
    """Zero-pad the spatial dims of an NCHW array."""
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW array, got ndim={x.ndim}")
    if isinstance(padding, int):
        ph = pw = padding
    else:
        ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")


def im2col_patches(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Zero-copy strided patches view behind :func:`im2col`.

    Returns a read-only-by-convention ``(N, C, R, S, P, Q)`` view whose
    C-order flattening of the middle/trailing axes is exactly the
    materialized im2col matrix.  The optimized kernel backend consumes
    this view directly (fused gather + cast), skipping the intermediate
    int64 materialization; callers that need the ``(N, C*R*S, P*Q)``
    matrix use :func:`im2col`.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW array, got ndim={x.ndim}")
    n, c, h, w = x.shape
    r, s = kernel
    p = conv_output_size(h, r, stride, padding)
    q = conv_output_size(w, s, stride, padding)
    xp = pad_nchw(x, padding)

    # Gather all (r, s) shifted views with stride tricks, then reorder.
    shape = (n, c, r, s, p, q)
    strides = (
        xp.strides[0],
        xp.strides[1],
        xp.strides[2],
        xp.strides[3],
        xp.strides[2] * stride,
        xp.strides[3] * stride,
    )
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides)


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Unfold NCHW input into convolution columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        Kernel spatial size ``(R, S)``.
    stride, padding:
        Convolution stride and symmetric zero padding.

    Returns
    -------
    Array of shape ``(N, C * R * S, P * Q)`` where ``(P, Q)`` is the output
    spatial size.  The reduction axis is ordered ``c`` major, then ``r``,
    then ``s`` — the canonical accumulation order for fault injection.
    """
    patches = im2col_patches(x, kernel, stride, padding)
    n, c, r, s, p, q = patches.shape
    return np.ascontiguousarray(patches).reshape(n, c * r * s, p * q)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold GEMM-layout columns back into an NCHW array (adjoint of the gather).

    ``cols`` has shape ``(C * R * S, N * P * Q)``: the float training path's
    GEMM layout, ``im2col(x).transpose(1, 0, 2).reshape(C * R * S, -1)``.
    Overlapping contributions are summed in ``(r, s)`` order, which makes
    this the gradient operator of that gather during backpropagation.
    Returns a C-contiguous ``(N, C, H, W)`` array.
    """
    n, c, h, w = input_shape
    r, s = kernel
    p = conv_output_size(h, r, stride, padding)
    q = conv_output_size(w, s, stride, padding)
    if cols.shape != (c * r * s, n * p * q):
        raise ShapeError(
            f"cols shape {cols.shape} does not match expected "
            f"{(c * r * s, n * p * q)}"
        )

    # Fold into an NHWC buffer: the patch-row-major columns the float conv
    # backward produces then read with a short stride.
    out = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    cols6 = cols.T.reshape(n, p, q, c, r, s)
    for i in range(r):
        i_max = i + stride * p
        for j in range(s):
            j_max = j + stride * q
            out[:, i:i_max:stride, j:j_max:stride] += cols6[..., i, j]
    out = out[:, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))
