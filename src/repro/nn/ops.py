"""Forward and backward implementations of every graph operator.

Each operator implements::

    forward(node, graph, xs, train) -> (y, cache)
    backward(node, graph, cache, grad_y) -> (param_grads, input_grads)

where ``xs``/``input_grads`` are lists aligned with ``node.inputs`` and
``param_grads`` maps parameter names to gradients.  All math is float32
NumPy with float64 accumulation where it matters (batch statistics).

Convolution runs on one GEMM layout: the input is gathered once into
``(N*P*Q, C*k*k)`` patch rows, the forward pass and both gradients are
three plain matmuls, and :func:`~repro.utils.im2col.col2im` folds the
input gradient from the transposed ``(C*k*k, N*P*Q)`` view.

Layouts are invariants here, because float results depend on memory
order.  Fixed are:

* the three matmuls' operand shapes, dtypes and memory orders (C-ordered
  patch rows, F-ordered for a single image; BLAS rounds small products
  by operand order), which the pinned weights were trained with;
* the memory order of every array a float sum runs over: the forward
  output is an NCHW view of NHWC memory (BatchNorm's batch statistics
  over an NCHW-contiguous copy round differently), and BatchNorm's
  gradient terms, the ReLU gradient and the conv bias sums keep the
  orders the plain NumPy expressions give them (:func:`_result_like`);
* ``col2im``'s C-contiguous NCHW output.

How each copy is made is free, and the large ones are blocked: the
patch rows are gathered by ``k*k`` slab copies per cache-sized block of
images, the weight-gradient operand is a row-blocked transpose, and
``col2im`` folds and copies out block by block.  An operand in a second
memory order is copied once into its partner's order (:func:`_in_layout`)
rather than streamed against it.  Pooling gathers per-channel windows
into ``(k*k, N*C*P*Q)`` by one slab copy per offset and folds through
the same ``col2im``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.graph import Graph, Node
from repro.utils.im2col import col2im, conv_output_size, per_block

__all__ = ["forward_op", "backward_op", "init_node_params"]


# --------------------------------------------------------------------------- layouts
def _result_like(a, b):
    """An empty array laid out as numpy lays out the elementwise ``a * b``.

    A ufunc allocates its output through the same iterator, so writing
    into this array reproduces the plain expression's memory order, and
    with it the order of any sum that later runs over the result.
    """
    return np.nditer(
        (a, b, None),
        flags=["zerosize_ok"],
        op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
        op_dtypes=[a.dtype, b.dtype, np.result_type(a, b)],
    ).operands[2]


def _in_layout(a, like):
    """``a``'s values in ``like``'s memory order (``a`` itself if they agree).

    An elementwise op over two memory orders streams one operand against
    its order; copying it once keeps every later op streaming.
    """
    out = np.empty_like(like, dtype=a.dtype)
    if out.strides == a.strides:
        return a
    np.copyto(out, a)
    return out


# --------------------------------------------------------------------------- conv2d
def _patch_rows(x, k, stride, padding):
    """Gather ``x`` once into ``(N*P*Q, C*k*k)`` rows, one patch per row.

    The rows are C-ordered, but F-ordered for a single image.  BLAS
    rounds small products differently for the two orders, and these are
    the orders the pinned weights were trained with: the orders
    ``np.tensordot`` gives the batched einsum reference in
    ``tests/test_nn_ops_gradients.py``.

    Each cache-sized block of images is copied into a zero-bordered NHWC
    buffer and gathered by ``k*k`` slab copies, one per kernel offset: a
    slab reads whole channel runs and writes every ``k*k``-th element.
    """
    n, c, h, w = x.shape
    p = conv_output_size(h, k, stride, padding)
    q = conv_output_size(w, k, stride, padding)
    rows = np.empty((n * p * q, c * k * k), dtype=x.dtype)
    rows6 = rows.reshape(n, p, q, c, k, k)
    step = per_block(p * q * c * k * k * x.itemsize)
    buf = np.zeros((min(step, n), h + 2 * padding, w + 2 * padding, c), x.dtype)
    for a in range(0, n, step):
        xp = buf[: min(step, n - a)]
        xp[:, padding : padding + h, padding : padding + w] = x[a : a + step].transpose(
            0, 2, 3, 1
        )
        for i in range(k):
            for j in range(k):
                window = xp[:, i : i + stride * p : stride, j : j + stride * q : stride]
                rows6[a : a + step, ..., i, j] = window
    return np.require(rows, requirements="F" if n == 1 else "C"), (p, q)


def _transposed_rows(rows):
    """``np.ascontiguousarray(rows.T)``, copied in cache-sized row blocks."""
    if rows.T.flags.c_contiguous:
        return rows.T
    m, ck = rows.shape
    out = np.empty((ck, m), dtype=rows.dtype)
    step = per_block(ck * rows.itemsize)
    for a in range(0, m, step):
        out[:, a : a + step] = rows[a : a + step].T
    return out


def _conv2d_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    weight = graph.params[node.name]["weight"]
    k = node.attrs["kernel"]
    n, out_c = x.shape[0], weight.shape[0]
    cols, (p, q) = _patch_rows(x, k, node.attrs["stride"], node.attrs["padding"])
    y = cols @ weight.reshape(out_c, -1).T  # (N*P*Q, K)
    if node.attrs.get("bias", True):
        y += graph.params[node.name]["bias"]
    cache = {"cols": cols if train else None, "x_shape": x.shape}
    # NCHW view of NHWC memory: the layout the batch statistics are reduced in.
    return y.reshape(n, p, q, out_c).transpose(0, 3, 1, 2), cache


def _conv2d_backward(node: Node, graph: Graph, cache, grad_y):
    weight = graph.params[node.name]["weight"]
    k = node.attrs["kernel"]
    out_c = weight.shape[0]
    n, _, p, q = grad_y.shape
    # (N*P*Q, K); the two-step reshape copies exactly when the einsum
    # reference does, so BLAS sees its operand orders (see _patch_rows).
    gt = grad_y.reshape(n, out_c, p * q).transpose(0, 2, 1).reshape(-1, out_c)

    grad_w = _transposed_rows(cache["cols"]) @ gt  # (C*k*k, K)
    param_grads = {"weight": grad_w.T.reshape(weight.shape)}
    if node.attrs.get("bias", True):
        param_grads["bias"] = grad_y.sum(axis=(0, 2, 3)).astype(np.float32)

    grad_cols = (gt @ weight.reshape(out_c, -1)).T  # (C*k*k, N*P*Q)
    grad_x = col2im(
        grad_cols, cache["x_shape"], (k, k), node.attrs["stride"], node.attrs["padding"]
    )
    return param_grads, [grad_x]


# --------------------------------------------------------------------------- linear
def _linear_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    weight = graph.params[node.name]["weight"]  # (out, in)
    y = x @ weight.T
    if node.attrs.get("bias", True):
        y = y + graph.params[node.name]["bias"]
    return y.astype(np.float32), {"x": x if train else None}


def _linear_backward(node: Node, graph: Graph, cache, grad_y):
    weight = graph.params[node.name]["weight"]
    x = cache["x"]
    param_grads = {"weight": (grad_y.T @ x).astype(np.float32)}
    if node.attrs.get("bias", True):
        param_grads["bias"] = grad_y.sum(axis=0).astype(np.float32)
    return param_grads, [(grad_y @ weight).astype(np.float32)]


# --------------------------------------------------------------------------- batchnorm
def _batchnorm_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    gamma = graph.params[node.name]["gamma"]
    beta = graph.params[node.name]["beta"]
    buffers = graph.buffers[node.name]
    eps = node.attrs["eps"]

    if train:
        mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
        # np.var's own steps (square the deviations, sum, divide by the
        # count) on the centred values that become x_hat below.
        centred = x - mean.reshape(1, -1, 1, 1)
        scratch = np.square(centred)
        var = scratch.sum(axis=(0, 2, 3))
        var /= x.size // x.shape[1]
        momentum = node.attrs["momentum"]
        buffers["running_mean"] = (
            (1 - momentum) * buffers["running_mean"] + momentum * mean
        ).astype(np.float32)
        buffers["running_var"] = (
            (1 - momentum) * buffers["running_var"] + momentum * var
        ).astype(np.float32)
    else:
        mean = buffers["running_mean"].astype(np.float64)
        var = buffers["running_var"].astype(np.float64)
        centred = x - mean.reshape(1, -1, 1, 1)
        scratch = np.empty_like(centred)

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centred
    x_hat *= inv_std.reshape(1, -1, 1, 1)
    scaled = np.multiply(gamma.reshape(1, -1, 1, 1), x_hat, out=scratch)
    # The float64 sum rounds to float32 as it is stored.
    y = np.add(scaled, beta.reshape(1, -1, 1, 1), out=np.empty_like(x_hat, np.float32))
    cache = {"x_hat": x_hat if train else None, "inv_std": inv_std, "gamma": gamma}
    return y, cache


def _batchnorm_backward(node: Node, graph: Graph, cache, grad_y):
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"].reshape(1, -1, 1, 1)
    gamma = cache["gamma"].reshape(1, -1, 1, 1)
    n, c, h, w = grad_y.shape
    count = n * h * w

    # Every product below is stored in the layout the plain expression
    # gives it (the sums run over them), but reads x_hat in grad_y's order.
    x_hat_g = _in_layout(x_hat, grad_y)
    gy_x_hat = np.multiply(grad_y, x_hat_g, out=_result_like(grad_y, x_hat))
    grad_gamma = gy_x_hat.sum(axis=(0, 2, 3))
    grad_beta = grad_y.sum(axis=(0, 2, 3))

    # Standard batchnorm backward (training-mode batch statistics):
    # inv_std / count * (count * g - sum(g) - x_hat * sum(g * x_hat)),
    # with the float32 terms updated in place and the float64 product
    # rounded to float32 as it is stored.
    g = grad_y * gamma
    g_x_hat = np.multiply(g, x_hat_g, out=_result_like(g, x_hat))
    g_centred = count * g
    g_centred -= g.sum(axis=(0, 2, 3), keepdims=True)
    projection = x_hat_g * g_x_hat.sum(axis=(0, 2, 3), keepdims=True)
    diff = np.subtract(g_centred, projection, out=_result_like(g_centred, x_hat))
    grad_x = np.multiply(diff, inv_std / count, out=np.empty_like(diff, np.float32))
    param_grads = {
        "gamma": grad_gamma.astype(np.float32),
        "beta": grad_beta.astype(np.float32),
    }
    return param_grads, [grad_x]


# --------------------------------------------------------------------------- relu
def _relu_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    y = np.maximum(x, 0.0)
    return y, {"mask": (x > 0) if train else None}


def _relu_backward(node: Node, graph: Graph, cache, grad_y):
    mask = cache["mask"]
    grad_x = np.multiply(grad_y, _in_layout(mask, grad_y), out=_result_like(grad_y, mask))
    return {}, [grad_x]


# --------------------------------------------------------------------------- pooling
def _pool_cols(x, k, stride, padding, fill):
    """Per-channel windows in the GEMM layout ``(k*k, N*C*P*Q)``, padded with ``fill``.

    One slab copy per window offset, each an NCHW-ordered row of the
    C-contiguous result.
    """
    n, c, h, w = x.shape
    p = conv_output_size(h, k, stride, padding)
    q = conv_output_size(w, k, stride, padding)
    if padding:
        pad = (padding, padding)
        x = np.pad(x, ((0, 0), (0, 0), pad, pad), constant_values=fill)
    cols = np.empty((k, k, n, c, p, q), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[i, j] = x[:, :, i : i + stride * p : stride, j : j + stride * q : stride]
    return cols.reshape(k * k, -1), (p, q)


def _maxpool_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    k, stride, padding = node.attrs["kernel"], node.attrs["stride"], node.attrs["padding"]
    # -inf padding: a padded position never wins a window (nor its gradient).
    cols, (p, q) = _pool_cols(x, k, stride, padding, -np.inf)
    cache = {"arg": cols.argmax(axis=0) if train else None, "x_shape": x.shape}
    return cols.max(axis=0).reshape(x.shape[0], x.shape[1], p, q), cache


def _maxpool_backward(node: Node, graph: Graph, cache, grad_y):
    k = node.attrs["kernel"]
    n, c, h, w = cache["x_shape"]
    arg = cache["arg"]  # (N*C*P*Q,)
    grad_cols = np.zeros((k * k, arg.size), dtype=np.float32)
    grad_cols[arg, np.arange(arg.size)] = grad_y.reshape(-1)
    grad_x = col2im(
        grad_cols, (n * c, 1, h, w), (k, k), node.attrs["stride"], node.attrs["padding"]
    )
    return {}, [grad_x.reshape(n, c, h, w)]


def _avgpool_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    k, stride, padding = node.attrs["kernel"], node.attrs["stride"], node.attrs["padding"]
    cols, (p, q) = _pool_cols(x, k, stride, padding, 0.0)
    y = cols.mean(axis=0)
    return y.reshape(x.shape[0], x.shape[1], p, q), {"x_shape": x.shape}


def _avgpool_backward(node: Node, graph: Graph, cache, grad_y):
    k = node.attrs["kernel"]
    n, c, h, w = cache["x_shape"]
    grad_cols = np.broadcast_to(grad_y.reshape(1, -1) / (k * k), (k * k, grad_y.size))
    grad_x = col2im(
        grad_cols, (n * c, 1, h, w), (k, k), node.attrs["stride"], node.attrs["padding"]
    )
    return {}, [grad_x.reshape(n, c, h, w)]


def _gap_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    y = x.mean(axis=(2, 3), keepdims=True)
    return y.astype(np.float32), {"x_shape": x.shape}


def _gap_backward(node: Node, graph: Graph, cache, grad_y):
    n, c, h, w = cache["x_shape"]
    grad_x = np.broadcast_to(grad_y / (h * w), (n, c, h, w)).astype(np.float32)
    return {}, [grad_x]


# --------------------------------------------------------------------------- shape ops
def _flatten_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    return x.reshape(x.shape[0], -1), {"x_shape": x.shape}


def _flatten_backward(node: Node, graph: Graph, cache, grad_y):
    return {}, [grad_y.reshape(cache["x_shape"])]


def _add_forward(node: Node, graph: Graph, xs, train):
    a, b = xs
    if a.shape != b.shape:
        raise ShapeError(f"add '{node.name}': shapes {a.shape} vs {b.shape}")
    return a + b, {}


def _add_backward(node: Node, graph: Graph, cache, grad_y):
    return {}, [grad_y, grad_y]


def _concat_forward(node: Node, graph: Graph, xs, train):
    return np.concatenate(xs, axis=1), {"splits": [x.shape[1] for x in xs]}


def _concat_backward(node: Node, graph: Graph, cache, grad_y):
    grads = []
    offset = 0
    for width in cache["splits"]:
        grads.append(grad_y[:, offset : offset + width])
        offset += width
    return {}, grads


_FORWARD = {
    "conv2d": _conv2d_forward,
    "linear": _linear_forward,
    "batchnorm2d": _batchnorm_forward,
    "relu": _relu_forward,
    "maxpool2d": _maxpool_forward,
    "avgpool2d": _avgpool_forward,
    "globalavgpool": _gap_forward,
    "flatten": _flatten_forward,
    "add": _add_forward,
    "concat": _concat_forward,
}

_BACKWARD = {
    "conv2d": _conv2d_backward,
    "linear": _linear_backward,
    "batchnorm2d": _batchnorm_backward,
    "relu": _relu_backward,
    "maxpool2d": _maxpool_backward,
    "avgpool2d": _avgpool_backward,
    "globalavgpool": _gap_backward,
    "flatten": _flatten_backward,
    "add": _add_backward,
    "concat": _concat_backward,
}


def forward_op(node: Node, graph: Graph, xs: list[np.ndarray], train: bool):
    """Run one node forward; returns ``(output, cache)``."""
    return _FORWARD[node.op](node, graph, xs, train)


def backward_op(node: Node, graph: Graph, cache, grad_y: np.ndarray):
    """Run one node backward; returns ``(param_grads, input_grads)``."""
    return _BACKWARD[node.op](node, graph, cache, grad_y)


def init_node_params(
    node: Node,
    graph: Graph,
    in_shape: tuple,
    rng: np.random.Generator,
) -> None:
    """Allocate and initialize parameters/buffers for a node.

    Convolutions and linear layers use Kaiming-normal fan-in initialization
    (appropriate for ReLU networks); BatchNorm starts at identity.
    """
    if node.op == "conv2d":
        c = in_shape[0]
        k = node.attrs["kernel"]
        out_c = node.attrs["out_channels"]
        fan_in = c * k * k
        std = float(np.sqrt(2.0 / fan_in))
        params = {
            "weight": rng.normal(0.0, std, size=(out_c, c, k, k)).astype(np.float32)
        }
        if node.attrs.get("bias", True):
            params["bias"] = np.zeros(out_c, dtype=np.float32)
        graph.params[node.name] = params
    elif node.op == "linear":
        fan_in = in_shape[0]
        out_f = node.attrs["out_features"]
        std = float(np.sqrt(2.0 / fan_in))
        params = {
            "weight": rng.normal(0.0, std, size=(out_f, fan_in)).astype(np.float32)
        }
        if node.attrs.get("bias", True):
            params["bias"] = np.zeros(out_f, dtype=np.float32)
        graph.params[node.name] = params
    elif node.op == "batchnorm2d":
        c = in_shape[0]
        graph.params[node.name] = {
            "gamma": np.ones(c, dtype=np.float32),
            "beta": np.zeros(c, dtype=np.float32),
        }
        graph.buffers[node.name] = {
            "running_mean": np.zeros(c, dtype=np.float32),
            "running_var": np.ones(c, dtype=np.float32),
        }
