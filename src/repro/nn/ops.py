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
input gradient from the transposed ``(C*k*k, N*P*Q)`` view.  Layouts are
invariants here, because float results depend on memory order: the
forward output is an NCHW view of NHWC memory (BatchNorm's batch
statistics over an NCHW-contiguous copy round differently), and the
matmul operands keep the memory orders the pinned weights were trained
with (BLAS rounds small products by operand order).  Pooling
gathers per-channel windows into ``(k*k, N*C*P*Q)`` and folds through
the same ``col2im``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.graph import Graph, Node
from repro.utils.im2col import col2im, im2col_patches

__all__ = ["forward_op", "backward_op", "init_node_params"]


# --------------------------------------------------------------------------- conv2d
def _patch_rows(x, k, stride, padding):
    """Gather ``x`` once into ``(N*P*Q, C*k*k)`` rows, one patch per row.

    The rows are C-ordered, but F-ordered for a single image.  BLAS
    rounds small products differently for the two orders, and these are
    the orders the pinned weights were trained with: the orders
    ``np.tensordot`` gives the batched einsum reference in
    ``tests/test_nn_ops_gradients.py``.
    """
    n, c = x.shape[:2]
    patches = im2col_patches(x, (k, k), stride, padding)  # (N, C, k, k, P, Q)
    p, q = patches.shape[4:]
    rows = patches.transpose(0, 4, 5, 1, 2, 3).reshape(n * p * q, c * k * k)
    return np.require(rows, requirements="F" if n == 1 else "C"), (p, q)


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

    grad_w = np.ascontiguousarray(cache["cols"].T) @ gt  # (C*k*k, K)
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
        var = x.var(axis=(0, 2, 3), dtype=np.float64)
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

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
    y = gamma.reshape(1, -1, 1, 1) * x_hat + beta.reshape(1, -1, 1, 1)
    cache = {"x_hat": x_hat if train else None, "inv_std": inv_std, "gamma": gamma}
    return y.astype(np.float32), cache


def _batchnorm_backward(node: Node, graph: Graph, cache, grad_y):
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"].reshape(1, -1, 1, 1)
    gamma = cache["gamma"].reshape(1, -1, 1, 1)
    n, c, h, w = grad_y.shape
    count = n * h * w

    grad_gamma = (grad_y * x_hat).sum(axis=(0, 2, 3))
    grad_beta = grad_y.sum(axis=(0, 2, 3))

    # Standard batchnorm backward (training-mode batch statistics).
    g = grad_y * gamma
    grad_x = (
        inv_std
        / count
        * (
            count * g
            - g.sum(axis=(0, 2, 3), keepdims=True)
            - x_hat * (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        )
    )
    param_grads = {
        "gamma": grad_gamma.astype(np.float32),
        "beta": grad_beta.astype(np.float32),
    }
    return param_grads, [grad_x.astype(np.float32)]


# --------------------------------------------------------------------------- relu
def _relu_forward(node: Node, graph: Graph, xs, train):
    (x,) = xs
    y = np.maximum(x, 0.0)
    return y, {"mask": (x > 0) if train else None}


def _relu_backward(node: Node, graph: Graph, cache, grad_y):
    return {}, [grad_y * cache["mask"]]


# --------------------------------------------------------------------------- pooling
def _pool_cols(x, k, stride, padding, fill):
    """Per-channel windows in the GEMM layout ``(k*k, N*C*P*Q)``, padded with ``fill``."""
    n, c, h, w = x.shape
    x = x.reshape(n * c, 1, h, w)
    if padding:
        pad = (padding, padding)
        x = np.pad(x, ((0, 0), (0, 0), pad, pad), constant_values=fill)
    patches = im2col_patches(x, (k, k), stride, 0)  # (N*C, 1, k, k, P, Q)
    p, q = patches.shape[4:]
    return patches.transpose(1, 2, 3, 0, 4, 5).reshape(k * k, -1), (p, q)


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
