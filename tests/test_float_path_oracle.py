"""Bit-identity of the float training path against its unblocked predecessor.

The float conv, BatchNorm, ReLU and pooling ops copy data in cache-sized
blocks and reuse temporaries in place.  None of that may change a float
result: the pinned VGG19 weights were trained with the straightforward
copies kept here as frozen references (one 6-D transposed reshape per
gather, ``np.ascontiguousarray`` for the weight-gradient operand, one
unblocked ``col2im`` fold, ``np.var`` and out-of-place BatchNorm terms).

The suite checks the copy functions on a layout grid (values, dtype and
contiguity), every changed op forward and backward (values and strides,
since later sums depend on memory order), and a few training steps of the
tiny CNN end to end.  Run it under ``OPENBLAS_NUM_THREADS=2`` as well:
the GEMM operand orders must round identically on more than one thread.
"""

import importlib
import itertools

import numpy as np
import pytest

from repro.nn import Adam, TrainConfig, initialize, train
from repro.nn import ops
from repro.nn.graph import Graph, Node
from repro.utils.im2col import col2im, conv_output_size, im2col_patches

from tests._helpers import build_tiny_cnn

# The module, not the ``repro.utils.im2col`` function of the same name.
im2col_module = importlib.import_module("repro.utils.im2col")

#: A budget small enough that every grid batch spans several blocks.
SMALL_BLOCK_BYTES = 1 << 12


# --------------------------------------------------------------------------- frozen
def frozen_patch_rows(x, k, stride, padding):
    n, c = x.shape[:2]
    patches = im2col_patches(x, (k, k), stride, padding)
    p, q = patches.shape[4:]
    rows = patches.transpose(0, 4, 5, 1, 2, 3).reshape(n * p * q, c * k * k)
    return np.require(rows, requirements="F" if n == 1 else "C"), (p, q)


def frozen_col2im(cols, input_shape, kernel, stride=1, padding=0):
    n, c, h, w = input_shape
    r, s = kernel
    p = conv_output_size(h, r, stride, padding)
    q = conv_output_size(w, s, stride, padding)
    out = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    cols6 = cols.T.reshape(n, p, q, c, r, s)
    for i in range(r):
        for j in range(s):
            out[:, i : i + stride * p : stride, j : j + stride * q : stride] += cols6[
                ..., i, j
            ]
    out = out[:, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def frozen_conv2d_forward(node, graph, xs, train):
    (x,) = xs
    weight = graph.params[node.name]["weight"]
    k = node.attrs["kernel"]
    n, out_c = x.shape[0], weight.shape[0]
    cols, (p, q) = frozen_patch_rows(x, k, node.attrs["stride"], node.attrs["padding"])
    y = cols @ weight.reshape(out_c, -1).T
    if node.attrs.get("bias", True):
        y += graph.params[node.name]["bias"]
    cache = {"cols": cols if train else None, "x_shape": x.shape}
    return y.reshape(n, p, q, out_c).transpose(0, 3, 1, 2), cache


def frozen_conv2d_backward(node, graph, cache, grad_y):
    weight = graph.params[node.name]["weight"]
    k = node.attrs["kernel"]
    out_c = weight.shape[0]
    n, _, p, q = grad_y.shape
    gt = grad_y.reshape(n, out_c, p * q).transpose(0, 2, 1).reshape(-1, out_c)
    grad_w = np.ascontiguousarray(cache["cols"].T) @ gt
    param_grads = {"weight": grad_w.T.reshape(weight.shape)}
    if node.attrs.get("bias", True):
        param_grads["bias"] = grad_y.sum(axis=(0, 2, 3)).astype(np.float32)
    grad_cols = (gt @ weight.reshape(out_c, -1)).T
    grad_x = frozen_col2im(
        grad_cols, cache["x_shape"], (k, k), node.attrs["stride"], node.attrs["padding"]
    )
    return param_grads, [grad_x]


def frozen_batchnorm_forward(node, graph, xs, train):
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


def frozen_batchnorm_backward(node, graph, cache, grad_y):
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"].reshape(1, -1, 1, 1)
    gamma = cache["gamma"].reshape(1, -1, 1, 1)
    n, c, h, w = grad_y.shape
    count = n * h * w
    grad_gamma = (grad_y * x_hat).sum(axis=(0, 2, 3))
    grad_beta = grad_y.sum(axis=(0, 2, 3))
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


def frozen_relu_backward(node, graph, cache, grad_y):
    return {}, [grad_y * cache["mask"]]


def frozen_pool_cols(x, k, stride, padding, fill):
    n, c, h, w = x.shape
    x = x.reshape(n * c, 1, h, w)
    if padding:
        pad = (padding, padding)
        x = np.pad(x, ((0, 0), (0, 0), pad, pad), constant_values=fill)
    patches = im2col_patches(x, (k, k), stride, 0)
    p, q = patches.shape[4:]
    return patches.transpose(1, 2, 3, 0, 4, 5).reshape(k * k, -1), (p, q)


def frozen_maxpool_forward(node, graph, xs, train):
    (x,) = xs
    k, stride, padding = node.attrs["kernel"], node.attrs["stride"], node.attrs["padding"]
    cols, (p, q) = frozen_pool_cols(x, k, stride, padding, -np.inf)
    cache = {"arg": cols.argmax(axis=0) if train else None, "x_shape": x.shape}
    return cols.max(axis=0).reshape(x.shape[0], x.shape[1], p, q), cache


def frozen_maxpool_backward(node, graph, cache, grad_y):
    k = node.attrs["kernel"]
    n, c, h, w = cache["x_shape"]
    arg = cache["arg"]
    grad_cols = np.zeros((k * k, arg.size), dtype=np.float32)
    grad_cols[arg, np.arange(arg.size)] = grad_y.reshape(-1)
    grad_x = frozen_col2im(
        grad_cols, (n * c, 1, h, w), (k, k), node.attrs["stride"], node.attrs["padding"]
    )
    return {}, [grad_x.reshape(n, c, h, w)]


def frozen_avgpool_forward(node, graph, xs, train):
    (x,) = xs
    k, stride, padding = node.attrs["kernel"], node.attrs["stride"], node.attrs["padding"]
    cols, (p, q) = frozen_pool_cols(x, k, stride, padding, 0.0)
    y = cols.mean(axis=0)
    return y.reshape(x.shape[0], x.shape[1], p, q), {"x_shape": x.shape}


def frozen_avgpool_backward(node, graph, cache, grad_y):
    k = node.attrs["kernel"]
    n, c, h, w = cache["x_shape"]
    grad_cols = np.broadcast_to(grad_y.reshape(1, -1) / (k * k), (k * k, grad_y.size))
    grad_x = frozen_col2im(
        grad_cols, (n * c, 1, h, w), (k, k), node.attrs["stride"], node.attrs["padding"]
    )
    return {}, [grad_x.reshape(n, c, h, w)]


FROZEN_FORWARD = {
    **ops._FORWARD,
    "conv2d": frozen_conv2d_forward,
    "batchnorm2d": frozen_batchnorm_forward,
    "maxpool2d": frozen_maxpool_forward,
    "avgpool2d": frozen_avgpool_forward,
}
FROZEN_BACKWARD = {
    **ops._BACKWARD,
    "conv2d": frozen_conv2d_backward,
    "batchnorm2d": frozen_batchnorm_backward,
    "relu": frozen_relu_backward,
    "maxpool2d": frozen_maxpool_backward,
    "avgpool2d": frozen_avgpool_backward,
}


# --------------------------------------------------------------------------- helpers
def assert_same(got, want, case):
    """Equal bits (signed zeros included), dtype, shape and memory order."""
    assert got.dtype == want.dtype, case
    assert got.shape == want.shape, case
    assert got.flags.c_contiguous == want.flags.c_contiguous, case
    assert got.flags.f_contiguous == want.flags.f_contiguous, case
    assert np.array_equal(got, want), case
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), case


def assert_same_strides(got, want, case):
    assert_same(got, want, case)
    assert got.strides == want.strides, case


def make_input(rng, shape, layout):
    """A float32 NCHW array stored NCHW or NHWC in memory."""
    n, c, h, w = shape
    if layout == "nchw":
        return rng.standard_normal(shape).astype(np.float32)
    return rng.standard_normal((n, h, w, c)).astype(np.float32).transpose(0, 3, 1, 2)


@pytest.fixture(params=["budget", "small-blocks"])
def block_bytes(request, monkeypatch):
    """Run once at the real block budget and once with tiny blocks."""
    if request.param == "small-blocks":
        monkeypatch.setattr(im2col_module, "BLOCK_BYTES", SMALL_BLOCK_BYTES)
    return im2col_module.BLOCK_BYTES


CONV_GRID = list(itertools.product((1, 3, 7), (1, 2), (0, 1, 3)))


# --------------------------------------------------------------------------- copies
class TestCopyLayoutGrid:
    """The blocked copies equal the frozen ones in values, dtype and flags."""

    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_gather_transpose_and_fold(self, block_bytes, layout, n):
        rng = np.random.default_rng(n)
        for k, stride, padding in CONV_GRID:
            x = make_input(rng, (n, 3, 9, 8), layout)
            case = f"{layout} n={n} k={k} stride={stride} padding={padding}"
            rows, pq = ops._patch_rows(x, k, stride, padding)
            want_rows, want_pq = frozen_patch_rows(x, k, stride, padding)
            assert pq == want_pq, case
            assert_same(rows, want_rows, case)
            assert_same(ops._transposed_rows(rows), np.ascontiguousarray(rows.T), case)

            # The conv backward's operand: the F-ordered transpose of a
            # C-ordered GEMM product; the pools' C-ordered and broadcast ones.
            grad_cols = rng.standard_normal(rows.shape).astype(np.float32).T
            args = (x.shape, (k, k), stride, padding)
            assert_same(col2im(grad_cols, *args), frozen_col2im(grad_cols, *args), case)
            c_ordered = np.ascontiguousarray(grad_cols)
            assert_same(col2im(c_ordered, *args), frozen_col2im(c_ordered, *args), case)
            row = rng.standard_normal((1, grad_cols.shape[1])).astype(np.float32)
            spread = np.broadcast_to(row, grad_cols.shape)
            assert_same(col2im(spread, *args), frozen_col2im(spread, *args), case)

    def test_many_blocks_at_the_real_budget(self):
        """A VGG19-sized layer spans dozens of blocks of the real budget."""
        rng = np.random.default_rng(3)
        for layout in ("nchw", "nhwc"):
            x = make_input(rng, (64, 16, 32, 32), layout)
            rows, _ = ops._patch_rows(x, 3, 1, 1)
            assert rows.nbytes > 8 * im2col_module.BLOCK_BYTES
            assert_same(rows, frozen_patch_rows(x, 3, 1, 1)[0], layout)
            assert_same(ops._transposed_rows(rows), np.ascontiguousarray(rows.T), layout)
            grad_cols = rng.standard_normal(rows.shape).astype(np.float32).T
            args = (x.shape, (3, 3), 1, 1)
            assert_same(col2im(grad_cols, *args), frozen_col2im(grad_cols, *args), layout)


# --------------------------------------------------------------------------- ops
def run_both(op, attrs, params, buffers, x, grad_y, train=True):
    """Forward and backward through the live and the frozen op tables."""
    results = []
    for forward, backward in ((ops._FORWARD, ops._BACKWARD), (FROZEN_FORWARD, FROZEN_BACKWARD)):
        node = Node("op", op, ("x",), attrs)
        graph = Graph("g", x.shape[1:])
        graph.params["op"] = {k: v.copy() for k, v in params.items()}
        graph.buffers["op"] = {k: v.copy() for k, v in buffers.items()}
        y, cache = forward[op](node, graph, [x], train)
        out = {"y": y, **{f"buffer:{k}": v for k, v in graph.buffers["op"].items()}}
        # Cached float64 statistics carry rounding a float32 output can hide.
        out.update({f"cache:{k}": v for k, v in cache.items() if isinstance(v, np.ndarray)})
        if train:
            param_grads, (grad_x,) = backward[op](node, graph, cache, grad_y)
            out["grad_x"] = grad_x
            out.update({f"grad:{k}": v for k, v in param_grads.items()})
        results.append(out)
    return results


class TestOpsMatchFrozenTable:
    """Every changed op gives the frozen op's bits and memory layout."""

    @pytest.mark.parametrize("x_layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("grad_layout", ["nchw", "nhwc"])
    def test_conv2d(self, block_bytes, x_layout, grad_layout):
        rng = np.random.default_rng(4)
        for (k, stride, padding), n in itertools.product(CONV_GRID, (1, 6)):
            x = make_input(rng, (n, 3, 9, 8), x_layout)
            p = conv_output_size(9, k, stride, padding)
            q = conv_output_size(8, k, stride, padding)
            grad_y = make_input(rng, (n, 4, p, q), grad_layout)
            params = {
                "weight": rng.standard_normal((4, 3, k, k)).astype(np.float32),
                "bias": rng.standard_normal(4).astype(np.float32),
            }
            attrs = {"kernel": k, "stride": stride, "padding": padding, "bias": True}
            got, want = run_both("conv2d", attrs, params, {}, x, grad_y)
            case = f"k={k} stride={stride} padding={padding} n={n}"
            for key in want:
                assert_same_strides(got[key], want[key], f"{key} {case}")

    @pytest.mark.parametrize("x_layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("grad_layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("train", [True, False])
    def test_batchnorm(self, x_layout, grad_layout, train):
        rng = np.random.default_rng(5)
        for n in (1, 7):
            x = 3.0 + make_input(rng, (n, 5, 6, 4), x_layout)
            grad_y = make_input(rng, (n, 5, 6, 4), grad_layout)
            params = {
                "gamma": rng.standard_normal(5).astype(np.float32),
                "beta": rng.standard_normal(5).astype(np.float32),
            }
            buffers = {
                "running_mean": rng.standard_normal(5).astype(np.float32),
                "running_var": rng.random(5).astype(np.float32) + 0.5,
            }
            attrs = {"eps": 1e-5, "momentum": 0.1}
            got, want = run_both("batchnorm2d", attrs, params, buffers, x, grad_y, train)
            for key in want:
                assert_same_strides(got[key], want[key], f"{key} n={n}")

    @pytest.mark.parametrize("x_layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("grad_layout", ["nchw", "nhwc"])
    def test_relu(self, x_layout, grad_layout):
        rng = np.random.default_rng(6)
        x = make_input(rng, (3, 4, 5, 6), x_layout)
        grad_y = make_input(rng, (3, 4, 5, 6), grad_layout)
        got, want = run_both("relu", {}, {}, {}, x, grad_y)
        for key in want:
            assert_same_strides(got[key], want[key], key)
        assert np.signbit(got["grad_x"][x <= 0]).any()  # masked negatives stay -0.0

    @pytest.mark.parametrize("op", ["maxpool2d", "avgpool2d"])
    @pytest.mark.parametrize("x_layout", ["nchw", "nhwc"])
    def test_pools(self, block_bytes, op, x_layout):
        rng = np.random.default_rng(7)
        for k, stride, padding in itertools.product((1, 2, 3), (1, 2), (0, 1)):
            if padding * 2 > k:
                continue
            x = make_input(rng, (2, 3, 7, 6), x_layout)
            p = conv_output_size(7, k, stride, padding)
            q = conv_output_size(6, k, stride, padding)
            grad_y = rng.standard_normal((2, 3, p, q)).astype(np.float32)
            attrs = {"kernel": k, "stride": stride, "padding": padding}
            got, want = run_both(op, attrs, {}, {}, x, grad_y)
            case = f"{op} k={k} stride={stride} padding={padding}"
            for key in want:
                assert_same_strides(got[key], want[key], f"{key} {case}")


# --------------------------------------------------------------------------- training
def train_tiny(dataset, monkeypatch, forward_table, backward_table):
    with monkeypatch.context() as patch:
        patch.setattr(ops, "_FORWARD", forward_table)
        patch.setattr(ops, "_BACKWARD", backward_table)
        graph = build_tiny_cnn()
        initialize(graph, 0)
        result = train(
            graph,
            Adam(graph, 3e-3),
            dataset.train_x[:96],
            dataset.train_y[:96],
            dataset.test_x,
            dataset.test_y,
            TrainConfig(epochs=2, batch_size=32, target_accuracy=1.0),
        )
    return graph, result


class TestTrainingMatchesFrozenTable:
    def test_tiny_cnn_weights_and_buffers_bit_identical(
        self, tiny_dataset, monkeypatch, block_bytes
    ):
        graph, result = train_tiny(tiny_dataset, monkeypatch, ops._FORWARD, ops._BACKWARD)
        frozen, frozen_result = train_tiny(
            tiny_dataset, monkeypatch, FROZEN_FORWARD, FROZEN_BACKWARD
        )
        assert result.history == frozen_result.history
        state, frozen_state = graph.state_dict(), frozen.state_dict()
        assert state.keys() == frozen_state.keys()
        assert any(key.endswith("running_var") for key in state)
        for key in state:
            assert_same(state[key], frozen_state[key], key)
