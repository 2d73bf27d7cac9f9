"""Numerical gradient checks for every differentiable graph op.

These pin the correctness of the training substrate: each op's analytic
backward is compared against central finite differences on small tensors,
and the GEMM-layout convolution and pooling ops are compared bit for bit
against the batched einsum formulation they replaced.
"""

import itertools

import numpy as np
import pytest

from repro.nn import GraphBuilder, forward_backward, initialize
from repro.nn.executor import forward
from repro.nn.graph import Graph, Node
from repro.nn.ops import backward_op, forward_op
from repro.utils.im2col import conv_output_size, im2col


def numeric_param_grad(graph, x, labels, node, param, eps=1e-3):
    """Central-difference gradient of the loss w.r.t. one parameter array."""
    from repro.nn.loss import cross_entropy_with_logits

    arr = graph.params[node][param]
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp, _ = cross_entropy_with_logits(forward(graph, x, train=True)[0], labels)
        flat[i] = orig - eps
        lm, _ = cross_entropy_with_logits(forward(graph, x, train=True)[0], labels)
        flat[i] = orig
        grad_flat[i] = (lp - lm) / (2 * eps)
    return grad


def build_and_check(builder_fn, input_shape, seed=0, atol=2e-3):
    """Build a micro-graph, run analytic + numeric grads, compare."""
    from repro.nn.loss import make_cross_entropy_grad_fn

    b = GraphBuilder("g", input_shape)
    builder_fn(b)
    graph = b.graph
    initialize(graph, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, *input_shape)).astype(np.float32)
    labels = rng.integers(0, 2, size=4)

    _, grads = forward_backward(graph, x, make_cross_entropy_grad_fn(labels))
    for node, group in grads.items():
        for param, analytic in group.items():
            numeric = numeric_param_grad(graph, x, labels, node, param)
            np.testing.assert_allclose(
                analytic, numeric, atol=atol,
                err_msg=f"gradient mismatch at {node}/{param}",
            )


class TestParameterGradients:
    def test_conv_gradients(self):
        def net(b):
            x = b.conv2d(b.input_node, 3, kernel=3, padding=1, name="c")
            b.output(b.linear(b.flatten(x), 2, name="fc"))

        build_and_check(net, (2, 5, 5))

    def test_strided_conv_gradients(self):
        def net(b):
            x = b.conv2d(b.input_node, 3, kernel=3, stride=2, padding=1, name="c")
            b.output(b.linear(b.flatten(x), 2, name="fc"))

        build_and_check(net, (2, 7, 7))

    def test_batchnorm_gradients(self):
        def net(b):
            x = b.conv2d(b.input_node, 3, kernel=1, name="c")
            x = b.batchnorm2d(x, name="bn")
            b.output(b.linear(b.flatten(x), 2, name="fc"))

        build_and_check(net, (2, 4, 4), atol=5e-3)

    def test_linear_gradients(self):
        def net(b):
            x = b.flatten(b.input_node)
            x = b.relu(b.linear(x, 6, name="l1"))
            b.output(b.linear(x, 2, name="l2"))

        build_and_check(net, (2, 3, 3))


class TestStructuralGradients:
    """Input-gradient flow through pooling / residual / concat paths,
    validated end-to-end via the parameter gradients upstream of them."""

    def test_maxpool_path(self):
        def net(b):
            x = b.conv2d(b.input_node, 3, kernel=3, padding=1, name="c")
            x = b.maxpool2d(x, kernel=2, stride=2)
            b.output(b.linear(b.flatten(x), 2, name="fc"))

        build_and_check(net, (2, 6, 6))

    def test_avgpool_path(self):
        def net(b):
            x = b.conv2d(b.input_node, 3, kernel=3, padding=1, name="c")
            x = b.avgpool2d(x, kernel=2, stride=2)
            b.output(b.linear(b.flatten(x), 2, name="fc"))

        build_and_check(net, (2, 6, 6))

    def test_globalavgpool_path(self):
        def net(b):
            x = b.conv2d(b.input_node, 4, kernel=3, padding=1, name="c")
            x = b.globalavgpool(x)
            b.output(b.linear(b.flatten(x), 2, name="fc"))

        build_and_check(net, (2, 5, 5))

    def test_residual_add_path(self):
        def net(b):
            x = b.conv2d(b.input_node, 3, kernel=3, padding=1, name="c1")
            y = b.conv2d(x, 3, kernel=3, padding=1, name="c2")
            z = b.add(x, y)
            b.output(b.linear(b.flatten(z), 2, name="fc"))

        build_and_check(net, (2, 4, 4))

    def test_concat_path(self):
        def net(b):
            x = b.conv2d(b.input_node, 2, kernel=1, name="c1")
            y = b.conv2d(b.input_node, 3, kernel=1, name="c2")
            z = b.concat([x, y])
            b.output(b.linear(b.flatten(z), 2, name="fc"))

        build_and_check(net, (2, 4, 4))

    def test_fanout_grad_accumulation(self):
        """A node feeding two consumers must receive summed gradients."""

        def net(b):
            x = b.conv2d(b.input_node, 3, kernel=1, name="c")
            a = b.relu(x, name="ra")
            z = b.add(a, x)
            b.output(b.linear(b.flatten(z), 2, name="fc"))

        build_and_check(net, (2, 3, 3))


# --------------------------------------------------------------------------- oracle
def batched_col2im(cols, input_shape, k, stride, padding):
    """The ``(N, C*k*k, P*Q)`` fold the GEMM-layout ``col2im`` replaced."""
    n, c, h, w = input_shape
    p = conv_output_size(h, k, stride, padding)
    q = conv_output_size(w, k, stride, padding)
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, k, k, p, q)
    for i in range(k):
        for j in range(k):
            out[:, :, i : i + stride * p : stride, j : j + stride * q : stride] += cols6[
                :, :, i, j
            ]
    return out[:, :, padding : padding + h, padding : padding + w]


def einsum_conv(x, weight, bias, grad_y, k, stride, padding):
    """Forward and backward of the batched einsum conv (the reference)."""
    n, out_c, p, q = grad_y.shape
    cols = im2col(x, (k, k), stride, padding)
    w2 = weight.reshape(out_c, -1)
    y = np.einsum("kr,nrp->nkp", w2, cols, optimize=True).reshape(n, out_c, p, q)
    y = (y + bias.reshape(1, out_c, 1, 1)).astype(np.float32)
    g2 = grad_y.reshape(n, out_c, p * q)
    grad_w = np.einsum("nkp,nrp->kr", g2, cols, optimize=True).reshape(weight.shape)
    grad_b = grad_y.sum(axis=(0, 2, 3)).astype(np.float32)
    grad_cols = np.einsum("kr,nkp->nrp", w2, g2, optimize=True)
    grad_x = batched_col2im(grad_cols, x.shape, k, stride, padding)
    return y, grad_w.astype(np.float32), grad_b, grad_x.astype(np.float32)


def batched_pool(x, grad_y, op, k, stride, padding):
    """Pool forward/backward on the ``(N*C, k*k, P*Q)`` columns."""
    n, c, h, w = x.shape
    fill = -np.inf if op == "maxpool2d" else 0.0
    pad = (padding, padding)
    xp = np.pad(x.reshape(n * c, 1, h, w), ((0, 0), (0, 0), pad, pad), constant_values=fill)
    cols = im2col(xp, (k, k), stride, 0)
    g = grad_y.reshape(n * c, 1, -1)
    if op == "maxpool2d":
        arg = cols.argmax(axis=1)[:, None, :]
        y = np.take_along_axis(cols, arg, axis=1)
        grad_cols = np.zeros(cols.shape, dtype=np.float32)
        np.put_along_axis(grad_cols, arg, g, axis=1)
    else:
        y = cols.mean(axis=1)
        grad_cols = np.broadcast_to(g / (k * k), cols.shape).astype(np.float32)
    grad_x = batched_col2im(grad_cols, (n * c, 1, h, w), k, stride, padding)
    return y.reshape(grad_y.shape), grad_x.reshape(x.shape)


def run_op(op, attrs, params, x, grad_y):
    node = Node("op", op, ("x",), attrs)
    graph = Graph("g", x.shape[1:])
    graph.params["op"] = params
    y, cache = forward_op(node, graph, [x], train=True)
    param_grads, (grad_x,) = backward_op(node, graph, cache, grad_y)
    return y, param_grads, grad_x


def nhwc(rng, n, c, h, w):
    """A float32 NCHW array stored NHWC, the layout conv outputs have."""
    return rng.standard_normal((n, h, w, c)).astype(np.float32).transpose(0, 3, 1, 2)


class TestGemmLayoutOracle:
    """The GEMM-layout ops are bit-identical to the einsum formulation."""

    def test_conv_matches_einsum(self):
        rng = np.random.default_rng(0)
        grid = itertools.product((1, 3, 7), (1, 2), (0, 1, 3), (1, 5), (3, 8), (0, 1))
        for k, stride, padding, n, c, grad_nhwc in grid:
            x = nhwc(rng, n, c, 9, 8)
            weight = rng.standard_normal((4, c, k, k)).astype(np.float32)
            bias = rng.standard_normal(4).astype(np.float32)
            p = conv_output_size(9, k, stride, padding)
            q = conv_output_size(8, k, stride, padding)
            grad_y = nhwc(rng, n, 4, p, q)
            if not grad_nhwc:
                grad_y = np.ascontiguousarray(grad_y)
            attrs = {"kernel": k, "stride": stride, "padding": padding, "bias": True}
            y, grads, grad_x = run_op(
                "conv2d", attrs, {"weight": weight, "bias": bias}, x, grad_y
            )
            ref = einsum_conv(x, weight, bias, grad_y, k, stride, padding)
            case = f"k={k} stride={stride} padding={padding} n={n} c={c} {grad_nhwc=}"
            for got, want in zip((y, grads["weight"], grads["bias"], grad_x), ref):
                assert got.dtype == np.float32, case
                assert np.array_equal(got, want), case
            assert y.transpose(0, 2, 3, 1).flags.c_contiguous, case

    @pytest.mark.parametrize("op", ["maxpool2d", "avgpool2d"])
    def test_pool_matches_batched_columns(self, op):
        rng = np.random.default_rng(1)
        for k, stride, padding in itertools.product((2, 3), (1, 2), (0, 1)):
            x = nhwc(rng, 2, 3, 7, 6)
            p = conv_output_size(7, k, stride, padding)
            q = conv_output_size(6, k, stride, padding)
            grad_y = rng.standard_normal((2, 3, p, q)).astype(np.float32)
            attrs = {"kernel": k, "stride": stride, "padding": padding}
            y, _, grad_x = run_op(op, attrs, {}, x, grad_y)
            y_ref, grad_x_ref = batched_pool(x, grad_y, op, k, stride, padding)
            case = f"{op} k={k} stride={stride} padding={padding}"
            assert np.array_equal(y, y_ref), case
            assert np.array_equal(grad_x, grad_x_ref), case


class TestPaddedMaxpool:
    def test_padding_never_wins_on_negative_input(self):
        """A padded float maxpool is the true window max, padding excluded."""
        rng = np.random.default_rng(2)
        x = -1.0 - rng.random((2, 3, 5, 5)).astype(np.float32)
        attrs = {"kernel": 3, "stride": 1, "padding": 1}
        grad_y = np.ones((2, 3, 5, 5), dtype=np.float32)
        y, _, grad_x = run_op("maxpool2d", attrs, {}, x, grad_y)
        want = np.empty_like(x)
        for i in range(5):
            for j in range(5):
                window = x[:, :, max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
                want[:, :, i, j] = window.max(axis=(2, 3))
        assert np.array_equal(y, want)
        assert grad_x.sum() == grad_y.sum()  # no gradient routed to padding
