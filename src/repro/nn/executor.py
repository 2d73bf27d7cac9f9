"""Float execution engine over the graph IR: forward, backward, init.

The executor walks the topologically ordered node list, dispatching to
:mod:`repro.nn.ops`.  Backward propagates gradients in reverse order,
summing contributions when a node output feeds multiple consumers (residual
and dense connectivity).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.graph import Graph
from repro.nn.ops import backward_op, forward_op, init_node_params
from repro.nn.shapes import infer_shapes
from repro.utils.rng import as_rng

__all__ = ["initialize", "forward", "forward_backward", "predict"]


def initialize(graph: Graph, seed: int | np.random.Generator = 0) -> Graph:
    """Allocate and initialize all parameters and buffers of ``graph``."""
    rng = as_rng(seed)
    shapes = infer_shapes(graph)
    for node in graph:
        if node.op == "input":
            continue
        in_shape = shapes[node.inputs[0]]
        init_node_params(node, graph, in_shape, rng)
    return graph


def forward(
    graph: Graph,
    x: np.ndarray,
    train: bool = False,
    keep_caches: bool = False,
):
    """Run the network on a batch.

    Returns ``(logits, activations, caches)``; ``activations`` maps node
    names to outputs, ``caches`` holds per-node backward state (empty unless
    ``keep_caches``).
    """
    if graph.output_name is None:
        raise ConfigurationError("graph has no declared output node")
    activations: dict[str, np.ndarray] = {}
    caches: dict[str, dict] = {}
    for node in graph:
        if node.op == "input":
            activations[node.name] = np.asarray(x, dtype=np.float32)
            continue
        xs = [activations[src] for src in node.inputs]
        y, cache = forward_op(node, graph, xs, train or keep_caches)
        activations[node.name] = y
        if keep_caches:
            caches[node.name] = cache
    return activations[graph.output_name], activations, caches


def forward_backward(
    graph: Graph,
    x: np.ndarray,
    grad_fn,
):
    """Forward pass plus full backpropagation.

    Parameters
    ----------
    grad_fn:
        Callable mapping the logits to ``(loss, grad_logits)``; typically a
        closure over the batch labels from :mod:`repro.nn.loss`.

    Returns
    -------
    ``(loss, grads)`` where ``grads[node][param]`` aligns with
    ``graph.params``.
    """
    logits, activations, caches = forward(graph, x, train=True, keep_caches=True)
    loss, grad_logits = grad_fn(logits)

    grad_of: dict[str, np.ndarray] = {graph.output_name: grad_logits}
    param_grads: dict[str, dict[str, np.ndarray]] = {}
    # Nothing reads the graph input's gradient.
    inputs = {node.name for node in graph if node.op == "input"}

    for node in reversed(graph.nodes):
        if node.op == "input" or node.name not in grad_of:
            continue
        grad_y = grad_of.pop(node.name)
        needed = not inputs.issuperset(node.inputs)
        p_grads, in_grads = backward_op(node, graph, caches[node.name], grad_y, needed)
        if p_grads:
            param_grads[node.name] = p_grads
        for src, g in zip(node.inputs, in_grads):
            if src in grad_of:
                grad_of[src] = grad_of[src] + g
            else:
                grad_of[src] = g
    return loss, param_grads


def predict(graph: Graph, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Class predictions (argmax over logits) in evaluation mode, batched."""
    outputs = []
    for start in range(0, len(x), batch_size):
        logits, _, _ = forward(graph, x[start : start + batch_size], train=False)
        outputs.append(np.argmax(logits, axis=1))
    return np.concatenate(outputs)
