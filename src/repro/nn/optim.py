"""Optimizers operating on graph parameters.

Both optimizers update ``graph.params`` in place from the gradient pytrees
returned by :func:`repro.nn.executor.forward_backward`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph import Graph

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class holding the target graph and a learning rate."""

    def __init__(self, graph: Graph, lr: float):
        if not np.isfinite(lr) or lr <= 0:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        self.graph = graph
        self.lr = lr

    def step(self, grads: dict[str, dict[str, np.ndarray]]) -> None:
        """Apply one update from ``grads[node][param]``."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        graph: Graph,
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        super().__init__(graph, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[tuple[str, str], np.ndarray] = {}

    def step(self, grads: dict[str, dict[str, np.ndarray]]) -> None:
        for node_name, group in grads.items():
            for param_name, grad in group.items():
                key = (node_name, param_name)
                param = self.graph.params[node_name][param_name]
                if self.weight_decay and param_name == "weight":
                    grad = grad + self.weight_decay * param
                vel = self._velocity.get(key)
                vel = grad if vel is None else self.momentum * vel + grad
                self._velocity[key] = vel
                param -= self.lr * vel


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        graph: Graph,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(graph, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[tuple[str, str], np.ndarray] = {}
        self._v: dict[tuple[str, str], np.ndarray] = {}
        self._t = 0

    def step(self, grads: dict[str, dict[str, np.ndarray]]) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for node_name, group in grads.items():
            for param_name, grad in group.items():
                key = (node_name, param_name)
                param = self.graph.params[node_name][param_name]
                if self.weight_decay and param_name == "weight":
                    grad = grad + self.weight_decay * param
                m = self._m.get(key, np.zeros_like(grad))
                v = self._v.get(key, np.zeros_like(grad))
                m = self.beta1 * m + (1 - self.beta1) * grad
                v = self.beta2 * v + (1 - self.beta2) * grad * grad
                self._m[key], self._v[key] = m, v
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                param -= self.lr * update
