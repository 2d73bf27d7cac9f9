"""Mini-batch training loop with accuracy tracking and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, TrainingError
from repro.nn.executor import forward_backward, predict
from repro.nn.graph import Graph
from repro.nn.loss import make_cross_entropy_grad_fn
from repro.nn.optim import Optimizer
from repro.utils.rng import as_rng

__all__ = ["TrainConfig", "TrainResult", "evaluate_accuracy", "train"]


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`train`."""

    epochs: int = 10
    batch_size: int = 64
    #: Stop as soon as held-out accuracy reaches this level (1.0 disables).
    target_accuracy: float = 0.995
    #: Multiply the learning rate by this factor each epoch.
    lr_decay: float = 0.85
    shuffle_seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"TrainConfig.{name} must be at least 1, got {getattr(self, name)}"
                )


@dataclass
class TrainResult:
    """Outcome of a training run."""

    epochs_run: int
    final_train_loss: float
    final_eval_accuracy: float
    history: list[dict] = field(default_factory=list)


def evaluate_accuracy(graph: Graph, x: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``graph`` on ``(x, labels)``."""
    preds = predict(graph, x)
    return float((preds == labels).mean())


def train(
    graph: Graph,
    optimizer: Optimizer,
    train_x: np.ndarray,
    train_y: np.ndarray,
    eval_x: np.ndarray,
    eval_y: np.ndarray,
    config: TrainConfig | None = None,
) -> TrainResult:
    """Train ``graph`` in place until the accuracy target or epoch budget.

    Raises :class:`TrainingError` if the loss becomes non-finite, which in
    this library almost always indicates an unstable learning rate.
    """
    config = config or TrainConfig()
    if len(train_x) != len(train_y):
        raise TrainingError("train_x and train_y length mismatch")
    rng = as_rng(config.shuffle_seed)
    history: list[dict] = []
    last_loss = float("nan")
    accuracy = 0.0

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_x))
        losses = []
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_x, batch_y = train_x[idx], train_y[idx]
            loss, grads = forward_backward(
                graph, batch_x, make_cross_entropy_grad_fn(batch_y)
            )
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}: lower the learning rate"
                )
            optimizer.step(grads)
            losses.append(loss)
        last_loss = float(np.mean(losses))
        accuracy = evaluate_accuracy(graph, eval_x, eval_y)
        history.append({"epoch": epoch, "loss": last_loss, "accuracy": accuracy})
        if config.verbose:
            print(f"[{graph.name}] epoch {epoch}: loss={last_loss:.4f} acc={accuracy:.3f}")
        optimizer.lr *= config.lr_decay
        if accuracy >= config.target_accuracy:
            break

    return TrainResult(
        epochs_run=len(history),
        final_train_loss=last_loss,
        final_eval_accuracy=accuracy,
        history=history,
    )
