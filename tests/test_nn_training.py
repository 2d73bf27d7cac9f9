"""Tests for shapes, loss, optimizers and the training loop."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError, TrainingError
from repro.nn import (
    SGD,
    Adam,
    GraphBuilder,
    TrainConfig,
    cross_entropy_with_logits,
    evaluate_accuracy,
    forward,
    infer_shapes,
    initialize,
    softmax,
    train,
)


class TestInferShapes:
    def test_vgg_like_shapes(self):
        b = GraphBuilder("t", (3, 32, 32))
        x = b.conv2d(b.input_node, 8, 3, padding=1, name="c1")
        x = b.maxpool2d(x, 2, name="p1")
        x = b.conv2d(x, 16, 3, stride=2, padding=1, name="c2")
        x = b.globalavgpool(x, name="g")
        x = b.flatten(x, name="f")
        b.output(b.linear(x, 10, name="fc"))
        shapes = infer_shapes(b.graph)
        assert shapes["c1"] == (8, 32, 32)
        assert shapes["p1"] == (8, 16, 16)
        assert shapes["c2"] == (16, 8, 8)
        assert shapes["g"] == (16, 1, 1)
        assert shapes["f"] == (16,)
        assert shapes["fc"] == (10,)

    def test_concat_channel_sum(self):
        b = GraphBuilder("t", (3, 8, 8))
        x = b.conv2d(b.input_node, 4, 1, name="c1")
        y = b.conv2d(b.input_node, 6, 1, name="c2")
        z = b.concat([x, y], name="cat")
        b.output(b.flatten(z, name="f"))
        assert infer_shapes(b.graph)["cat"] == (10, 8, 8)

    def test_add_mismatch_raises(self):
        b = GraphBuilder("t", (3, 8, 8))
        x = b.conv2d(b.input_node, 4, 1, name="c1")
        y = b.conv2d(b.input_node, 6, 1, name="c2")
        b.add(x, y, name="bad")
        with pytest.raises(ShapeError):
            infer_shapes(b.graph)

    def test_shapes_match_execution(self, tiny_trained, tiny_dataset):
        shapes = infer_shapes(tiny_trained)
        _, acts, _ = forward(tiny_trained, tiny_dataset.test_x[:2])
        for name, shape in shapes.items():
            assert acts[name].shape[1:] == tuple(shape)


class TestLoss:
    def test_softmax_normalizes(self, rng):
        probs = softmax(rng.standard_normal((5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad = cross_entropy_with_logits(logits, np.array([0, 1]))
        assert loss < 1e-6
        assert np.abs(grad).max() < 1e-6

    def test_gradient_sums_to_zero_per_row(self, rng):
        logits = rng.standard_normal((4, 5))
        _, grad = cross_entropy_with_logits(logits, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-7)


class TestOptimizers:
    def _quadratic_graph(self):
        b = GraphBuilder("q", (1, 1, 1))
        x = b.flatten(b.input_node)
        b.output(b.linear(x, 2, name="fc"))
        g = b.graph
        initialize(g, 0)
        return g

    @pytest.mark.parametrize("optimizer_cls,lr", [(SGD, 0.1), (Adam, 0.05)])
    def test_reduces_loss(self, optimizer_cls, lr):
        from repro.nn import forward_backward, make_cross_entropy_grad_fn

        g = self._quadratic_graph()
        opt = optimizer_cls(g, lr)
        x = np.array([[[[1.0]]], [[[-1.0]]]], dtype=np.float32)
        labels = np.array([0, 1])
        losses = []
        for _ in range(30):
            loss, grads = forward_backward(g, x, make_cross_entropy_grad_fn(labels))
            opt.step(grads)
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.5

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(self._quadratic_graph(), lr=-1.0)

    @pytest.mark.parametrize("optimizer_cls", [SGD, Adam])
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_lr(self, optimizer_cls, lr):
        with pytest.raises(ValueError, match="finite"):
            optimizer_cls(self._quadratic_graph(), lr=lr)

    def test_weight_decay_shrinks_weights(self):
        g = self._quadratic_graph()
        opt = SGD(g, lr=0.1, momentum=0.0, weight_decay=1.0)
        before = np.abs(g.params["fc"]["weight"]).sum()
        opt.step({"fc": {"weight": np.zeros_like(g.params["fc"]["weight"])}})
        after = np.abs(g.params["fc"]["weight"]).sum()
        assert after < before


class TestTrainLoop:
    def test_trains_to_high_accuracy(self, tiny_trained, tiny_dataset):
        accuracy = evaluate_accuracy(
            tiny_trained, tiny_dataset.test_x, tiny_dataset.test_y
        )
        assert accuracy > 0.8

    def test_early_stop_respects_target(self, tiny_dataset):
        from tests._helpers import build_tiny_cnn

        g = build_tiny_cnn()
        initialize(g, 1)
        result = train(
            g,
            Adam(g, 3e-3),
            tiny_dataset.train_x,
            tiny_dataset.train_y,
            tiny_dataset.test_x,
            tiny_dataset.test_y,
            TrainConfig(epochs=50, batch_size=32, target_accuracy=0.5),
        )
        assert result.epochs_run < 50

    def test_length_mismatch_raises(self, tiny_dataset):
        from tests._helpers import build_tiny_cnn

        g = build_tiny_cnn()
        initialize(g, 0)
        with pytest.raises(TrainingError):
            train(
                g,
                Adam(g, 1e-3),
                tiny_dataset.train_x,
                tiny_dataset.train_y[:-5],
                tiny_dataset.test_x,
                tiny_dataset.test_y,
                TrainConfig(epochs=1),
            )


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_unrunnable_settings(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TrainConfig(**{field: value})

    def test_smallest_runnable_settings_accepted(self):
        config = TrainConfig(epochs=1, batch_size=1)
        assert (config.epochs, config.batch_size) == (1, 1)
