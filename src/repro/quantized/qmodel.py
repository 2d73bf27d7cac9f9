"""Quantized model container and integer inference executor."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import DEFAULT_BACKEND, get_backend
from repro.errors import ConfigurationError
from repro.fixedpoint import QFormat
from repro.quantized.interface import Injector
from repro.quantized.qconfig import QuantConfig
from repro.quantized.qops import QConvDirect, QConvWinograd, QLinear, QNode
from repro.winograd.opcount import OpCounts

__all__ = ["QuantizedModel"]


@dataclass
class QuantizedModel:
    """A fully quantized network ready for integer inference.

    Built by :func:`repro.quantized.quantizer.quantize_model`; holds the
    topologically ordered quantized nodes, the conv execution mode and the
    quantization config.  The fault injector receives per-layer visits
    during :meth:`forward`.
    """

    name: str
    conv_mode: str
    config: QuantConfig
    nodes: list[QNode]
    output_name: str
    input_shape: tuple[int, int, int]
    #: Annotations set by experiment drivers (benchmark, fault-free accuracy).
    metadata: dict = field(default_factory=dict)
    #: Kernel backend serving the per-layer hot paths (see
    #: :mod:`repro.backends`).  Execution strategy only: every backend is
    #: bit-identical by contract, so this field is deliberately excluded
    #: from model fingerprints and checkpoint keys.
    kernel_backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        self._by_name = {node.name: node for node in self.nodes}
        if self.output_name not in self._by_name:
            raise ConfigurationError(f"unknown output node '{self.output_name}'")
        if self.kernel_backend != DEFAULT_BACKEND:
            self.set_kernel_backend(self.kernel_backend)

    def set_kernel_backend(self, name: str) -> "QuantizedModel":
        """Select the kernel backend for this model and all its nodes.

        The seam the differential tests use to run the ``reference``
        oracle; production models keep :data:`DEFAULT_BACKEND`.
        Validates the name against the backend registry (raising
        :class:`~repro.errors.ConfigurationError` for unknown names),
        then propagates it to every backend-aware node.  Node
        state stays a plain string — instances resolve lazily per
        process, so models remain picklable and fork-safe.  Returns
        ``self`` for chaining.
        """
        get_backend(name)  # validate eagerly, before any worker forks
        self.kernel_backend = name
        for node in self.nodes:
            if hasattr(node, "kernel_backend"):
                node.kernel_backend = name
        return self

    # --- structure queries -------------------------------------------------------
    def node(self, name: str) -> QNode:
        """Look up a quantized node by name."""
        return self._by_name[name]

    def injectable_layers(self) -> list[QNode]:
        """Weight-bearing layers (conv + linear) in topological order."""
        return [
            n
            for n in self.nodes
            if isinstance(n, (QConvDirect, QConvWinograd, QLinear))
        ]

    def layer_op_counts(self) -> dict[str, OpCounts]:
        """Per-layer primitive-op census (per image)."""
        return {n.name: n.op_counts for n in self.injectable_layers()}

    def total_op_counts(self) -> OpCounts:
        """Whole-network primitive-op census (per image)."""
        total = OpCounts()
        for layer in self.injectable_layers():
            total = total + layer.op_counts
        return total

    @property
    def output_fmt(self) -> QFormat:
        """Format of the logits."""
        return self._by_name[self.output_name].out_fmt

    # --- inference ---------------------------------------------------------------
    def forward(
        self, x: np.ndarray, injector: Injector | None = None
    ) -> np.ndarray:
        """Integer forward pass; returns stored-integer logits.

        ``x`` is float input data (quantized by the input node) of shape
        ``(N, C, H, W)``.
        """
        return self.forward_trace(x, injector)[self.output_name]

    def forward_trace(
        self,
        x: np.ndarray,
        injector: Injector | None = None,
        start: int = 0,
        prefix: dict[str, np.ndarray] | None = None,
        observe=None,
    ) -> dict[str, np.ndarray]:
        """Integer forward pass returning the node outputs it holds, by name.

        :meth:`forward` returns this trace's output node.  A forward may
        start at node index ``start`` when ``prefix`` supplies every value
        that nodes from ``start`` on (and the output) read; the injector
        still sees the batch begin.  ``observe(index, values)``, when
        given, runs before each node with the values computed so far.
        """
        if injector is not None:
            injector.begin_inference(x.shape[0])
        values: dict[str, np.ndarray] = dict(prefix or {})
        for index in range(start, len(self.nodes)):
            node = self.nodes[index]
            if observe is not None:
                observe(index, values)
            xs = [x] if node.op == "QInput" else [values[src] for src in node.inputs]
            values[node.name] = node.forward(xs, injector)
        return values

    def logits(self, x: np.ndarray, injector: Injector | None = None) -> np.ndarray:
        """Dequantized (real-valued) logits."""
        out = self.forward(x, injector)
        return out.astype(np.float64) * self.output_fmt.scale

    def predict(
        self,
        x: np.ndarray,
        injector: Injector | None = None,
        batch_size: int = 128,
    ) -> np.ndarray:
        """Class predictions under optional fault injection."""
        preds = []
        for start in range(0, len(x), batch_size):
            out = self.forward(x[start : start + batch_size], injector)
            preds.append(np.argmax(out, axis=1))
        return np.concatenate(preds)

    def evaluate(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        injector: Injector | None = None,
        batch_size: int = 128,
    ) -> float:
        """Top-1 accuracy under optional fault injection."""
        preds = self.predict(x, injector, batch_size=batch_size)
        return float((preds == labels).mean())
