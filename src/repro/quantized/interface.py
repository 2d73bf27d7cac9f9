"""Injection interface between quantized execution and the fault simulator.

Quantized layers call these hooks at well-defined points of their integer
pipelines.  The base class is a no-op, so quantized inference has zero
fault-simulation overhead unless an injector is supplied; the concrete
implementations live in :mod:`repro.faultsim`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Injector"]


class Injector:
    """No-op injector; subclass and override the hooks you need.

    All hooks mutate the passed accumulator arrays in place (they are
    integer working buffers owned by the layer's forward pass).
    """

    def begin_inference(self, batch_size: int) -> None:
        """Called once per quantized forward pass before any layer runs."""

    def visit_direct(self, layer, x_int: np.ndarray, cols: np.ndarray, acc: np.ndarray) -> None:
        """Direct conv/GEMM: ``acc`` is the (N, K, P, Q) integer accumulator.

        ``cols`` is the strided ``(N, C, R, S, P, Q)`` im2col patches view
        of ``x_int`` (:func:`repro.utils.im2col.im2col_patches`); it is
        read in place, never materialized.
        """

    def visit_linear(self, layer, x_int: np.ndarray, acc: np.ndarray) -> None:
        """Fully-connected: ``acc`` is the (N, F) integer accumulator."""

    def visit_winograd(self, layer, sub_contexts: list, y_scaled: np.ndarray) -> None:
        """Winograd conv: ``sub_contexts`` pairs ``(SubConvSpec, WinogradConvContext)``
        and ``y_scaled`` is the summed, scaled integer output accumulator."""

    def visit_output(self, layer, y_int: np.ndarray) -> np.ndarray:
        """Requantized layer output; return the (possibly modified) array.

        Used by the neuron-level injector, which flips bits in stored
        activation values rather than in operation results.
        """
        return y_int
