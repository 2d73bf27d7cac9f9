"""Neuron-level fault injector (TensorFI / PyTorchFI-style baseline).

Flips bits of *stored activation values* (layer outputs) rather than of
operation results.  Because standard and Winograd convolution compute
identical activations, this injector cannot distinguish the two execution
modes — the point the paper makes with Fig. 1, and the reason it builds the
operation-level platform.

Like the operation-level injector, its draws are keyed per (seed, layer,
chunk of samples) and therefore invariant under any partition of the
sample axis (see :mod:`repro.faultsim.sampling`).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.fixedpoint.bits import flip_bit
from repro.faultsim.model import BerConvention, FaultModelConfig
from repro.faultsim.sampling import CounterSampler
from repro.quantized.interface import Injector

__all__ = ["NeuronLevelInjector"]


class NeuronLevelInjector(Injector):
    """Flips bits in the quantized outputs of conv and linear layers.

    ``lambda = ber * n_neurons * width`` under the per-bit convention
    (``ber * n_neurons`` per-op), mirroring how neuron-level platforms
    parameterize their injections.

    ``sample_base`` anchors the injector's first evaluation sample on the
    global sample axis, so a sample slice injects exactly the faults the
    full-set run would inject into those samples.
    """

    def __init__(
        self,
        ber: float,
        seed: int = 0,
        config: FaultModelConfig | None = None,
        sample_base: int = 0,
    ):
        if ber < 0:
            raise ValueError(f"ber must be non-negative, got {ber}")
        self.ber = float(ber)
        self.config = config or FaultModelConfig()
        #: Draws every fault event; a campaign may swap in a subclass that
        #: takes sibling units' draws (:mod:`repro.faultsim.campaign`).
        self.sampler = CounterSampler(
            seed, self.ber, self.config, sample_base=sample_base
        )
        self.event_counts: dict[str, int] = defaultdict(int)

    def begin_inference(self, batch_size: int) -> None:
        """Track the forward batch's position on the global sample axis."""
        self.sampler.begin_batch(batch_size)

    def visit_output(self, layer, y_int: np.ndarray) -> np.ndarray:
        """Flip bits of requantized output neurons (post-accumulator)."""
        width = layer.out_fmt.width
        exposure = 1 if self.config.convention is BerConvention.PER_OP else width
        n = y_int.shape[0]
        per_sample = y_int.size // n if n else 0

        events = self.sampler.site_events(
            layer.name, "neuron", n, per_sample, exposure, 1.0, (per_sample,)
        )
        if events is None:
            return y_int
        self.event_counts["neuron"] += len(events)
        rows = y_int.reshape(n, -1)
        img = events.img
        (idx,) = events.coords
        bits = events.bits(width)
        rows[img, idx] = flip_bit(rows[img, idx], bits, width)
        return y_int
