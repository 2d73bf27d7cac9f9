"""Fault-model configuration.

The model realizes the paper's operation-level fault abstraction: a soft
error flips one bit of a register involved in one primitive operation
(multiply or add) of the convolution/GEMM datapath.

Semantics
---------
``PAPER`` (default) flips *operation result registers*, with register
widths taken from the fixed-point datapath the paper assumes:

* **Multiplication faults** flip one bit of the product-result register,
  which is ``2 * width`` bits wide (a W x W multiplier produces a 2W-bit
  product).  High product bits reach the magnitude of whole-layer
  accumulations, so multiplication faults are the dominant error class —
  the paper's central observation, and the property Winograd exploits by
  executing 2.25x fewer multiplications.
* **Addition faults** flip one bit of the sum register.  Sum registers are
  ``width + acc_guard`` bits at the native LSB, capped to the stage's
  actual dynamic range, so addition faults inject bounded low-order noise.

``RESULT_ALL`` is an ablation that gives multiplications the same
register width as additions (no wide product register); the benchmark
``benchmarks/bench_ablation_semantics.py`` quantifies how the paper's
conclusions depend on this modeling choice.

Bit-error-rate convention
-------------------------
``PER_BIT`` (default): the BER is the per-bit flip probability, so a
category with ``n`` ops of exposure ``w`` bits each sees
``lambda = ber * n * w`` expected faults.  ``PER_OP`` treats the BER as a
per-operation probability (``lambda = ber * n``).  The paper's phrasing
("probability of a bit flip in an operation") is compatible with either;
PER_BIT additionally explains why int16 models degrade earlier than int8
ones at the same BER (twice the exposed bits), which Fig. 2 reports.

Fault sampling
--------------
Every draw is a pure function of ``(campaign seed, layer, site, sample
chunk)`` via keyed Philox streams (:func:`repro.utils.rng.site_rng`);
event counts and coordinates are sampled per fixed-size chunk of
``chunk_samples`` evaluation samples, so any partition of the sample set
— slice sizes, batch sizes, worker counts — reproduces bit-identical
faults (:mod:`repro.faultsim.sampling`).  The chunking is part of a
campaign's identity (:meth:`FaultModelConfig.rng_identity`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import FaultModelError

__all__ = [
    "FaultSemantics",
    "BerConvention",
    "FaultModelConfig",
]


class FaultSemantics(Enum):
    """How a fault event perturbs an operation."""

    PAPER = "paper"
    RESULT_ALL = "result_all"


class BerConvention(Enum):
    """What probability the bit error rate denotes."""

    PER_BIT = "per_bit"
    PER_OP = "per_op"


@dataclass(frozen=True)
class FaultModelConfig:
    """Tunable parameters of the operation-level fault model.

    Attributes
    ----------
    semantics:
        Operand-amplified multiplies (``PAPER``) or pure result flips.
    convention:
        Per-bit or per-operation BER.
    max_events_per_category:
        Safety cap on sampled events per (layer, site, chunk) — the unit a
        Poisson count is drawn for, which keeps capping itself
        partition-invariant.  BERs past the accuracy cliff can request
        millions of events whose effect saturates long before that; the
        cap is high enough not to bias any reported operating point
        (a campaign unit warns once, naming its BER and seed, when it
        binds).
    chunk_samples:
        Sampling granularity: Poisson event counts and fault coordinates
        are drawn per chunk of this many consecutive evaluation samples.
        Part of a campaign's identity (a different chunking is a
        different Monte-Carlo draw).
    """

    semantics: FaultSemantics = FaultSemantics.PAPER
    convention: BerConvention = BerConvention.PER_BIT
    max_events_per_category: int = 20_000
    #: When True, Winograd input-transform addition faults are propagated
    #: with full physical fidelity: the corrupted ``U`` element multiplies
    #: the transformed weights and fans out to every output channel of its
    #: tile.  The paper's model (and the default) treats every addition as a
    #: small perturbation of the additive chain it belongs to; the amplified
    #: variant is an ablation (``benchmarks/bench_ablation_semantics.py``)
    #: showing how strongly the Winograd advantage depends on this choice.
    amplify_input_transform_adds: bool = False
    chunk_samples: int = 8

    def __post_init__(self) -> None:
        if self.max_events_per_category < 1:
            raise FaultModelError("max_events_per_category must be >= 1")
        if self.chunk_samples < 1:
            raise FaultModelError("chunk_samples must be >= 1")

    def rng_identity(self) -> dict:
        """Sampling fields that belong in a campaign's content identity.

        Read by checkpoint hashing
        (:func:`repro.runtime.hashing.campaign_fingerprint`), the one
        place results are keyed.  The constant ``"rng_scheme":
        "counter"`` entry names the keyed sampling protocol: it keeps
        every key recorded since that protocol was introduced valid,
        while entries recorded under the retired sequential-stream
        protocol (which carried no such entry) are never matched and
        simply get recomputed.
        """
        return {"rng_scheme": "counter", "chunk_samples": self.chunk_samples}

    def exposure_bits(self, is_mul: bool, data_width: int, acc_width: int) -> int:
        """Bits of state exposed per operation for lambda computation.

        A multiplier exposes its two operand latches (``2 * width`` bits);
        an adder exposes its sum register (``acc_width`` bits).  Under
        ``RESULT_ALL`` semantics multiplies expose a single result register
        of ``acc_width`` bits instead.
        """
        if self.convention is BerConvention.PER_OP:
            return 1
        if is_mul and self.semantics is FaultSemantics.PAPER:
            return 2 * data_width
        return acc_width
