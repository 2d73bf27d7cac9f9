"""Monte-Carlo fault-injection campaigns.

A campaign evaluates a quantized model's accuracy under fault injection for
one or more bit error rates, averaging over independent seeds.  Results
carry both the raw BER and the expected-faults-per-inference (lambda),
which is the axis that transfers across model scales (see DESIGN.md §2).

The module is factored around one *pure* unit of work,
:func:`evaluate_seed_point`: the accuracy of one (BER, seed, protection)
evaluation depends only on its arguments, never on any other point of the
sweep.  That makes each unit independently dispatchable — the parallel
campaign engine (:mod:`repro.runtime`) wraps it in a
:class:`~repro.runtime.TaskSpec`, shards task batches across a worker pool
and recombines them with :func:`combine_seed_results`, bit-identical to
the serial loop in :func:`run_point`.

The unit splits further: :func:`evaluate_sample_slice` scores
one contiguous slice of the evaluation samples, and
:func:`combine_slice_results` folds a full partition of slices back into
the exact :class:`SeedPointResult` the unsliced evaluation produces —
bit-identical for *any* slice size, because every fault draw is keyed by
(seed, layer, site, sample chunk) rather than by stream position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, FaultModelError
from repro.faultsim.abft import AbftChecker
from repro.faultsim.model import FaultModelConfig
from repro.faultsim.neuron_level import NeuronLevelInjector
from repro.faultsim.operation_level import OperationLevelInjector
from repro.faultsim.protection import ProtectionPlan
from repro.faultsim.sites import expected_faults_per_image
from repro.quantized.qmodel import QuantizedModel

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "SeedPointResult",
    "SampleSliceResult",
    "campaign_lambda",
    "combine_seed_results",
    "combine_slice_results",
    "evaluate_seed_point",
    "evaluate_sample_slice",
    "run_point",
    "run_sweep",
    "validate_ber",
]

INJECTOR_OPERATION = "operation"
INJECTOR_NEURON = "neuron"


def validate_ber(ber: float) -> float:
    """Validate a bit error rate at the task boundary; returns it as float.

    A NaN or negative BER would otherwise flow straight into Poisson
    lambdas (silently poisoning draws) *and* into content-hashed
    checkpoint keys — producing persisted rows a resume can never
    reconcile, because the poisoned key is as stable as a valid one.
    Rejecting here, before any unit runs or any key is derived, keeps the
    checkpoint free of garbage identities.  Probabilities are accepted on
    the closed interval: 0 (fault-free golden point) and 1 are both
    meaningful.
    """
    try:
        ber = float(ber)
    except (TypeError, ValueError):
        raise ConfigurationError(f"ber must be a real number, got {ber!r}") from None
    if math.isnan(ber):
        raise ConfigurationError("ber must not be NaN")
    if not 0.0 <= ber <= 1.0:
        raise ConfigurationError(
            f"ber must be a probability in [0, 1], got {ber!r}"
        )
    return ber


@dataclass(frozen=True)
class CampaignConfig:
    """Evaluation parameters shared by all points of a campaign."""

    seeds: tuple[int, ...] = (0, 1, 2)
    batch_size: int = 64
    injector: str = INJECTOR_OPERATION
    fault_config: FaultModelConfig = field(default_factory=FaultModelConfig)
    #: Optional limit on evaluation samples (None = use all provided).
    max_samples: int | None = None


@dataclass
class CampaignResult:
    """Accuracy statistics for one (model, BER) operating point."""

    ber: float
    lam: float
    mean_accuracy: float
    std_accuracy: float
    per_seed: list[float]
    events_per_seed: list[int]

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "ber": self.ber,
            "lambda": self.lam,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "per_seed": self.per_seed,
            "events_per_seed": self.events_per_seed,
        }


@dataclass(frozen=True)
class SeedPointResult:
    """Outcome of one (BER, seed) evaluation — the atomic campaign unit."""

    ber: float
    seed: int
    accuracy: float
    events: int

    def to_dict(self) -> dict:
        """JSON-serializable form (checkpoint record)."""
        return {
            "ber": self.ber,
            "seed": self.seed,
            "accuracy": self.accuracy,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "SeedPointResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ber=float(row["ber"]),
            seed=int(row["seed"]),
            accuracy=float(row["accuracy"]),
            events=int(row["events"]),
        )


@dataclass(frozen=True)
class SampleSliceResult:
    """Outcome of one (BER, seed) evaluation over a sample slice.

    The sub-seed campaign unit: ``[start, stop)`` indexes the
    (``max_samples``-trimmed) evaluation set, and correct/total counts —
    not a ratio — are carried so a partition of slices recombines into the
    *exact* accuracy of the unsliced evaluation
    (:func:`combine_slice_results`), because fault draws are
    partition-invariant.
    """

    ber: float
    seed: int
    start: int
    stop: int
    correct: int
    total: int
    events: int

    @property
    def accuracy(self) -> float:
        """Slice-local accuracy (progress reporting; reduction uses counts)."""
        return float(self.correct) / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (checkpoint record)."""
        return {
            "ber": self.ber,
            "seed": self.seed,
            "start": self.start,
            "stop": self.stop,
            "correct": self.correct,
            "total": self.total,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "SampleSliceResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            ber=float(row["ber"]),
            seed=int(row["seed"]),
            start=int(row["start"]),
            stop=int(row["stop"]),
            correct=int(row["correct"]),
            total=int(row["total"]),
            events=int(row["events"]),
        )


def _make_injector(
    config: CampaignConfig, ber: float, seed: int, protection, sample_base: int = 0
):
    """Build the injector for one evaluation unit.

    An operation-level campaign whose plan marks ABFT layers gets its base
    injector wrapped in a correcting :class:`~repro.faultsim.abft.AbftChecker`
    restricted to those layers — faults are injected in full (ABFT layers
    keep their TMR fractions at 0) and then detected/repaired at the
    accumulator.  Neuron-level faults flip bits *after* requantization,
    outside the accumulator checksum's protection domain, so the neuron
    injector is never wrapped (a wrap would silently change nothing but
    cost a checksum per layer).
    """
    if config.injector == INJECTOR_NEURON:
        return NeuronLevelInjector(
            ber, seed=seed, config=config.fault_config, sample_base=sample_base
        )
    if config.injector == INJECTOR_OPERATION:
        injector = OperationLevelInjector(
            ber,
            seed=seed,
            config=config.fault_config,
            protection=protection,
            sample_base=sample_base,
        )
        abft_layers = (
            protection.abft_layers if protection is not None else frozenset()
        )
        if abft_layers:
            return AbftChecker(injector, layers=abft_layers, correct=True)
        return injector
    raise ValueError(f"unknown injector kind '{config.injector}'")


def evaluate_seed_point(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    seed: int,
    config: CampaignConfig | None = None,
    protection: ProtectionPlan | None = None,
) -> SeedPointResult:
    """Evaluate accuracy for exactly one (BER, seed) pair.

    Pure with respect to the sweep: the result depends only on the
    arguments (the injector owns its RNG, seeded here), so units may be
    executed in any order or on any process and recombined afterwards.
    """
    config = config or CampaignConfig()
    ber = validate_ber(ber)
    if config.max_samples is not None:
        x, labels = x[: config.max_samples], labels[: config.max_samples]
    if ber == 0.0:
        accuracy = qmodel.evaluate(x, labels, batch_size=config.batch_size)
        return SeedPointResult(ber=ber, seed=seed, accuracy=float(accuracy), events=0)
    injector = _make_injector(config, ber, seed, protection)
    accuracy = qmodel.evaluate(
        x, labels, injector=injector, batch_size=config.batch_size
    )
    return SeedPointResult(
        ber=ber,
        seed=seed,
        accuracy=float(accuracy),
        events=int(sum(injector.event_counts.values())),
    )


def evaluate_sample_slice(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    seed: int,
    sample_slice: tuple[int, int],
    config: CampaignConfig | None = None,
    protection: ProtectionPlan | None = None,
) -> SampleSliceResult:
    """Evaluate one (BER, seed) pair over one slice of the sample set.

    ``sample_slice`` is a ``[start, stop)`` window into the
    (``max_samples``-trimmed) evaluation set.  Pure like
    :func:`evaluate_seed_point`, and additionally *partition-invariant*:
    the faults a sample receives depend only on its dataset-global index,
    never on which slice or batch carries it, so any disjoint cover of
    ``[0, N)`` recombines (:func:`combine_slice_results`) into exactly the
    unsliced result.
    """
    config = config or CampaignConfig()
    ber = validate_ber(ber)
    if config.max_samples is not None:
        x, labels = x[: config.max_samples], labels[: config.max_samples]
    start, stop = int(sample_slice[0]), int(sample_slice[1])
    if not 0 <= start < stop <= len(x):
        raise ConfigurationError(
            f"sample slice [{start}, {stop}) out of range for {len(x)} samples"
        )
    xs, ys = x[start:stop], labels[start:stop]
    if ber == 0.0:
        preds = qmodel.predict(xs, batch_size=config.batch_size)
        return SampleSliceResult(
            ber=ber, seed=seed, start=start, stop=stop,
            correct=int((preds == ys).sum()), total=stop - start, events=0,
        )
    injector = _make_injector(config, ber, seed, protection, sample_base=start)
    preds = qmodel.predict(xs, injector=injector, batch_size=config.batch_size)
    return SampleSliceResult(
        ber=ber,
        seed=seed,
        start=start,
        stop=stop,
        correct=int((preds == ys).sum()),
        total=stop - start,
        events=int(sum(injector.event_counts.values())),
    )


def combine_slice_results(
    slices: list[SampleSliceResult],
    expected_total: int | None = None,
) -> SeedPointResult:
    """Fold a full partition of sample slices into one :class:`SeedPointResult`.

    ``slices`` must cover ``[0, N)`` contiguously (any order); all slices
    must belong to the same (BER, seed) point.  Pass ``expected_total``
    (the engine passes its sample count) to also reject a cover that
    stops short of the set's end — without it a truncated-but-contiguous
    cover is indistinguishable from a complete one.  The accuracy is
    computed as ``total correct / total samples`` — the same
    integer-valued float division ``QuantizedModel.evaluate`` performs —
    so the reduction is bit-identical to the unsliced evaluation.
    """
    if not slices:
        raise ConfigurationError("combine_slice_results needs at least one slice")
    ordered = sorted(slices, key=lambda s: s.start)
    first = ordered[0]
    cursor = 0
    for part in ordered:
        if (part.ber, part.seed) != (first.ber, first.seed):
            raise ConfigurationError(
                "slices mix (BER, seed) points: "
                f"({part.ber}, {part.seed}) vs ({first.ber}, {first.seed})"
            )
        if part.start != cursor:
            raise ConfigurationError(
                f"slice cover has a gap/overlap at sample {cursor} "
                f"(next slice starts at {part.start})"
            )
        cursor = part.stop
    if expected_total is not None and cursor != expected_total:
        raise ConfigurationError(
            f"slice cover stops at sample {cursor}, expected {expected_total}"
        )
    total = sum(part.total for part in ordered)
    correct = sum(part.correct for part in ordered)
    return SeedPointResult(
        ber=first.ber,
        seed=first.seed,
        accuracy=float(correct) / total if total else 0.0,
        events=int(sum(part.events for part in ordered)),
    )


def campaign_lambda(
    qmodel: QuantizedModel,
    ber: float,
    config: CampaignConfig,
    protection: ProtectionPlan | None = None,
) -> float:
    """Expected faults per inference for one BER under this campaign.

    Raises :class:`~repro.errors.FaultModelError` when the rate is not
    finite — the upstream symptom of a poisoned BER or an overflowing op
    census, caught here before it reaches a Poisson draw.
    """
    ber = validate_ber(ber)
    if config.injector == INJECTOR_OPERATION:
        lam = expected_faults_per_image(qmodel, ber, config.fault_config, protection)
    else:
        lam = ber * sum(
            np.prod(layer.out_shape) * layer.out_fmt.width
            for layer in qmodel.injectable_layers()
        )
    lam = float(lam)
    if not math.isfinite(lam):
        raise FaultModelError(
            f"expected fault rate is not finite ({lam!r}) at BER {ber!r}"
        )
    return lam


def combine_seed_results(
    qmodel: QuantizedModel,
    ber: float,
    seed_results: list[SeedPointResult],
    config: CampaignConfig,
    protection: ProtectionPlan | None = None,
) -> CampaignResult:
    """Fold per-seed results (in campaign seed order) into a CampaignResult.

    The statistics are computed exactly as the serial loop computes them, so
    engine-recombined sweeps are bit-identical to :func:`run_point`.
    """
    accuracies = [r.accuracy for r in seed_results]
    return CampaignResult(
        ber=ber,
        lam=campaign_lambda(qmodel, ber, config, protection),
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        per_seed=[float(a) for a in accuracies],
        events_per_seed=[r.events for r in seed_results],
    )


def run_point(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    config: CampaignConfig | None = None,
    protection: ProtectionPlan | None = None,
) -> CampaignResult:
    """Evaluate accuracy at one BER, averaged over the configured seeds."""
    config = config or CampaignConfig()
    seed_results = [
        evaluate_seed_point(
            qmodel, x, labels, ber, seed, config=config, protection=protection
        )
        for seed in config.seeds
    ]
    return combine_seed_results(qmodel, ber, seed_results, config, protection)


def run_sweep(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    bers: list[float],
    config: CampaignConfig | None = None,
    protection: ProtectionPlan | None = None,
) -> list[CampaignResult]:
    """Evaluate a list of BER points (Fig. 2-style accuracy curves)."""
    return [
        run_point(qmodel, x, labels, ber, config=config, protection=protection)
        for ber in bers
    ]
