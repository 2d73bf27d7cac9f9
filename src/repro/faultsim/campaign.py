"""Monte-Carlo fault-injection campaigns.

A campaign evaluates a quantized model's accuracy under fault injection for
one or more bit error rates, averaging over independent seeds.  Results
carry both the raw BER and the expected-faults-per-inference (lambda),
which is the axis that transfers across model scales (see DESIGN.md §2).

The module is factored around one *pure* evaluator,
:func:`evaluate_sample_slice`: the correct/total counts of one (BER,
seed, protection) evaluation over one ``[start, stop)`` window of the
evaluation set depend only on its arguments, never on any other point of
the sweep or on how the set is windowed, because every fault draw is
keyed by (seed, layer, site, sample chunk) rather than by stream
position.  :func:`combine_slice_results` folds a full cover of windows
into the :class:`SeedPointResult` of the point, bit-identical for *any*
window size, and :func:`evaluate_seed_point` is that fold over the one
window ``[0, N)``.  The parallel campaign engine (:mod:`repro.runtime`)
dispatches the same windows as its units, folds them per point, and
recombines points with :func:`combine_seed_results`, bit-identical to
the serial loop in :func:`run_point`.  :func:`sample_count` is the one
place ``N`` is worked out (and the evaluation set checked).

The same keying makes a unit's faulty prefix reusable: the evaluator's
:func:`_unit_predictions` starts each batch forward at the first
injectable layer where the unit's plan differs from a retained
sibling's (:class:`_FaultyPrefixes`), with results bit-identical to a
fresh forward.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, FaultModelError
from repro.faultsim.abft import AbftChecker
from repro.faultsim.model import FaultModelConfig
from repro.faultsim.neuron_level import NeuronLevelInjector
from repro.faultsim.operation_level import OperationLevelInjector
from repro.faultsim.protection import SCHEME_NONE, ProtectionPlan
from repro.faultsim.sampling import CounterSampler
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
    "sample_count",
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

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size!r}"
            )
        if self.max_samples is not None and self.max_samples < 1:
            raise ConfigurationError(
                f"max_samples must be None or >= 1, got {self.max_samples!r}"
            )


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
    """Outcome of one (BER, seed) evaluation over a sample window.

    The campaign's unit of work: ``[start, stop)`` indexes the
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


def _make_injector(
    config: CampaignConfig,
    ber: float,
    seed: int,
    protection,
    sample_base: int = 0,
    draws: dict | None = None,
):
    """Build the injector for one evaluation unit; returns it and its sampler.

    An operation-level campaign whose plan marks ABFT layers gets its base
    injector wrapped in a correcting :class:`~repro.faultsim.abft.AbftChecker`
    restricted to those layers — faults are injected in full (ABFT layers
    keep their TMR fractions at 0) and then detected/repaired at the
    accumulator.  Neuron-level faults flip bits *after* requantization,
    outside the accumulator checksum's protection domain, so the neuron
    injector is never wrapped (a wrap would silently change nothing but
    cost a checksum per layer).  Given a sibling ``draws`` table, the base
    injector draws through a :class:`_ReplaySampler` over it.
    """
    if config.injector == INJECTOR_NEURON:
        injector = base = NeuronLevelInjector(
            ber, seed=seed, config=config.fault_config, sample_base=sample_base
        )
    elif config.injector == INJECTOR_OPERATION:
        injector = base = OperationLevelInjector(
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
            injector = AbftChecker(base, layers=abft_layers, correct=True)
    else:
        raise ValueError(f"unknown injector kind '{config.injector}'")
    if draws is not None:
        base.sampler = _ReplaySampler(base.sampler, draws)
    return injector, base.sampler


def sample_count(x: np.ndarray, labels: np.ndarray, config: CampaignConfig) -> int:
    """Evaluation samples a point scores: ``len(x)`` trimmed to ``max_samples``.

    Raises :class:`~repro.errors.ConfigurationError` when the images and
    labels differ in length or the set is empty: either would otherwise
    score images against the wrong labels, or leave a point with no
    sample window to evaluate.
    """
    if len(x) != len(labels):
        raise ConfigurationError(
            f"evaluation set has {len(x)} images but {len(labels)} labels"
        )
    if len(x) == 0:
        raise ConfigurationError("evaluation set is empty")
    if config.max_samples is None:
        return len(x)
    return min(len(x), config.max_samples)


@dataclass(frozen=True)
class _Layout:
    """Where a model's forward may resume, and what each resume point reads.

    ``bounds[j]`` is the node index of the ``j``-th injectable layer, and
    the last entry ``len(nodes)`` stands for "after the whole forward".
    ``live[j]`` names the node values computed before ``bounds[j]`` that
    nodes from it on (or the output) read.
    """

    bounds: tuple[int, ...]
    live: tuple[tuple[str, ...], ...]
    widths: dict[str, int]

    @classmethod
    def of(cls, qmodel: QuantizedModel) -> "_Layout":
        nodes = qmodel.nodes
        position = {node.name: i for i, node in enumerate(nodes)}
        injectable = {layer.name for layer in qmodel.injectable_layers()}
        bounds = tuple(
            i for i, node in enumerate(nodes) if node.name in injectable
        ) + (len(nodes),)
        last_read = {qmodel.output_name: len(nodes)}
        for i, node in enumerate(nodes):
            for src in node.inputs:
                if src in position:
                    last_read[src] = max(last_read.get(src, -1), i)
        live = tuple(
            tuple(
                name for name, i in position.items()
                if i < bound and last_read.get(name, -1) >= bound
            )
            for bound in bounds
        )
        widths = {node.name: node.out_fmt.width for node in nodes}
        return cls(bounds, live, widths)


def _plan_signature(
    qmodel: QuantizedModel, config: CampaignConfig, protection
) -> tuple:
    """Per injectable layer, everything of the plan the injector reads there.

    The operation-level injector thins a layer's draws by that layer's own
    protected fractions and checks it with ABFT by its own scheme; the
    neuron-level injector ignores the plan.
    """
    names = [layer.name for layer in qmodel.injectable_layers()]
    if config.injector != INJECTOR_OPERATION or protection is None:
        return (((), SCHEME_NONE),) * len(names)
    fractions: dict[str, list] = {name: [] for name in names}
    for (layer, category), fraction in protection.fractions.items():
        if fraction and layer in fractions:
            fractions[layer].append((category, fraction))
    return tuple(
        (tuple(sorted(fractions[name])), protection.scheme(name)) for name in names
    )


def _event_delta(now: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """Per-category events counted since ``before``."""
    return {
        category: count - before.get(category, 0)
        for category, count in now.items()
        if count != before.get(category, 0)
    }


def _retain(value: np.ndarray, width: int) -> tuple[np.ndarray, np.dtype]:
    """Read-only copy of a node value, at its format's integer width if it fits."""
    narrow = np.min_scalar_type(-(1 << (width - 1)))
    fits = narrow.kind == "i" and value.size and (
        np.iinfo(narrow).min <= value.min() and value.max() <= np.iinfo(narrow).max
    )
    kept = value.astype(narrow) if fits else value.copy()
    kept.flags.writeable = False
    return kept, value.dtype


@dataclass
class _Trace:
    """One completed batch forward of a unit, kept for its siblings.

    ``counts[j]`` holds the per-category events the batch had drawn
    before resume point ``j``, ``capped[j]`` whether the event cap bound
    on them, and ``values`` the node values some resume point reads, each
    as (read-only copy, original dtype).
    """

    signature: tuple
    counts: list[dict[str, int]]
    capped: list[bool]
    values: dict[str, tuple[np.ndarray, np.dtype]]

    def resume_point(self, signature: tuple) -> int:
        """Index of the first injectable layer whose plan differs (or the end)."""
        for j, (mine, theirs) in enumerate(zip(self.signature, signature)):
            if mine != theirs:
                return j
        return len(signature)

    def prefix(self, names: tuple[str, ...]) -> dict[str, np.ndarray]:
        """Fresh writable copies of the named values, in their original dtype."""
        return {name: self.values[name][0].astype(self.values[name][1]) for name in names}


class _ReplaySampler(CounterSampler):
    """A unit's sampler that shares unprotected sites' draws with siblings.

    ``draws`` is its family's table for the unit's seed, keyed by (layer,
    site, batch start, batch size, chunk rate, highs, signs) — everything
    a draw depends on besides the seed — and holding the frozen events
    and whether the cap bound on them.  A hit is therefore exactly the
    fresh draw; a miss is drawn and recorded.  Thinned (protected) sites
    are drawn fresh and never recorded: their rate follows the plan's
    fraction, which siblings rarely share, and leaving them out bounds
    the table by one unit's unprotected draws.
    """

    def __init__(self, sampler: CounterSampler, draws: dict):
        super().__init__(
            sampler.seed, sampler.ber, sampler.config, sample_base=sampler.batch_start
        )
        self.draws = draws
        #: Site draws taken from the table (diagnostics).
        self.replayed = 0

    def site_events(
        self, layer_name, site, n_batch, ops_per_sample, exposure, thinning, highs,
        with_signs=False,
    ):
        args = (layer_name, site, n_batch, ops_per_sample, exposure, thinning, highs)
        if thinning != 1.0:
            return super().site_events(*args, with_signs=with_signs)
        key = (
            layer_name, site, self.batch_start, n_batch,
            self.chunk_rate(layer_name, site, ops_per_sample, exposure, thinning),
            highs, with_signs,
        )
        entry = self.draws.get(key)
        if entry is None:
            capped, self.capped = self.capped, False
            events = super().site_events(*args, with_signs=with_signs)
            entry = self.draws[key] = (
                None if events is None else events.freeze(), self.capped
            )
            self.capped = capped
        else:
            self.replayed += 1
        self.capped = self.capped or entry[1]
        return entry[0]


class _Family:
    """Per-process forward state of one unit *family*.

    A family is every unit on the same model, evaluation data, sample
    range, batch size, BER, injector kind and fault config — everything
    the injector reads except the plan and the seed — and kernel backend,
    so one backend never serves its prefix to another's differential
    check.  Every fault draw is keyed by (seed, layer, site, chunk) and
    thinned only by its own layer's protected fraction, and node forwards
    are pure, so two units of a family with the same seed compute
    bit-identical node values and events up to the first injectable layer
    where their plans differ, and draw identical events at every
    unprotected site after it.

    ``traces`` keeps the first completed trace per (seed, batch), which
    lets later siblings start there; it is replaced only by a unit that
    shares no prefix with it.  ``draws`` holds per seed the table of a
    :class:`_ReplaySampler`, opened once a trace holds for that seed, so
    a unit with no sibling records no draws.  The data is held by weak
    reference and compared by identity, like the engine's fingerprint
    memo, which assumes it is not mutated while in use.
    """

    def __init__(self, qmodel: QuantizedModel, x: np.ndarray, rest: tuple, on_collect):
        self.model = weakref.ref(qmodel, on_collect)
        self.data = weakref.ref(x)
        self.rest = rest
        self.layout = _Layout.of(qmodel)
        self.traces: dict[tuple[int, int], _Trace] = {}
        self.draws: dict[int, dict[tuple, tuple]] = {}

    def draws_for(self, seed: int) -> dict | None:
        """The seed's sibling draw table, or None while no trace holds for it."""
        if not any(traced == seed for traced, _ in self.traces):
            return None
        return self.draws.setdefault(seed, {})

    def drop(self) -> None:
        """Forget every trace and draw (a unit raised mid-forward)."""
        self.traces.clear()
        self.draws.clear()

    @property
    def nbytes(self) -> int:
        """Bytes of node values and events retained."""
        values = sum(
            kept.nbytes for trace in self.traces.values()
            for kept, _ in trace.values.values()
        )
        return values + sum(
            events.nbytes for table in self.draws.values()
            for events, _ in table.values() if events is not None
        )


class _FaultyPrefixes:
    """Per-process unit families, one per live model.

    Models are keyed by identity and held by weak reference: a model's
    entry goes when the model is collected, and a unit of another family
    on the same model replaces only that model's family.
    """

    def __init__(self) -> None:
        self.families: dict[int, _Family] = {}

    def clear(self) -> None:
        """Drop every family and everything retained for it."""
        self.families.clear()

    def enter(self, qmodel: QuantizedModel, x: np.ndarray, rest: tuple) -> _Family:
        """The family of a unit, replacing the model's family of other units."""
        key = id(qmodel)
        family = self.families.get(key)
        if family is None or family.data() is not x or family.rest != rest:
            family = self.families[key] = _Family(
                qmodel, x, rest, lambda _, key=key: self.families.pop(key, None)
            )
        return family

    @property
    def nbytes(self) -> int:
        """Bytes retained over all families."""
        return sum(family.nbytes for family in self.families.values())


_PREFIXES = _FaultyPrefixes()


def _unit_predictions(
    qmodel: QuantizedModel,
    x: np.ndarray,
    start: int,
    stop: int,
    ber: float,
    seed: int,
    config: CampaignConfig,
    protection: ProtectionPlan | None,
) -> tuple[np.ndarray, dict[str, int]]:
    """Predictions on samples ``[start, stop)`` of ``x`` under one unit's
    faults, and the unit's per-category event counts.

    Each batch forward starts at the first injectable layer where the
    plan differs from the retained sibling trace of the same (seed,
    batch), taking the node values before it and the events drawn up to
    it from that trace, and takes its unprotected sites' draws from the
    seed's sibling table (see :class:`_Family`); results equal a fresh
    ``qmodel.evaluate`` with a new injector bit for bit.  A unit that
    raises drops its family's traces and draws.  Emits one
    :class:`RuntimeWarning` when the per-category event cap bound on any
    of the unit's events, fresh, replayed or carried from a trace.
    """
    family = _PREFIXES.enter(
        qmodel, x,
        (start, stop, config.batch_size, ber, config.injector, config.fault_config,
         qmodel.kernel_backend),
    )
    layout = family.layout
    injector, sampler = _make_injector(
        config, ber, seed, protection, sample_base=start, draws=family.draws_for(seed)
    )
    signature = _plan_signature(qmodel, config, protection)
    counts: dict[str, int] = {}
    capped = False
    preds = []
    completed: dict[tuple[int, int], _Trace] = {}
    try:
        for batch, lo in enumerate(range(start, stop, config.batch_size)):
            xb = x[lo : min(lo + config.batch_size, stop)]
            trace = family.traces.get((seed, batch))
            j = trace.resume_point(signature) if trace is not None else 0
            if trace is not None and layout.bounds[j] > 0:
                values = qmodel.forward_trace(
                    xb, injector, start=layout.bounds[j],
                    prefix=trace.prefix(layout.live[j]),
                )
                for category, count in trace.counts[j].items():
                    counts[category] = counts.get(category, 0) + count
                capped = capped or trace.capped[j]
            else:
                values, completed[(seed, batch)] = _traced_forward(
                    qmodel, xb, injector, sampler, layout, signature
                )
            preds.append(np.argmax(values[qmodel.output_name], axis=1))
    except BaseException:
        family.drop()
        raise
    family.traces.update(completed)
    for category, count in injector.event_counts.items():
        counts[category] = counts.get(category, 0) + count
    if capped or sampler.capped:
        warnings.warn(
            f"fault events capped at {config.fault_config.max_events_per_category} "
            f"per (layer, site, chunk) at BER {ber!r}, seed {seed}: the point "
            "undercounts faults",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.concatenate(preds), counts


def _traced_forward(
    qmodel, xb, injector, sampler: CounterSampler, layout: _Layout, signature: tuple
):
    """A full batch forward that records a :class:`_Trace` on the way."""
    before = dict(injector.event_counts)
    capped, sampler.capped = sampler.capped, False
    position = {bound: j for j, bound in enumerate(layout.bounds)}
    trace = _Trace(signature, [], [], {})

    def observe(index: int, values: dict[str, np.ndarray]) -> None:
        j = position.get(index)
        if j is None:
            return
        trace.counts.append(_event_delta(injector.event_counts, before))
        trace.capped.append(sampler.capped)
        for name in layout.live[j]:
            if name not in trace.values:
                trace.values[name] = _retain(values[name], layout.widths[name])

    values = qmodel.forward_trace(xb, injector, observe=observe)
    observe(len(qmodel.nodes), values)
    sampler.capped = capped or sampler.capped
    return values, trace


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

    The fold of one window over the whole (``max_samples``-trimmed) set:
    pure with respect to the sweep, so units may be executed in any order
    or on any process and recombined afterwards.
    """
    config = config or CampaignConfig()
    n_samples = sample_count(x, labels, config)
    window = evaluate_sample_slice(
        qmodel, x, labels, ber, seed, (0, n_samples),
        config=config, protection=protection,
    )
    return combine_slice_results([window], expected_total=n_samples)


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
    """Evaluate one (BER, seed) pair over one window of the sample set.

    The one evaluator body: ``sample_slice`` is a ``[start, stop)`` window
    into the (``max_samples``-trimmed) evaluation set, and the result
    depends only on the arguments (the injector owns its RNG, seeded
    here).  It is also *partition-invariant*: the faults a sample receives
    depend only on its dataset-global index, never on which window or
    batch carries it, so any disjoint cover of ``[0, N)`` recombines
    (:func:`combine_slice_results`) into exactly the whole-set result.
    """
    config = config or CampaignConfig()
    ber = validate_ber(ber)
    n_samples = sample_count(x, labels, config)
    start, stop = int(sample_slice[0]), int(sample_slice[1])
    if not 0 <= start < stop <= n_samples:
        raise ConfigurationError(
            f"sample slice [{start}, {stop}) out of range for {n_samples} samples"
        )
    if ber == 0.0:
        preds = qmodel.predict(x[start:stop], batch_size=config.batch_size)
        events = 0
    else:
        preds, counts = _unit_predictions(
            qmodel, x, start, stop, ber, seed, config, protection
        )
        events = int(sum(counts.values()))
    return SampleSliceResult(
        ber=ber,
        seed=seed,
        start=start,
        stop=stop,
        correct=int((preds == labels[start:stop]).sum()),
        total=stop - start,
        events=events,
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
