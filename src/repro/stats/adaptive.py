"""Adaptive campaign driving: early-stopped sweeps and BER-knee search.

Two drivers sit on top of the sequential stop rule
(:mod:`repro.stats.sequential`) and the campaign engine:

* :func:`adaptive_sweep` — evaluate a set of BER points, adding seeds in
  deterministic *rounds* until every point's confidence interval is
  inside the target half-width (or its seed budget is spent).  Settled
  points (typically the flat low-BER region) stop at ``min_seeds``; only
  points near the accuracy cliff spend the full ``max_seeds`` budget.
* :func:`knee_search` — replace a fixed BER grid entirely: bisect the
  accuracy knee in log-BER space, evaluating each probe adaptively, so
  figure sweeps concentrate their budget where the curve actually bends
  (Barabasz & Gregg's error analysis makes the same argument for
  Winograd error growth).

Determinism
-----------
Both drivers are deterministic by construction, for any worker count:

* every scheduled unit is an ordinary engine point task — bit-identical
  across execution strategies by the runtime's existing contract;
* stop decisions consume per-seed results in canonical seed order at
  round barriers (:class:`~repro.stats.sequential.SequentialAccuracy`),
  never in pool-arrival order;
* the bisection midpoint is pure float arithmetic on accuracies that are
  themselves deterministic.

Adaptive units deliberately share checkpoint keys with fixed-grid units:
a (BER, seed) evaluation is the same pure computation no matter which
round — or which driver — scheduled it, so adaptive runs resume from (and
feed) the same checkpoint as everything else.  Extended seeds past the
campaign's configured list (:func:`extended_seeds`) get distinct keys
naturally, the seed being part of every point key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faultsim.campaign import (
    CampaignConfig,
    CampaignResult,
    combine_seed_results,
)
from repro.faultsim.protection import ProtectionPlan
from repro.quantized.qmodel import QuantizedModel
from repro.runtime.engine import CampaignEngine
from repro.runtime.tasks import TaskSpec
from repro.stats.intervals import ConfidenceInterval
from repro.stats.sequential import (
    SequentialAccuracy,
    StopRule,
    exact_correct_count,
)

__all__ = [
    "AdaptivePoint",
    "AdaptiveSweepResult",
    "KneeConfig",
    "KneeResult",
    "adaptive_sweep",
    "extended_seeds",
    "knee_search",
]


def extended_seeds(seeds: tuple[int, ...], count: int) -> tuple[int, ...]:
    """The canonical seed sequence an adaptive point draws from.

    The campaign's configured seeds come first (so the adaptive estimate
    at a settled point is computed from exactly the seeds a fixed-grid
    run would use, sharing their checkpoint entries); further seeds
    continue consecutively from ``max(seeds) + 1``, which cannot collide
    with the configured list.  Deterministic in its inputs — the sequence
    is part of the determinism contract.
    """
    seeds = tuple(int(s) for s in seeds)
    if count < 1:
        raise ConfigurationError(f"extended_seeds needs count >= 1, got {count}")
    if count <= len(seeds):
        return seeds[:count]
    nxt = max(seeds) + 1 if seeds else 0
    return seeds + tuple(range(nxt, nxt + count - len(seeds)))


@dataclass
class AdaptivePoint:
    """One BER point's early-stopped estimate.

    ``result`` is the ordinary :class:`CampaignResult` reduced from the
    first ``seeds_used`` seeds (the stop prefix); ``seeds_evaluated``
    additionally counts round overshoot — checkpointed and reusable, but
    never part of the estimate.
    """

    ber: float
    result: CampaignResult
    seeds_used: int
    seeds_evaluated: int
    stopped_early: bool
    interval: ConfidenceInterval

    def to_dict(self) -> dict:
        """JSON-serializable form (figure artifacts)."""
        return {
            "ber": self.ber,
            "result": self.result.to_dict(),
            "seeds_used": self.seeds_used,
            "seeds_evaluated": self.seeds_evaluated,
            "stopped_early": self.stopped_early,
            "interval": self.interval.to_dict(),
        }


@dataclass
class AdaptiveSweepResult:
    """An adaptive sweep's points plus its unit-economy bookkeeping.

    The unit counters aggregate the engine's per-round
    :class:`~repro.runtime.engine.SweepStats` — one unit per (BER, seed)
    point, however the engine sliced it — which is what the saved-samples
    ratio in the benchmark report compares against a fixed-grid run.
    """

    points: list[AdaptivePoint]
    rounds: int
    total_units: int
    computed_units: int
    cached_units: int

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "points": [p.to_dict() for p in self.points],
            "rounds": self.rounds,
            "total_units": self.total_units,
            "computed_units": self.computed_units,
            "cached_units": self.cached_units,
        }


def adaptive_sweep(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    bers: list[float],
    config: CampaignConfig | None = None,
    rule: StopRule | None = None,
    protection: ProtectionPlan | None = None,
    engine: CampaignEngine | None = None,
    tag: str = "adaptive",
) -> AdaptiveSweepResult:
    """Evaluate BER points with per-point sequential early stopping.

    Seeds are scheduled in deterministic rounds: round 0 evaluates
    ``rule.min_seeds`` seeds for every point (all points batched into one
    engine call, so the pool fills across points), each later round adds
    one seed to every still-undecided point.  After each round barrier
    the per-seed counts are pushed into the point's
    :class:`~repro.stats.sequential.SequentialAccuracy` in canonical seed
    order; a point whose interval is inside ``rule.halfwidth`` stops
    contributing units.  Estimates use each point's stop prefix only.

    Returns an :class:`AdaptiveSweepResult` with points in ``bers``
    order.  Results are bit-identical for any worker count, and resume
    from the engine's checkpoint like any other batch.
    """
    config = config or CampaignConfig()
    rule = rule or StopRule()
    engine = engine if engine is not None else CampaignEngine(workers=1)
    n_samples = (
        len(x) if config.max_samples is None else min(len(x), config.max_samples)
    )
    seeds = extended_seeds(config.seeds, rule.max_seeds)
    trackers = [SequentialAccuracy(rule) for _ in bers]
    per_seed: list[list] = [[] for _ in bers]
    rounds = total = computed = cached = 0
    while True:
        batch: list[TaskSpec] = []
        owners: list[int] = []
        for i, ber in enumerate(bers):
            if trackers[i].decided:
                continue
            have = len(per_seed[i])
            take = rule.min_seeds - have if have < rule.min_seeds else 1
            take = min(take, rule.max_seeds - have)
            for seed in seeds[have : have + take]:
                batch.append(
                    TaskSpec(
                        ber=ber, seed=seed, protection=protection,
                        tag=f"{tag}:r{rounds}",
                    )
                )
                owners.append(i)
        if not batch:
            break
        results = engine.evaluate_tasks(qmodel, x, labels, batch, config=config)
        rounds += 1
        total += engine.last_stats.total_units
        computed += engine.last_stats.computed_units
        cached += engine.last_stats.cached_units
        # Barrier reduction in canonical order: results arrive in task
        # order (the engine's contract), which is seed order per point.
        for i, result in zip(owners, results):
            per_seed[i].append(result)
            trackers[i].push(
                exact_correct_count(result.accuracy, n_samples), n_samples
            )
    points = []
    for i, ber in enumerate(bers):
        tracker = trackers[i]
        used = tracker.seeds_used
        points.append(
            AdaptivePoint(
                ber=ber,
                result=combine_seed_results(
                    qmodel, ber, per_seed[i][:used], config, protection
                ),
                seeds_used=used,
                seeds_evaluated=len(per_seed[i]),
                stopped_early=tracker.stopped,
                interval=tracker.interval(),
            )
        )
    return AdaptiveSweepResult(
        points=points,
        rounds=rounds,
        total_units=total,
        computed_units=computed,
        cached_units=cached,
    )


@dataclass(frozen=True)
class KneeConfig:
    """Search window and convergence targets for :func:`knee_search`.

    Parameters
    ----------
    lo, hi:
        BER bracket endpoints (``0 < lo < hi <= 1``).  ``lo`` should sit
        on the flat high-accuracy shelf and ``hi`` past the collapse;
        figure drivers use their profile grid's extremes.
    target_fraction:
        Where the knee is declared, as a fraction of the accuracy drop:
        the knee BER is where accuracy crosses
        ``acc(hi) + target_fraction * (acc(lo) - acc(hi))``.
    tolerance_decades:
        Stop once the bracket is narrower than this many decades of BER.
    max_points:
        Hard cap on evaluated BER points (endpoints included).
    """

    lo: float
    hi: float
    target_fraction: float = 0.5
    tolerance_decades: float = 0.25
    max_points: int = 10

    def __post_init__(self):
        """Validate the bracket and convergence parameters."""
        if not 0.0 < self.lo < self.hi <= 1.0:
            raise ConfigurationError(
                f"knee bracket requires 0 < lo < hi <= 1, "
                f"got lo={self.lo!r} hi={self.hi!r}"
            )
        if not 0.0 < self.target_fraction < 1.0:
            raise ConfigurationError(
                f"target_fraction must be in (0, 1), got {self.target_fraction!r}"
            )
        if not self.tolerance_decades > 0.0:
            raise ConfigurationError(
                f"tolerance_decades must be > 0, got {self.tolerance_decades!r}"
            )
        if self.max_points < 2:
            raise ConfigurationError(
                f"max_points must be >= 2, got {self.max_points}"
            )

    def identity(self) -> dict:
        """Canonical payload recorded in figure metadata."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "target_fraction": self.target_fraction,
            "tolerance_decades": self.tolerance_decades,
            "max_points": self.max_points,
        }


@dataclass
class KneeResult:
    """A knee search's evaluated points (BER-ascending) and bracket.

    ``knee_ber`` is the bracket's log-space midpoint, or ``None`` when
    the window contained no accuracy drop (``acc(lo) <= acc(hi)``) and
    bisection never started.
    """

    points: list[AdaptivePoint]
    knee_ber: float | None
    bracket: tuple[float, float] | None
    target_accuracy: float | None
    rounds: int
    total_units: int
    computed_units: int
    cached_units: int

    def to_dict(self) -> dict:
        """JSON-serializable form (figure artifacts)."""
        return {
            "points": [p.to_dict() for p in self.points],
            "knee_ber": self.knee_ber,
            "bracket": list(self.bracket) if self.bracket else None,
            "target_accuracy": self.target_accuracy,
            "rounds": self.rounds,
            "total_units": self.total_units,
            "computed_units": self.computed_units,
            "cached_units": self.cached_units,
        }


def knee_search(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    knee: KneeConfig,
    config: CampaignConfig | None = None,
    rule: StopRule | None = None,
    protection: ProtectionPlan | None = None,
    engine: CampaignEngine | None = None,
    tag: str = "adaptive-knee",
) -> KneeResult:
    """Bisect the accuracy knee in log-BER space with adaptive probes.

    Evaluates the bracket endpoints first (one batched adaptive round
    loop, so both fill the pool together), derives the target accuracy
    from their drop, then repeatedly probes the geometric midpoint of the
    surviving bracket — ``10 ** ((lg lo + lg hi) / 2)``, a deterministic
    pure-float midpoint — until the bracket is narrower than
    ``tolerance_decades`` or ``max_points`` BERs have been evaluated.
    Every probe is an :func:`adaptive_sweep` point, so settled probes
    cost ``min_seeds`` units and every unit lands in the shared
    checkpoint.
    """
    config = config or CampaignConfig()
    rule = rule or StopRule()
    sweep = adaptive_sweep(
        qmodel, x, labels, [knee.lo, knee.hi],
        config=config, rule=rule, protection=protection, engine=engine, tag=tag,
    )
    points = {p.ber: p for p in sweep.points}
    rounds = sweep.rounds
    total = sweep.total_units
    computed = sweep.computed_units
    cached = sweep.cached_units
    top = points[knee.lo].result.mean_accuracy
    bottom = points[knee.hi].result.mean_accuracy
    if top <= bottom:
        # No accuracy drop inside the window — nothing to bisect.
        return KneeResult(
            points=sorted(points.values(), key=lambda p: p.ber),
            knee_ber=None, bracket=None, target_accuracy=None,
            rounds=rounds, total_units=total,
            computed_units=computed, cached_units=cached,
        )
    target = bottom + knee.target_fraction * (top - bottom)
    left, right = knee.lo, knee.hi
    while (
        math.log10(right) - math.log10(left) > knee.tolerance_decades
        and len(points) < knee.max_points
    ):
        mid = 10.0 ** ((math.log10(left) + math.log10(right)) / 2.0)
        if not left < mid < right:
            break  # float resolution exhausted before the tolerance
        probe = adaptive_sweep(
            qmodel, x, labels, [mid],
            config=config, rule=rule, protection=protection, engine=engine,
            tag=tag,
        )
        rounds += probe.rounds
        total += probe.total_units
        computed += probe.computed_units
        cached += probe.cached_units
        point = probe.points[0]
        points[mid] = point
        if point.result.mean_accuracy >= target:
            left = mid
        else:
            right = mid
    knee_ber = 10.0 ** ((math.log10(left) + math.log10(right)) / 2.0)
    return KneeResult(
        points=sorted(points.values(), key=lambda p: p.ber),
        knee_ber=knee_ber,
        bracket=(left, right),
        target_accuracy=target,
        rounds=rounds,
        total_units=total,
        computed_units=computed,
        cached_units=cached,
    )
