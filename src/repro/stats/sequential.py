"""Deterministic sequential early stopping for campaign points.

A fixed-budget campaign spends the same seed x sample budget at every
(BER, plan) point even though most points are statistically settled long
before the budget runs out — a low-BER point whose accuracy equals the
fault-free value has near-zero variance after the first seed or two.
:class:`StopRule` + :class:`SequentialAccuracy` implement the sequential
alternative: after each whole seed's pooled correct/total counts, compute
a confidence interval (:mod:`repro.stats.intervals`) over the counts seen
so far and stop once its half-width is inside the target.

Determinism contract
--------------------
The hard constraint (and the point): stopping decisions must be
bit-reproducible across every execution strategy the runtime offers —
worker counts, ``--shard-samples`` slicing, resume from a
checkpoint.  Three rules enforce it:

1. **Canonical order, not arrival order.**  Counts are pushed one whole
   seed at a time, in campaign seed order (the checkpoint's canonical
   subtask order) — never in pool-completion order.  The engine's
   per-seed results are themselves bit-identical across workers and
   slicing, so a decision computed from them in canonical order is too.
2. **Whole seeds only.**  The decision granularity is the seed, the unit
   whose folded result is partition-invariant.  Deciding mid-seed (after
   a sample slice lands) would make the decision depend on the engine's
   slice geometry, which ``--shard-samples auto`` deliberately varies
   with the worker count.
3. **Prefix estimates.**  The stop index is the *smallest* seed count at
   which the rule fires; the reported estimate uses exactly that prefix.
   A driver that evaluates seeds in rounds may overshoot the stop index
   (the overshoot is still checkpointed and reused on resume), but the
   estimate never includes it — so round sizing cannot change any
   reported number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.stats.intervals import (
    INTERVAL_METHODS,
    ConfidenceInterval,
    binomial_interval,
)

__all__ = ["StopRule", "SequentialAccuracy", "exact_correct_count"]


def exact_correct_count(accuracy: float, total: int) -> int:
    """Recover the integer correct-count behind a stored accuracy.

    Every accuracy the campaign produces is ``float(correct) / total``
    for integers ``0 <= correct <= total`` (both
    ``QuantizedModel.evaluate`` and ``combine_slice_results`` compute
    exactly that division), and for totals far below 2**52 that mapping
    is injective in IEEE doubles — so the division can be inverted
    exactly, and checkpointed :class:`SeedPointResult` rows feed the
    interval math without any stored-count round trip.  Raises
    :class:`~repro.errors.ConfigurationError` when ``accuracy`` is not a
    representable count ratio (a corrupted or foreign value).
    """
    total = int(total)
    if total < 1:
        raise ConfigurationError(f"exact_correct_count needs total >= 1, got {total}")
    correct = int(round(accuracy * total))
    if not 0 <= correct <= total or float(correct) / total != accuracy:
        raise ConfigurationError(
            f"accuracy {accuracy!r} is not an exact count ratio over "
            f"{total} samples"
        )
    return correct


@dataclass(frozen=True)
class StopRule:
    """When is a campaign point settled enough to stop adding seeds?

    Parameters
    ----------
    halfwidth:
        Target confidence-interval half-width on the pooled accuracy
        (CLI ``--ci-halfwidth``).  The rule fires once the interval over
        all evaluated samples is at least this tight.
    confidence:
        Two-sided coverage level of the interval.
    method:
        Interval method: ``"wilson"`` (default) or ``"bernstein"``
        (:mod:`repro.stats.intervals`).
    min_seeds:
        Never decide before this many seeds — one seed's samples share a
        fault realization, so a minimum guards against a lucky first
        draw.  Drivers default this to the campaign's configured seed
        count, making the adaptive estimate a superset of the fixed-grid
        estimate at settled points.
    max_seeds:
        Seed budget per point (CLI ``--max-seeds``): a point whose
        interval never tightens enough is exhausted here and reported
        with ``stopped_early=False``.
    """

    halfwidth: float = 0.02
    confidence: float = 0.95
    method: str = "wilson"
    min_seeds: int = 2
    max_seeds: int = 8

    def __post_init__(self):
        """Validate field ranges and cross-field consistency."""
        if not 0.0 < self.halfwidth < 0.5:
            raise ConfigurationError(
                f"halfwidth must be in (0, 0.5), got {self.halfwidth!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        if self.method not in INTERVAL_METHODS:
            raise ConfigurationError(
                f"unknown interval method {self.method!r}; "
                f"expected one of {sorted(INTERVAL_METHODS)}"
            )
        if self.min_seeds < 1:
            raise ConfigurationError(
                f"min_seeds must be >= 1, got {self.min_seeds}"
            )
        if self.max_seeds < self.min_seeds:
            raise ConfigurationError(
                f"max_seeds ({self.max_seeds}) must be >= min_seeds "
                f"({self.min_seeds})"
            )

    def identity(self) -> dict:
        """Canonical payload recorded in figure metadata."""
        return {
            "halfwidth": self.halfwidth,
            "confidence": self.confidence,
            "method": self.method,
            "min_seeds": self.min_seeds,
            "max_seeds": self.max_seeds,
        }


class SequentialAccuracy:
    """Sequential tracker for one campaign point's per-seed counts.

    Push one whole seed's (correct, total) at a time, **in campaign seed
    order** — the canonical order the determinism contract requires (see
    the module docs).  The tracker records the smallest seed count at
    which the rule fires (:attr:`stopped_at`); pushes past that point are
    accepted (a round-scheduled driver overshoots) but never move the
    decision or the prefix estimate.

    Parameters
    ----------
    rule:
        The :class:`StopRule` to evaluate after each push.
    """

    def __init__(self, rule: StopRule):
        self.rule = rule
        #: Per-seed (correct, total) counts, in canonical seed order.
        self.counts: list[tuple[int, int]] = []
        #: Smallest seed count at which the rule fired (None = not yet).
        self.stopped_at: int | None = None

    @property
    def seeds_seen(self) -> int:
        """Seeds pushed so far (including any overshoot)."""
        return len(self.counts)

    @property
    def stopped(self) -> bool:
        """True once the interval criterion has fired."""
        return self.stopped_at is not None

    @property
    def exhausted(self) -> bool:
        """True once the seed budget is spent without the rule firing."""
        return not self.stopped and self.seeds_seen >= self.rule.max_seeds

    @property
    def decided(self) -> bool:
        """True when no further seeds are needed (stopped or exhausted)."""
        return self.stopped or self.exhausted

    @property
    def seeds_used(self) -> int:
        """Seeds the *estimate* uses: the stop prefix, or everything seen."""
        return self.stopped_at if self.stopped else self.seeds_seen

    def push(self, correct: int, total: int) -> bool:
        """Add the next seed's pooled counts; returns :attr:`decided`.

        ``total`` must be positive — a seed always scores at least one
        sample.  The rule is evaluated on the pooled prefix counts only
        while undecided and only at or past ``min_seeds``, so the stop
        index is by construction the smallest qualifying prefix.
        """
        correct, total = int(correct), int(total)
        if total < 1:
            raise ConfigurationError(
                f"push requires total >= 1, got {total}"
            )
        if not 0 <= correct <= total:
            raise ConfigurationError(
                f"push requires 0 <= correct <= total, got {correct}/{total}"
            )
        self.counts.append((correct, total))
        if (
            self.stopped_at is None
            and self.seeds_seen >= self.rule.min_seeds
            and self.interval_at(self.seeds_seen).halfwidth <= self.rule.halfwidth
        ):
            self.stopped_at = self.seeds_seen
        return self.decided

    def interval_at(self, n_seeds: int) -> ConfidenceInterval:
        """Interval over the pooled counts of the first ``n_seeds`` seeds."""
        if not 1 <= n_seeds <= self.seeds_seen:
            raise ConfigurationError(
                f"interval_at needs 1 <= n_seeds <= {self.seeds_seen}, "
                f"got {n_seeds}"
            )
        correct = sum(c for c, _ in self.counts[:n_seeds])
        total = sum(t for _, t in self.counts[:n_seeds])
        return binomial_interval(
            self.rule.method, correct, total, self.rule.confidence
        )

    def interval(self) -> ConfidenceInterval:
        """Interval over the estimate prefix (:attr:`seeds_used`)."""
        return self.interval_at(self.seeds_used)
