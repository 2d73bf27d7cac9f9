"""Confidence intervals over campaign correct/total counts.

Wilson and empirical-Bernstein intervals over the pooled counts the
campaign runtime produces, plus :func:`exact_correct_count`, which
recovers those counts from a checkpointed accuracy
(:mod:`repro.stats.intervals`).
"""

from repro.stats.intervals import (
    ConfidenceInterval,
    INTERVAL_METHODS,
    binomial_interval,
    empirical_bernstein_interval,
    exact_correct_count,
    normal_quantile,
    wilson_interval,
)

__all__ = [
    "ConfidenceInterval",
    "INTERVAL_METHODS",
    "binomial_interval",
    "empirical_bernstein_interval",
    "exact_correct_count",
    "normal_quantile",
    "wilson_interval",
]
