"""Binomial confidence intervals for pooled correct/total counts.

The campaign's atomic observations are Bernoulli: each evaluated sample is
either classified correctly or not, and both result shapes the runtime
produces — the unit of work's
:class:`~repro.faultsim.campaign.SampleSliceResult` (explicit
``correct``/``total`` counts over one sample window) and the point's
:class:`~repro.faultsim.campaign.SeedPointResult` (an accuracy that *is*
``correct / total`` for a known total, exactly invertible in IEEE floats)
— reduce to integer counts.  This module turns pooled counts into
confidence intervals without any third-party dependency:

* :func:`wilson_interval` — the Wilson score interval.  Well-behaved at
  the accuracy extremes (never escapes [0, 1], never collapses to zero
  width at p-hat in {0, 1}), which matters because low-BER campaign points
  sit at accuracy ~= the fault-free value, often exactly 1 on small
  evaluation sets.
* :func:`empirical_bernstein_interval` — the empirical-Bernstein bound
  (Maurer & Pontil, 2009): half-width
  ``sqrt(2 V ln(2/delta) / n) + 7 ln(2/delta) / (3 (n - 1))`` with the
  empirical variance ``V``.  Variance-adaptive: much tighter than
  distribution-free bounds when the observed variance is small (the
  low-BER regime again), at the cost of a 1/(n-1) additive term.

Both are closed-form float arithmetic — no sampling, no iteration — so an
interval is a pure function of ``(correct, total, confidence)``.
:func:`exact_correct_count` recovers those integer counts from a stored
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "ConfidenceInterval",
    "INTERVAL_METHODS",
    "binomial_interval",
    "empirical_bernstein_interval",
    "exact_correct_count",
    "normal_quantile",
    "wilson_interval",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a Bernoulli mean.

    Parameters
    ----------
    estimate:
        The point estimate ``correct / total``.
    lower, upper:
        Interval endpoints, clipped to [0, 1].
    method:
        Producing method name (``"wilson"`` or ``"bernstein"``).
    confidence:
        Nominal two-sided coverage level, e.g. ``0.95``.
    """

    estimate: float
    lower: float
    upper: float
    method: str
    confidence: float

    @property
    def halfwidth(self) -> float:
        """Half the interval width."""
        return (self.upper - self.lower) / 2.0

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "estimate": self.estimate,
            "lower": self.lower,
            "upper": self.upper,
            "halfwidth": self.halfwidth,
            "method": self.method,
            "confidence": self.confidence,
        }


# Acklam's rational approximation to the inverse normal CDF (relative
# error < 1.15e-9 over (0, 1)) — closed-form, so no scipy dependency.
_ICDF_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ICDF_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ICDF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ICDF_D = (
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e+00, 3.754408661907416e+00,
)
_ICDF_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's approximation).

    Deterministic closed-form float arithmetic; accurate to ~1e-9
    relative error, far below the Monte-Carlo noise any campaign carries.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(
            f"normal_quantile requires 0 < p < 1, got {p!r}"
        )
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if p < _ICDF_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - _ICDF_P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    ) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def exact_correct_count(accuracy: float, total: int) -> int:
    """Recover the integer correct-count behind a stored accuracy.

    Every accuracy the campaign produces is ``float(correct) / total``
    for integers ``0 <= correct <= total`` (every point is folded from
    its sample windows by ``combine_slice_results``, which computes
    exactly that division, as ``QuantizedModel.evaluate`` does), and for totals far below 2**52 that mapping
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


def _validate_counts(correct: int, total: int, confidence: float) -> tuple[int, int]:
    """Shared argument validation for the interval constructors."""
    correct, total = int(correct), int(total)
    if total < 1:
        raise ConfigurationError(f"interval requires total >= 1, got {total}")
    if not 0 <= correct <= total:
        raise ConfigurationError(
            f"interval requires 0 <= correct <= total, got {correct}/{total}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    return correct, total


def wilson_interval(
    correct: int, total: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for ``correct`` successes in ``total`` trials.

    The score interval inverts the normal test around the *true* p rather
    than the estimate, so it stays inside [0, 1] by construction and keeps
    a sensible (non-zero) width when the observed accuracy is exactly 0 or
    1 — exactly where low-BER campaign points sit.
    """
    correct, total = _validate_counts(correct, total, confidence)
    z = normal_quantile(1.0 - (1.0 - confidence) / 2.0)
    n = float(total)
    p = correct / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    spread = (
        z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    )
    return ConfidenceInterval(
        estimate=p,
        lower=max(0.0, center - spread),
        upper=min(1.0, center + spread),
        method="wilson",
        confidence=confidence,
    )


def empirical_bernstein_interval(
    correct: int, total: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Empirical-Bernstein interval (Maurer & Pontil) for Bernoulli counts.

    Half-width ``sqrt(2 V ln(2/delta) / n) + 7 ln(2/delta) / (3 (n - 1))``
    with the unbiased empirical variance ``V = p (1 - p) n / (n - 1)``.
    Variance-adaptive: at the low-BER regime's near-zero variance the
    sqrt term vanishes and the bound shrinks at rate 1/n rather than
    1/sqrt(n).  Requires ``total >= 2`` (the variance term is undefined
    for a single trial); a single-trial request returns the vacuous
    [0, 1] interval rather than raising, so a caller can always ask.
    """
    correct, total = _validate_counts(correct, total, confidence)
    p = correct / float(total)
    if total < 2:
        return ConfidenceInterval(
            estimate=p, lower=0.0, upper=1.0,
            method="bernstein", confidence=confidence,
        )
    n = float(total)
    log_term = math.log(2.0 / (1.0 - confidence))
    variance = p * (1.0 - p) * n / (n - 1.0)
    spread = math.sqrt(2.0 * variance * log_term / n) + (
        7.0 * log_term / (3.0 * (n - 1.0))
    )
    return ConfidenceInterval(
        estimate=p,
        lower=max(0.0, p - spread),
        upper=min(1.0, p + spread),
        method="bernstein",
        confidence=confidence,
    )


#: Method name -> interval constructor (:func:`binomial_interval`'s registry).
INTERVAL_METHODS = {
    "wilson": wilson_interval,
    "bernstein": empirical_bernstein_interval,
}


def binomial_interval(
    method: str, correct: int, total: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Dispatch to a registered interval method by name."""
    try:
        build = INTERVAL_METHODS[method]
    except KeyError:
        raise ConfigurationError(
            f"unknown interval method {method!r}; "
            f"expected one of {sorted(INTERVAL_METHODS)}"
        ) from None
    return build(correct, total, confidence)
