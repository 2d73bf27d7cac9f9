"""Unit tests for the confidence intervals and exact count recovery.

Pure-math coverage (no models, no campaigns): interval correctness
against known reference values, edge behavior at the accuracy extremes,
and argument validation.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.stats import (
    binomial_interval,
    empirical_bernstein_interval,
    exact_correct_count,
    normal_quantile,
    wilson_interval,
)


class TestNormalQuantile:
    def test_reference_values(self):
        # z_{0.975} = 1.959964..., z_{0.995} = 2.575829...
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.4, 0.6, 0.8, 0.99):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-9)

    def test_tail_branches(self):
        # Below/above the 0.02425 rational-approximation switch point.
        assert normal_quantile(0.001) == pytest.approx(-3.090232, abs=1e-5)
        assert normal_quantile(0.999) == pytest.approx(3.090232, abs=1e-5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_domain(self, p):
        with pytest.raises(ConfigurationError, match="normal_quantile"):
            normal_quantile(p)


class TestWilsonInterval:
    def test_reference_value(self):
        # Canonical textbook check: 8/10 at 95% -> (0.490, 0.943).
        ci = wilson_interval(8, 10, 0.95)
        assert ci.estimate == pytest.approx(0.8)
        assert ci.lower == pytest.approx(0.4901, abs=2e-4)
        assert ci.upper == pytest.approx(0.9433, abs=2e-4)

    def test_stays_in_unit_interval_at_extremes(self):
        top = wilson_interval(160, 160)
        bottom = wilson_interval(0, 160)
        assert top.upper == pytest.approx(1.0) and top.lower > 0.95
        assert bottom.lower == pytest.approx(0.0) and bottom.upper < 0.05
        assert 0.0 <= bottom.lower and top.upper <= 1.0
        # Never zero-width at p-hat in {0, 1} (the low-BER regime).
        assert top.halfwidth > 0.0 and bottom.halfwidth > 0.0

    def test_halfwidth_shrinks_with_n(self):
        widths = [wilson_interval(n // 2, n).halfwidth for n in (10, 100, 1000)]
        assert widths[0] > widths[1] > widths[2]

    def test_higher_confidence_is_wider(self):
        assert (
            wilson_interval(50, 100, 0.99).halfwidth
            > wilson_interval(50, 100, 0.95).halfwidth
        )


class TestBernsteinInterval:
    def test_matches_closed_form(self):
        correct, total, conf = 158, 160, 0.95
        p = correct / total
        n = float(total)
        log_term = math.log(2.0 / (1.0 - conf))
        variance = p * (1.0 - p) * n / (n - 1.0)
        spread = math.sqrt(2.0 * variance * log_term / n) + 7.0 * log_term / (
            3.0 * (n - 1.0)
        )
        ci = empirical_bernstein_interval(correct, total, conf)
        assert ci.lower == pytest.approx(max(0.0, p - spread))
        assert ci.upper == pytest.approx(min(1.0, p + spread))

    def test_variance_adaptive_at_zero_variance(self):
        # All-correct counts: the sqrt term vanishes, leaving the 1/(n-1)
        # additive term — far tighter than the p=1/2 interval.
        clean = empirical_bernstein_interval(640, 640)
        noisy = empirical_bernstein_interval(320, 640)
        assert clean.halfwidth < noisy.halfwidth / 3

    def test_single_trial_is_vacuous_not_an_error(self):
        ci = empirical_bernstein_interval(1, 1)
        assert (ci.lower, ci.upper) == (0.0, 1.0)

    def test_dispatcher(self):
        assert binomial_interval("wilson", 8, 10).method == "wilson"
        assert binomial_interval("bernstein", 8, 10).method == "bernstein"
        with pytest.raises(ConfigurationError, match="unknown interval method"):
            binomial_interval("bayes", 8, 10)

    @pytest.mark.parametrize("correct,total", [(-1, 10), (11, 10), (0, 0)])
    def test_rejects_bad_counts(self, correct, total):
        with pytest.raises(ConfigurationError):
            wilson_interval(correct, total)


class TestExactCorrectCount:
    def test_inverts_campaign_division(self):
        for total in (1, 48, 160, 997):
            for correct in (0, 1, total // 2, total):
                accuracy = float(correct) / total
                assert exact_correct_count(accuracy, total) == correct

    @pytest.mark.parametrize("total", [1, 7, 48, 160, 4096])
    def test_every_count_round_trips(self, total):
        recovered = [
            exact_correct_count(float(correct) / total, total)
            for correct in range(total + 1)
        ]
        assert recovered == list(range(total + 1))

    def test_rejects_foreign_values(self):
        with pytest.raises(ConfigurationError, match="exact count ratio"):
            exact_correct_count(0.5000001, 160)
        with pytest.raises(ConfigurationError, match="exact count ratio"):
            exact_correct_count(1.5, 160)
        with pytest.raises(ConfigurationError, match="total"):
            exact_correct_count(0.5, 0)
