"""Unit tests for the sequential statistics: intervals and stop rules.

Pure-math coverage (no models, no campaigns): interval correctness
against known reference values, edge behavior at the accuracy extremes,
argument validation, and the :class:`SequentialAccuracy` prefix/overshoot
semantics the determinism contract builds on.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.stats import (
    SequentialAccuracy,
    StopRule,
    binomial_interval,
    empirical_bernstein_interval,
    exact_correct_count,
    extended_seeds,
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

    def test_rejects_foreign_values(self):
        with pytest.raises(ConfigurationError, match="exact count ratio"):
            exact_correct_count(0.5000001, 160)
        with pytest.raises(ConfigurationError, match="exact count ratio"):
            exact_correct_count(1.5, 160)
        with pytest.raises(ConfigurationError, match="total"):
            exact_correct_count(0.5, 0)


class TestStopRule:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="halfwidth"):
            StopRule(halfwidth=0.0)
        with pytest.raises(ConfigurationError, match="halfwidth"):
            StopRule(halfwidth=0.5)
        with pytest.raises(ConfigurationError, match="confidence"):
            StopRule(confidence=1.0)
        with pytest.raises(ConfigurationError, match="interval method"):
            StopRule(method="bayes")
        with pytest.raises(ConfigurationError, match="min_seeds"):
            StopRule(min_seeds=0)
        with pytest.raises(ConfigurationError, match="max_seeds"):
            StopRule(min_seeds=4, max_seeds=3)


class TestSequentialAccuracy:
    def test_stops_at_smallest_qualifying_prefix(self):
        # 160/160 per seed: Wilson halfwidth at n=320 is ~0.0118 < 0.02,
        # and min_seeds=2 makes 2 the first prefix even checked.
        tracker = SequentialAccuracy(StopRule(min_seeds=2, max_seeds=8))
        assert tracker.push(160, 160) is False
        assert tracker.push(160, 160) is True
        assert tracker.stopped and tracker.stopped_at == 2
        assert tracker.seeds_used == 2

    def test_overshoot_never_moves_the_decision(self):
        tracker = SequentialAccuracy(StopRule(min_seeds=2, max_seeds=8))
        tracker.push(160, 160)
        tracker.push(160, 160)
        interval_at_stop = tracker.interval()
        # A round-scheduled driver may deliver extra seeds after the stop.
        tracker.push(80, 160)
        assert tracker.stopped_at == 2 and tracker.seeds_used == 2
        assert tracker.interval() == interval_at_stop
        assert tracker.seeds_seen == 3

    def test_exhaustion_at_max_seeds(self):
        # 50% accuracy never reaches a 0.02 halfwidth in 3 seeds of 160.
        tracker = SequentialAccuracy(StopRule(min_seeds=2, max_seeds=3))
        assert tracker.push(80, 160) is False
        assert tracker.push(80, 160) is False
        assert tracker.push(80, 160) is True
        assert tracker.exhausted and not tracker.stopped
        assert tracker.seeds_used == 3

    def test_min_seeds_blocks_early_decision(self):
        tracker = SequentialAccuracy(StopRule(min_seeds=4, max_seeds=8))
        for _ in range(3):
            assert tracker.push(160, 160) is False
        assert tracker.push(160, 160) is True
        assert tracker.stopped_at == 4

    def test_push_validation(self):
        tracker = SequentialAccuracy(StopRule())
        with pytest.raises(ConfigurationError, match="total"):
            tracker.push(0, 0)
        with pytest.raises(ConfigurationError, match="correct"):
            tracker.push(5, 4)

    def test_interval_at_bounds(self):
        tracker = SequentialAccuracy(StopRule())
        tracker.push(10, 10)
        with pytest.raises(ConfigurationError, match="interval_at"):
            tracker.interval_at(0)
        with pytest.raises(ConfigurationError, match="interval_at"):
            tracker.interval_at(2)


class TestExtendedSeeds:
    def test_extends_past_configured_maximum(self):
        assert extended_seeds((0, 1), 5) == (0, 1, 2, 3, 4)
        assert extended_seeds((3, 7), 4) == (3, 7, 8, 9)

    def test_truncates_and_passes_through(self):
        assert extended_seeds((0, 1, 2), 2) == (0, 1)
        assert extended_seeds((0, 1, 2), 3) == (0, 1, 2)
        assert extended_seeds((), 3) == (0, 1, 2)

    def test_rejects_empty_budget(self):
        with pytest.raises(ConfigurationError, match="count"):
            extended_seeds((0, 1), 0)
