"""Deterministic chaos framework + unified retry policy.

The chaos contract under test (see :mod:`repro.runtime.chaos`): every
injection decision is a pure function of (chaos seed, task key, attempt),
so chaos runs are reproducible across processes and schedules, and a
retried attempt draws fresh — bounded retry drains the injected faults
and the campaign completes **bit-identically** to an undisturbed run.
Poison tags are the one deliberately non-convergent kind: they fail every
attempt, exhaust the retry budget, and surface as a
:class:`~repro.errors.TaskQuarantinedError`.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    ChaosError,
    ConfigurationError,
    TaskQuarantinedError,
    UnitDeadlineError,
    WorkerCrashError,
)
from repro.faultsim import CampaignConfig
from repro.runtime import CampaignEngine, ChaosSpec, RetryPolicy, unit_deadline
from repro.runtime.chaos import apply_unit_chaos

BERS = [1e-5, 1e-4]


@pytest.fixture()
def config():
    return CampaignConfig(
        seeds=(0, 1),
        batch_size=12,
        max_samples=24,
    )


class TestChaosSpec:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            ChaosSpec(unit_error_rate=1.5)
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            ChaosSpec(worker_crash_rate=-0.1)
        with pytest.raises(ConfigurationError, match="slow_unit_seconds"):
            ChaosSpec(slow_unit_seconds=-1.0)

    def test_active_flag(self):
        assert not ChaosSpec().active
        assert ChaosSpec(unit_error_rate=0.1).active
        assert ChaosSpec(fail_tags=("poison",)).active

    def test_decide_is_deterministic_and_keyed(self):
        spec = ChaosSpec(seed=7, unit_error_rate=0.5)
        verdicts = [
            spec.decide("unit_error", f"key-{i}", 1) for i in range(64)
        ]
        # Pure function: identical on recomputation (any process, any time).
        assert verdicts == [
            spec.decide("unit_error", f"key-{i}", 1) for i in range(64)
        ]
        # Nondegenerate at rate 0.5: both outcomes occur across keys.
        assert any(verdicts) and not all(verdicts)

    def test_retried_attempt_draws_independently(self):
        spec = ChaosSpec(seed=3, unit_error_rate=0.5)
        doomed = [
            key
            for key in (f"key-{i}" for i in range(128))
            if spec.decide("unit_error", key, 1)
        ]
        # Some unit hit on attempt 1 must draw clean on attempt 2 —
        # that independence is what makes bounded retry converge.
        assert any(
            not spec.decide("unit_error", key, 2) for key in doomed
        )

    def test_rate_shortcuts_and_unknown_kind(self):
        assert not ChaosSpec().decide("unit_error", "k", 1)
        assert ChaosSpec(torn_write_rate=1.0).decide("torn_write", "k", 1)
        with pytest.raises(ConfigurationError, match="unknown chaos kind"):
            ChaosSpec().decide("meteor_strike", "k", 1)

    def test_dict_round_trip(self):
        spec = ChaosSpec(
            seed=11, worker_crash_rate=0.2, fail_tags=("a", "b")
        )
        assert ChaosSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigurationError, match="unknown ChaosSpec"):
            ChaosSpec.from_dict({"seed": 1, "bogus": 2})

    def test_parse_kv_and_json(self):
        spec = ChaosSpec.parse(
            "seed=7,unit_error=0.2,torn_write=0.1,fail_tags=bad|worse"
        )
        assert spec.seed == 7
        assert spec.unit_error_rate == 0.2
        assert spec.torn_write_rate == 0.1
        assert spec.fail_tags == ("bad", "worse")
        as_json = ChaosSpec.parse('{"seed": 7, "unit_error_rate": 0.2}')
        assert as_json.seed == 7 and as_json.unit_error_rate == 0.2

    @pytest.mark.parametrize(
        "text",
        ["", "unit_error", "bogus=1", "seed=x", "unit_error=lots", "{broken"],
    )
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ConfigurationError):
            ChaosSpec.parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"unit_error_rate": "x"}',
            '{"unit_error_rate": null}',
            '{"unit_error_rate": true}',
            '{"slow_unit_seconds": "x"}',
            '{"slow_unit_seconds": NaN}',
            '{"seed": "abc"}',
            '{"seed": 1.5}',
            '{"fail_tags": "poison"}',
            '{"fail_tags": ["poison", 3]}',
        ],
    )
    def test_json_specs_are_type_checked(self, text):
        with pytest.raises(ConfigurationError):
            ChaosSpec.parse(text)

    @pytest.mark.parametrize("value", ["0.1", None], ids=["str", "none"])
    @pytest.mark.parametrize(
        "name",
        [
            "unit_error_rate",
            "slow_unit_rate",
            "worker_crash_rate",
            "torn_write_rate",
            "enospc_rate",
        ],
    )
    def test_every_rate_field_is_type_checked(self, name, value):
        with pytest.raises(ConfigurationError, match="must be a number"):
            ChaosSpec(**{name: value})

    @pytest.mark.parametrize(
        "seconds", [-1.0, float("inf"), None], ids=["negative", "inf", "none"]
    )
    def test_slow_unit_seconds_must_be_finite_and_non_negative(self, seconds):
        with pytest.raises(ConfigurationError, match="slow_unit_seconds"):
            ChaosSpec(slow_unit_rate=0.5, slow_unit_seconds=seconds)

    def test_json_fail_tags_list_is_kept_whole(self):
        spec = ChaosSpec.parse('{"fail_tags": ["poison"]}')
        assert spec.fail_tags == ("poison",)

    @pytest.mark.parametrize(
        "text", ["lost_heartbeat=0.5", '{"lost_heartbeat_rate": 0.5}']
    )
    def test_lost_heartbeat_is_rejected(self, text):
        with pytest.raises(ConfigurationError, match="lost_heartbeat"):
            ChaosSpec.parse(text)


class TestApplyUnitChaos:
    def test_none_and_inactive_are_noops(self):
        apply_unit_chaos(None, "k", "tag", 1)
        apply_unit_chaos(ChaosSpec(), "k", "tag", 1)

    def test_unit_error_raises_transient_chaos_error(self):
        spec = ChaosSpec(unit_error_rate=1.0)
        with pytest.raises(ChaosError, match="injected transient"):
            apply_unit_chaos(spec, "k", "tag", 1)
        assert RetryPolicy.is_transient(ChaosError("x"))

    def test_worker_crash_in_band_without_allow_exit(self):
        spec = ChaosSpec(worker_crash_rate=1.0)
        with pytest.raises(WorkerCrashError, match="simulated worker crash"):
            apply_unit_chaos(spec, "k", "tag", 1)

    def test_poison_tag_fails_every_attempt(self):
        spec = ChaosSpec(fail_tags=("poison",))
        for attempt in (1, 2, 3, 7):
            with pytest.raises(ChaosError, match="poison"):
                apply_unit_chaos(spec, "k", "poison", attempt)
        apply_unit_chaos(spec, "k", "healthy", 1)  # other tags untouched


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline=0)

    def test_classification_follows_taxonomy(self):
        assert RetryPolicy.is_transient(ChaosError("x"))
        assert RetryPolicy.is_transient(UnitDeadlineError("x"))
        assert RetryPolicy.is_transient(OSError(28, "ENOSPC"))
        assert not RetryPolicy.is_transient(ConfigurationError("x"))
        assert not RetryPolicy.is_transient(ValueError("x"))

    def test_backoff_deterministic_exponential_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.25)
        delays = [policy.backoff(n, "key") for n in (1, 2, 3, 4, 5)]
        assert delays == [policy.backoff(n, "key") for n in (1, 2, 3, 4, 5)]
        for n, delay in enumerate(delays, start=1):
            ideal = min(0.1 * 2 ** (n - 1), 0.5)
            assert 0.75 * ideal <= delay <= 1.25 * ideal
        # Distinct keys jitter differently; zero jitter is exact.
        assert policy.backoff(1, "a") != policy.backoff(1, "b")
        exact = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert exact.backoff(3, "any") == 0.4
        with pytest.raises(ConfigurationError):
            policy.backoff(0)

    def test_identity_round_trip(self):
        policy = RetryPolicy(max_attempts=5, deadline=2.0)
        assert RetryPolicy.from_identity(policy.identity()) == policy


class TestUnitDeadline:
    def test_stall_is_aborted_as_transient(self):
        with pytest.raises(UnitDeadlineError, match="deadline"):
            with unit_deadline(0.05, what="stalled unit"):
                time.sleep(5.0)

    def test_none_is_a_noop(self):
        with unit_deadline(None):
            pass

    def test_timer_disarmed_on_clean_exit(self):
        with unit_deadline(0.2):
            pass
        time.sleep(0.3)  # the timer must not fire after the block


class TestEngineChaos:
    """Pool-backend chaos runs through CampaignEngine(chaos=...)."""

    def test_chaos_run_completes_bit_identical(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ref = CampaignEngine(workers=1).run_sweep(qm, x, y, BERS, config=config)
        chaos = ChaosSpec(
            seed=5,
            unit_error_rate=0.4,
            worker_crash_rate=0.3,
            slow_unit_rate=0.25,
            slow_unit_seconds=0.01,
        )
        engine = CampaignEngine(
            workers=2,
            checkpoint_path=tmp_path / "chaos.json",
            chaos=chaos,
            retry=RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.05),
        )
        got = engine.run_sweep(qm, x, y, BERS, config=config)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in ref]

    def test_poison_tag_quarantines_with_keys(
        self, tiny_quantized, tiny_eval, config
    ):
        from repro.runtime import TaskSpec

        qm, _ = tiny_quantized
        x, y = tiny_eval
        chaos = ChaosSpec(fail_tags=("doomed",))
        engine = CampaignEngine(
            workers=1,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        )
        tasks = [
            TaskSpec(ber=BERS[0], seed=0, tag="healthy"),
            TaskSpec(ber=BERS[0], seed=1, tag="doomed"),
        ]
        with pytest.raises(TaskQuarantinedError, match="doomed") as info:
            engine.evaluate_tasks(qm, x, y, tasks, config=config)
        assert info.value.tag == "doomed"
        assert len(info.value.quarantined_keys) == 1

    def test_chaos_spec_type_checked(self):
        with pytest.raises(ConfigurationError, match="ChaosSpec"):
            CampaignEngine(chaos={"unit_error_rate": 1.0})

    def test_default_retry_is_the_default_policy(self):
        """``retry=None`` means ``RetryPolicy()``: the attempt budget has
        one home, the policy, not a second engine argument."""
        assert CampaignEngine().retry == RetryPolicy()
        assert CampaignEngine(retry=None).retry.max_attempts == 3

    @pytest.mark.parametrize("knob", ["max_attempts", "flush_every"])
    def test_retired_engine_knobs_rejected(self, knob):
        with pytest.raises(TypeError, match=knob):
            CampaignEngine(**{knob: 1})

    def test_permanent_errors_do_not_burn_retries(
        self, tiny_quantized, tiny_eval, config
    ):
        """A logic error surfaces immediately as TaskExecutionError (not
        quarantine): retrying a pure function on bad input is waste."""
        from repro.errors import TaskExecutionError
        from repro.runtime import TaskSpec

        qm, _ = tiny_quantized
        x, y = tiny_eval
        engine = CampaignEngine(workers=1)
        bad = CampaignConfig(
            seeds=(0,),
            batch_size=12,
            max_samples=24,
            injector="no-such-injector",
        )
        with pytest.raises(TaskExecutionError) as info:
            engine.evaluate_tasks(
                qm, x, y, [TaskSpec(ber=BERS[0], seed=0)], config=bad
            )
        assert not isinstance(info.value, TaskQuarantinedError)
