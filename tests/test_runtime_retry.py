"""Unified retry policy: validation, backoff, deadlines, engine budgets.

:class:`~repro.runtime.RetryPolicy` governs every unit attempt and
checkpoint flush.  A policy that could not run — a NaN or infinite
delay, a deadline the interval timer cannot arm, a fractional attempt
budget — must fail as a :class:`~repro.errors.ConfigurationError` at
construction, before any unit starts.  The engine-level recovery runs
(retry draining injected faults, quarantine) live in
``tests/test_resilience_matrix.py``.
"""

from __future__ import annotations

import dataclasses
import importlib
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    TaskQuarantinedError,
    TransientError,
    UnitDeadlineError,
)
from repro.faultsim import CampaignConfig
from repro.runtime import CampaignEngine, RetryPolicy, unit_deadline

BERS = [1e-5, 1e-4]


@pytest.fixture()
def config():
    return CampaignConfig(
        seeds=(0, 1),
        batch_size=12,
        max_samples=24,
    )


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

    @pytest.mark.parametrize(
        "setting",
        [
            {"deadline": float("nan")},
            {"deadline": float("inf")},
            {"deadline": 1e12},
            {"base_delay": float("nan")},
            {"base_delay": float("inf")},
            {"max_delay": float("nan")},
            {"max_delay": float("inf")},
            {"max_attempts": 2.5},
        ],
        ids=repr,
    )
    def test_unrunnable_settings_rejected(self, setting):
        """Each of these used to be accepted and then broke every unit
        (``setitimer`` raising inside the watchdog) or every backoff."""
        with pytest.raises(ConfigurationError):
            RetryPolicy(**setting)

    def test_largest_armable_deadline_accepted(self):
        assert RetryPolicy(deadline=1e9).deadline == 1e9

    @pytest.mark.parametrize(
        "setting",
        [
            {"max_attempts": -1},
            {"max_attempts": "3"},
            {"max_attempts": None},
            {"max_attempts": 3.0},
            {"base_delay": float("-inf")},
            {"base_delay": -0.5},
            {"max_delay": -1},
            {"jitter": -0.1},
            {"jitter": float("nan")},
            {"deadline": -1.0},
            {"deadline": float("-inf")},
            {"deadline": np.nextafter(1e9, np.inf)},
        ],
        ids=repr,
    )
    def test_out_of_range_settings_rejected(self, setting):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**setting)

    @pytest.mark.parametrize(
        "setting",
        [
            {"max_attempts": 1},
            {"max_attempts": np.int64(4)},
            {"base_delay": 0.0, "max_delay": 0.0},
            {"jitter": 0.0},
            {"jitter": 0.999},
            {"deadline": None},
            {"deadline": 1e-3},
        ],
        ids=repr,
    )
    def test_boundary_settings_accepted(self, setting):
        """Validation must not reject a policy that can run."""
        policy = RetryPolicy(**setting)
        for field, value in setting.items():
            assert getattr(policy, field) == value

    def test_zero_base_delay_never_sleeps(self):
        policy = RetryPolicy(base_delay=0.0, jitter=0.25)
        assert [policy.backoff(n, "key") for n in (1, 2, 5)] == [0.0, 0.0, 0.0]

    def test_policy_is_frozen(self):
        """Workers share the engine's policy object; it cannot drift."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            RetryPolicy().max_attempts = 5

    def test_classification_follows_taxonomy(self):
        assert RetryPolicy.is_transient(TransientError("x"))
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

    def test_handler_restored_when_arming_fails(self):
        previous = signal.getsignal(signal.SIGALRM)
        with pytest.raises(ValueError):
            with unit_deadline(float("nan")):
                pass
        assert signal.getsignal(signal.SIGALRM) is previous

    @pytest.mark.parametrize("seconds", [float("inf"), 1e12])
    def test_handler_restored_when_timer_overflows(self, seconds):
        previous = signal.getsignal(signal.SIGALRM)
        with pytest.raises(OverflowError):
            with unit_deadline(seconds):
                pass
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_handler_restored_after_expiry(self):
        previous = signal.getsignal(signal.SIGALRM)
        with pytest.raises(UnitDeadlineError):
            with unit_deadline(0.05):
                time.sleep(5.0)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_handler_restored_after_clean_exit(self):
        previous = signal.getsignal(signal.SIGALRM)
        with unit_deadline(0.5):
            assert signal.getsignal(signal.SIGALRM) is not previous
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_deadline_abort_is_retried_by_the_policy(self):
        with pytest.raises(UnitDeadlineError) as info:
            with unit_deadline(0.05):
                time.sleep(5.0)
        assert RetryPolicy.is_transient(info.value)

    def test_noop_off_the_main_thread(self):
        """Signal handlers can only be installed on the main thread, so
        elsewhere the watchdog stands aside instead of failing the unit."""
        outcome = []

        def guarded():
            try:
                with unit_deadline(0.01):
                    time.sleep(0.05)
                outcome.append("completed")
            except Exception as exc:
                outcome.append(exc)

        worker = threading.Thread(target=guarded)
        worker.start()
        worker.join(timeout=10)
        assert outcome == ["completed"]


class TestEngineRetry:
    def test_default_retry_is_the_default_policy(self):
        """``retry=None`` means ``RetryPolicy()``: the attempt budget has
        one home, the policy, not a second engine argument."""
        assert CampaignEngine().retry == RetryPolicy()
        assert CampaignEngine(retry=None).retry.max_attempts == 3

    @pytest.mark.parametrize("knob", ["max_attempts", "flush_every", "chaos"])
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


class TestRetiredFaultInjectionSurface:
    """Runtime fault injection is test-only (the ``runtime_faults``
    fixture); the package exposes no fault-injection names or knobs."""

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.runtime", "ChaosSpec"),
            ("repro.runtime", "CHAOS_KINDS"),
            ("repro.runtime", "apply_unit_chaos"),
            ("repro.errors", "ChaosError"),
            ("repro.errors", "WorkerCrashError"),
        ],
    )
    def test_name_is_gone(self, module, name):
        package = importlib.import_module(module)
        assert not hasattr(package, name)
        assert name not in getattr(package, "__all__", ())

    def test_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.chaos")

    def test_make_engine_rejects_chaos(self, tmp_path):
        from repro.experiments.common import make_engine

        with pytest.raises(TypeError, match="chaos"):
            make_engine(checkpoint=tmp_path / "ck.json", chaos="unit_error=0.5")

    def test_checkpoint_rejects_chaos(self, tmp_path):
        from repro.runtime import CampaignCheckpoint

        with pytest.raises(TypeError, match="chaos"):
            CampaignCheckpoint(tmp_path / "ck.json", chaos=None)
