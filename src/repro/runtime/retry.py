"""Unified retry policy: bounded attempts, deterministic backoff, deadlines.

:class:`RetryPolicy` is the single policy object the campaign runtime
uses for transient infrastructure faults, both for unit executions and
for checkpoint flushes:

* **Attempt budget** — ``max_attempts`` executions per unit, so "how
  many times may this computation fail" has exactly one answer per
  engine.
* **Exponential backoff with deterministic jitter** — ``backoff(attempt,
  key)`` returns ``base_delay * 2**(attempt-1)`` capped at ``max_delay``,
  multiplied by a jitter factor drawn from the same keyed-Philox
  construction as the fault injectors (:func:`repro.utils.rng.site_rng`):
  the delay is a pure function of ``(key, attempt)``, so two reruns of a
  campaign that hits the same faults sleep identically and stay
  bit-reproducible in wall clock *shape*, not just in results.
* **Transient-vs-permanent classification** — :meth:`is_transient` maps
  the :mod:`repro.errors` taxonomy onto the retry decision: a
  :class:`~repro.errors.TransientError` (deadline aborts, failed
  checkpoint flushes) or an ``OSError`` is worth retrying; a
  :class:`~repro.errors.ConfigurationError` or any other logic error
  would fail identically on every attempt and is surfaced immediately.
* **Per-unit deadline** — ``deadline`` seconds per unit execution,
  enforced inside the worker by the :func:`unit_deadline` watchdog
  (SIGALRM-based, POSIX main-thread only, a no-op elsewhere), turning a
  hung unit into a retryable :class:`~repro.errors.UnitDeadlineError`
  instead of a stalled campaign.

The policy is a frozen dataclass: safe to share between the engine and
every forked worker process.  Every field is checked at construction, so
a policy that could not run (a NaN delay, a deadline the interval timer
cannot arm, a fractional attempt budget) fails as a
:class:`~repro.errors.ConfigurationError` before any unit starts.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import signal
import threading
from dataclasses import dataclass

from repro.errors import ConfigurationError, TransientError, UnitDeadlineError
from repro.utils.rng import site_rng

__all__ = ["RetryPolicy", "unit_deadline"]

#: Largest accepted per-unit deadline, in seconds (about 31.7 years):
#: every POSIX interval timer can arm it, even with a 32-bit ``time_t``.
_MAX_DEADLINE = 1e9


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, how spaced, and for which errors work is retried.

    Parameters
    ----------
    max_attempts:
        Execution budget per unit (an integer >= 1).  The engine re-runs a
        transiently failed unit until this many attempts are spent and
        then quarantines it.
    base_delay:
        Backoff before the *second* attempt, in seconds (finite,
        >= 0).  Attempt ``n`` waits ``base_delay * 2**(n-1)`` (capped at
        ``max_delay``) times the jitter factor.
    max_delay:
        Upper bound on any single backoff sleep, in seconds (finite,
        >= 0).
    jitter:
        Jitter half-width as a fraction of the delay (``0.25`` means the
        realized delay is uniform in ``[0.75, 1.25] * delay``).  The draw
        is keyed by ``(key, attempt)`` through ``site_rng``, so it is
        deterministic per unit.
    deadline:
        Optional per-unit wall-clock budget in seconds, enforced by
        :func:`unit_deadline` inside the executing worker: a finite
        number in ``(0, 1e9]``.  ``None`` disables the watchdog.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 5.0
    jitter: float = 0.25
    deadline: float | None = None

    def __post_init__(self):
        """Validate budgets and delays at construction.

        Range checks are written as ``not lo <= value < hi`` so NaN fails
        them too (every comparison with NaN is false).
        """
        if not isinstance(self.max_attempts, numbers.Integral) or self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        if not all(
            0 <= delay < math.inf for delay in (self.base_delay, self.max_delay)
        ):
            raise ConfigurationError(
                f"backoff delays must be finite and >= 0 seconds, got "
                f"base_delay={self.base_delay} max_delay={self.max_delay}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.deadline is not None and not 0 < self.deadline <= _MAX_DEADLINE:
            raise ConfigurationError(
                f"deadline must be in (0, {_MAX_DEADLINE:g}] seconds (or "
                f"None), got {self.deadline}"
            )

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        """True when ``exc`` is worth retrying under this policy.

        Transient means the failure is an infrastructure condition —
        anything in the :class:`~repro.errors.TransientError` branch of
        the taxonomy (deadline aborts, failed checkpoint flushes) plus
        bare ``OSError``/``IOError`` (torn
        writes, full disks, vanished files on shared mounts).  Logic
        errors (:class:`~repro.errors.ConfigurationError`, shape/type
        errors, arbitrary exceptions from user code) are permanent: the
        unit is a pure function of its spec, so they recur identically.
        """
        return isinstance(exc, (TransientError, OSError))

    def backoff(self, attempt: int, key: str = "") -> float:
        """Deterministic backoff delay (seconds) before retrying ``key``.

        ``attempt`` is the attempt that just failed (1 = first
        execution).  Exponential in the attempt number, capped at
        ``max_delay``, jittered by a keyed-Philox draw that is a pure
        function of ``(key, attempt)`` — no shared RNG state, so any
        process computes the same schedule for the same unit.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.base_delay * (2.0 ** (attempt - 1)), self.max_delay)
        if delay <= 0.0:
            return 0.0
        if self.jitter == 0.0:
            return delay
        u = float(site_rng(0, "retry-backoff", key, attempt).random())
        return delay * (1.0 - self.jitter + 2.0 * self.jitter * u)


@contextlib.contextmanager
def unit_deadline(seconds: float | None, what: str = "unit"):
    """Abort the enclosed block after ``seconds`` with a deadline error.

    A SIGALRM watchdog: entered around one unit evaluation in a worker
    process, it arms an interval timer and raises
    :class:`~repro.errors.UnitDeadlineError` (a transient error — the
    retry policy re-runs the unit) if the block outlives its budget.
    Silently a no-op when ``seconds`` is None, when not on the process's
    main thread (signal handlers can only be installed there), or on
    platforms without ``SIGALRM`` — a watchdog that cannot be armed must
    not break the evaluation it was meant to guard.

    The timer is armed inside the guarded block, so the previous handler
    is restored on every exit — also when arming itself fails — and
    nesting an engine's serial path inside a user's own alarm handling
    stays safe.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        """SIGALRM handler: turn the stall into a typed, transient error."""
        raise UnitDeadlineError(
            f"{what} exceeded its {seconds:g}s deadline and was aborted "
            "by the watchdog (transient: the retry policy re-runs it)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
