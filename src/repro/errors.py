"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class TransientError(ReproError):
    """A failure expected to clear on retry (infrastructure, not logic).

    The unified :class:`repro.runtime.RetryPolicy` classifies exceptions
    into *transient* (worth retrying with backoff: deadline aborts,
    failed checkpoint flushes) and *permanent* (retrying re-raises the
    same error: bad configuration, shape mismatches).  Library code
    raises a :class:`TransientError` subclass whenever the failure is an
    infrastructure condition rather than a property of the task itself.
    """


class UnitDeadlineError(TransientError):
    """A unit exceeded its per-unit deadline and was aborted.

    Raised by the :func:`repro.runtime.unit_deadline` watchdog inside
    the worker executing the unit.  Transient by classification: a stall
    is usually environmental (a stolen core, a saturated disk), so the
    retry policy re-runs the unit before giving up.
    """


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class CheckpointError(ConfigurationError):
    """A campaign checkpoint file is damaged or unreadable.

    Subclasses :class:`ConfigurationError` so existing callers that guard
    checkpoint loading keep working; raised instead of a raw
    ``json.JSONDecodeError`` so corruption is always reported with the
    file path and the salvage options.
    """


class CheckpointWriteError(CheckpointError, TransientError):
    """A checkpoint flush could not persist its pending records.

    Raised by :class:`repro.runtime.CampaignCheckpoint` when an append
    is torn (short write) or the disk is full (``ENOSPC``).  The store
    rolls the file back to its pre-write state and *retains every
    pending record in memory*, so the flush can be retried with backoff
    — and the engine degrades to checkpoint-less completion (with a loud
    warning) rather than crashing mid-campaign when retries exhaust.
    """


class TaskExecutionError(ReproError):
    """A campaign task failed while executing.

    Raised by :class:`repro.runtime.CampaignEngine` — in-process or in a
    forked pool worker — with the failing task's identity attached, so
    campaign drivers report failures uniformly regardless of where the
    work ran.
    """

    def __init__(self, message: str, task_key: str = "", tag: str = ""):
        """Store the failing task's content-hash key and tag on the error."""
        super().__init__(message)
        #: Content-hash checkpoint key of the failing unit ("" if unknown).
        self.task_key = task_key
        #: The failing task's human-readable tag ("" if untagged).
        self.tag = tag


class TaskQuarantinedError(TaskExecutionError):
    """One or more tasks exhausted their retry budget and were quarantined.

    The engine raises this subclass once the unified
    :class:`repro.runtime.RetryPolicy` spends a unit's attempts, so
    campaign scripts can branch on quarantine as a failure class
    distinct from a first-attempt execution error.  ``task_key``/``tag`` name the first
    quarantined unit; :attr:`quarantined_keys` lists every one.
    """

    def __init__(
        self,
        message: str,
        task_key: str = "",
        tag: str = "",
        quarantined_keys: tuple[str, ...] = (),
    ):
        """Store the first failing identity plus all quarantined keys."""
        super().__init__(message, task_key=task_key, tag=tag)
        #: Content-hash keys of every quarantined unit, in batch order.
        self.quarantined_keys = tuple(quarantined_keys)


class QuantizationError(ReproError):
    """A fixed-point format or quantization request is invalid."""


class TransformError(ReproError):
    """A Winograd transform could not be constructed or applied."""


class ShapeError(ReproError):
    """An array argument has an incompatible shape."""


class FaultModelError(ReproError):
    """A fault-injection configuration or site reference is invalid."""


class MappingError(ReproError):
    """A layer could not be mapped onto the accelerator model."""


class TrainingError(ReproError):
    """Model training failed to make progress or received bad inputs."""


#: CLI exit code: success.
EXIT_OK = 0
#: CLI exit code: any :class:`ReproError` without a more specific code.
EXIT_FAILURE = 1
#: CLI exit code: argparse usage errors (argparse's own convention).
EXIT_USAGE = 2
#: CLI exit code: invalid configuration (:class:`ConfigurationError`).
EXIT_CONFIG = 3
#: CLI exit code: a campaign task failed (:class:`TaskExecutionError`).
EXIT_TASK_FAILURE = 4
#: CLI exit code: tasks quarantined (:class:`TaskQuarantinedError`).
EXIT_QUARANTINE = 5
#: CLI exit code: checkpoint corruption (:class:`CheckpointError`).
EXIT_CHECKPOINT = 6


def exit_code_for(exc: BaseException) -> int:
    """Map an exception onto the CLI's documented exit codes.

    Most-specific classes match first — quarantine before generic task
    failure, checkpoint corruption before generic configuration — so
    scripts can branch on the exit status alone.  Exceptions outside the
    :class:`ReproError` taxonomy map to :data:`EXIT_FAILURE`.
    """
    if isinstance(exc, TaskQuarantinedError):
        return EXIT_QUARANTINE
    if isinstance(exc, TaskExecutionError):
        return EXIT_TASK_FAILURE
    if isinstance(exc, CheckpointError):
        return EXIT_CHECKPOINT
    if isinstance(exc, ConfigurationError):
        return EXIT_CONFIG
    return EXIT_FAILURE
