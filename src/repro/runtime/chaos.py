"""Deterministic chaos framework for the campaign runtime.

Chaos testing asks: *does the runtime's detect/contain/recover machinery
actually recover?*  This module answers it with a first-class
:class:`ChaosSpec` whose every injection decision is a
**pure function of (chaos seed, task key, attempt)** — the same
keyed-Philox philosophy (:func:`repro.utils.rng.site_rng`) that makes
the fault injectors partition-invariant.  Consequences:

* a chaos run is **reproducible**: rerunning the same spec against the
  same batch injects the same faults at the same units, whatever the
  worker count or scheduling;
* a chaos run is **convergent**: a fault keyed by ``(key, attempt)``
  draws fresh on the retried attempt, so bounded retry drains the
  injected faults exactly as it would drain real transient ones, and
  the campaign completes **bit-identically** to the undisturbed run
  (enforced by ``tests/test_chaos_matrix.py`` and the CI chaos-matrix
  step);
* chaos decisions need no shared state, so every forked worker reaches
  the same verdicts as the parent.

Fault kinds
-----------
=================  ==================================================
``unit_error``     the unit raises :class:`~repro.errors.ChaosError`
                   (a transient exception; retry re-runs it)
``slow_unit``      the unit sleeps ``slow_unit_seconds`` first (pairs
                   with the retry policy's per-unit deadline watchdog)
``worker_crash``   the executing worker is declared dead mid-unit: an
                   in-band :class:`~repro.errors.WorkerCrashError`
                   (a ``multiprocessing.Pool`` cannot lose a process
                   without losing the result queue it shares), which
                   the retry path re-runs
``torn_write``     a checkpoint append persists only a prefix of the
                   record (a crash mid-write); the store rolls the
                   file back and the record is re-flushed
``enospc``         the checkpoint flush fails with ``ENOSPC``; records
                   stay in memory and the flush is retried with
                   backoff (the engine degrades checkpoint-less when
                   the budget is spent)
=================  ==================================================

``fail_tags`` is the poison-task hook: units whose *tag* matches
raise on **every** attempt, so the retry budget exhausts and the unit is
quarantined — the one chaos kind meant to *not* converge.

Threading
---------
``CampaignEngine(chaos=spec)`` / CLI ``--chaos SPEC`` threads one spec
through the serial path and the pool; ``ChaosSpec.parse`` accepts either
a JSON object or compact ``key=value`` pairs (``"seed=7,unit_error=0.2,
worker_crash=0.1,torn_write=0.2"``).  Production runs simply leave
``chaos=None`` — every hook is a no-op.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields

from repro.errors import ChaosError, ConfigurationError, WorkerCrashError
from repro.utils.rng import site_rng

__all__ = [
    "CHAOS_KINDS",
    "ChaosSpec",
    "apply_unit_chaos",
]

#: Recognized fault kinds, in documentation order.
CHAOS_KINDS = (
    "unit_error",
    "slow_unit",
    "worker_crash",
    "torn_write",
    "enospc",
)

#: Short CLI names for the rate fields of :class:`ChaosSpec`.
_RATE_FIELDS = {
    "unit_error": "unit_error_rate",
    "slow_unit": "slow_unit_rate",
    "worker_crash": "worker_crash_rate",
    "torn_write": "torn_write_rate",
    "enospc": "enospc_rate",
}


@dataclass(frozen=True)
class ChaosSpec:
    """Description of the faults to inject, and how often.

    Every rate is a per-decision probability in ``[0, 1]``; a decision
    point (one unit attempt, one flush attempt) consults
    :meth:`decide` with its fault kind, its content key and its attempt
    number, and the verdict is a pure function of those plus ``seed`` —
    no global RNG, no ordering effects, no cross-process divergence.

    Parameters
    ----------
    seed:
        Chaos campaign seed.  Two specs differing only in seed inject
        statistically alike but site-wise different fault patterns.
    unit_error_rate:
        Probability a unit attempt raises a transient
        :class:`~repro.errors.ChaosError` before evaluating.
    slow_unit_rate / slow_unit_seconds:
        Probability a unit attempt first sleeps ``slow_unit_seconds``.
    worker_crash_rate:
        Probability the worker executing a unit attempt dies mid-unit
        (see the module docs for how the crash is realized).
    torn_write_rate:
        Probability a checkpoint append persists only a prefix of its
        record.
    enospc_rate:
        Probability a checkpoint flush attempt fails as if the disk
        were full.
    fail_tags:
        Task tags that raise on **every** attempt (poison tasks): a
        list or tuple of strings.

    Every field is type-checked at construction: a rate or duration
    that is not a real number, a seed that is not an integer, or tags
    that are not a sequence of strings raise
    :class:`~repro.errors.ConfigurationError`.
    """

    seed: int = 0
    unit_error_rate: float = 0.0
    slow_unit_rate: float = 0.0
    slow_unit_seconds: float = 0.05
    worker_crash_rate: float = 0.0
    torn_write_rate: float = 0.0
    enospc_rate: float = 0.0
    fail_tags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        """Validate the types and ranges of every field at construction."""
        for short, name in _RATE_FIELDS.items():
            rate = _real(short, getattr(self, name))
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"chaos rate {short} must be in [0, 1], got {rate!r}"
                )
            object.__setattr__(self, name, rate)
        seconds = _real("slow_unit_seconds", self.slow_unit_seconds)
        if not 0.0 <= seconds < math.inf:
            raise ConfigurationError(
                f"slow_unit_seconds must be >= 0 and finite, got {seconds!r}"
            )
        object.__setattr__(self, "slow_unit_seconds", seconds)
        if isinstance(self.seed, bool) or not isinstance(
            self.seed, numbers.Integral
        ):
            raise ConfigurationError(
                f"chaos seed must be an integer, got {self.seed!r}"
            )
        object.__setattr__(self, "seed", int(self.seed))
        tags = self.fail_tags
        if not isinstance(tags, (list, tuple)) or not all(
            isinstance(tag, str) for tag in tags
        ):
            raise ConfigurationError(
                f"chaos fail_tags must be a list of strings, got {tags!r}"
            )
        object.__setattr__(self, "fail_tags", tuple(tags))

    @property
    def active(self) -> bool:
        """True when any fault kind can fire (rate > 0 or poison tags)."""
        return bool(self.fail_tags) or any(
            getattr(self, name) > 0.0 for name in _RATE_FIELDS.values()
        )

    def rate(self, kind: str) -> float:
        """The configured probability for one fault ``kind``."""
        try:
            return getattr(self, _RATE_FIELDS[kind])
        except KeyError:
            raise ConfigurationError(
                f"unknown chaos kind {kind!r}; expected one of "
                f"{', '.join(CHAOS_KINDS)}"
            ) from None

    def decide(self, kind: str, key: str, attempt: int) -> bool:
        """Does fault ``kind`` fire at ``(key, attempt)``?  Pure function.

        The verdict compares one keyed-Philox uniform draw —
        ``site_rng(seed, "chaos", kind, key, attempt)`` — against the
        kind's rate, so any process (pool worker, the parent, a rerun
        next week) reaches the same answer, and a
        *retried* attempt of the same unit draws independently: bounded
        retry drains injected faults deterministically.
        """
        rate = self.rate(kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        draw = site_rng(self.seed, "chaos", kind, key, int(attempt)).random()
        return bool(draw < rate)

    @classmethod
    def from_dict(cls, doc: dict) -> "ChaosSpec":
        """Build a spec from a field-name dict; unknown fields are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ChaosSpec field(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(known)}"
            )
        return cls(**doc)

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse a CLI ``--chaos`` spec string.

        Accepts either a JSON object (``'{"seed": 7, "unit_error_rate":
        0.2}'``) or compact comma-separated ``key=value`` pairs using
        the short kind names (``"seed=7,unit_error=0.2,torn_write=0.1,
        fail_tags=poison|bad"``, tags ``|``-separated).  Raises
        :class:`~repro.errors.ConfigurationError` on anything else, so
        the CLI surfaces a typed configuration failure (exit code
        contract) rather than a stack trace.
        """
        text = text.strip()
        if not text:
            raise ConfigurationError("--chaos spec must not be empty")
        if text.startswith("{"):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"--chaos JSON spec is invalid: {exc}"
                ) from exc
            if not isinstance(doc, dict):
                raise ConfigurationError(
                    f"--chaos JSON spec must be an object, got {type(doc).__name__}"
                )
            return cls.from_dict(doc)
        doc = {}
        for pair in text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ConfigurationError(
                    f"--chaos pair {pair!r} is not key=value (spec: "
                    f"{text!r})"
                )
            name, value = (part.strip() for part in pair.split("=", 1))
            if name in _RATE_FIELDS:
                doc[_RATE_FIELDS[name]] = _parse_float(name, value)
            elif name in ("slow_unit_seconds",):
                doc[name] = _parse_float(name, value)
            elif name == "seed":
                try:
                    doc["seed"] = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"--chaos seed must be an integer, got {value!r}"
                    ) from None
            elif name == "fail_tags":
                doc["fail_tags"] = tuple(
                    tag for tag in value.split("|") if tag
                )
            else:
                raise ConfigurationError(
                    f"unknown --chaos key {name!r}; expected seed, "
                    f"slow_unit_seconds, fail_tags or a rate among "
                    f"{', '.join(_RATE_FIELDS)}"
                )
        return cls(**doc)


def _real(name: str, value) -> float:
    """``value`` as a float, or a typed error if it is not a real number.

    Strings, ``None`` and booleans are rejected rather than coerced, so
    a JSON spec like ``{"unit_error_rate": "x"}`` fails as a
    configuration error instead of a raw ``ValueError``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(
            f"chaos {name} must be a number, got {value!r}"
        )
    return float(value)


def _parse_float(name: str, value: str) -> float:
    """Parse one ``--chaos`` numeric value with a typed error."""
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(
            f"--chaos {name} must be a number, got {value!r}"
        ) from None


def apply_unit_chaos(
    chaos: "ChaosSpec | None",
    key: str,
    tag: str,
    attempt: int,
) -> None:
    """Run the pre-evaluation chaos hooks for one unit attempt.

    Called immediately before evaluating a unit — the pool worker and
    the serial path share this one function, so a given ``(key,
    attempt)`` suffers the same injected fate wherever it is scheduled.
    Order: slow-unit sleep first (so a slow *and* doomed unit exercises
    the deadline watchdog before dying), then poison tags, then the
    transient unit error, then the worker crash, raised in-band as a
    :class:`~repro.errors.WorkerCrashError` that the engine's retry path
    re-runs.
    """
    if chaos is None or not chaos.active:
        return
    if chaos.decide("slow_unit", key, attempt):
        time.sleep(chaos.slow_unit_seconds)
    if tag and tag in chaos.fail_tags:
        raise ChaosError(
            f"chaos: poison tag {tag!r} (task {key}, attempt {attempt}) — "
            "fails every attempt by design"
        )
    if chaos.decide("unit_error", key, attempt):
        raise ChaosError(
            f"chaos: injected transient unit error (task {key}, attempt "
            f"{attempt})"
        )
    if chaos.decide("worker_crash", key, attempt):
        raise WorkerCrashError(
            f"chaos: simulated worker crash (task {key}, attempt {attempt})"
        )

