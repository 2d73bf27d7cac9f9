"""Campaign execution runtime: sharded workers, checkpointing, resume.

This package turns the serial Monte-Carlo loops of :mod:`repro.faultsim`
and the protected-evaluation analyses built on them into an interruptible,
parallel service.  :class:`CampaignEngine` dispatches independent
:class:`TaskSpec` units — a (BER, seed) point, or a whole seed batch,
under an optional protection plan — across a process pool via
:meth:`CampaignEngine.evaluate_tasks`.  Scheduling and checkpointing
happen at *subtask* granularity (one entry per (BER, seed, plan)
evaluation in a content-addressed JSON-lines file), so a single seed-batch
task shards across the whole pool and an interrupted batch resumes with
only its missing seeds recomputed, while results stay bit-identical to
serial execution.  Accuracy sweeps (:meth:`CampaignEngine.run_sweep`,
figs 1–2/6–7), layer vulnerability (Fig. 3), operation-type sensitivity
(Fig. 4) and the TMR planner (Fig. 5) all route through the same
engine, which runs units serially in-process or on a forked pool,
bit-identically.  Resilience is a first-class surface:
a unified :class:`RetryPolicy` (bounded attempts, seeded exponential
backoff, transient-vs-permanent classification, optional per-unit
deadline) governs every unit attempt, the deterministic
chaos framework (:class:`ChaosSpec`, :mod:`repro.runtime.chaos`) injects
reproducible faults for drills, and checkpoint stores carry per-record
CRCs with an offline :func:`fsck` checker/repairer.  See
``docs/RUNTIME.md`` for the full contract and ``docs/ARCHITECTURE.md``
for the data flow.
"""

from repro.runtime.chaos import CHAOS_KINDS, ChaosSpec
from repro.runtime.checkpoint import (
    CampaignCheckpoint,
    FsckFileReport,
    FsckReport,
    fsck,
)
from repro.runtime.engine import (
    CampaignEngine,
    SAMPLE_SHARD_AUTO,
    SweepStats,
    auto_sample_shard,
    resolve_workers,
)
from repro.runtime.hashing import (
    adaptive_fingerprint,
    batch_task_keys,
    campaign_fingerprint,
    data_fingerprint,
    model_fingerprint,
    point_key,
    task_key,
)
from repro.runtime.progress import (
    ProgressEvent,
    ProgressReporter,
    ThroughputMeter,
    null_reporter,
    stream_reporter,
)
from repro.runtime.retry import RetryPolicy, unit_deadline
from repro.runtime.tasks import TaskSpec

__all__ = [
    "CampaignEngine",
    "CampaignCheckpoint",
    "ChaosSpec",
    "CHAOS_KINDS",
    "FsckFileReport",
    "FsckReport",
    "RetryPolicy",
    "SweepStats",
    "fsck",
    "unit_deadline",
    "SAMPLE_SHARD_AUTO",
    "TaskSpec",
    "auto_sample_shard",
    "resolve_workers",
    "model_fingerprint",
    "campaign_fingerprint",
    "data_fingerprint",
    "point_key",
    "task_key",
    "batch_task_keys",
    "adaptive_fingerprint",
    "ProgressEvent",
    "ProgressReporter",
    "ThroughputMeter",
    "null_reporter",
    "stream_reporter",
]
