"""Campaign execution runtime: sharded workers, checkpointing, resume.

This package turns the serial Monte-Carlo loops of :mod:`repro.faultsim`
and the protected-evaluation analyses built on them into an interruptible,
parallel service.  :class:`CampaignEngine` dispatches independent
:class:`TaskSpec` units — a (BER, seed) point, or a whole seed batch,
under an optional protection plan — across a process pool via
:meth:`CampaignEngine.evaluate_tasks`.  Scheduling and checkpointing
happen per *point* (one entry per (BER, seed, plan) evaluation in a
content-addressed JSON-lines file); the engine's one unit of work is a
sample window of a pending point — the whole evaluation set unless a
batch is too small to fill its pool — scored by one evaluator and
folded back per point, so a
single seed-batch task shards across the whole pool and an interrupted
batch resumes with only its missing seeds recomputed, while results
stay bit-identical to serial execution.  Accuracy sweeps
(:meth:`CampaignEngine.run_sweep`, figs 1–2/6–7), layer vulnerability
(Fig. 3), operation-type sensitivity (Fig. 4) and the TMR planner
(Fig. 5) all route through the same
engine, which runs units serially in-process or on a forked pool,
bit-identically.  A unified :class:`RetryPolicy` (bounded attempts,
seeded exponential backoff, transient-vs-permanent classification,
optional per-unit deadline) governs every unit attempt and checkpoint
flush, and checkpoint stores carry per-record CRCs with an offline
:func:`fsck` checker/repairer.  See
``docs/RUNTIME.md`` for the full contract and ``docs/ARCHITECTURE.md``
for the data flow.
"""

from repro.runtime.checkpoint import (
    CampaignCheckpoint,
    FsckReport,
    fsck,
)
from repro.runtime.engine import (
    CampaignEngine,
    SweepStats,
    auto_sample_shard,
    resolve_workers,
)
from repro.runtime.hashing import (
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
    null_reporter,
    stream_reporter,
)
from repro.runtime.retry import RetryPolicy, unit_deadline
from repro.runtime.tasks import TaskSpec

__all__ = [
    "CampaignEngine",
    "CampaignCheckpoint",
    "FsckReport",
    "RetryPolicy",
    "SweepStats",
    "fsck",
    "unit_deadline",
    "TaskSpec",
    "auto_sample_shard",
    "resolve_workers",
    "model_fingerprint",
    "campaign_fingerprint",
    "data_fingerprint",
    "point_key",
    "task_key",
    "batch_task_keys",
    "ProgressEvent",
    "ProgressReporter",
    "null_reporter",
    "stream_reporter",
]
