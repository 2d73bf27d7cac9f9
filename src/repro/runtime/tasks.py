"""Task specifications: the engine's generalized unit of work.

PR 1's engine understood exactly one shape of work — a (BER, seed) point of
an accuracy sweep, always evaluated under one shared protection plan.  The
paper's remaining analyses do not fit that shape: layer-wise vulnerability
(Fig. 3) evaluates one *protection plan per layer*, operation-type
sensitivity (Fig. 4) evaluates three plans, and the TMR planner (Fig. 5)
evaluates a freshly grown plan every iteration.

:class:`TaskSpec` captures the general unit in two shapes:

* a **point task** (``seed=``) — one protected evaluation of a model at a
  (BER, seed) point, producing a
  :class:`~repro.faultsim.campaign.SeedPointResult`;
* a **seed-batch task** (``seeds=``) — the same evaluation over a whole
  tuple of seeds, which the engine splits into per-seed *subtasks*, shards
  across its worker pool, and reduces (in seed order, with the exact serial
  statistics code) into one
  :class:`~repro.faultsim.campaign.CampaignResult`.

The engine splits a pending point once more, along the *sample* axis,
when a batch has too few points to fill its pool:
:meth:`TaskSpec.sample_subtasks` expands a (BER, seed) point into
**slice tasks** (``sample_slice=(start, stop)``), each scoring one
contiguous window of the evaluation set via
:func:`~repro.faultsim.campaign.evaluate_sample_slice`.  The engine folds
a point's slices back with
:func:`~repro.faultsim.campaign.combine_slice_results` — bit-identical to
the unsliced point for any slice size.  Slices are scheduling only: they
have no identity of their own.

The task's *identity* — what makes a checkpoint entry reusable — always
lives at point granularity: each (BER, seed) point is keyed by the
content hash produced by :meth:`TaskSpec.key`, which binds the model
fingerprint, the evaluation-data fingerprint, the campaign configuration,
the point and the plan.  Seed-batch and slice tasks therefore have no
key of their own; a resumed engine recomputes only the *missing seeds*
of an interrupted batch, and a batch task shares its per-seed checkpoint
entries with the equivalent point tasks.  The model
hash is bound by the engine at dispatch time (tasks are model-relative;
:meth:`CampaignEngine.evaluate_tasks` evaluates a batch of tasks against
one model), and the ``tag`` deliberately does not contribute: the same
evaluation reached from different figures shares one cache entry.

The adaptive drivers (:mod:`repro.stats.adaptive`) lean on exactly that
identity rule: an adaptive round tags its tasks ``"<tag>:r<round>"`` for
progress display, but because rounds are scheduling — not content — the
round number never enters the key.  A (BER, seed) unit evaluated by round
3 of an adaptive sweep, by a fixed-grid run, or on resume after a kill is
one checkpoint entry, and legacy keys are untouched.  Seeds an adaptive
run extends *past* the configured campaign seeds get distinct keys
naturally, the seed being part of every point key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faultsim.campaign import CampaignConfig, validate_ber
from repro.faultsim.protection import ProtectionPlan
from repro.runtime.hashing import task_key

__all__ = ["TaskSpec"]


@dataclass(frozen=True)
class TaskSpec:
    """One protected evaluation: a (BER, seed(s)) point under a plan.

    Exactly one of ``seed`` (point task) and ``seeds`` (seed-batch task)
    must be provided.

    Parameters
    ----------
    ber:
        Bit error rate of the fault injection.
    seed:
        RNG seed owned by this unit; together with ``ber`` and the plan it
        fully determines the result (the unit is pure).  Mutually
        exclusive with ``seeds``.
    protection:
        Optional :class:`ProtectionPlan` applied during this evaluation
        only.  ``None`` means unprotected (the sweep default).
    tag:
        Human-readable label (e.g. ``"fault-free:c2"`` or ``"tmr-iter3"``)
        surfaced in progress events.  Not part of the task's identity.
    seeds:
        Seed tuple for a seed-batch task.  The engine shards the batch
        into one per-seed subtask each (see :meth:`subtasks`) and reduces
        the results into a single
        :class:`~repro.faultsim.campaign.CampaignResult` in seed order.
    sample_slice:
        Optional ``(start, stop)`` window into the evaluation samples:
        the task scores only those samples
        (:class:`~repro.faultsim.campaign.SampleSliceResult`).  Only valid
        on point tasks; produced by :meth:`sample_subtasks` when the
        engine slices a pending point.
    """

    ber: float
    seed: int | None = None
    protection: ProtectionPlan | None = None
    tag: str = field(default="", compare=False)
    seeds: tuple[int, ...] | None = None
    sample_slice: tuple[int, int] | None = None

    def __post_init__(self):
        """Validate the BER and the point/seed-batch shape invariant.

        The BER is validated here — the task boundary — because a NaN or
        out-of-range value would otherwise be content-hashed into a
        checkpoint key and persist as a row no resume can reconcile.
        """
        object.__setattr__(self, "ber", validate_ber(self.ber))
        if (self.seed is None) == (self.seeds is None):
            raise ConfigurationError(
                "TaskSpec requires exactly one of seed= (point task) or "
                f"seeds= (seed-batch task); got seed={self.seed!r} "
                f"seeds={self.seeds!r}"
            )
        if self.seeds is not None:
            if len(self.seeds) == 0:
                raise ConfigurationError("TaskSpec seeds= must be non-empty")
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.sample_slice is not None:
            if self.seed is None:
                raise ConfigurationError(
                    "sample_slice= is only valid on point tasks (seed=); "
                    "expand a seed batch with subtasks() first"
                )
            start, stop = (int(v) for v in self.sample_slice)
            if start < 0 or stop <= start:
                raise ConfigurationError(
                    f"sample_slice must satisfy 0 <= start < stop, "
                    f"got ({start}, {stop})"
                )
            object.__setattr__(self, "sample_slice", (start, stop))

    @property
    def is_batch(self) -> bool:
        """True for a seed-batch task (reduced to a CampaignResult)."""
        return self.seeds is not None

    def subtasks(self) -> tuple["TaskSpec", ...]:
        """The point tasks this task shards into, in seed order.

        A point task is its own (singleton) subtask; a seed-batch task
        yields one point task per seed, sharing its BER, plan and tag.
        The engine dispatches and checkpoints at this granularity.
        """
        if self.seeds is None:
            return (self,)
        return tuple(
            TaskSpec(
                ber=self.ber, seed=seed, protection=self.protection, tag=self.tag
            )
            for seed in self.seeds
        )

    def sample_subtasks(self, n_samples: int, shard: int) -> tuple["TaskSpec", ...]:
        """The sample-slice tasks this point task shards into.

        Splits the ``[0, n_samples)`` evaluation window into consecutive
        slices of ``shard`` samples (the last slice may be shorter).  A
        shard at least as large as the sample set returns the task
        unchanged (no slicing overhead).  Seed-batch tasks must be expanded with
        :meth:`subtasks` first; tasks already carrying a slice are their
        own singleton expansion.
        """
        if self.is_batch:
            raise ConfigurationError(
                "expand a seed-batch TaskSpec with subtasks() before "
                "sample-sharding"
            )
        if shard < 1:
            raise ConfigurationError(f"sample shard must be >= 1, got {shard}")
        if self.sample_slice is not None or shard >= n_samples:
            return (self,)
        return tuple(
            TaskSpec(
                ber=self.ber,
                seed=self.seed,
                protection=self.protection,
                tag=self.tag,
                sample_slice=(start, min(start + shard, n_samples)),
            )
            for start in range(0, n_samples, shard)
        )

    def key(self, model_fp: str, data_fp: str, config: CampaignConfig) -> str:
        """Content-addressed checkpoint key for this point task.

        ``model_fp``/``data_fp`` come from :func:`model_fingerprint` /
        :func:`data_fingerprint`; the engine computes them once per batch.
        Seed-batch tasks have no key of their own — their identity lives
        in their :meth:`subtasks` — and neither do slice tasks, which are
        scheduling parts of their point; calling this on either raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if self.is_batch:
            raise ConfigurationError(
                "a seed-batch TaskSpec has no single key; key its subtasks()"
            )
        if self.sample_slice is not None:
            raise ConfigurationError(
                "a slice TaskSpec has no key of its own; key its point"
            )
        return task_key(
            model_fp, data_fp, config, self.ber, self.seed, self.protection
        )
