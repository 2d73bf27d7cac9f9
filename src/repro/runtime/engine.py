"""Parallel campaign execution engine.

:class:`CampaignEngine` executes batches of *protected-evaluation tasks*
(:class:`repro.runtime.tasks.TaskSpec` — a (BER, seed) point, or a whole
seed batch, under an optional protection plan) across a
``multiprocessing`` worker pool, checkpoints every completed subtask to
disk, and resumes interrupted batches from that checkpoint.

:meth:`CampaignEngine.evaluate_tasks` is the primitive; everything else is
a wrapper over it: :meth:`run_sweep` expands a BER grid into unprotected
seed-batch tasks (figs 1–2/6–7), while the layer-vulnerability analysis
(:func:`repro.analysis.layer_vulnerability`, Fig. 3), operation-type
sensitivity (:func:`repro.analysis.operation_type_sensitivity`, Fig. 4)
and the fine-grained TMR planner (:func:`repro.tmr.plan_tmr`, Fig. 5)
submit per-plan task batches directly.

Subtask sharding
----------------
The engine's unit of *scheduling and checkpointing* is the **subtask** —
one (BER, seed, plan) evaluation (:meth:`TaskSpec.subtasks`).  Every task
in a batch is expanded to its subtasks first, so a single seed-batch task
(e.g. one TMR-planner candidate over all campaign seeds) still fans out
across the whole pool instead of occupying one worker, and the checkpoint
records per-seed entries: resuming an interrupted batch recomputes only
the missing seeds.  Seed-batch tasks are reduced back (in seed order,
with :func:`repro.faultsim.combine_seed_results` — the exact serial
statistics code) into one :class:`CampaignResult` per task.

Sample sharding
---------------
``CampaignEngine(sample_shard=S)`` splits every (BER, seed) subtask once
more, into **sample-slice subtasks** of ``S`` evaluation samples each
(:meth:`TaskSpec.sample_subtasks`), which fills the pool even for a
single (BER, seed) point — the dominant wall-clock case for the TMR
planner on big models.  Slice subtasks are scheduled and checkpointed
exactly like seed subtasks (an interrupted point resumes with only its
missing slices recomputed) and reduced back with
:func:`repro.faultsim.combine_slice_results`.  Because fault draws do
not depend on how the sample axis is partitioned, results are
**bit-identical for any slice size and any worker count**, including the
unsharded serial run.
``sample_shard="auto"`` picks the slice size per batch with
:func:`auto_sample_shard`: just enough slices that every worker owns at
least one subtask, no finer (over-splitting pays per-slice dispatch and
checkpoint overhead for nothing).

Determinism contract
--------------------
Each subtask (:func:`repro.faultsim.evaluate_seed_point`) owns its RNG
seed and touches no shared mutable state, so scheduling cannot change any
result: an engine batch with any worker count — or any mix of live and
checkpointed subtasks — is **bit-identical** to the serial loops it
replaces.  ``workers=1`` runs the subtasks in-process without a pool and
is the serial path itself.  The ``on_result`` hook of
:meth:`CampaignEngine.evaluate_tasks` extends the contract to incremental
consumers: it observes every completed subtask as it lands (arrival
order) but cannot cancel in-flight work, so the set of evaluated units —
and with it every result and checkpoint entry — stays a pure function of
the submitted batch.  Early-stop decisions (:mod:`repro.stats`) therefore
happen *between* batches, on canonically ordered results.

Worker-pool mechanics
---------------------
Workers are forked (POSIX) *after* the parent publishes the evaluation
payload (model, data, config, task table) in a module global, so the
payload crosses into children via copy-on-write page sharing rather than
per-task pickling — the model and evaluation batch are megabytes, the
dispatched unit a single integer index into the task table.  On platforms
without ``fork`` the engine degrades to the serial path rather than
failing.  The serial path and the pool are the engine's only executors,
and both run every unit through :func:`_attempt_unit` as a full forward
pass.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    CheckpointWriteError,
    ConfigurationError,
    TaskExecutionError,
    TaskQuarantinedError,
)
from repro.faultsim.campaign import (
    CampaignConfig,
    CampaignResult,
    SampleSliceResult,
    SeedPointResult,
    combine_seed_results,
    combine_slice_results,
    evaluate_sample_slice,
    evaluate_seed_point,
)
from repro.faultsim.protection import ProtectionPlan
from repro.quantized.qmodel import QuantizedModel
from repro.runtime.chaos import ChaosSpec, apply_unit_chaos
from repro.runtime.checkpoint import CampaignCheckpoint
from repro.runtime.retry import RetryPolicy, unit_deadline
from repro.runtime.hashing import (
    batch_task_keys,
    data_fingerprint,
    model_fingerprint,
)
from repro.runtime.progress import (
    ProgressEvent,
    ProgressReporter,
    ThroughputMeter,
    null_reporter,
)
from repro.runtime.tasks import TaskSpec

__all__ = [
    "CampaignEngine",
    "SweepStats",
    "SAMPLE_SHARD_AUTO",
    "auto_sample_shard",
    "resolve_workers",
]

#: Sentinel accepted by ``CampaignEngine(sample_shard=...)`` / the CLI's
#: ``--shard-samples auto``: pick the slice size per batch.
SAMPLE_SHARD_AUTO = "auto"


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request (None/0 = all visible cores).

    Negative counts raise :class:`~repro.errors.ConfigurationError`
    rather than silently meaning "every core".
    """
    if workers is not None and workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0 (0 or None = all cores), got {workers}"
        )
    if not workers:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    return int(workers)


def auto_sample_shard(n_samples: int, workers: int, n_units: int) -> int | None:
    """Slice size giving every worker >= 1 subtask without over-splitting.

    ``n_units`` is the batch's seed-subtask count before slicing.  When
    the batch already carries at least one subtask per worker — or there
    is only one worker, nothing to evaluate, or a single sample — no
    slicing is needed and ``None`` is returned.  Otherwise each seed
    subtask is split into (at least) ``ceil(workers / n_units)`` slices —
    the smallest split that fills the pool, since finer slicing only adds
    per-slice dispatch and checkpoint overhead.  Not every slice count is
    realizable by a uniform slice size (``ceil(N / shard)`` skips values),
    so the chooser takes the smallest *achievable* count at or above the
    target, then re-balances to the largest slice size realizing it (the
    slices come out equal-sized up to the final remainder).
    """
    if workers <= 1 or n_units <= 0 or n_samples <= 1:
        return None
    slices_per_unit = -(-workers // n_units)
    if slices_per_unit <= 1:
        return None
    # Largest slice size still yielding >= slices_per_unit slices; its
    # count is the smallest achievable count >= the target (slice counts
    # are non-increasing in the slice size).
    shard = max(1, -(-n_samples // (slices_per_unit - 1)) - 1)
    count = -(-n_samples // shard)
    # Re-balance: the largest slice size realizing exactly that count.
    return max(1, -(-n_samples // count))


@dataclass
class SweepStats:
    """Bookkeeping for the engine's most recent task batch.

    Units are counted at *subtask* granularity — one per (BER, seed,
    plan) evaluation — so a seed-batch task contributes ``len(seeds)``
    units and a partially checkpointed batch reports exactly how many
    seeds were served from cache versus recomputed.
    """

    total_units: int = 0
    computed_units: int = 0
    cached_units: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "total_units": self.total_units,
            "computed_units": self.computed_units,
            "cached_units": self.cached_units,
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
        }


#: Payload published to forked workers (set only while a pool is alive).
_WORKER_PAYLOAD: tuple | None = None


@dataclass
class _UnitFailure:
    """A unit's exception, carried back through the executor in-band.

    Raw exceptions crossing ``imap_unordered`` lose the failing task's
    index (the pool re-raises them bare at the consumer), so workers
    return this sentinel *as the result* instead: the consumer still
    knows which unit failed and raises a
    :class:`~repro.errors.TaskExecutionError` naming its checkpoint key
    and tag.  ``transient`` carries the worker-side
    :meth:`RetryPolicy.is_transient` classification across the process
    boundary (the exception object itself does not cross), so the
    consumer can re-dispatch retryable units and quarantine exhausted
    ones instead of failing the batch on the first error.
    """

    message: str
    details: str
    transient: bool = False


def _evaluate_unit(qmodel, x, labels, config, task: TaskSpec):
    """Evaluate one subtask unit: a (BER, seed) point or a sample slice."""
    if task.sample_slice is None:
        return evaluate_seed_point(
            qmodel, x, labels, task.ber, task.seed,
            config=config, protection=task.protection,
        )
    return evaluate_sample_slice(
        qmodel, x, labels, task.ber, task.seed, task.sample_slice,
        config=config, protection=task.protection,
    )


def _attempt_unit(payload: tuple, index: int, attempt: int):
    """One guarded unit attempt: chaos hooks, deadline watchdog, evaluate.

    The shared execution core of the serial path and the pool worker:
    applies the pre-evaluation chaos hooks (slow unit, poison tag,
    injected error, simulated crash — all pure functions of the unit's
    key and this attempt number), arms the per-unit deadline watchdog
    when the retry policy carries one, and classifies any exception
    transient/permanent for the consumer's retry decision.
    """
    qmodel, x, labels, config, tasks, keys, chaos, retry = payload
    start = time.perf_counter()
    try:
        apply_unit_chaos(chaos, keys[index], tasks[index].tag, attempt)
        deadline = retry.deadline if retry is not None else None
        with unit_deadline(deadline, what=f"unit {keys[index] or index}"):
            result = _evaluate_unit(qmodel, x, labels, config, tasks[index])
    except Exception as exc:
        result = _UnitFailure(
            message=f"{type(exc).__name__}: {exc}",
            details=traceback.format_exc(),
            transient=RetryPolicy.is_transient(exc),
        )
    return index, result, time.perf_counter() - start


def _run_task(item: tuple[int, int]):
    """Evaluate one ``(table index, attempt)`` inside a pool worker.

    Exceptions come back as :class:`_UnitFailure` results so the parent
    can attach the failing unit's key and tag (see the sentinel's docs).
    """
    index, attempt = item
    return _attempt_unit(_WORKER_PAYLOAD, index, attempt)


class CampaignEngine:
    """Sharded, checkpointed executor for protected-evaluation tasks.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` (default) runs serially in-process;
        ``None``/``0`` uses every visible core.
    checkpoint_path:
        Optional JSON-lines checkpoint file.  When set, every completed
        task is recorded there; content-hash keys make the file safe to
        share across models, campaigns, figures and protection plans.
    resume:
        When True and the checkpoint file exists, previously completed
        tasks are served from it instead of recomputed.  When False every
        task is recomputed, but the checkpoint still *merges*: existing
        entries are preserved (recomputed tasks overwrite their own keys).
    progress:
        Optional callable receiving a :class:`ProgressEvent` per completed
        task (see :func:`repro.runtime.progress.stream_reporter`).
    sample_shard:
        When set, every (BER, seed) subtask is split into sample slices of
        this many evaluation samples (see *Sample sharding* in the module
        docs).  ``"auto"`` picks the slice size per batch
        (:func:`auto_sample_shard`); ``None`` (default) disables sample
        sharding.
    retry:
        Optional :class:`repro.runtime.RetryPolicy` governing attempt
        budgets, backoff and the per-unit deadline
        (see :mod:`repro.runtime.retry`); ``None`` means the default
        :class:`~repro.runtime.RetryPolicy` (3 attempts, default backoff,
        no deadline).  Units that exhaust their attempts are quarantined,
        surfacing as :class:`~repro.errors.TaskQuarantinedError` naming
        every quarantined key.
    chaos:
        Optional :class:`repro.runtime.ChaosSpec` injecting
        deterministic faults — unit errors, slow units, worker crashes,
        torn checkpoint writes, ENOSPC flushes — whose
        decisions are pure functions of (chaos seed, task key, attempt),
        so a chaos run completes bit-identically to the undisturbed run
        once the runtime's recovery machinery drains the injected
        faults.  ``None`` (default) injects nothing.
    """

    def __init__(
        self,
        workers: int | None = 1,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        progress: ProgressReporter | None = None,
        sample_shard: int | str | None = None,
        retry: RetryPolicy | None = None,
        chaos: ChaosSpec | None = None,
    ):
        self.workers = resolve_workers(workers)
        #: Unified retry policy (attempt budget, backoff, deadline).
        self.retry = retry if retry is not None else RetryPolicy()
        if chaos is not None and not isinstance(chaos, ChaosSpec):
            raise ConfigurationError(
                f"chaos must be a ChaosSpec (or None), got {type(chaos).__name__}"
            )
        #: Deterministic fault-injection spec (None = inject nothing).
        self.chaos = chaos if chaos is not None and chaos.active else None
        if isinstance(sample_shard, str):
            if sample_shard != SAMPLE_SHARD_AUTO:
                raise ConfigurationError(
                    f"sample_shard accepts an int >= 1, 'auto' or None, "
                    f"got {sample_shard!r}"
                )
        elif sample_shard is not None and sample_shard < 1:
            raise ConfigurationError(
                f"sample_shard must be >= 1 (or None), got {sample_shard}"
            )
        self.sample_shard = sample_shard
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.resume = resume
        self.progress = progress or null_reporter
        self.last_stats = SweepStats()
        # Opened once and reused: the TMR planner calls the engine every
        # iteration, and re-reading a growing checkpoint (plus re-hashing
        # an unchanged model and evaluation set) per call would make the
        # planner quadratic in I/O.  Assumes the model/data objects are
        # not mutated while this engine is in use — the same purity the
        # determinism contract already requires.
        self._checkpoint: CampaignCheckpoint | None = None
        #: (id(model), id(x), id(labels), max_samples) -> (model_fp,
        #: data_fp, pinned object refs).
        self._fingerprints: dict[tuple, tuple] = {}

    # --- public API --------------------------------------------------------------
    def evaluate_tasks(
        self,
        qmodel: QuantizedModel,
        x: np.ndarray,
        labels: np.ndarray,
        tasks: list[TaskSpec],
        config: CampaignConfig | None = None,
        on_result=None,
    ) -> list[SeedPointResult | CampaignResult]:
        """Evaluate a batch of tasks against one model; results in task order.

        Every task is first expanded to its per-seed subtasks
        (:meth:`TaskSpec.subtasks`), and the *subtask* is the engine's
        unit of scheduling: all pending subtasks — whatever mix of (BER,
        seed) points and protection plans they carry — shard across one
        worker pool, and every completed subtask is checkpointed under
        its content hash, so ``resume`` recomputes only the missing seeds
        of an interrupted batch.

        Each result slot matches its task's shape: a point task yields
        its :class:`SeedPointResult`, a seed-batch task the
        :class:`CampaignResult` reduced from its per-seed results in seed
        order (an engine with ``sample_shard`` additionally splits every
        seed subtask into sample-slice subtasks and folds each group back
        first).  All of it is bit-identical to evaluating the tasks
        serially in order, for any worker count and any slice size.

        ``on_result`` is an optional **observation** hook called once per
        completed subtask unit as ``on_result(index, unit, result,
        cached)`` — cache-served units first (in unit-table index order),
        then live units as the pool delivers them (arrival order, which
        is scheduling-dependent).  It enables incremental reductions —
        the adaptive drivers (:mod:`repro.stats.adaptive`) watch their
        counts accumulate — but deliberately cannot cancel in-flight
        work: the set of evaluated units is fixed when the batch is
        submitted, so observation order can never change what gets
        computed, keeping batches deterministic and checkpoints
        partition-invariant.  Stop decisions belong *between* batches, at
        round barriers, where they depend only on canonically ordered
        results.
        """
        config = config or CampaignConfig()
        meter = ThroughputMeter()

        # Expand to subtask granularity.  Two levels: tasks fan out into
        # per-seed subtasks, and (with sample_shard) each seed subtask
        # fans out into sample-slice subtasks.  groups[i] holds task i's
        # per-seed spans into the flat unit table.
        n_samples = (
            len(x) if config.max_samples is None else min(len(x), config.max_samples)
        )
        per_task_subtasks = [task.subtasks() for task in tasks]
        shard = self._effective_shard(
            n_samples, sum(len(s) for s in per_task_subtasks)
        )
        units: list[TaskSpec] = []
        groups: list[list[tuple[int, int]]] = []
        for subtasks in per_task_subtasks:
            group: list[tuple[int, int]] = []
            for seed_unit in subtasks:
                expanded = (
                    seed_unit.sample_subtasks(n_samples, shard)
                    if shard is not None
                    else (seed_unit,)
                )
                start = len(units)
                units.extend(expanded)
                group.append((start, len(units)))
            groups.append(group)

        keys = self._unit_keys(qmodel, x, labels, units, config)
        checkpoint = self._open_checkpoint()

        # Cached subtasks are only *served* under the resume policy; the
        # checkpoint itself always merges (completed work is never wiped).
        serve_cache = checkpoint is not None and self.resume
        slots: list[SeedPointResult | SampleSliceResult | None] = [None] * len(units)
        pending: list[int] = []
        for index in range(len(units)):
            cached = checkpoint.get(keys[index]) if serve_cache else None
            if cached is not None:
                slots[index] = cached
            else:
                pending.append(index)

        done = 0
        for index, result in enumerate(slots):
            if result is not None:
                done += 1
                self._report(
                    meter, done, len(units), result, units[index].tag,
                    cached=True, elapsed=0.0,
                )
                if on_result is not None:
                    on_result(index, units[index], result, True)

        payload = (qmodel, x, labels, config, units, keys, self.chaos, self.retry)

        def absorb(index: int, result, elapsed: float) -> None:
            """Fold one completed live unit into slots/checkpoint/progress."""
            nonlocal done
            slots[index] = result
            done += 1
            if checkpoint is not None:
                try:
                    checkpoint.put(keys[index], result)
                except CheckpointWriteError:
                    # The record is retained in the store's pending set;
                    # the final flush retries with backoff and degrades
                    # loudly if the disk never recovers.
                    pass
            self._report(
                meter, done, len(units), result, units[index].tag,
                cached=False, elapsed=elapsed,
            )
            if on_result is not None:
                on_result(index, units[index], result, False)

        # Completed work is persisted even when the batch ultimately
        # raises (a permanent failure or a quarantine): the flush sits in
        # a finally, retried with backoff and degrading to
        # checkpoint-less completion — with a loud warning — when the
        # disk never recovers.
        try:
            self._run_pool_waves(
                payload, pending, absorb, qmodel, x, labels, config, units, keys
            )
        finally:
            self._flush_with_retry(checkpoint)

        self.last_stats = SweepStats(
            total_units=len(units),
            computed_units=len(pending),
            cached_units=len(units) - len(pending),
            workers=self.workers,
            elapsed_seconds=meter.elapsed,
        )
        results = []
        for task, group in zip(tasks, groups):
            # A span longer than 1 is always an engine-made slice
            # expansion (sample_subtasks returns the unit unchanged when
            # it does not split); fold it back into its SeedPointResult.
            per_seed = [
                slots[start]
                if end - start == 1
                else combine_slice_results(
                    slots[start:end], expected_total=n_samples
                )
                for start, end in group
            ]
            results.append(self._reduce(qmodel, task, per_seed, config))
        return results

    def run_point(
        self,
        qmodel: QuantizedModel,
        x: np.ndarray,
        labels: np.ndarray,
        ber: float,
        config: CampaignConfig | None = None,
        protection: ProtectionPlan | None = None,
    ) -> CampaignResult:
        """Engine-executed equivalent of :func:`repro.faultsim.run_point`."""
        return self.run_sweep(qmodel, x, labels, [ber], config, protection)[0]

    def run_sweep(
        self,
        qmodel: QuantizedModel,
        x: np.ndarray,
        labels: np.ndarray,
        bers: list[float],
        config: CampaignConfig | None = None,
        protection: ProtectionPlan | None = None,
    ) -> list[CampaignResult]:
        """Engine-executed equivalent of :func:`repro.faultsim.run_sweep`.

        A thin wrapper over :meth:`evaluate_tasks`: the BER grid expands
        into one seed-batch task per BER sharing ``protection``; the
        engine shards the per-seed subtasks (ber-major, seed-minor) and
        reduces each batch back.  Returns one :class:`CampaignResult` per
        BER, in input order, bit-identical to serial execution.
        """
        config = config or CampaignConfig()
        tasks = [
            TaskSpec(ber=ber, seeds=tuple(config.seeds), protection=protection)
            for ber in bers
        ]
        return self.evaluate_tasks(qmodel, x, labels, tasks, config=config)

    # --- internals ---------------------------------------------------------------
    def _effective_shard(self, n_samples: int, n_seed_units: int) -> int | None:
        """Resolve the sample-shard setting for one batch.

        An explicit integer is used as-is; ``"auto"`` consults
        :func:`auto_sample_shard`.
        """
        if self.sample_shard == SAMPLE_SHARD_AUTO:
            return auto_sample_shard(n_samples, self.workers, n_seed_units)
        return self.sample_shard

    def _open_checkpoint(self) -> CampaignCheckpoint | None:
        if self.checkpoint_path is None:
            return None
        if self._checkpoint is None:
            self._checkpoint = CampaignCheckpoint(
                self.checkpoint_path, chaos=self.chaos
            )
        return self._checkpoint

    def _flush_with_retry(self, checkpoint: CampaignCheckpoint | None) -> None:
        """Flush the checkpoint, retrying transient write failures.

        A failed flush (``ENOSPC``, torn write — real or chaos-injected)
        leaves every pending record in the store's memory, so each retry
        re-attempts the full append after a policy backoff.  When the
        budget is spent the engine *degrades to checkpoint-less
        completion* with a loud warning instead of crashing a campaign
        whose results are already computed: the batch returns normally,
        and the unpersisted records are recomputed on the next resume.
        """
        if checkpoint is None:
            return
        attempt = 1
        while True:
            try:
                checkpoint.flush()
                return
            except CheckpointWriteError as exc:
                if attempt >= self.retry.max_attempts:
                    warnings.warn(
                        f"checkpoint {checkpoint.path}: flush failed "
                        f"{attempt} time(s) ({exc}); DEGRADING to "
                        "checkpoint-less completion — "
                        f"{checkpoint.pending_records} completed record(s) "
                        "exist only in memory and will be recomputed on "
                        "the next resume",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    return
                time.sleep(self.retry.backoff(attempt, "checkpoint-flush"))
                attempt += 1

    def _run_pool_waves(
        self, payload, pending, absorb, qmodel, x, labels, config, units, keys
    ) -> None:
        """Pool/serial execution in retry waves under the unified policy.

        Every unit in the wave is attempted once; transient failures
        (chaos injections, deadline aborts, lost workers — per
        :meth:`RetryPolicy.is_transient`) with budget remaining are
        collected and re-dispatched as the next wave after a
        deterministic backoff.  Permanent failures raise immediately
        (the unit would fail identically forever); units whose budget is
        spent are *quarantined* — the rest of the batch still completes
        and persists, then one :class:`~repro.errors.TaskQuarantinedError`
        names every quarantined key.
        """
        attempts = {index: 1 for index in pending}
        quarantined: list[tuple[int, _UnitFailure]] = []
        wave = list(pending)
        while wave:
            items = [(index, attempts[index]) for index in wave]
            runner = (
                self._run_parallel
                if self.workers > 1
                and len(items) > 1
                and _fork_context() is not None
                else self._run_serial
            )
            retry_next: list[int] = []
            for index, result, elapsed in runner(payload, items):
                if isinstance(result, _UnitFailure):
                    if not result.transient:
                        self._raise_unit_failure(
                            qmodel, x, labels, config, units, keys, index,
                            result,
                        )
                    if attempts[index] < self.retry.max_attempts:
                        retry_next.append(index)
                    else:
                        quarantined.append((index, result))
                    continue
                absorb(index, result, elapsed)
            if retry_next:
                delay = max(
                    self.retry.backoff(attempts[index], keys[index])
                    for index in retry_next
                )
                if delay > 0:
                    time.sleep(delay)
                for index in retry_next:
                    attempts[index] += 1
            wave = retry_next
        if quarantined:
            self._raise_quarantined(
                qmodel, x, labels, config, units, keys, quarantined
            )

    def _raise_quarantined(
        self, qmodel, x, labels, config, units, keys, quarantined
    ) -> None:
        """Raise exhausted-budget units as one :class:`TaskQuarantinedError`.

        The error names the first quarantined unit's key and tag plus
        *every* quarantined key.
        """
        resolved = []
        for index, failure in quarantined:
            key = keys[index]
            if not key:
                model_fp, data_fp = self._fingerprint(qmodel, x, labels, config)
                key = units[index].key(model_fp, data_fp, config)
            resolved.append((index, key, failure))
        first_index, first_key, first_failure = resolved[0]
        more = f" (+{len(resolved) - 1} more)" if len(resolved) > 1 else ""
        raise TaskQuarantinedError(
            f"task {first_key} (tag {units[first_index].tag!r}) quarantined "
            f"after {self.retry.max_attempts} attempt(s){more}: "
            f"{first_failure.message}\n"
            f"{first_failure.details}",
            task_key=first_key,
            tag=units[first_index].tag,
            quarantined_keys=tuple(key for _, key, _ in resolved),
        )

    def _reduce(
        self,
        qmodel: QuantizedModel,
        task: TaskSpec,
        per_seed: list[SeedPointResult],
        config: CampaignConfig,
    ):
        """Fold a task's per-seed subtask results into its result shape."""
        if not task.is_batch:
            return per_seed[0]
        return combine_seed_results(
            qmodel, task.ber, per_seed, config, task.protection
        )

    def _fingerprint(
        self,
        qmodel: QuantizedModel,
        x: np.ndarray,
        labels: np.ndarray,
        config: CampaignConfig,
    ) -> tuple[str, str]:
        """Memoized (model, data) fingerprints for one evaluation payload."""
        memo = (id(qmodel), id(x), id(labels), config.max_samples)
        cached = self._fingerprints.get(memo)
        if cached is None:
            trim_x, trim_labels = x, labels
            if config.max_samples is not None:
                # Hash what the task actually evaluates (post-trim).
                trim_x = x[: config.max_samples]
                trim_labels = labels[: config.max_samples]
            # The keyed objects ride along in the entry so their ids
            # cannot be recycled onto new objects while the cache lives.
            cached = (
                model_fingerprint(qmodel),
                data_fingerprint(trim_x, trim_labels),
                (qmodel, x, labels),
            )
            self._fingerprints[memo] = cached
        return cached[0], cached[1]

    def _unit_keys(
        self,
        qmodel: QuantizedModel,
        x: np.ndarray,
        labels: np.ndarray,
        units: list[TaskSpec],
        config: CampaignConfig,
    ) -> list[str]:
        """Checkpoint keys for a subtask-granularity unit table.

        Without a checkpoint the engine never consults the keys, so they
        are skipped (hashing the model costs a pass over its weights) —
        unless a chaos spec is active, whose injection decisions are
        keyed by the unit's content hash.
        """
        if self.checkpoint_path is None and self.chaos is None:
            return [""] * len(units)
        model_fp, data_fp = self._fingerprint(qmodel, x, labels, config)
        return batch_task_keys(model_fp, data_fp, config, units)

    def _raise_unit_failure(
        self,
        qmodel: QuantizedModel,
        x: np.ndarray,
        labels: np.ndarray,
        config: CampaignConfig,
        units: list[TaskSpec],
        keys: list[str],
        index: int,
        failure: _UnitFailure,
    ) -> None:
        """Raise a failed unit as :class:`TaskExecutionError` with identity.

        Attaches the failing unit's content-hash key and tag, computing
        the key on demand when the batch ran keyless (no checkpoint).
        """
        unit = units[index]
        key = keys[index]
        if not key:
            model_fp, data_fp = self._fingerprint(qmodel, x, labels, config)
            key = unit.key(model_fp, data_fp, config)
        raise TaskExecutionError(
            f"task {key} (tag {unit.tag!r}) failed: "
            f"{failure.message}\n{failure.details}",
            task_key=key,
            tag=unit.tag,
        )

    def _report(
        self,
        meter: ThroughputMeter,
        done: int,
        total: int,
        result: SeedPointResult | SampleSliceResult,
        tag: str,
        cached: bool,
        elapsed: float,
    ) -> None:
        meter.tick()
        self.progress(
            ProgressEvent(
                done=done,
                total=total,
                ber=result.ber,
                seed=result.seed,
                accuracy=result.accuracy,
                cached=cached,
                elapsed=elapsed,
                tag=tag,
            )
        )

    def _run_serial(self, payload: tuple, items: list[tuple[int, int]]):
        """In-process executor; failures come back as :class:`_UnitFailure`.

        Wrapping the serial path too keeps failure reporting identical
        across ``workers=1`` and the pool: the consumer always sees the
        failing unit's index and raises with its key and tag attached.
        ``items`` are ``(table index, attempt)`` pairs, exactly what the
        pool dispatches.
        """
        for index, attempt in items:
            yield _attempt_unit(payload, index, attempt)

    def _run_parallel(self, payload: tuple, items: list[tuple[int, int]]):
        global _WORKER_PAYLOAD
        ctx = _fork_context()
        processes = min(self.workers, len(items))
        # Publish before fork so children inherit by copy-on-write.
        _WORKER_PAYLOAD = payload
        try:
            with ctx.Pool(processes=processes) as pool:
                yield from pool.imap_unordered(_run_task, items, chunksize=1)
        finally:
            _WORKER_PAYLOAD = None


def _fork_context():
    """The fork multiprocessing context, or None when unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None
