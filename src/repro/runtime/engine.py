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

Seed sharding
-------------
The engine's unit of *identity* is the **point** — one (BER, seed, plan)
evaluation (:meth:`TaskSpec.subtasks`).  Every task in a batch is
expanded to its points first, so a single seed-batch task (e.g. one
TMR-planner candidate over all campaign seeds) still fans out across the
whole pool instead of occupying one worker, and the checkpoint records
per-seed entries: resuming an interrupted batch recomputes only the
missing seeds.  Seed-batch tasks are reduced back (in seed order, with
:func:`repro.faultsim.combine_seed_results` — the exact serial
statistics code) into one :class:`CampaignResult` per task.

Sample slicing
--------------
When a batch has fewer pending points than workers — the TMR planner's
one-candidate iterations, a resumed batch with one point left — the
engine splits each pending point into **sample slices**
(:meth:`TaskSpec.sample_subtasks`) sized by :func:`auto_sample_shard`,
so even a single point fills the pool.  Slicing is pure scheduling:
slices are dispatched, retried, deadline-guarded and reported in
progress like any unit, but never keyed or stored.  When a point's last
slice lands, :func:`repro.faultsim.combine_slice_results` folds its
slices into one :class:`SeedPointResult`, which is checkpointed under the
plain point key.  Because fault draws do not depend on how the sample
axis is partitioned, results and checkpoint entries are
**bit-identical for any worker count and any slicing**.  A serial
engine never slices.

Determinism contract
--------------------
Each point (:func:`repro.faultsim.evaluate_seed_point`) owns its RNG
seed and touches no shared mutable state, so scheduling cannot change any
result: an engine batch with any worker count — or any mix of live and
checkpointed points — is **bit-identical** to the serial loops it
replaces.  ``workers=1`` runs the points in-process without a pool and
is the serial path itself.  The set of evaluated units is fixed when a
batch is submitted, so early-stop decisions (:mod:`repro.stats`) happen
*between* batches, on canonically ordered results.

Worker-pool mechanics
---------------------
Workers are forked (POSIX) *after* the parent publishes the evaluation
payload (model, data, config, task table) in a module global, so the
payload crosses into children via copy-on-write page sharing rather than
per-task pickling — the model and evaluation batch are megabytes, the
dispatched unit a single integer index into the task table.  On platforms
without ``fork`` the engine degrades to the serial path rather than
failing.  The serial path and the pool are the engine's only executors,
and both run every unit through :func:`_attempt_unit`.  Each process
keeps the faulty prefix of one unit family, so a unit whose plan differs
from a sibling's only from layer L on starts its forward at L
(:mod:`repro.faultsim.campaign`); results never depend on it.
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
    null_reporter,
)
from repro.runtime.tasks import TaskSpec

__all__ = [
    "CampaignEngine",
    "SweepStats",
    "auto_sample_shard",
    "resolve_workers",
]


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


def auto_sample_shard(
    n_samples: int, workers: int, pending_points: int
) -> int | None:
    """Slice size giving every worker >= 1 unit without over-splitting.

    ``pending_points`` is the batch's count of points left to compute
    after the checkpoint served its share.  When the batch already
    carries at least one point per worker — or there is only one worker,
    nothing to evaluate, or a single sample — no slicing is needed and
    ``None`` is returned.  Otherwise each pending point is split into (at
    least) ``ceil(workers / pending_points)`` slices — the smallest split
    that fills the pool, since finer slicing only adds per-slice dispatch
    overhead.  Not every slice count is
    realizable by a uniform slice size (``ceil(N / shard)`` skips values),
    so the chooser takes the smallest *achievable* count at or above the
    target, then re-balances to the largest slice size realizing it (the
    slices come out equal-sized up to the final remainder).
    """
    if workers <= 1 or pending_points <= 0 or n_samples <= 1:
        return None
    slices_per_unit = -(-workers // pending_points)
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

    Units are counted per point — one per (BER, seed, plan) evaluation,
    however it was sliced — so a seed-batch task contributes
    ``len(seeds)`` units and a partially checkpointed batch reports
    exactly how many seeds were served from cache versus recomputed.
    """

    total_units: int = 0
    computed_units: int = 0
    cached_units: int = 0


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
    """Evaluate one unit: a (BER, seed) point or one of its sample slices."""
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
    """One guarded unit attempt: deadline watchdog, then evaluate.

    The shared execution core of the serial path and the pool worker:
    arms the per-unit deadline watchdog when the retry policy carries
    one, and classifies any exception transient/permanent for the
    consumer's retry decision.  ``attempt`` (1 = first execution) does
    not change what runs: a unit is a pure function of its spec.  It is
    passed so that wrappers of this function can observe retries.
    """
    qmodel, x, labels, config, tasks, keys, retry = payload
    start = time.perf_counter()
    try:
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
        unit — a point, or a sample slice of one (see
        :func:`repro.runtime.progress.stream_reporter`).
    retry:
        Optional :class:`repro.runtime.RetryPolicy` governing attempt
        budgets, backoff and the per-unit deadline
        (see :mod:`repro.runtime.retry`); ``None`` means the default
        :class:`~repro.runtime.RetryPolicy` (3 attempts, default backoff,
        no deadline).  Units that exhaust their attempts are quarantined,
        surfacing as :class:`~repro.errors.TaskQuarantinedError` naming
        every quarantined key.
    """

    def __init__(
        self,
        workers: int | None = 1,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        progress: ProgressReporter | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.workers = resolve_workers(workers)
        #: Unified retry policy (attempt budget, backoff, deadline).
        self.retry = retry if retry is not None else RetryPolicy()
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
    ) -> list[SeedPointResult | CampaignResult]:
        """Evaluate a batch of tasks against one model; results in task order.

        Every task is first expanded to its points
        (:meth:`TaskSpec.subtasks`), the engine's unit of identity: the
        checkpoint serves (under ``resume``) and records one entry per
        point under its content hash, so ``resume`` recomputes only the
        missing seeds of an interrupted batch.  The pending points —
        whatever mix of (BER, seed) points and protection plans they
        carry — shard across one worker pool, each split into sample
        slices when there are fewer pending points than workers (see
        *Sample slicing* in the module docs).

        Each result slot matches its task's shape: a point task yields
        its :class:`SeedPointResult`, a seed-batch task the
        :class:`CampaignResult` reduced from its per-seed results in seed
        order.  All of it is bit-identical to evaluating the tasks
        serially in order, for any worker count.  Slice tasks are the
        engine's own scheduling units and are rejected here.
        """
        config = config or CampaignConfig()
        if any(task.sample_slice is not None for task in tasks):
            raise ConfigurationError(
                "evaluate_tasks takes point and seed-batch tasks; the engine "
                "slices pending points itself"
            )
        n_samples = (
            len(x) if config.max_samples is None else min(len(x), config.max_samples)
        )
        per_task_points = [task.subtasks() for task in tasks]
        points = [point for subtasks in per_task_points for point in subtasks]
        keys = self._point_keys(qmodel, x, labels, points, config)
        checkpoint = self._open_checkpoint()

        # Cached points are only *served* under the resume policy; the
        # checkpoint itself always merges (completed work is never wiped).
        serve_cache = checkpoint is not None and self.resume
        slots: list[SeedPointResult | None] = [None] * len(points)
        pending: list[int] = []
        for index, key in enumerate(keys):
            cached = checkpoint.get(key) if serve_cache else None
            if cached is not None:
                slots[index] = cached
            else:
                pending.append(index)

        # Only pending points are scheduled, sliced when too few to fill
        # the pool; owner[u] is the point that unit u computes (part of).
        shard = auto_sample_shard(n_samples, self.workers, len(pending))
        units: list[TaskSpec] = []
        owner: list[int] = []
        n_slices: dict[int, int] = {}
        for index in pending:
            expanded = (
                points[index].sample_subtasks(n_samples, shard)
                if shard is not None
                else (points[index],)
            )
            units.extend(expanded)
            owner.extend([index] * len(expanded))
            n_slices[index] = len(expanded)
        landed: dict[int, list[SampleSliceResult]] = {}

        total = len(points) - len(pending) + len(units)
        done = 0
        for index, result in enumerate(slots):
            if result is not None:
                done += 1
                self._report(
                    done, total, result, points[index].tag,
                    cached=True, elapsed=0.0,
                )

        unit_keys = [keys[index] for index in owner]
        payload = (qmodel, x, labels, config, units, unit_keys, self.retry)

        def absorb(unit: int, result, elapsed: float) -> None:
            """Fold one completed live unit into slots/checkpoint/progress.

            A slice is held until its point's last slice lands; the
            folded point is then stored like an unsliced one.
            """
            nonlocal done
            done += 1
            index = owner[unit]
            point = result
            if isinstance(result, SampleSliceResult):
                landed.setdefault(index, []).append(result)
                point = None
                if len(landed[index]) == n_slices[index]:
                    point = combine_slice_results(
                        landed.pop(index), expected_total=n_samples
                    )
            if point is not None:
                slots[index] = point
                if checkpoint is not None:
                    try:
                        checkpoint.put(keys[index], point)
                    except CheckpointWriteError:
                        # The record is retained in the store's pending
                        # set; the final flush retries with backoff and
                        # degrades loudly if the disk never recovers.
                        pass
            self._report(
                done, total, result, units[unit].tag,
                cached=False, elapsed=elapsed,
            )

        def describe(unit: int) -> tuple[str, str, str]:
            """(point key, tag, sample window) naming a failed unit.

            The key is computed on demand when the batch ran keyless (no
            checkpoint).
            """
            index = owner[unit]
            key = keys[index]
            if not key:
                model_fp, data_fp = self._fingerprint(qmodel, x, labels, config)
                key = points[index].key(model_fp, data_fp, config)
            window = units[unit].sample_slice
            where = "" if window is None else f" samples [{window[0]}, {window[1]})"
            return key, units[unit].tag, where

        # Completed work is persisted even when the batch ultimately
        # raises (a permanent failure or a quarantine): the flush sits in
        # a finally, retried with backoff and degrading to
        # checkpoint-less completion — with a loud warning — when the
        # disk never recovers.
        try:
            self._run_pool_waves(payload, unit_keys, absorb, describe)
        finally:
            self._flush_with_retry(checkpoint)

        self.last_stats = SweepStats(
            total_units=len(points),
            computed_units=len(pending),
            cached_units=len(points) - len(pending),
        )
        results = []
        start = 0
        for task, subtasks in zip(tasks, per_task_points):
            per_seed = slots[start : start + len(subtasks)]
            start += len(subtasks)
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
    def _open_checkpoint(self) -> CampaignCheckpoint | None:
        if self.checkpoint_path is None:
            return None
        if self._checkpoint is None:
            self._checkpoint = CampaignCheckpoint(self.checkpoint_path)
        return self._checkpoint

    def _flush_with_retry(self, checkpoint: CampaignCheckpoint | None) -> None:
        """Flush the checkpoint, retrying transient write failures.

        A failed flush (``ENOSPC``, a torn write)
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

    def _run_pool_waves(self, payload, keys, absorb, describe) -> None:
        """Pool/serial execution in retry waves under the unified policy.

        Every unit in the wave is attempted once; transient failures
        (deadline aborts, I/O errors — per
        :meth:`RetryPolicy.is_transient`) with budget remaining are
        collected and re-dispatched as the next wave after a
        deterministic backoff.  Permanent failures raise immediately
        (the unit would fail identically forever); units whose budget is
        spent are *quarantined* — the rest of the batch still completes
        and persists, then one :class:`~repro.errors.TaskQuarantinedError`
        names every quarantined point.  ``keys`` holds each unit's point
        key (its backoff identity); ``describe(unit)`` names a failed
        unit as ``(point key, tag, sample window)``.
        """
        attempts = {index: 1 for index in range(len(keys))}
        quarantined: list[tuple[int, _UnitFailure]] = []
        wave = list(attempts)
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
                        key, tag, where = describe(index)
                        raise TaskExecutionError(
                            f"task {key} (tag {tag!r}){where} failed: "
                            f"{result.message}\n{result.details}",
                            task_key=key,
                            tag=tag,
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
            self._raise_quarantined(describe, quarantined)

    def _raise_quarantined(self, describe, quarantined) -> None:
        """Raise exhausted-budget units as one :class:`TaskQuarantinedError`.

        The error names the first quarantined unit's key and tag plus
        *every* quarantined point's key, once each (the slices of one
        point share its key).
        """
        first, first_failure = quarantined[0]
        first_key, first_tag, where = describe(first)
        keys = tuple(dict.fromkeys(describe(index)[0] for index, _ in quarantined))
        more = f" (+{len(keys) - 1} more)" if len(keys) > 1 else ""
        raise TaskQuarantinedError(
            f"task {first_key} (tag {first_tag!r}){where} quarantined "
            f"after {self.retry.max_attempts} attempt(s){more}: "
            f"{first_failure.message}\n"
            f"{first_failure.details}",
            task_key=first_key,
            tag=first_tag,
            quarantined_keys=keys,
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

    def _point_keys(
        self,
        qmodel: QuantizedModel,
        x: np.ndarray,
        labels: np.ndarray,
        points: list[TaskSpec],
        config: CampaignConfig,
    ) -> list[str]:
        """Checkpoint keys for a batch's points.

        Without a checkpoint the engine never consults the keys, so they
        are skipped (hashing the model costs a pass over its weights).
        """
        if self.checkpoint_path is None:
            return [""] * len(points)
        model_fp, data_fp = self._fingerprint(qmodel, x, labels, config)
        return batch_task_keys(model_fp, data_fp, config, points)

    def _report(
        self,
        done: int,
        total: int,
        result: SeedPointResult | SampleSliceResult,
        tag: str,
        cached: bool,
        elapsed: float,
    ) -> None:
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
