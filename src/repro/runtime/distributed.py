"""Distributed campaign backend: queue coordinator + pull-based workers.

This module is the second executor behind
:meth:`repro.runtime.CampaignEngine.evaluate_tasks` (selected with
``CampaignEngine(backend="distributed")`` / the CLI's ``--backend
distributed``).  Where the pool backend forks workers that inherit the
evaluation payload copy-on-write, the distributed backend materializes
one **batch directory** that any process able to see the filesystem can
serve::

    <queue_dir>/batch-*/
        payload.pkl     # pickled (model, data, config, unit table, replay flag)
        queue.sqlite    # WorkQueue: lease / heartbeat / retry / quarantine
        shards/<id>.jsonl   # per-worker checkpoint shards (append-only)
        merged.json     # shard merge (content-key dedupe), written at drain
        logs/worker-N.log

The division of labor is deliberate: the *queue* carries only task
identities (content-hash checkpoint keys) and tiny specs (an index into
the payload's unit table), the *payload* carries the megabytes exactly
once, and *results* flow back through per-worker checkpoint shards in the
ordinary JSON-lines checkpoint format — concatenation-mergeable because
every row is self-contained and content-keyed
(:meth:`repro.runtime.checkpoint.CampaignCheckpoint.merge_shards`).

Workers (:func:`run_worker`, CLI ``python -m repro.experiments.cli worker
--queue DIR``) are thin pull loops: claim a lease, heartbeat it from a
background thread, evaluate the unit with the unchanged campaign/replay
code (:func:`repro.runtime.engine._evaluate_unit` — the same function the
pool backend dispatches), append the result to the worker's own shard,
complete the lease.  A worker that dies mid-lease simply stops
heartbeating; the lease expires and another worker reclaims the task.
Because every unit is a pure function of its spec (keyed fault draws),
a reclaimed task recomputes to byte-identical results — double execution
is wasteful, never wrong.

The coordinator (:func:`run_distributed_batch`) spawns the requested
number of worker processes, streams results back by tailing the shards,
respawns dead workers while work remains (bounded by the retry budget),
fails fast with :class:`repro.errors.TaskExecutionError` when a task is
quarantined, and finishes by merging the shards into the batch's
``merged.json`` — the content-addressed result store the engine's own
checkpoint then absorbs.

Chaos testing routes through the deterministic chaos framework
(:mod:`repro.runtime.chaos`): the coordinator pickles the engine's
:class:`~repro.runtime.chaos.ChaosSpec` into the batch payload, and every
worker applies the same keyed decisions — slow units and injected unit
errors via :func:`~repro.runtime.chaos.apply_unit_chaos`, **real**
mid-lease ``os._exit`` worker crashes (lease expiry is the recovery path
under test), torn shard appends (a prefix of the record hits disk, then
the worker dies; CRC salvage drops the torn line and the reclaiming
worker's intact row wins), and silent lost heartbeats (the lease expires
under a live worker; content-addressed completion keeps double execution
harmless).
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    TaskExecutionError,
    TaskQuarantinedError,
)
from repro.faultsim.replay import build_golden_run
from repro.runtime.chaos import CRASH_EXIT_STATUS, apply_unit_chaos
from repro.runtime.checkpoint import (
    CampaignCheckpoint,
    _VERSION as _CHECKPOINT_VERSION,
    _row_result,
    encode_record,
)
from repro.runtime.queue import WorkQueue
from repro.runtime.retry import RetryPolicy

__all__ = [
    "load_payload",
    "prepare_batch",
    "run_distributed_batch",
    "run_worker",
    "shard_paths",
    "write_payload",
]

PAYLOAD_NAME = "payload.pkl"
SHARD_DIR = "shards"
MERGED_NAME = "merged.json"
_PAYLOAD_VERSION = 2


def write_payload(
    root, qmodel, x, labels, config, units, replay=False, chaos=None
) -> Path:
    """Write one batch's evaluation payload (atomic tmp + rename).

    The payload is everything a worker needs beyond the queue itself:
    the quantized model, the (untrimmed) evaluation arrays, the campaign
    config, the subtask-granularity unit table, whether to serve units
    through a locally built golden-run cache, and the coordinator's
    chaos spec (``None`` in production) — shipped in-band so every
    worker reaches identical keyed injection decisions.  Queue specs
    index into the unit table, mirroring the pool backend's
    dispatch-by-index.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / PAYLOAD_NAME
    blob = pickle.dumps(
        (
            _PAYLOAD_VERSION, qmodel, x, labels, config, list(units),
            bool(replay), chaos,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return path


def load_payload(root, timeout: float = 30.0, poll: float = 0.1):
    """Load a batch payload, waiting briefly for the coordinator to write it.

    Returns ``(qmodel, x, labels, config, units, replay, chaos)``.  The
    wait tolerates a worker started against a directory the coordinator
    is still preparing; after ``timeout`` seconds a missing payload
    raises :class:`~repro.errors.ConfigurationError`.
    """
    path = Path(root) / PAYLOAD_NAME
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() >= deadline:
            raise ConfigurationError(
                f"no batch payload at {path}; start workers against a "
                "queue directory prepared by the distributed backend"
            )
        time.sleep(poll)
    with open(path, "rb") as handle:
        blob = pickle.load(handle)
    version = blob[0]
    if version != _PAYLOAD_VERSION:
        raise ConfigurationError(
            f"batch payload {path} has unsupported version {version!r}"
        )
    return blob[1:]


def shard_paths(root) -> list[Path]:
    """The batch's per-worker checkpoint shard files, sorted by name."""
    shard_dir = Path(root) / SHARD_DIR
    if not shard_dir.exists():
        return []
    return sorted(shard_dir.glob("*.jsonl"))


def prepare_batch(
    root,
    qmodel,
    x,
    labels,
    config,
    units,
    keys,
    pending,
    replay=False,
    lease_timeout: float = 30.0,
    max_attempts: int = 3,
    chaos=None,
) -> WorkQueue:
    """Materialize one batch directory: payload + enqueued work.

    ``keys`` are the content-hash checkpoint keys of *all* units;
    ``pending`` the unit indices that actually need computing (the engine
    already served the rest from its checkpoint).  Duplicate keys within
    a batch — or keys left over from a previous batch in the same
    directory — enqueue once: work is deduped by content exactly like
    checkpoint rows.  ``chaos`` rides in the payload so workers inject
    deterministically (see :func:`write_payload`).
    """
    root = Path(root)
    write_payload(
        root, qmodel, x, labels, config, units, replay=replay, chaos=chaos
    )
    queue = WorkQueue(root, lease_timeout=lease_timeout, max_attempts=max_attempts)
    seen: dict[str, int] = {}
    for index in pending:
        seen.setdefault(keys[index], index)
    queue.enqueue(
        (key, {"index": index, "tag": units[index].tag})
        for key, index in seen.items()
    )
    return queue


def _golden_for_worker(qmodel, x, labels, config, units, replay):
    """Build this worker's golden-run cache when the batch asks for replay.

    Each worker pays one clean forward — the price of not sharing the
    coordinator's address space — and every unit it claims is then
    served through the cache, bit-identically to a full forward.
    """
    if not replay or not units:
        return None
    trim_x = x if config.max_samples is None else x[: config.max_samples]
    return build_golden_run(
        qmodel,
        trim_x,
        injector_kind=config.injector,
        fault_config=config.fault_config,
        batch_size=config.batch_size,
    )


class _Heartbeat:
    """Background lease extender for one claimed task.

    Beats every third of the lease timeout so a healthy worker's lease
    never expires mid-computation; a SIGKILLed worker stops beating and
    its lease lapses on schedule.  ``stop()`` is idempotent.
    """

    def __init__(self, queue: WorkQueue, key: str, owner: str):
        self._queue = queue
        self._key = key
        self._owner = owner
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        """Thread body: extend the lease until stopped or lost."""
        interval = self._queue.lease_timeout / 3.0
        while not self._stop.wait(interval):
            if not self._queue.heartbeat(self._key, self._owner):
                return  # lease lost (reclaimed); nothing left to extend
        return None

    def stop(self):
        """Stop beating and join the thread."""
        self._stop.set()
        self._thread.join()


def run_worker(
    root,
    worker_id: str | None = None,
    poll: float = 0.1,
    max_tasks: int | None = None,
) -> int:
    """Pull-based worker loop over one batch directory; returns tasks done.

    Claims leases from the batch queue until it is *settled* (every task
    done or quarantined), evaluating each unit with the unchanged
    campaign/replay code and appending the result to this worker's own
    checkpoint shard before completing the lease (result first, then
    completion: a crash between the two re-runs the task, it never loses
    a completed one).  A worker that finds nothing claimable while
    leases are still outstanding polls — it may yet inherit an expired
    lease; one that finds the queue settled exits.  Failures are
    reported to the queue (bounded retry, then quarantine) and never
    kill the worker loop.

    ``max_tasks`` bounds how many tasks this worker completes (tests);
    the module docstring describes the chaos-injection path.
    """
    root = Path(root)
    worker_id = worker_id or f"worker-{os.uname().nodename}-{os.getpid()}"
    qmodel, x, labels, config, units, replay, chaos = load_payload(root)
    queue = WorkQueue(root)
    retry = RetryPolicy(max_attempts=queue.max_attempts)
    shard = CampaignCheckpoint(
        root / SHARD_DIR / f"{worker_id}.jsonl", flush_every=1
    )
    golden = _golden_for_worker(qmodel, x, labels, config, units, replay)

    from repro.runtime.engine import _evaluate_unit

    completed = 0
    while max_tasks is None or completed < max_tasks:
        lease = queue.claim(worker_id)
        if lease is None:
            if not queue.has_work():
                break
            time.sleep(poll)
            continue
        heartbeat = None
        if chaos is None or not chaos.decide(
            "lost_heartbeat", lease.key, lease.attempt
        ):
            heartbeat = _Heartbeat(queue, lease.key, worker_id)
        try:
            unit = units[lease.spec["index"]]
            if chaos is not None:
                apply_unit_chaos(
                    chaos, lease.key, unit.tag, lease.attempt, allow_exit=True
                )
            result = _evaluate_unit(qmodel, x, labels, config, unit, golden)
        except Exception as exc:  # report to the queue, keep serving
            if heartbeat is not None:
                heartbeat.stop()
            queue.fail(lease.key, worker_id, f"{type(exc).__name__}: {exc}")
            time.sleep(min(retry.backoff(lease.attempt, lease.key), poll * 10))
            continue
        if heartbeat is not None:
            heartbeat.stop()
        if chaos is not None and chaos.decide(
            "torn_write", lease.key, lease.attempt
        ):
            _tear_shard_and_die(shard.path, lease.key, result)
        shard.put(lease.key, result)
        shard.flush()
        queue.complete(lease.key, worker_id)
        completed += 1
    return completed


def _tear_shard_and_die(shard_path, key: str, result) -> None:
    """Chaos realization of a torn shard append: half a record, then death.

    Writes the shard's v3 header first when the file does not exist yet
    (real stores always receive their header atomically before any
    record), appends only a prefix of the encoded record, fsyncs so the
    torn line truly reaches disk, and kills the process with the
    standard crash status.  Recovery is the production path under test:
    the lease expires, another worker recomputes the unit, and the merge
    step's CRC salvage drops the torn line in favor of the intact row.
    """
    shard_path = Path(shard_path)
    shard_path.parent.mkdir(parents=True, exist_ok=True)
    data = encode_record(key, result).encode("utf-8")
    fd = os.open(
        str(shard_path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
    )
    try:
        if os.fstat(fd).st_size == 0:
            header = json.dumps({"version": _CHECKPOINT_VERSION}) + "\n"
            os.write(fd, header.encode("utf-8"))
        os.write(fd, data[: max(1, len(data) // 2)])
        os.fsync(fd)
    finally:
        os.close(fd)
    os._exit(CRASH_EXIT_STATUS)


class _ShardScanner:
    """Incremental tail over a batch's checkpoint shards.

    Tracks a byte offset per shard file and only parses complete lines
    (up to the last newline), so a row being appended concurrently is
    picked up whole on a later poll.  Damaged or foreign lines are
    skipped — the merge step at drain time is the authoritative read.
    """

    def __init__(self, shard_dir: Path):
        self.shard_dir = Path(shard_dir)
        self._offsets: dict[Path, int] = {}

    def poll(self) -> dict:
        """Newly completed ``key -> result`` rows since the last poll."""
        fresh = {}
        if not self.shard_dir.exists():
            return fresh
        for path in sorted(self.shard_dir.glob("*.jsonl")):
            offset = self._offsets.get(path, 0)
            try:
                size = path.stat().st_size
            except OSError:
                continue
            if size <= offset:
                continue
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            complete = chunk.rfind(b"\n") + 1
            if complete == 0:
                continue
            self._offsets[path] = offset + complete
            for line in chunk[:complete].splitlines():
                try:
                    row = json.loads(line)
                    key = row["key"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # header or damaged line; merge re-checks
                try:
                    fresh[key] = _row_result(row)
                except (KeyError, TypeError, ValueError):
                    continue
        return fresh


def _spawn_worker(root: Path, index: int, python: str | None = None):
    """Start one worker subprocess against ``root``; logs under ``logs/``.

    The child runs ``python -m repro.experiments.cli worker --queue ...``
    with the parent's environment plus the :mod:`repro` source tree
    prepended to ``PYTHONPATH`` (so spawning works from checkouts that
    were never installed).
    """
    import repro

    log_dir = root / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    src_root = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{existing}" if existing else src_root
        )
    cmd = [
        python or sys.executable,
        "-m",
        "repro.experiments.cli",
        "worker",
        "--queue",
        str(root),
    ]
    with open(log_dir / f"worker-{index}.log", "ab") as log:
        return subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)


def _raise_quarantined(quarantined, key_tags: dict) -> None:
    """Surface quarantined tasks as a :class:`TaskQuarantinedError`.

    The error names the first failing task key and tag — the same
    identity the pool backend attaches — and carries every quarantined
    key in ``quarantined_keys``, so campaign drivers report retry
    exhaustion uniformly across backends.
    """
    key, attempts, error = quarantined[0]
    tag = key_tags.get(key, "")
    more = f" (+{len(quarantined) - 1} more)" if len(quarantined) > 1 else ""
    raise TaskQuarantinedError(
        f"distributed task {key} (tag {tag!r}) quarantined after "
        f"{attempts} attempt(s){more}: {error}",
        task_key=key,
        tag=tag,
        quarantined_keys=tuple(k for k, _, _ in quarantined),
    )


def run_distributed_batch(
    root,
    qmodel,
    x,
    labels,
    config,
    units,
    keys,
    pending,
    workers: int = 2,
    replay: bool = False,
    lease_timeout: float = 30.0,
    max_attempts: int = 3,
    poll: float = 0.1,
    spawn: bool = True,
    chaos=None,
):
    """Coordinate one distributed batch; yields ``(index, result, 0.0)``.

    Prepares the batch directory (:func:`prepare_batch`), spawns
    ``workers`` worker processes (``spawn=False`` leaves spawning to an
    external fleet — workers started by hand against the same
    directory), then streams results back by tailing the shard files.
    Dead workers are respawned while claimable work remains, bounded by
    the retry budget; a quarantined task raises
    :class:`~repro.errors.TaskExecutionError` naming its key and tag.
    When the queue settles, the shards are merged into the batch's
    ``merged.json`` (content-key dedupe) and any rows the tail missed
    are served from the merge — the merge is the authoritative read, the
    tail an optimization for live progress.

    Duplicate keys among ``pending`` (identical units submitted twice)
    are computed once and served to every requesting slot.

    ``chaos`` (a :class:`~repro.runtime.chaos.ChaosSpec` or ``None``)
    ships to workers in the payload; specs that can kill workers
    (``worker_crash_rate`` / ``torn_write_rate``) widen the respawn
    budget so deliberate crashes don't exhaust it before retried
    attempts draw clean.
    """
    root = Path(root)
    queue = prepare_batch(
        root, qmodel, x, labels, config, units, keys, pending,
        replay=replay, lease_timeout=lease_timeout, max_attempts=max_attempts,
        chaos=chaos,
    )
    key_slots: dict[str, list[int]] = {}
    for index in pending:
        key_slots.setdefault(keys[index], []).append(index)
    key_tags = {key: units[slots[0]].tag for key, slots in key_slots.items()}
    unserved = set(key_slots)
    scanner = _ShardScanner(root / SHARD_DIR)
    n_procs = max(1, min(int(workers), len(unserved))) if unserved else 0
    respawn_budget = n_procs * max(1, max_attempts - 1)
    if chaos is not None and (
        chaos.worker_crash_rate > 0.0 or chaos.torn_write_rate > 0.0
    ):
        respawn_budget = max(
            respawn_budget, len(unserved) * max_attempts + n_procs
        )
    procs: list = []
    try:
        if spawn:
            procs = [_spawn_worker(root, i) for i in range(n_procs)]
        while unserved:
            for key, result in scanner.poll().items():
                for index in key_slots.get(key, ()):
                    if key in unserved:
                        yield index, result, 0.0
                unserved.discard(key)
            if not unserved:
                break
            quarantined = queue.quarantined()
            if quarantined:
                _raise_quarantined(quarantined, key_tags)
            if not queue.has_work():
                break  # settled; serve the stragglers from the merge
            if spawn:
                alive = 0
                for i, proc in enumerate(procs):
                    if proc.poll() is None:
                        alive += 1
                    elif respawn_budget > 0:
                        respawn_budget -= 1
                        procs[i] = _spawn_worker(root, len(procs) + i)
                        alive += 1
                if alive == 0:
                    raise TaskExecutionError(
                        f"distributed batch {root} stalled: every worker "
                        f"exited with work remaining and the respawn budget "
                        f"is spent (see {root / 'logs'})"
                    )
            time.sleep(poll)
        merged = CampaignCheckpoint.merge_shards(
            root / MERGED_NAME, shard_paths(root)
        )
        for key in sorted(unserved):
            result = merged.get(key)
            if result is None:
                quarantined = queue.quarantined()
                if quarantined:
                    _raise_quarantined(quarantined, key_tags)
                raise CheckpointError(
                    f"distributed batch {root} settled without a result for "
                    f"task {key} (tag {key_tags.get(key, '')!r}); the shard "
                    "merge is missing the row"
                )
            for index in key_slots[key]:
                yield index, result, 0.0
        if spawn:
            # Workers exit on their own once the queue settles.  A shard
            # row becomes visible (and servable above) the instant its
            # os.write lands, slightly before the writer fsyncs and
            # completes its lease — so give the last completer a grace
            # period rather than terminating it mid-handshake and
            # leaving a spuriously open lease behind.
            grace = time.monotonic() + max(2.0, lease_timeout + 1.0)
            for proc in procs:
                while proc.poll() is None and time.monotonic() < grace:
                    time.sleep(poll)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
