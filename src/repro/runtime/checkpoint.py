"""JSON-lines checkpoint store for interruptible campaign batches.

The engine records every completed *subtask* — one (BER, seed) evaluation
under one protection plan — under its content-hash key
(:mod:`repro.runtime.hashing`).  Because entries live at subtask
granularity, a seed-batch task interrupted mid-way leaves its finished
seeds on disk and a resumed engine recomputes only the missing ones; a
seed-batch task and the equivalent per-seed point tasks share the same
entries.  The store is line-oriented so damage is *localized*: completed
subtasks append one self-contained JSON line each, a crash mid-write can
truncate at most the final line, and loading salvages every intact line
while reporting the damaged ones (see
:class:`repro.errors.CheckpointError`).  A resumed engine replays the
salvaged subtasks from disk and recomputes only the damaged entries.

File format (version 3)::

    {"version": 3}
    {"ber": 1e-06, "crc": 4023233417, "key": "<task-key>", "seed": 0, "accuracy": 0.81, "events": 42}
    {"ber": 1e-06, "crc": 2768625435, "key": "<task-key>", "seed": 0, "start": 0, "stop": 8, "correct": 7, "total": 8, "events": 3}
    ...

The second row shape is a **sample-slice** record
(:class:`~repro.faultsim.campaign.SampleSliceResult`, written by
sample-sharded engines): it carries correct/total counts for one window
of the evaluation set, distinguished by its ``correct`` field.  Slice
keys bind their window, so point and slice records never collide.

Record integrity (version 3)
----------------------------
Every record carries a ``crc`` field: the CRC32 of the row's canonical
JSON serialization *without* the ``crc`` key.  A line that parses as JSON
but fails its CRC — a bit flip on disk, a torn write whose prefix happens
to be valid JSON — is treated exactly like an unparseable line: dropped
at load with a warning, recomputed on resume, and reported by
:func:`fsck`.  Version-2 files (no CRC) still load; when a v2 row *does*
carry a ``crc`` it is verified.  Loaded v2 stores are compacted to a
clean version-3 file on the first flush.  Headerless version-1
single-document files are no longer read: loading one raises
:class:`~repro.errors.CheckpointError` naming the version, and
:func:`fsck` reports it as not a checkpoint.

Durability
----------
Flushes append every pending record in **one** ``os.write`` on an
``O_APPEND`` descriptor followed by ``fsync``: a ``KeyboardInterrupt`` or
SIGTERM lands either before the syscall (nothing written) or after it
(whole lines written) — the same process can never append after its own
half-written line.  A short write or an ``OSError`` (``ENOSPC``) rolls
the file back to its pre-write size and raises
:class:`~repro.errors.CheckpointWriteError` with every pending record
retained in memory, so the flush can be retried with backoff; the engine
degrades to checkpoint-less completion (with a loud warning) when the
retry budget is spent.

A key appearing on several lines (e.g. a ``resume=False`` recompute) is
resolved last-line-wins.  Keys already encode model + campaign +
protection + point content, so one checkpoint file safely accumulates
tasks from many figures and models without collisions.

``fsck`` is the offline integrity tool: it verifies (and with
``repair=True`` rewrites) a store or a whole directory of stores,
quarantining damaged raw lines into a ``*.quarantined`` sidecar and
naming every dropped key.
"""

from __future__ import annotations

import json
import os
import re
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CheckpointError, CheckpointWriteError
from repro.faultsim.campaign import SampleSliceResult, SeedPointResult

__all__ = [
    "CampaignCheckpoint",
    "FsckFileReport",
    "FsckReport",
    "encode_record",
    "fsck",
    "record_crc",
]

_VERSION = 3
_V2_VERSION = 2

#: Either stored record shape.
_Result = SeedPointResult | SampleSliceResult

#: Damage classifications reported per line by the scanner / fsck.
DAMAGE_JSON = "json"          # not parseable as a JSON object
DAMAGE_FIELDS = "fields"      # JSON but not a well-formed record row
DAMAGE_CRC = "crc"            # CRC32 mismatch (bit flip / torn-but-valid)
DAMAGE_MISSING_CRC = "missing-crc"  # v3 row without its required crc

#: Fallback key extraction from a damaged (unparseable) line, so fsck can
#: still *name* the record a torn write destroyed.
_KEY_RE = re.compile(r'"key":\s*"([^"\\]+)"')


def _canonical(row: dict) -> str:
    """The canonical serialization CRCs are computed over."""
    return json.dumps(row, sort_keys=True, separators=(",", ": "))


def record_crc(row: dict) -> int:
    """CRC32 of a record row's canonical JSON, excluding its ``crc`` field.

    Pure function of the row's content: Python's ``repr``-based float
    serialization round-trips exactly, so a row parsed back from disk
    re-serializes to the same bytes and verification needs no copy of the
    original line.
    """
    body = {k: v for k, v in row.items() if k != "crc"}
    return zlib.crc32(_canonical(body).encode("utf-8")) & 0xFFFFFFFF


def encode_record(key: str, result: _Result) -> str:
    """One version-3 checkpoint line (CRC included, newline-terminated)."""
    row = {"key": key, **result.to_dict()}
    row["crc"] = record_crc(row)
    return _canonical(row) + "\n"


def _row_result(row: dict) -> _Result:
    """Decode one checkpoint row into its result type."""
    if "correct" in row:
        return SampleSliceResult.from_dict(row)
    return SeedPointResult.from_dict(row)


def _scan_line(line: str, require_crc: bool):
    """Classify one data line: ``(key_or_None, result_or_None, damage)``.

    ``damage`` is ``None`` for an intact record, else one of the
    ``DAMAGE_*`` reasons; the key is still reported for damaged lines
    whenever it can be extracted (JSON parse, or the regex fallback for
    torn lines), so integrity reports can *name* what was lost.
    """
    try:
        row = json.loads(line)
    except json.JSONDecodeError:
        match = _KEY_RE.search(line)
        return (match.group(1) if match else None), None, DAMAGE_JSON
    if not isinstance(row, dict) or "key" not in row:
        return None, None, DAMAGE_FIELDS
    key = row["key"]
    if not isinstance(key, str):
        return None, None, DAMAGE_FIELDS
    if "crc" in row:
        try:
            stored = int(row["crc"])
        except (TypeError, ValueError):
            return key, None, DAMAGE_CRC
        if stored != record_crc(row):
            return key, None, DAMAGE_CRC
    elif require_crc:
        return key, None, DAMAGE_MISSING_CRC
    try:
        return key, _row_result(row), None
    except (KeyError, TypeError, ValueError):
        return key, None, DAMAGE_FIELDS


def _parse_file(
    path: Path, text: str
) -> tuple[dict[str, _Result], list[int], bool]:
    """Parse checkpoint ``text`` into (points, damaged line numbers, legacy).

    Raises :class:`CheckpointError` when the file is unrecoverable (no
    readable header, or an unsupported version); individual damaged point
    lines — unparseable, malformed, or failing their CRC — are tolerated
    and reported by number.  ``legacy`` is True when the file needs a
    compacting rewrite on the next flush: a version-2 (pre-CRC) file, or
    an empty file without a header.
    """
    if not text.strip():
        # A zero-byte (or whitespace-only) file — e.g. `touch`-created, or
        # a crash before the header write — is a fresh store, not a broken
        # one.  The legacy flag forces the next flush to compact and write
        # a clean v3 header (appending to a headerless file would corrupt
        # it).
        return {}, [], True
    lines = text.splitlines()
    header = None
    if lines:
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = None
    if isinstance(header, dict) and "version" in header:
        version = header["version"]
        if version not in (_VERSION, _V2_VERSION):
            raise CheckpointError(
                f"checkpoint {path} has unsupported version {version!r}"
            )
        points: dict[str, _Result] = {}
        damaged: list[int] = []
        require_crc = version == _VERSION
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            key, result, damage = _scan_line(line, require_crc)
            if damage is None:
                points[key] = result
            else:
                damaged.append(lineno)
        return points, damaged, version != _VERSION
    # No versioned header: a multi-line document (the retired version-1
    # format) or garbage.  Name the version when there is one.
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} has no readable header and is not valid JSON "
            f"({exc}); repair it or delete it to start fresh"
        ) from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    raise CheckpointError(
        f"checkpoint {path} has unsupported version {version!r}"
    )


class CampaignCheckpoint:
    """Append-mostly map of task-key -> completed result on disk.

    Values are :class:`SeedPointResult` (point subtasks) or
    :class:`SampleSliceResult` (sample-slice subtasks); keys distinguish
    the shapes, so one file safely holds both.

    An existing file is always loaded and merged into, never truncated:
    whether cached tasks are *served* back to a batch is the engine's
    ``resume`` policy, but completed work is never discarded (recomputed
    tasks simply overwrite their own keys).

    Parameters
    ----------
    path:
        Checkpoint file location.
    flush_every:
        Puts between flushes (1 = flush every completed task).
    strict:
        When True, damaged point lines raise :class:`CheckpointError` at
        load instead of being salvaged around.  The default (False) warns,
        records the damaged line numbers in :attr:`damaged_lines`, and
        lets a resumed engine recompute exactly those entries.
    chaos:
        Optional :class:`repro.runtime.ChaosSpec` whose ``enospc`` and
        ``torn_write`` rates inject *recoverable* flush failures (a
        simulated full disk, a simulated short write — both rolled back
        and surfaced as :class:`~repro.errors.CheckpointWriteError` with
        the pending records retained), exercising the engine's flush
        retry/degrade path.  ``None`` (production) injects nothing.
    """

    def __init__(
        self,
        path: str | Path,
        flush_every: int = 1,
        strict: bool = False,
        chaos=None,
    ):
        self.path = Path(path)
        self.flush_every = max(1, int(flush_every))
        self.strict = strict
        self.chaos = chaos if chaos is not None and chaos.active else None
        self._points: dict[str, _Result] = {}
        #: Keys put since the last flush, in completion order.
        self._pending: list[str] = []
        #: Keys whose current result this process knows to be on disk.
        self._persisted: set[str] = set()
        self._dirty = 0
        #: Full rewrite needed (legacy format or damaged lines on disk).
        self._rewrite = False
        #: Chaos keying: failed flush attempts since the last success.
        self._flush_attempt = 1
        #: Line numbers dropped during load (empty for a healthy file).
        self.damaged_lines: list[int] = []
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        points, damaged, legacy = _parse_file(self.path, text)
        if damaged:
            if self.strict:
                raise CheckpointError(
                    f"checkpoint {self.path} has {len(damaged)} damaged "
                    f"line(s) {damaged}; load with strict=False to salvage "
                    "the intact entries and recompute the damaged ones"
                )
            warnings.warn(
                f"checkpoint {self.path}: salvaged {len(points)} entries, "
                f"dropped {len(damaged)} damaged line(s) {damaged}; the "
                "dropped entries will be recomputed",
                RuntimeWarning,
                stacklevel=3,
            )
        self._points = points
        self._persisted = set(points)
        self.damaged_lines = damaged
        # Legacy documents (v1/v2) and damaged files are compacted to
        # clean version-3 on the next flush rather than appended to.
        self._rewrite = bool(damaged) or legacy

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: str) -> bool:
        return key in self._points

    def get(self, key: str) -> _Result | None:
        """Completed result for ``key``, or None if not checkpointed."""
        return self._points.get(key)

    def items(self):
        """Iterate ``(key, result)`` over every loaded entry (last-wins)."""
        return self._points.items()

    @property
    def pending_records(self) -> int:
        """Records put but not yet persisted (nonzero after a failed flush)."""
        return len(self._pending)

    def put(self, key: str, result: _Result) -> None:
        """Record a completed task; flushes every ``flush_every`` puts.

        Re-putting a key whose identical result is already persisted (or
        already queued for the next flush) is a no-op: kill/resume loops
        and adaptive re-submission would otherwise append a duplicate
        line per pass and grow the store without bound.  A *different*
        result for an existing key (a ``resume=False`` recompute) is
        still appended and resolves last-line-wins.

        May raise :class:`~repro.errors.CheckpointWriteError` when the
        triggered flush fails; the record itself is never lost — it
        stays pending in memory and rides the next flush attempt.
        """
        if self._points.get(key) == result and (
            key in self._persisted or key in self._pending
        ):
            return
        self._points[key] = result
        self._pending.append(key)
        self._dirty += 1
        if self._dirty >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Persist the state: append new lines, or compact when needed.

        The fast path appends one line per task completed since the last
        flush — all of them in a single ``os.write`` + ``fsync`` on an
        ``O_APPEND`` descriptor, so an interrupt can never leave this
        process's own half-written line behind, and appends from
        concurrent writers merge trivially, every line being
        self-contained.  A failed append (``ENOSPC``, short write, or an
        injected chaos fault) rolls the file back to its pre-write size
        and raises :class:`~repro.errors.CheckpointWriteError` with every
        pending record retained for a later retry.  A full rewrite (temp
        file + atomic rename) happens only when the on-disk file needs
        compaction (legacy format or damaged lines); the disk file is
        re-read and merged under our points immediately before the
        rename, so compaction keeps all work persisted up to that point,
        but a concurrent append landing inside the re-read/rename window
        of a compaction can still be lost.  Healthy version-3 files never
        compact, so steady-state concurrent use is append-only and safe.
        """
        if self._dirty == 0:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and not self._rewrite:
            self._append_atomic()
        else:
            self._write_full()

    def compact(self) -> None:
        """Rewrite the file keeping exactly one (last-wins) row per key.

        Opt-in maintenance for stores grown by long kill/resume loops or
        pre-dedupe writers: the append-only fast path never rewrites, so
        historical duplicate rows survive until someone asks.  Uses the
        same merge + temp-file + atomic-rename path as damage compaction
        (on-disk entries unknown to this process are preserved), and
        clears :attr:`damaged_lines` — a damaged line has no row to keep.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._write_full()
        self.damaged_lines = []

    def _append_atomic(self) -> None:
        """Append all pending lines in one write; roll back on any failure."""
        decision_key = self._pending[0] if self._pending else ""
        if self.chaos is not None and self.chaos.decide(
            "enospc", decision_key, self._flush_attempt
        ):
            self._flush_attempt += 1
            raise CheckpointWriteError(
                f"checkpoint {self.path}: chaos-injected ENOSPC on flush; "
                f"{len(self._pending)} pending record(s) retained in memory"
            )
        data = "".join(self._line(key) for key in self._pending).encode("utf-8")
        torn = self.chaos is not None and self.chaos.decide(
            "torn_write", decision_key, self._flush_attempt
        )
        fd = os.open(str(self.path), os.O_WRONLY | os.O_APPEND)
        try:
            offset = os.fstat(fd).st_size
            try:
                if torn:
                    # Simulated torn write: persist only a prefix, then
                    # take the short-write recovery path below.
                    written = os.write(fd, data[: max(1, len(data) // 2)])
                else:
                    written = os.write(fd, data)
            except OSError as exc:
                self._rollback(fd, offset)
                self._flush_attempt += 1
                raise CheckpointWriteError(
                    f"checkpoint {self.path}: append failed ({exc}); "
                    f"{len(self._pending)} pending record(s) retained in "
                    "memory for a retried flush"
                ) from exc
            if torn or written != len(data):
                self._rollback(fd, offset)
                self._flush_attempt += 1
                raise CheckpointWriteError(
                    f"checkpoint {self.path}: short write ({written} of "
                    f"{len(data)} bytes — disk full?); rolled back, "
                    f"{len(self._pending)} pending record(s) retained in "
                    "memory for a retried flush"
                )
            os.fsync(fd)
        finally:
            os.close(fd)
        self._persisted.update(self._pending)
        self._pending.clear()
        self._dirty = 0
        self._flush_attempt = 1

    def _rollback(self, fd: int, offset: int) -> None:
        """Truncate a failed append back to the pre-write size.

        When even the truncate fails (a genuinely sick filesystem) the
        store falls back to demanding a compacting rewrite — the atomic
        temp-file + rename path — which eliminates any torn bytes the
        append left behind.
        """
        try:
            os.ftruncate(fd, offset)
        except OSError:
            self._rewrite = True

    def _write_full(self) -> None:
        """Merge-under, then atomically rewrite one sorted row per key."""
        if self.path.exists():
            try:
                disk, _, _ = _parse_file(
                    self.path, self.path.read_text(encoding="utf-8")
                )
            except CheckpointError:
                disk = {}
            for key, result in disk.items():
                self._points.setdefault(key, result)
        tmp = self.path.with_suffix(f"{self.path.suffix}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"version": _VERSION}) + "\n")
            for key in sorted(self._points):
                handle.write(self._line(key))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._rewrite = False
        self._persisted = set(self._points)
        self._pending.clear()
        self._dirty = 0
        self._flush_attempt = 1

    def _line(self, key: str) -> str:
        return encode_record(key, self._points[key])


@dataclass
class FsckFileReport:
    """Integrity findings for one checkpoint file.

    ``version`` is ``None`` when the file is not recognizably a
    checkpoint (no readable v2/v3 header) — such files
    are reported but never repaired, so pointing fsck at the wrong
    directory cannot destroy anything.  ``damaged`` holds one entry per
    bad line: ``{"line": n, "key": key-or-None, "reason": DAMAGE_*}``.
    ``duplicates`` counts extra same-key lines collapsed last-line-wins.
    """

    path: str
    version: int | None
    records: int = 0
    lines: int = 0
    damaged: list[dict] = field(default_factory=list)
    duplicates: int = 0
    repaired: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable form (the CLI's ``--json`` / CI artifact)."""
        return {
            "path": self.path,
            "version": self.version,
            "records": self.records,
            "lines": self.lines,
            "damaged": list(self.damaged),
            "duplicates": self.duplicates,
            "repaired": self.repaired,
        }


@dataclass
class FsckReport:
    """Aggregate integrity findings for a store or shard set.

    ``dropped_keys`` names every key that appeared *only* on damaged
    lines — the records actually lost (an engine resume recomputes
    exactly these); a damaged line whose key also has an intact copy
    anywhere in the set (a duplicated shard row) loses nothing.
    ``unrecoverable`` additionally counts damaged lines whose key could
    not even be extracted.  A verified-clean (or freshly repaired) store
    reports ``unrecoverable == 0``.
    """

    files: list[FsckFileReport] = field(default_factory=list)
    intact_records: int = 0
    damaged_lines: int = 0
    dropped_keys: list[str] = field(default_factory=list)
    unrecoverable: int = 0
    repaired: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable form (the CLI's ``--json`` / CI artifact)."""
        return {
            "files": [f.to_dict() for f in self.files],
            "intact_records": self.intact_records,
            "damaged_lines": self.damaged_lines,
            "dropped_keys": list(self.dropped_keys),
            "unrecoverable": self.unrecoverable,
            "repaired": self.repaired,
        }

    @property
    def clean(self) -> bool:
        """True when every scanned line verified intact (nothing dropped)."""
        return self.damaged_lines == 0


def _fsck_scan(path: Path) -> tuple[FsckFileReport, dict[str, _Result], list[str]]:
    """Scan one file: its report, intact records, and damaged raw lines."""
    text = path.read_text(encoding="utf-8")
    report = FsckFileReport(path=str(path), version=None)
    intact: dict[str, _Result] = {}
    bad_lines: list[str] = []
    if not text.strip():
        report.version = _VERSION
        return report, intact, bad_lines
    lines = text.splitlines()
    header = None
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or header.get("version") not in (
        _VERSION,
        _V2_VERSION,
    ):
        return report, intact, bad_lines  # version=None: not a checkpoint
    version = header["version"]
    report.version = version
    require_crc = version == _VERSION
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        report.lines += 1
        key, result, damage = _scan_line(line, require_crc)
        if damage is None:
            if key in intact:
                report.duplicates += 1
            intact[key] = result
        else:
            report.damaged.append({"line": lineno, "key": key, "reason": damage})
            bad_lines.append(line)
    report.records = len(intact)
    return report, intact, bad_lines


def _fsck_repair(path: Path, intact: dict[str, _Result], bad_lines) -> None:
    """Rewrite one file as clean v3; quarantine damaged raw lines aside.

    The damaged lines are appended to ``<path>.quarantined`` before the
    rewrite so repair never silently destroys bytes — a human (or a
    smarter future salvager) can still inspect what was dropped.  The
    rewrite itself is the standard temp-file + fsync + atomic-rename.
    """
    if bad_lines:
        quarantine = path.with_name(path.name + ".quarantined")
        with open(quarantine, "a", encoding="utf-8") as handle:
            for line in bad_lines:
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    tmp = path.with_suffix(f"{path.suffix}.{os.getpid()}.fsck.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"version": _VERSION}) + "\n")
        for key in sorted(intact):
            handle.write(encode_record(key, intact[key]))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _fsck_targets(path: Path) -> list[Path]:
    """The checkpoint files one fsck invocation covers.

    A file is checked alone; a directory is walked for ``*.jsonl`` and
    ``*.json`` stores (the engine's default checkpoint is ``.json``) — anything
    that turns out not to be a checkpoint is reported unreadable and left
    untouched.
    """
    if path.is_file():
        return [path]
    if path.is_dir():
        found = sorted(
            p
            for pattern in ("*.jsonl", "*.json")
            for p in path.rglob(pattern)
            if p.is_file() and not p.name.endswith(".quarantined")
        )
        return found
    raise CheckpointError(f"fsck target {path} does not exist")


def fsck(path: str | Path, repair: bool = False) -> FsckReport:
    """Verify — and optionally repair — a checkpoint store or shard set.

    Scans every record line of ``path`` (a single store, or a directory
    of shards/stores): JSON validity, record shape, and the version-3
    CRC32 (required for v3 rows, verified-when-present for v2).  With
    ``repair=True`` every damaged or version-2 file is compacted to a clean
    version-3 store — damaged raw lines are quarantined into a
    ``*.quarantined`` sidecar first, never silently destroyed — so a
    subsequent fsck reports the store clean.  The returned
    :class:`FsckReport` carries per-file findings plus the aggregate
    salvage statistics: intact records, damaged lines, and the *names*
    of every dropped key (damaged lines whose record survives intact
    elsewhere in the set drop nothing).
    """
    path = Path(path)
    report = FsckReport()
    all_intact: set[str] = set()
    damaged_keys: list[tuple[str | None, str]] = []  # (key or None, file)
    for target in _fsck_targets(path):
        file_report, intact, bad_lines = _fsck_scan(target)
        report.files.append(file_report)
        report.intact_records += file_report.records
        report.damaged_lines += len(file_report.damaged)
        all_intact.update(intact)
        for entry in file_report.damaged:
            damaged_keys.append((entry["key"], str(target)))
        needs_repair = file_report.version is not None and (
            file_report.damaged
            or file_report.duplicates
            or file_report.version != _VERSION
        )
        if repair and needs_repair:
            _fsck_repair(target, intact, bad_lines)
            file_report.repaired = True
            report.repaired = True
    dropped = sorted(
        {key for key, _ in damaged_keys if key is not None and key not in all_intact}
    )
    report.dropped_keys = dropped
    report.unrecoverable = len(dropped) + sum(
        1 for key, _ in damaged_keys if key is None
    )
    return report
