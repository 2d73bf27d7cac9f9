"""JSON-lines checkpoint store for interruptible campaign batches.

The engine records every completed *point* — one (BER, seed) evaluation
under one protection plan — under its content-hash key
(:mod:`repro.runtime.hashing`).  Because entries live at point
granularity, a seed-batch task interrupted mid-way leaves its finished
seeds on disk and a resumed engine recomputes only the missing ones; a
seed-batch task and the equivalent per-seed point tasks share the same
entries.  The store is line-oriented so damage is *localized*: completed
points append one self-contained JSON line each, a crash mid-write can
truncate at most the final line, and loading salvages every intact line
while reporting the damaged ones (see
:class:`repro.errors.CheckpointError`).  A resumed engine replays the
salvaged points from disk and recomputes only the damaged entries.

File format (version 3)::

    {"version": 3}
    {"ber": 1e-06, "crc": 4023233417, "key": "<task-key>", "seed": 0, "accuracy": 0.81, "events": 42}
    ...

Every row is one point (:class:`~repro.faultsim.campaign.SeedPointResult`).
Stores written by older engines may also hold per-slice rows (``start``,
``stop``, ``correct``, ``total`` instead of ``accuracy``); such a row is
not a well-formed record, so it takes the damaged-line path below
(reason ``fields``) and disappears at the next compaction or repair.

Record integrity
----------------
Every record carries a ``crc`` field: the CRC32 of the row's canonical
JSON serialization *without* the ``crc`` key.  A line that parses as JSON
but fails (or lacks) its CRC — a bit flip on disk, a torn write whose
prefix happens to be valid JSON — is treated exactly like an unparseable
line: dropped at load with a warning, recomputed only if a later batch
asks for its point, and reported by :func:`fsck`.  Version 3 is the only
format read: any other header (the pre-CRC version 2, the headerless
single-document version 1) raises
:class:`~repro.errors.CheckpointError` naming the version, and
:func:`fsck` reports such a file as not a checkpoint.  An empty file is
a fresh store.

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
retry budget is spent.  Whole-store writes (a new store's first flush,
compaction of a damaged file, ``fsck`` repair) go through one temp-file
+ ``fsync`` + atomic-rename writer that fails the same retryable way.

A key appearing on several lines (e.g. a ``resume=False`` recompute) is
resolved last-line-wins.  Keys already encode model + campaign +
protection + point content, so one checkpoint file safely accumulates
tasks from many figures and models without collisions.

``fsck`` is the offline integrity tool: it verifies (and with
``repair=True`` rewrites, one row per key) a single store, quarantining
damaged raw lines into a ``*.quarantined`` sidecar and naming every
dropped key.
"""

from __future__ import annotations

import json
import os
import re
import warnings
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import CheckpointError, CheckpointWriteError
from repro.faultsim.campaign import SeedPointResult

__all__ = [
    "CampaignCheckpoint",
    "FsckReport",
    "encode_record",
    "fsck",
    "record_crc",
]

_VERSION = 3

#: Damage classifications reported per line by the scanner / fsck.
DAMAGE_JSON = "json"          # not parseable as a JSON object
DAMAGE_FIELDS = "fields"      # JSON but not a well-formed record row
DAMAGE_CRC = "crc"            # CRC32 mismatch (bit flip / torn-but-valid)
DAMAGE_MISSING_CRC = "missing-crc"  # row without its required crc

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


def encode_record(key: str, result: SeedPointResult) -> str:
    """One version-3 checkpoint line (CRC included, newline-terminated)."""
    row = {"key": key, **result.to_dict()}
    row["crc"] = record_crc(row)
    return _canonical(row) + "\n"


def _scan_line(line: str):
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
    if not isinstance(row, dict) or not isinstance(row.get("key"), str):
        return None, None, DAMAGE_FIELDS
    key = row["key"]
    if "crc" not in row:
        return key, None, DAMAGE_MISSING_CRC
    try:
        stored = int(row["crc"])
    except (TypeError, ValueError):
        return key, None, DAMAGE_CRC
    if stored != record_crc(row):
        return key, None, DAMAGE_CRC
    try:
        return key, SeedPointResult.from_dict(row), None
    except (KeyError, TypeError, ValueError):
        return key, None, DAMAGE_FIELDS


@dataclass
class _Scan:
    """What :func:`_scan` found in one store's text."""

    #: Intact records, last-line-wins.
    records: dict[str, SeedPointResult] = field(default_factory=dict)
    #: One ``{"line": n, "key": key-or-None, "reason": DAMAGE_*}`` per bad line.
    damaged: list[dict] = field(default_factory=list)
    #: The damaged lines' raw text (what a repair quarantines).
    bad_lines: list[str] = field(default_factory=list)
    #: Non-blank record lines after the header.
    lines: int = 0
    #: Extra intact same-key lines collapsed last-line-wins.
    duplicates: int = 0
    #: True for a zero-byte or whitespace-only file (a fresh store).
    empty: bool = False


def _scan(path: Path, text: str) -> _Scan:
    """Scan checkpoint ``text`` line by line.

    Raises :class:`CheckpointError` when the file is not a version-3
    store (no readable header, or any other version); individual damaged
    record lines — unparseable, malformed, or failing their CRC — are
    tolerated and reported.  A zero-byte (or whitespace-only) file —
    ``touch``-created, or a crash before the header write — is a fresh
    store, not a broken one.
    """
    if not text.strip():
        return _Scan(empty=True)
    lines = text.splitlines()
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    if not (isinstance(header, dict) and "version" in header):
        # No versioned header: a multi-line document (the retired
        # version-1 format) or garbage.  Name the version when there is
        # one.
        try:
            header = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {path} has no readable header and is not valid "
                f"JSON ({exc}); repair it or delete it to start fresh"
            ) from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != _VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version!r}"
        )
    scan = _Scan()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        scan.lines += 1
        key, result, damage = _scan_line(line)
        if damage is None:
            if key in scan.records:
                scan.duplicates += 1
            scan.records[key] = result
        else:
            scan.damaged.append({"line": lineno, "key": key, "reason": damage})
            scan.bad_lines.append(line)
    return scan


def _write_store(path: Path, records: dict[str, SeedPointResult]) -> None:
    """Atomically replace ``path`` with a clean store, one sorted row per key.

    Temp file + ``fsync`` + atomic rename, so a crash leaves either the
    old file or the new one.  Any ``OSError`` (``ENOSPC``, a failed
    rename) removes the temp file and raises
    :class:`~repro.errors.CheckpointWriteError` with the old file
    untouched, so the caller can retry.
    """
    tmp = path.with_suffix(f"{path.suffix}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"version": _VERSION}) + "\n")
            for key in sorted(records):
                handle.write(encode_record(key, records[key]))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise CheckpointWriteError(
            f"checkpoint {path}: rewrite failed ({exc}); the file on disk "
            "is unchanged"
        ) from exc


class CampaignCheckpoint:
    """Append-mostly map of point key -> :class:`SeedPointResult` on disk.

    An existing file is always loaded and merged into, never truncated:
    whether cached tasks are *served* back to a batch is the engine's
    ``resume`` policy, but completed work is never discarded (recomputed
    tasks simply overwrite their own keys).  Damaged lines are salvaged
    around: loading warns, records their line numbers in
    :attr:`damaged_lines`, and a resumed engine recomputes a dropped
    point only if a later batch asks for it.

    Parameters
    ----------
    path:
        Checkpoint file location.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._points: dict[str, SeedPointResult] = {}
        #: Keys put since the last flush, in completion order.
        self._pending: list[str] = []
        #: Keys whose current result this process knows to be on disk.
        self._persisted: set[str] = set()
        #: Full rewrite needed (empty file or damaged lines on disk).
        self._rewrite = False
        #: Line numbers dropped during load (empty for a healthy file).
        self.damaged_lines: list[int] = []
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        scan = _scan(self.path, self.path.read_text(encoding="utf-8"))
        damaged = [entry["line"] for entry in scan.damaged]
        if damaged:
            warnings.warn(
                f"checkpoint {self.path}: salvaged {len(scan.records)} "
                f"entries, dropped {len(damaged)} damaged line(s) {damaged}; "
                "a dropped point is recomputed only if a later batch asks "
                "for it",
                RuntimeWarning,
                stacklevel=3,
            )
        self._points = scan.records
        self._persisted = set(scan.records)
        self.damaged_lines = damaged
        # Damaged and empty (headerless) files are compacted to a clean
        # store on the next flush rather than appended to.
        self._rewrite = bool(damaged) or scan.empty

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: str) -> bool:
        return key in self._points

    def get(self, key: str) -> SeedPointResult | None:
        """Completed result for ``key``, or None if not checkpointed."""
        return self._points.get(key)

    @property
    def pending_records(self) -> int:
        """Records put but not yet persisted (nonzero after a failed flush)."""
        return len(self._pending)

    def put(self, key: str, result: SeedPointResult) -> None:
        """Record a completed task and flush it.

        Re-putting a key whose identical result is already persisted (or
        already queued for the next flush) is a no-op: kill/resume loops,
        and fig7 re-running fig6's sweeps, would otherwise append a
        duplicate line per pass and grow the store without bound.  A
        *different* result for an existing key (a ``resume=False``
        recompute) is still appended and resolves last-line-wins.

        May raise :class:`~repro.errors.CheckpointWriteError` when the
        flush fails; the record itself is never lost — it stays pending
        in memory and rides the next flush attempt.
        """
        if self._points.get(key) == result and (
            key in self._persisted or key in self._pending
        ):
            return
        self._points[key] = result
        self._pending.append(key)
        self.flush()

    def flush(self) -> None:
        """Persist the pending records: append them, or compact when needed.

        The fast path appends one line per task completed since the last
        flush — all of them in a single ``os.write`` + ``fsync`` on an
        ``O_APPEND`` descriptor, so an interrupt can never leave this
        process's own half-written line behind, and appends from
        concurrent writers merge trivially, every line being
        self-contained.  A failed append (``ENOSPC``, a short write)
        rolls the file back to its pre-write size and raises
        :class:`~repro.errors.CheckpointWriteError` with every pending
        record retained for a later retry.  A whole-store write
        happens only for a new file or when the on-disk file needs
        compaction (empty or damaged); the disk file is re-read and
        merged under our points immediately before the rename, so
        compaction keeps all work persisted up to that point, but a
        concurrent append landing inside the re-read/rename window of a
        compaction can still be lost.  Healthy files never compact, so
        steady-state concurrent use is append-only and safe.
        """
        if not self._pending:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and not self._rewrite:
            self._append_atomic()
        else:
            self._compact()

    def _append_atomic(self) -> None:
        """Append all pending lines in one write; roll back on any failure."""
        data = "".join(
            encode_record(key, self._points[key]) for key in self._pending
        ).encode("utf-8")
        fd = os.open(str(self.path), os.O_WRONLY | os.O_APPEND)
        try:
            offset = os.fstat(fd).st_size
            try:
                written = os.write(fd, data)
            except OSError as exc:
                self._rollback(fd, offset)
                raise CheckpointWriteError(
                    f"checkpoint {self.path}: append failed ({exc}); "
                    f"{len(self._pending)} pending record(s) retained in "
                    "memory for a retried flush"
                ) from exc
            if written != len(data):
                self._rollback(fd, offset)
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

    def _compact(self) -> None:
        """Merge-under the disk's records, then rewrite the whole store."""
        if self.path.exists():
            try:
                disk = _scan(self.path, self.path.read_text(encoding="utf-8")).records
            except CheckpointError:
                disk = {}
            for key, result in disk.items():
                self._points.setdefault(key, result)
        _write_store(self.path, self._points)
        self._rewrite = False
        self._persisted = set(self._points)
        self._pending.clear()


@dataclass
class FsckReport:
    """Integrity findings for one checkpoint store.

    ``version`` is ``None`` when the file is not a version-3 checkpoint
    (no readable header, or a retired version) — such files are reported
    but never repaired, so pointing fsck at the wrong file cannot destroy
    anything.  ``lines`` counts record lines, ``records`` the intact keys
    among them.  ``damaged`` holds one entry per bad line: ``{"line": n,
    "key": key-or-None, "reason": DAMAGE_*}``.  ``duplicates`` counts
    extra same-key lines collapsed last-line-wins.  ``dropped_keys``
    names every key that appeared *only* on damaged lines — the records
    actually lost (an engine resume recomputes exactly these);
    ``unrecoverable`` additionally counts damaged lines whose key could
    not even be extracted.  A verified-clean (or freshly repaired) store
    reports ``unrecoverable == 0``.
    """

    path: str
    version: int | None
    records: int = 0
    lines: int = 0
    damaged: list[dict] = field(default_factory=list)
    duplicates: int = 0
    dropped_keys: list[str] = field(default_factory=list)
    unrecoverable: int = 0
    repaired: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable form (the CLI's ``--json`` / CI artifact)."""
        return asdict(self)

    @property
    def clean(self) -> bool:
        """True when every scanned line verified intact (nothing dropped)."""
        return not self.damaged


def fsck(path: str | Path, repair: bool = False) -> FsckReport:
    """Verify — and optionally repair — one checkpoint store.

    Scans every record line of the file at ``path``: JSON validity,
    record shape, and the CRC32.  With ``repair=True`` a damaged or
    duplicate-carrying store is rewritten clean, one last-wins row per
    key — damaged raw lines are quarantined into a ``<path>.quarantined``
    sidecar first, never silently destroyed — so a subsequent fsck
    reports the store clean.  Raises :class:`CheckpointError` when
    ``path`` is missing or a directory, and
    :class:`~repro.errors.CheckpointWriteError` when the repair's
    quarantine or rewrite fails (the store is then left as it was).
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"fsck target {path} does not exist")
    if not path.is_file():
        raise CheckpointError(
            f"fsck target {path} is not a file; fsck checks one store"
        )
    try:
        scan = _scan(path, path.read_text(encoding="utf-8"))
    except CheckpointError:
        return FsckReport(path=str(path), version=None)  # never touched
    dropped = sorted(
        {
            entry["key"]
            for entry in scan.damaged
            if entry["key"] is not None and entry["key"] not in scan.records
        }
    )
    keyless = sum(1 for entry in scan.damaged if entry["key"] is None)
    report = FsckReport(
        path=str(path),
        version=_VERSION,
        records=len(scan.records),
        lines=scan.lines,
        damaged=scan.damaged,
        duplicates=scan.duplicates,
        dropped_keys=dropped,
        unrecoverable=len(dropped) + keyless,
    )
    if repair and (scan.damaged or scan.duplicates):
        if scan.bad_lines:
            quarantine = path.with_name(path.name + ".quarantined")
            try:
                with open(quarantine, "a", encoding="utf-8") as handle:
                    for line in scan.bad_lines:
                        handle.write(line + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError as exc:
                raise CheckpointWriteError(
                    f"checkpoint {path}: quarantining damaged lines to "
                    f"{quarantine} failed ({exc}); store not repaired"
                ) from exc
        _write_store(path, scan.records)
        report.repaired = True
    return report
