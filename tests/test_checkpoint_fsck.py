"""Crash-safe checkpoint integrity: CRCs, atomic flushes, fsck, ENOSPC.

Property under test: inflict randomized damage — truncated lines, bit
flips, duplicated lines — on one checkpoint store, and ``fsck --repair``
must leave a store that reopens to *exactly* the records whose lines
were intact, with the report naming every dropped key.  Plus the
durability contract of the v3 store: flushes append whole lines
atomically, torn/ENOSPC appends roll back and retain records in memory,
a failed whole-store write leaves no temp file behind and is retryable
too, and the engine degrades checkpoint-less (loudly) rather than
crashing when the disk stays broken.
"""

from __future__ import annotations

import errno
import json
import os

import numpy as np
import pytest

from repro.errors import CheckpointError, CheckpointWriteError
from repro.faultsim import SeedPointResult
from repro.runtime import CampaignCheckpoint, fsck
from repro.runtime.checkpoint import encode_record, record_crc


def result_for(i: int) -> SeedPointResult:
    return SeedPointResult(
        ber=1e-6 * (i + 1), seed=i % 5, accuracy=0.25 + 0.001 * i, events=i
    )


def write_store(path, keys):
    store = CampaignCheckpoint(path)
    for key in keys:
        store.put(key, result_for(int(key.split("-")[1])))


def disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device (test)")


class TestRecordCrc:
    def test_crc_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        store.put("abc", result_for(3))
        store.flush()
        row = json.loads(path.read_text().splitlines()[1])
        assert row["crc"] == record_crc(row)

    def test_any_field_change_breaks_crc(self):
        line = encode_record("abc", result_for(3))
        row = json.loads(line)
        row["accuracy"] += 1e-9
        assert row["crc"] != record_crc(row)

    def test_bad_crc_line_dropped_at_load_and_recomputed(self, tmp_path):
        path = tmp_path / "ck.json"
        write_store(path, ["k-0", "k-1"])
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["accuracy"] += 0.5  # silent bit-flip style corruption
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="damaged"):
            store = CampaignCheckpoint(path)
        assert store.get(row["key"]) is None  # dropped, not trusted
        assert len(store) == 1


def damage_store(path, rng):
    """Randomized damage; returns the keys whose lines were destroyed.

    Three damage modes: truncate a line (torn write), flip a byte inside
    the JSON payload (silent corruption), and duplicate an intact line
    (double flush / merge artifact — harmless).
    """
    destroyed = set()
    lines = path.read_text().splitlines()
    body = list(range(1, len(lines)))  # skip the header
    rng.shuffle(body)
    for lineno in body[: max(1, len(body) // 3)]:
        key = json.loads(lines[lineno])["key"]
        mode = rng.integers(0, 3)
        if mode == 0:  # torn write: keep a prefix only
            cut = int(rng.integers(1, max(2, len(lines[lineno]) - 10)))
            lines[lineno] = lines[lineno][:cut]
            destroyed.add(key)
        elif mode == 1:  # bit flip in the accuracy digits
            row = json.loads(lines[lineno])
            row["accuracy"] = row["accuracy"] + 0.125
            lines[lineno] = json.dumps(row)  # stale crc kept
            destroyed.add(key)
        else:  # duplicate an intact line: no data lost
            lines.append(lines[lineno])
    path.write_text("\n".join(lines) + "\n")
    return destroyed


class TestFsckProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_repair_recovers_exactly_intact_records(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "ck.json"
        all_keys = [f"k-{i}" for i in range(24)]
        write_store(path, all_keys)
        destroyed = damage_store(path, rng)
        intact = set(all_keys) - destroyed

        report = fsck(path)
        assert not report.clean
        assert report.lines == len(path.read_text().splitlines()) - 1
        # The report names only destroyed keys (a duplicated line keeps
        # its record intact, so it never appears).
        assert set(report.dropped_keys) <= destroyed
        named = {e["key"] for e in report.damaged if e["key"] is not None}
        # Every destroyed key is at least *named* as damaged (torn lines
        # may hide the key beyond recovery; those count as unrecoverable).
        keyless = sum(1 for e in report.damaged if e["key"] is None)
        assert len(destroyed - named) <= keyless
        assert report.unrecoverable == len(report.dropped_keys) + keyless

        repaired = fsck(path, repair=True)
        assert repaired.repaired
        # Post-repair: the store is verifiably clean, damaged raw lines
        # are quarantined (not destroyed), nothing unrecoverable remains.
        rescan = fsck(path)
        assert rescan.clean and rescan.unrecoverable == 0
        assert rescan.records == rescan.lines == len(intact)
        assert rescan.duplicates == 0
        assert (tmp_path / "ck.json.quarantined").exists()

        # Reopening the repaired store yields exactly the intact set,
        # each record with its original result.
        store = CampaignCheckpoint(path)
        assert store.damaged_lines == [] and len(store) == len(intact)
        for key in all_keys:
            expected = result_for(int(key.split("-")[1])) if key in intact else None
            assert store.get(key) == expected

    def test_fsck_never_repairs_foreign_files(self, tmp_path):
        target = tmp_path / "notes.json"
        target.write_text('{"totally": "unrelated"}\n')
        report = fsck(target, repair=True)
        assert report.version is None and not report.repaired
        assert target.read_text() == '{"totally": "unrelated"}\n'

    def test_fsck_missing_target_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            fsck(tmp_path / "nope")

    def test_fsck_directory_target_is_typed(self, tmp_path):
        write_store(tmp_path / "ck.json", ["k-0"])
        with pytest.raises(CheckpointError, match="not a file"):
            fsck(tmp_path)

    @pytest.mark.parametrize(
        "damage, stage",
        [("duplicate", "rewrite failed"), ("torn", "quarantining")],
    )
    def test_repair_whose_write_fails_leaves_store_as_is(
        self, tmp_path, monkeypatch, damage, stage
    ):
        """A full disk during repair is a typed, retryable failure: a
        damaged store fails at the quarantine write, a duplicate-only one
        at the rewrite, and neither changes the store or leaves a temp
        file."""
        path = tmp_path / "ck.json"
        write_store(path, ["k-0", "k-1"])
        row = path.read_text().splitlines()[1]
        with open(path, "a") as handle:
            handle.write((row if damage == "duplicate" else row[:20]) + "\n")
        before = path.read_bytes()
        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(CheckpointWriteError, match=stage):
            fsck(path, repair=True)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


def fault_firing_once(faults, kind: str, key: str, rate: float = 0.7) -> None:
    """Arm ``kind`` so it fires on the first append of ``key``'s line only.

    Decisions are pure functions of (seed, written text, attempt), so a
    suitable seed can simply be searched for — deterministically.
    """
    line = encode_record(key, result_for(int(key.split("-")[1])))
    for seed in range(1000):
        if faults.fires(seed, kind, line, 1, rate) and not faults.fires(
            seed, kind, line, 2, rate
        ):
            faults.writes(seed=seed, **{kind: rate})
            return
    raise AssertionError("no suitable fault seed found")


class TestDurableFlush:
    def test_interrupted_flush_never_leaves_half_a_line(
        self, tmp_path, runtime_faults
    ):
        """Torn flush: the short write is rolled back whole — the same
        process can then append cleanly, and no half-written line ever
        precedes a later append."""
        path = tmp_path / "ck.json"
        write_store(path, ["k-0"])  # existing store -> append path
        before = path.read_bytes()
        fault_firing_once(runtime_faults, "torn_write", "k-1")
        store = CampaignCheckpoint(path)
        with pytest.raises(CheckpointWriteError, match="short write"):
            store.put("k-1", result_for(1))
        assert path.read_bytes() == before  # rolled back, byte-exact
        assert store.pending_records == 1  # retained in memory
        # Faults draw per write attempt: the retry lands the record whole.
        store.flush()
        reloaded = CampaignCheckpoint(path)
        assert reloaded.damaged_lines == []
        assert reloaded.get("k-1") == result_for(1)

    def test_enospc_flush_retains_and_recovers(self, tmp_path, runtime_faults):
        path = tmp_path / "ck.json"
        write_store(path, ["k-0"])
        fault_firing_once(runtime_faults, "enospc", "k-1")
        store = CampaignCheckpoint(path)
        with pytest.raises(CheckpointWriteError, match="ENOSPC"):
            store.put("k-1", result_for(1))
        assert store.pending_records == 1
        assert CampaignCheckpoint(path).get("k-1") is None
        store.flush()  # fresh draw on the retry attempt
        reloaded = CampaignCheckpoint(path)
        assert reloaded.damaged_lines == []
        assert reloaded.get("k-1") == result_for(1)

    def test_failed_first_write_retains_and_recovers(self, tmp_path, monkeypatch):
        """A new store's first flush writes the whole store; when that
        write fails the temp file is removed and the record stays
        pending, so the flush can be retried like a failed append."""
        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", disk_full)
            with pytest.raises(CheckpointWriteError, match="rewrite failed"):
                store.put("k-0", result_for(0))
        assert store.pending_records == 1
        assert list(tmp_path.iterdir()) == []
        store.flush()
        assert store.pending_records == 0
        assert CampaignCheckpoint(path).get("k-0") == result_for(0)

    def test_engine_degrades_checkpoint_less_when_disk_stays_broken(
        self, tiny_quantized, tiny_eval, tmp_path, monkeypatch
    ):
        from repro.faultsim import CampaignConfig
        from repro.runtime import CampaignEngine, RetryPolicy, TaskSpec

        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = CampaignConfig(
            seeds=(0,),
            batch_size=12,
            max_samples=24,
        )
        ref = CampaignEngine(workers=1).evaluate_tasks(
            qm, x, y, [TaskSpec(ber=1e-5, seed=0)], config=config
        )

        def always_fails(self):
            raise CheckpointWriteError("disk is permanently full (test)")

        monkeypatch.setattr(CampaignCheckpoint, "flush", always_fails)
        engine = CampaignEngine(
            workers=1,
            checkpoint_path=tmp_path / "full-disk.json",
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        )
        with pytest.warns(RuntimeWarning, match="checkpoint-less"):
            got = engine.evaluate_tasks(
                qm, x, y, [TaskSpec(ber=1e-5, seed=0)], config=config
            )
        # The campaign still completed, bit-identically.
        assert [r.to_dict() for r in got] == [r.to_dict() for r in ref]

    def test_engine_degrades_when_first_write_hits_enospc(
        self, tiny_quantized, tiny_eval, tmp_path, monkeypatch
    ):
        """On a fresh checkpoint path every flush is a whole-store write;
        a full disk there must degrade like a failed append — bit-identical
        results, a loud warning, and no temp file left behind."""
        from repro.faultsim import CampaignConfig
        from repro.runtime import CampaignEngine, RetryPolicy, TaskSpec

        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = CampaignConfig(seeds=(0, 1), batch_size=12, max_samples=24)
        tasks = [TaskSpec(ber=1e-5, seeds=(0, 1))]
        ref = CampaignEngine(workers=1).evaluate_tasks(qm, x, y, tasks, config=config)

        monkeypatch.setattr(os, "fsync", disk_full)
        engine = CampaignEngine(
            workers=1,
            checkpoint_path=tmp_path / "c.json",
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        )
        with pytest.warns(RuntimeWarning, match="checkpoint-less"):
            got = engine.evaluate_tasks(qm, x, y, tasks, config=config)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in ref]
        assert list(tmp_path.iterdir()) == []
