"""Crash-safe checkpoint integrity: CRCs, atomic flushes, fsck, ENOSPC.

Property under test: inflict randomized damage — truncated lines, bit
flips, duplicated lines — across a directory of checkpoint shards, and
``fsck --repair`` must leave shards that reopen to *exactly* the records
whose lines were intact, with the report naming every dropped key.
Plus the durability contract of the v3 store: flushes append whole
lines atomically, torn/ENOSPC flushes roll back and retain
records in memory, and the engine degrades checkpoint-less (loudly)
rather than crashing when the disk stays broken.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.errors import CheckpointError, CheckpointWriteError
from repro.faultsim import SeedPointResult
from repro.runtime import CampaignCheckpoint, ChaosSpec, fsck
from repro.runtime.checkpoint import encode_record, record_crc


def result_for(i: int) -> SeedPointResult:
    return SeedPointResult(
        ber=1e-6 * (i + 1), seed=i % 5, accuracy=0.25 + 0.001 * i, events=i
    )


def write_shard(path, keys):
    store = CampaignCheckpoint(path, flush_every=len(keys) or 1)
    for i, key in enumerate(keys):
        store.put(key, result_for(int(key.split("-")[1])))
    store.flush()


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
        write_shard(path, ["k-0", "k-1"])
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["accuracy"] += 0.5  # silent bit-flip style corruption
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="damaged"):
            store = CampaignCheckpoint(path)
        assert store.get(row["key"]) is None  # dropped, not trusted
        assert len(store) == 1

    def test_v2_store_loads_without_crcs(self, tmp_path):
        path = tmp_path / "ck.json"
        rows = []
        for i in range(3):
            row = {"key": f"k-{i}", **result_for(i).to_dict()}
            rows.append(json.dumps(row))
        path.write_text(
            json.dumps({"version": 2}) + "\n" + "\n".join(rows) + "\n"
        )
        store = CampaignCheckpoint(path, strict=True)
        assert len(store) == 3
        # First flush compacts to v3 with CRCs everywhere.
        store.put("k-9", result_for(9))
        store.flush()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"version": 3}
        assert all("crc" in json.loads(line) for line in lines[1:])


def damage_shards(shard_dir, rng):
    """Randomized damage; returns the keys whose lines were destroyed.

    Three damage modes per the satellite spec: truncate a line (torn
    write), flip a byte inside the JSON payload (silent corruption), and
    duplicate an intact line (double flush / merge artifact — harmless).
    """
    destroyed = set()
    for path in sorted(shard_dir.glob("*.jsonl")):
        lines = path.read_text().splitlines()
        body = list(range(1, len(lines)))  # skip the header
        rng.shuffle(body)
        victims = body[: max(1, len(body) // 3)]
        for lineno in victims:
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
    def test_repair_and_merge_recover_exactly_intact_records(
        self, tmp_path, seed
    ):
        rng = np.random.default_rng(seed)
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        all_keys = [f"k-{i}" for i in range(24)]
        for w, lo in enumerate(range(0, 24, 8)):
            write_shard(
                shard_dir / f"worker-{w}.jsonl", all_keys[lo : lo + 8]
            )
        destroyed = damage_shards(shard_dir, rng)
        intact = set(all_keys) - destroyed

        report = fsck(shard_dir)
        assert not report.clean
        # The report names exactly the destroyed keys (duplicated lines
        # keep their record intact elsewhere, so they never appear).
        assert set(report.dropped_keys) <= destroyed
        named = {
            entry["key"]
            for f in report.files
            for entry in f.damaged
            if entry["key"] is not None
        }
        # Every destroyed key is at least *named* as damaged (torn lines
        # may hide the key beyond recovery; those count as unrecoverable).
        keyless = sum(
            1
            for f in report.files
            for entry in f.damaged
            if entry["key"] is None
        )
        assert len(destroyed - named) <= keyless

        repaired = fsck(shard_dir, repair=True)
        assert repaired.repaired
        # Post-repair: the store is verifiably clean, damaged raw lines
        # are quarantined (not destroyed), nothing unrecoverable remains.
        rescan = fsck(shard_dir)
        assert rescan.clean and rescan.unrecoverable == 0
        assert rescan.intact_records == len(intact)
        assert list(shard_dir.glob("*.quarantined"))

        # Reopening every repaired shard yields exactly the intact set,
        # each record with its original result.
        recovered = {}
        for shard in sorted(shard_dir.glob("*.jsonl")):
            recovered.update(CampaignCheckpoint(shard, strict=True).items())
        assert set(recovered) == intact
        for key in intact:
            assert recovered[key] == result_for(int(key.split("-")[1]))

    def test_fsck_never_repairs_foreign_files(self, tmp_path):
        target = tmp_path / "notes.json"
        target.write_text('{"totally": "unrelated"}\n')
        report = fsck(tmp_path, repair=True)
        (entry,) = [f for f in report.files if f.path == str(target)]
        assert entry.version is None and not entry.repaired
        assert target.read_text() == '{"totally": "unrelated"}\n'

    def test_fsck_missing_target_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            fsck(tmp_path / "nope")


def chaos_firing_once(kind: str, key: str, rate: float = 0.7) -> ChaosSpec:
    """A spec whose ``kind`` fires at (key, attempt 1) but not attempt 2.

    Decisions are pure functions of (seed, key, attempt), so a suitable
    seed can simply be searched for — deterministically.
    """
    field = {"torn_write": "torn_write_rate", "enospc": "enospc_rate"}[kind]
    for seed in range(1000):
        spec = ChaosSpec(seed=seed, **{field: rate})
        if spec.decide(kind, key, 1) and not spec.decide(kind, key, 2):
            return spec
    raise AssertionError("no suitable chaos seed found")


class TestDurableFlush:
    def test_interrupted_flush_never_leaves_half_a_line(self, tmp_path):
        """Chaos-torn flush: the short write is rolled back whole — the
        same process can then append cleanly, and no half-written line
        ever precedes a later append (ISSUE satellite b)."""
        path = tmp_path / "ck.json"
        write_shard(path, ["k-0"])  # existing store -> append path
        before = path.read_bytes()
        store = CampaignCheckpoint(
            path, flush_every=100, chaos=chaos_firing_once("torn_write", "k-1")
        )
        store.put("k-1", result_for(1))
        with pytest.raises(CheckpointWriteError, match="short write"):
            store.flush()
        assert path.read_bytes() == before  # rolled back, byte-exact
        assert store.pending_records == 1  # retained in memory
        # Chaos draws per flush attempt: the retry lands the record whole.
        store.flush()
        reloaded = CampaignCheckpoint(path, strict=True)
        assert reloaded.get("k-1") == result_for(1)

    def test_enospc_flush_retains_and_recovers(self, tmp_path):
        path = tmp_path / "ck.json"
        write_shard(path, ["k-0"])
        store = CampaignCheckpoint(
            path, flush_every=100, chaos=chaos_firing_once("enospc", "k-1")
        )
        store.put("k-1", result_for(1))
        with pytest.raises(CheckpointWriteError, match="ENOSPC"):
            store.flush()
        assert store.pending_records == 1
        assert CampaignCheckpoint(path, strict=True).get("k-1") is None
        store.flush()  # fresh draw on the retry attempt
        assert CampaignCheckpoint(path, strict=True).get("k-1") == result_for(1)

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
