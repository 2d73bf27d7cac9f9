"""Tests for the campaign execution engine: sharding, checkpoint, resume.

The engine's contract is bit-identical equivalence with the serial
:func:`repro.faultsim.run_sweep` under every execution regime — multiple
workers, checkpoint replay, partial resume — because each task unit owns
its RNG and the recombination reuses the serial statistics code.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, TaskExecutionError
from repro.faultsim import CampaignConfig, ProtectionPlan, run_sweep
from repro.runtime import (
    CampaignCheckpoint,
    CampaignEngine,
    TaskSpec,
    campaign_fingerprint,
    data_fingerprint,
    model_fingerprint,
    point_key,
    resolve_workers,
    task_key,
)
from repro.runtime.checkpoint import record_crc
from repro.runtime.progress import ProgressEvent

BERS = [1e-5, 3e-5, 1e-4]


@pytest.fixture()
def config():
    return CampaignConfig(seeds=(0, 1), batch_size=12, max_samples=24)


def as_dicts(results):
    return [r.to_dict() for r in results]


def checkpoint_lines(path):
    """(header dict, point-record lines) of a JSON-lines checkpoint file."""
    lines = path.read_text().splitlines()
    return json.loads(lines[0]), lines[1:]


def checkpoint_points(path):
    """key -> record dict for every intact line of a checkpoint file."""
    _, rows = checkpoint_lines(path)
    points = {}
    for line in rows:
        row = json.loads(line)
        points[row.pop("key")] = row
    return points


class TestEngineDeterminism:
    def test_workers1_matches_serial(self, tiny_quantized, tiny_eval, config):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        serial = run_sweep(qm, x, y, BERS, config=config)
        engine = CampaignEngine(workers=1)
        assert as_dicts(engine.run_sweep(qm, x, y, BERS, config=config)) == as_dicts(serial)

    def test_multiworker_bit_identical_to_serial(self, tiny_quantized, tiny_eval, config):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        serial = run_sweep(qm, x, y, BERS, config=config)
        engine = CampaignEngine(workers=3)
        parallel = engine.run_sweep(qm, x, y, BERS, config=config)
        assert as_dicts(parallel) == as_dicts(serial)
        assert engine.last_stats.computed_units == len(BERS) * len(config.seeds)

    def test_zero_ber_point(self, tiny_quantized, tiny_eval, config):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        serial = run_sweep(qm, x, y, [0.0, 1e-5], config=config)
        engine = CampaignEngine(workers=2)
        assert as_dicts(engine.run_sweep(qm, x, y, [0.0, 1e-5], config=config)) == as_dicts(serial)


class TestCheckpointResume:
    def test_resumed_sweep_matches_uninterrupted(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """Interrupt after a prefix of the sweep, restart, compare."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        serial = run_sweep(qm, x, y, BERS, config=config)

        # "Interrupted" run: only the first two BERs complete.
        first = CampaignEngine(workers=1, checkpoint_path=ckpt)
        first.run_sweep(qm, x, y, BERS[:2], config=config)
        assert ckpt.exists()

        # Restarted engine resumes the checkpoint and finishes the sweep.
        second = CampaignEngine(workers=2, checkpoint_path=ckpt, resume=True)
        resumed = second.run_sweep(qm, x, y, BERS, config=config)
        assert as_dicts(resumed) == as_dicts(serial)
        assert second.last_stats.cached_units == 2 * len(config.seeds)
        assert second.last_stats.computed_units == 1 * len(config.seeds)

    def test_mid_point_interruption(self, tiny_quantized, tiny_eval, config, tmp_path):
        """Drop half the checkpointed units (a mid-BER crash) and resume."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        serial = run_sweep(qm, x, y, BERS, config=config)
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS, config=config
        )

        header, rows = checkpoint_lines(ckpt)
        dropped = len(rows) // 2
        kept = rows[dropped:]
        ckpt.write_text("\n".join([json.dumps(header)] + kept) + "\n")

        engine = CampaignEngine(workers=2, checkpoint_path=ckpt, resume=True)
        resumed = engine.run_sweep(qm, x, y, BERS, config=config)
        assert as_dicts(resumed) == as_dicts(serial)
        assert engine.last_stats.computed_units == dropped

    def test_resume_false_recomputes(self, tiny_quantized, tiny_eval, config, tmp_path):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS[:1], config=config
        )
        engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=False)
        engine.run_sweep(qm, x, y, BERS[:1], config=config)
        assert engine.last_stats.computed_units == len(config.seeds)
        assert engine.last_stats.cached_units == 0

    def test_resume_false_preserves_other_sweeps_points(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """A non-resume run must merge into the file, not truncate it."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS[:1], config=config
        )
        CampaignEngine(workers=1, checkpoint_path=ckpt, resume=False).run_sweep(
            qm, x, y, BERS[1:2], config=config
        )
        assert len(checkpoint_points(ckpt)) == 2 * len(config.seeds)
        engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        resumed = engine.run_sweep(qm, x, y, BERS[:2], config=config)
        assert engine.last_stats.cached_units == 2 * len(config.seeds)
        assert as_dicts(resumed) == as_dicts(run_sweep(qm, x, y, BERS[:2], config=config))

    def test_checkpoint_keyed_on_eval_data(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """Different evaluation data must never be served cached points."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS[:1], config=config
        )
        shifted_x, shifted_y = x[1:], y[1:]
        engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        shifted = engine.run_sweep(qm, shifted_x, shifted_y, BERS[:1], config=config)
        assert engine.last_stats.cached_units == 0
        assert as_dicts(shifted) == as_dicts(
            run_sweep(qm, shifted_x, shifted_y, BERS[:1], config=config)
        )

    def test_checkpoint_not_shared_across_models(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """Standard and Winograd models must not collide in one file."""
        qm_st, qm_wg = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm_st, x, y, BERS[:1], config=config
        )
        engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        wg = engine.run_sweep(qm_wg, x, y, BERS[:1], config=config)
        assert engine.last_stats.cached_units == 0
        assert as_dicts(wg) == as_dicts(run_sweep(qm_wg, x, y, BERS[:1], config=config))

    def test_checkpoint_file_format(self, tiny_quantized, tiny_eval, config, tmp_path):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS[:1], config=config
        )
        header, rows = checkpoint_lines(ckpt)
        assert header == {"version": 3}
        assert len(rows) == len(config.seeds)
        for line in rows:
            row = json.loads(line)
            assert set(row) == {"key", "ber", "seed", "accuracy", "events", "crc"}
            assert row["crc"] == record_crc(row)

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_checkpoint_versions_rejected(
        self, tiny_quantized, tiny_eval, config, tmp_path, version
    ):
        """Retired formats — the headerless version-1 single document and
        the pre-CRC version-2 lines — are no longer read: loading names
        the unsupported version, and fsck reports the file as not a
        checkpoint and leaves it byte-for-byte untouched."""
        from repro.errors import CheckpointError
        from repro.runtime import fsck

        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        engine = CampaignEngine(workers=1, checkpoint_path=ckpt)
        engine.run_sweep(qm, x, y, BERS[:1], config=config)
        points = checkpoint_points(ckpt)

        # Rewrite the same content in the retired format.
        if version == 1:
            ckpt.write_text(json.dumps({"version": 1, "points": points}, indent=2))
        else:
            rows = [
                json.dumps({"key": key, **{k: v for k, v in row.items() if k != "crc"}})
                for key, row in points.items()
            ]
            ckpt.write_text("\n".join([json.dumps({"version": 2}), *rows]) + "\n")
        before = ckpt.read_bytes()
        match = f"unsupported version {version}"
        with pytest.raises(CheckpointError, match=match):
            CampaignCheckpoint(ckpt)
        with pytest.raises(CheckpointError, match=match):
            CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True).run_sweep(
                qm, x, y, BERS[:1], config=config
            )
        report = fsck(ckpt, repair=True)
        assert report.version is None
        assert report.records == 0
        assert not report.repaired
        assert ckpt.read_bytes() == before


class TestHashing:
    def test_point_keys_stable_and_distinct(self, tiny_quantized, tiny_eval, config):
        from repro.runtime import data_fingerprint

        qm_st, qm_wg = tiny_quantized
        x, y = tiny_eval
        model_fp = model_fingerprint(qm_st)
        camp_fp = campaign_fingerprint(config)
        data_fp = data_fingerprint(x, y)
        assert model_fp == model_fingerprint(qm_st)
        assert model_fp != model_fingerprint(qm_wg)
        assert data_fp == data_fingerprint(x, y)
        assert data_fp != data_fingerprint(x[:-1], y[:-1])
        base = point_key(model_fp, camp_fp, data_fp, 1e-5, 0)
        assert base == point_key(model_fp, camp_fp, data_fp, 1e-5, 0)
        assert base != point_key(model_fp, camp_fp, data_fp, 1e-5, 1)
        assert base != point_key(model_fp, camp_fp, data_fp, 3e-5, 0)

    def test_model_fingerprint_tracks_activation_formats(self, tiny_quantized):
        """Recalibration can shift node formats without touching weights;
        the fingerprint must see that."""
        from repro.fixedpoint import QFormat

        qm, _ = tiny_quantized
        node = qm.injectable_layers()[0]
        original = node.out_fmt
        before = model_fingerprint(qm)
        try:
            node.out_fmt = QFormat(original.width, original.frac + 1)
            assert model_fingerprint(qm) != before
        finally:
            node.out_fmt = original
        assert model_fingerprint(qm) == before

    def test_campaign_fingerprint_ignores_seeds(self, config):
        more_seeds = CampaignConfig(
            seeds=(0, 1, 2, 3),
            batch_size=config.batch_size,
            max_samples=config.max_samples,
        )
        assert campaign_fingerprint(config) == campaign_fingerprint(more_seeds)

    def test_campaign_fingerprint_tracks_budget(self, config):
        other = CampaignConfig(
            seeds=config.seeds, batch_size=config.batch_size, max_samples=12
        )
        assert campaign_fingerprint(config) != campaign_fingerprint(other)


class TestProgressAndCheckpointStore:
    def test_progress_events_stream(self, tiny_quantized, tiny_eval, config):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        events: list[ProgressEvent] = []
        engine = CampaignEngine(workers=2, progress=events.append)
        engine.run_sweep(qm, x, y, BERS[:2], config=config)
        total = 2 * len(config.seeds)
        assert len(events) == total
        assert events[-1].done == total and events[-1].total == total
        assert not any(e.cached for e in events)

    def test_cached_units_reported_as_cached(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS[:1], config=config
        )
        events: list[ProgressEvent] = []
        engine = CampaignEngine(
            workers=1, checkpoint_path=ckpt, resume=True, progress=events.append
        )
        engine.run_sweep(qm, x, y, BERS[:1], config=config)
        assert all(e.cached for e in events)

    def test_store_roundtrip(self, tmp_path):
        from repro.faultsim import SeedPointResult

        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        result = SeedPointResult(ber=1e-5, seed=3, accuracy=0.5, events=7)
        store.put("abc", result)
        reloaded = CampaignCheckpoint(path)
        assert reloaded.get("abc") == result
        assert "abc" in reloaded and len(reloaded) == 1

    def test_store_merges_never_truncates(self, tmp_path):
        from repro.faultsim import SeedPointResult

        path = tmp_path / "ck.json"
        first = CampaignCheckpoint(path)
        first.put("aaa", SeedPointResult(ber=1e-5, seed=0, accuracy=0.5, events=1))
        second = CampaignCheckpoint(path)
        second.put("bbb", SeedPointResult(ber=3e-5, seed=1, accuracy=0.25, events=2))
        merged = CampaignCheckpoint(path)
        assert "aaa" in merged and "bbb" in merged and len(merged) == 2

    def test_store_interleaved_writers_keep_both_points(self, tmp_path):
        """Two stores opened concurrently must not erase each other's work
        (flush re-reads the file and merges before rewriting)."""
        from repro.faultsim import SeedPointResult

        path = tmp_path / "ck.json"
        a = CampaignCheckpoint(path)
        b = CampaignCheckpoint(path)  # opened before a writes anything
        a.put("aaa", SeedPointResult(ber=1e-5, seed=0, accuracy=0.5, events=1))
        b.put("bbb", SeedPointResult(ber=3e-5, seed=1, accuracy=0.25, events=2))
        merged = CampaignCheckpoint(path)
        assert "aaa" in merged and "bbb" in merged and len(merged) == 2

    def test_store_clean_flush_is_noop(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        store.flush()
        assert not path.exists()

    @pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "whitespace"])
    def test_store_empty_file_is_fresh(self, tmp_path, content):
        """A zero-byte (touch-created, or crash-before-header) checkpoint
        loads as a fresh store — not a CheckpointError — and the first
        flush rewrites it with a proper v3 header."""
        from repro.faultsim import SeedPointResult

        path = tmp_path / "ck.json"
        path.write_text(content)
        store = CampaignCheckpoint(path)
        assert len(store) == 0 and store.damaged_lines == []
        store.put("abc", SeedPointResult(ber=1e-5, seed=3, accuracy=0.5, events=7))
        store.flush()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"version": 3}
        reloaded = CampaignCheckpoint(path)
        assert reloaded.damaged_lines == []
        assert reloaded.get("abc") == SeedPointResult(
            ber=1e-5, seed=3, accuracy=0.5, events=7
        )

    def test_store_rejects_unknown_version(self, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "ck.json"
        path.write_text('{"version": 99}\n')
        with pytest.raises(CheckpointError, match="unsupported version"):
            CampaignCheckpoint(path)
        # Legacy-style documents with a bad version are refused too.
        path.write_text(json.dumps({"version": 99, "points": {}}, indent=2))
        with pytest.raises(CheckpointError, match="unsupported version"):
            CampaignCheckpoint(path)

    def test_store_rejects_corrupt_header(self, tmp_path):
        """A file with no readable header raises CheckpointError — never a
        raw JSONDecodeError — and CheckpointError is a ConfigurationError,
        so existing guards keep working."""
        from repro.errors import CheckpointError, ConfigurationError

        path = tmp_path / "ck.json"
        path.write_text("{garbage")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            CampaignCheckpoint(path)
        assert issubclass(CheckpointError, ConfigurationError)
        assert not issubclass(CheckpointError, json.JSONDecodeError)


class TestCheckpointDedupe:
    """``put`` must not append rows for already-persisted identical results.

    Kill/resume loops and fig7 re-running fig6's sweeps put the same
    results again, so without dedupe the file would grow with every
    pass, not with work.
    """

    def _result(self, accuracy=0.5):
        from repro.faultsim import SeedPointResult

        return SeedPointResult(ber=1e-5, seed=3, accuracy=accuracy, events=7)

    def test_identical_reput_appends_nothing(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        store.put("abc", self._result())
        assert len(path.read_text().splitlines()) == 2  # header + 1 row
        for _ in range(3):
            store.put("abc", self._result())
            store.flush()
        assert len(path.read_text().splitlines()) == 2

    def test_identical_reput_after_reopen_appends_nothing(self, tmp_path):
        path = tmp_path / "ck.json"
        CampaignCheckpoint(path).put("abc", self._result())
        reopened = CampaignCheckpoint(path)
        reopened.put("abc", self._result())
        reopened.flush()
        assert len(path.read_text().splitlines()) == 2

    def test_changed_result_still_appends_last_wins(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        store.put("abc", self._result(accuracy=0.5))
        store.put("abc", self._result(accuracy=0.75))
        assert len(path.read_text().splitlines()) == 3
        assert CampaignCheckpoint(path).get("abc") == self._result(accuracy=0.75)

    def test_repair_keeps_one_last_wins_row_per_key(self, tmp_path):
        from repro.runtime import fsck

        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        store.put("abc", self._result(accuracy=0.5))
        store.put("abc", self._result(accuracy=0.75))
        store.put("xyz", self._result(accuracy=0.25))
        assert len(path.read_text().splitlines()) == 4
        report = fsck(path, repair=True)
        assert report.duplicates == 1 and report.repaired and report.clean
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0]) == {"version": 3}
        rows = {json.loads(line)["key"] for line in lines[1:]}
        assert rows == {"abc", "xyz"}
        reloaded = CampaignCheckpoint(path)
        assert reloaded.damaged_lines == []
        assert reloaded.get("abc") == self._result(accuracy=0.75)
        assert reloaded.get("xyz") == self._result(accuracy=0.25)

    def test_repair_preserves_rows_from_other_writers(self, tmp_path):
        from repro.runtime import fsck

        path = tmp_path / "ck.json"
        mine = CampaignCheckpoint(path)
        mine.put("aaa", self._result(accuracy=0.5))
        other = CampaignCheckpoint(path)
        other.put("bbb", self._result(accuracy=0.25))
        mine.put("aaa", self._result(accuracy=0.75))  # a duplicate to repair
        assert fsck(path, repair=True).repaired
        merged = CampaignCheckpoint(path)
        assert len(merged) == 2
        assert merged.get("aaa") == self._result(accuracy=0.75)
        assert merged.get("bbb") == self._result(accuracy=0.25)

    def test_compacting_flush_merges_under_concurrent_appends(self, tmp_path):
        """A store that loaded a damaged file rewrites it on its next
        flush; rows another writer appended since the load must survive
        (the disk is re-read and merged under before the rename)."""
        from repro.runtime import fsck
        from repro.runtime.checkpoint import encode_record

        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        store.put("abc", self._result())
        store.put("xyz", self._result(accuracy=0.25))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # crash mid-write
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="damaged line"):
            mine = CampaignCheckpoint(path)
        with open(path, "a") as handle:  # another writer's append
            handle.write(encode_record("bbb", self._result(accuracy=0.125)))
        mine.put("aaa", self._result(accuracy=0.5))
        assert fsck(path).clean
        merged = CampaignCheckpoint(path)
        assert merged.damaged_lines == []
        assert len(merged) == 3 and "abc" not in merged
        assert merged.get("bbb") == self._result(accuracy=0.125)

    def test_repair_drops_damaged_lines(self, tmp_path):
        from repro.runtime import fsck

        path = tmp_path / "ck.json"
        store = CampaignCheckpoint(path)
        store.put("abc", self._result())
        store.put("xyz", self._result(accuracy=0.25))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # crash mid-write
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="damaged line"):
            salvaged = CampaignCheckpoint(path)
        assert salvaged.damaged_lines == [2] and len(salvaged) == 1
        report = fsck(path, repair=True)
        assert report.repaired and report.damaged[0]["line"] == 2
        clean = CampaignCheckpoint(path)
        assert clean.damaged_lines == []
        assert "xyz" in clean and len(clean) == 1


class TestCheckpointRobustness:
    """Damaged checkpoint lines: clean error, salvage, minimal recompute."""

    def _damage_first_point_line(self, ckpt):
        """Truncate the first point record mid-line (a crash mid-write)."""
        lines = ckpt.read_text().splitlines()
        damaged_row = json.loads(lines[1])
        lines[1] = lines[1][: len(lines[1]) // 2]
        ckpt.write_text("\n".join(lines) + "\n")
        return damaged_row

    def test_salvage_reports_damaged_lines(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS[:1], config=config
        )
        intact = len(checkpoint_points(ckpt))
        self._damage_first_point_line(ckpt)
        with pytest.warns(RuntimeWarning, match="damaged line"):
            store = CampaignCheckpoint(ckpt)
        assert store.damaged_lines == [2]
        assert len(store) == intact - 1

    def test_resume_recomputes_only_damaged_entries(
        self, tiny_quantized, tiny_eval, config, tmp_path
    ):
        """--resume over a truncated checkpoint replays every intact entry
        and recomputes exactly the damaged ones, bit-identical."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        serial = run_sweep(qm, x, y, BERS, config=config)
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm, x, y, BERS, config=config
        )
        total = len(BERS) * len(config.seeds)
        self._damage_first_point_line(ckpt)

        engine = CampaignEngine(workers=2, checkpoint_path=ckpt, resume=True)
        with pytest.warns(RuntimeWarning, match="damaged line"):
            resumed = engine.run_sweep(qm, x, y, BERS, config=config)
        assert as_dicts(resumed) == as_dicts(serial)
        assert engine.last_stats.computed_units == 1
        assert engine.last_stats.cached_units == total - 1
        # The flush compacted the file: reloading sees no damage.
        store = CampaignCheckpoint(ckpt)
        assert store.damaged_lines == [] and len(store) == total


class TestProtectionPlanTaskHashing:
    """Property-style tests for task keys over ProtectionPlan contents."""

    LAYERS = ("c1", "c2", "fc", "conv_a", "conv_b")

    def _random_fractions(self, rng):
        from repro.winograd.opcount import ALL_CATEGORIES

        pairs = [(layer, cat) for layer in self.LAYERS for cat in ALL_CATEGORIES]
        chosen = rng.choice(len(pairs), size=rng.integers(1, 9), replace=False)
        return {
            pairs[i]: float(np.round(rng.uniform(0.05, 1.0), 3)) for i in chosen
        }

    def _key(self, plan, ber=1e-5, seed=0):
        config = CampaignConfig(seeds=(0, 1))
        return task_key("model-fp", "data-fp", config, ber, seed, plan)

    def test_insertion_order_never_changes_key(self):
        rng = np.random.default_rng(20260729)
        for _ in range(25):
            fractions = self._random_fractions(rng)
            items = list(fractions.items())
            forward, shuffled = ProtectionPlan(), ProtectionPlan()
            for (layer, cat), frac in items:
                forward.set(layer, cat, frac)
            for i in rng.permutation(len(items)):
                (layer, cat), frac = items[i]
                shuffled.set(layer, cat, frac)
            assert forward.cache_key() == shuffled.cache_key()
            assert self._key(forward) == self._key(shuffled)

    def test_any_fraction_change_changes_key(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            fractions = self._random_fractions(rng)
            plan = ProtectionPlan()
            for (layer, cat), frac in fractions.items():
                plan.set(layer, cat, frac)
            base = self._key(plan)
            for (layer, cat), frac in fractions.items():
                changed = plan.copy()
                delta = 0.5 * frac if frac > 0.1 else frac + 0.1
                changed.set(layer, cat, float(np.round(delta, 3)))
                assert self._key(changed) != base, (layer, cat)

    def test_zero_fractions_equal_absent_entries(self):
        """Explicit 0.0 entries are canonicalized away: same key as a plan
        that never mentions the pair."""
        sparse = ProtectionPlan()
        sparse.set("c1", "st_mul", 0.5)
        padded = sparse.copy()
        padded.set("c2", "st_add", 0.0)
        padded.set("fc", "wg_mul", 0.0)
        assert self._key(sparse) == self._key(padded)

    def test_task_spec_key_matches_task_key(self):
        from repro.runtime import TaskSpec

        plan = ProtectionPlan()
        plan.set("c1", "st_mul", 0.25)
        config = CampaignConfig(seeds=(0,))
        spec = TaskSpec(ber=3e-5, seed=4, protection=plan, tag="anything")
        assert spec.key("m", "d", config) == task_key("m", "d", config, 3e-5, 4, plan)
        # The tag is a label, not identity.
        retagged = TaskSpec(ber=3e-5, seed=4, protection=plan, tag="other")
        assert retagged.key("m", "d", config) == spec.key("m", "d", config)


class TestWorkerCount:
    def test_zero_and_none_mean_every_visible_core(self):
        assert resolve_workers(0) == resolve_workers(None) >= 1

    def test_positive_counts_pass_through(self):
        for workers in (1, 2, 3, 64):
            assert resolve_workers(workers) == workers
            assert CampaignEngine(workers=workers).workers == workers

    @pytest.mark.parametrize("workers", [-1, -2])
    def test_negative_counts_are_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_workers(workers)
        with pytest.raises(ConfigurationError, match="workers"):
            CampaignEngine(workers=workers)


class TestFailurePropagation:
    """A unit's exception carries the failing task's key and tag."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unit_failure_reports_key_and_tag(
        self, tiny_quantized, tiny_eval, config, monkeypatch, workers
    ):
        qm, _ = tiny_quantized
        x, y = tiny_eval

        def explode(*args, **kwargs):
            raise ZeroDivisionError("injected failure")

        # Patching the engine module's reference survives fork, so the
        # pool path exercises the same failure route as workers=1.
        monkeypatch.setattr(
            "repro.runtime.engine.evaluate_sample_slice", explode
        )
        # Two units, so workers=2 really dispatches through the pool.
        tasks = [
            TaskSpec(ber=1e-5, seed=seed, tag="regression/fails")
            for seed in (0, 1)
        ]
        engine = CampaignEngine(workers=workers)
        with pytest.raises(TaskExecutionError) as err:
            engine.evaluate_tasks(qm, x, y, tasks, config=config)
        trim_x, trim_y = x[: config.max_samples], y[: config.max_samples]
        model_fp = model_fingerprint(qm)
        data_fp = data_fingerprint(trim_x, trim_y)
        keys = {task.key(model_fp, data_fp, config) for task in tasks}
        assert err.value.tag == "regression/fails"
        assert err.value.task_key in keys
        message = str(err.value)
        assert "regression/fails" in message
        assert err.value.task_key in message
        assert "ZeroDivisionError: injected failure" in message
