"""A fixed-grid accuracy curve does not depend on how it was scheduled.

The profile's BER grid is the one way figs 2/6/7 draw a curve.  Its rows
must be bit-identical, and its checkpoint must hold the same key set,
for any worker count, with or without sample slicing; a resumed run
recomputes nothing.  A store that holds more seeds per point than a
later run asks for (as stores written by the retired adaptive mode do)
keeps serving that run: extra seeds are ordinary rows nothing requests.
"""

from __future__ import annotations

import json

import pytest

from repro.faultsim import CampaignConfig
from repro.runtime import CampaignEngine
from repro.stats import exact_correct_count

from tests._helpers import force_slices

# BER landmarks of the tiny fixture model: quiet floor, low-event region,
# the accuracy knee, saturation.
BER_QUIET = 1e-12
BER_LOW = 2e-6
BER_KNEE = 2e-4
BER_SATURATE = 2e-3
BERS = [BER_QUIET, BER_LOW, BER_KNEE, BER_SATURATE]

CONFIG = CampaignConfig(seeds=(0, 1), batch_size=12)

# (workers, forced slice size): workers {1, 2} x {the engine's own
# slicing decision, every pending point forced into 8-sample slices}.
MATRIX = [(1, None), (2, None), (1, 8), (2, 8)]
MATRIX_IDS = [f"workers{w}-slices{s}" for w, s in MATRIX]


def checkpoint_keys(path) -> set[str]:
    """The set of task keys persisted in a checkpoint file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {json.loads(line)["key"] for line in lines[1:]}


def as_dicts(rows):
    return [r.to_dict() for r in rows]


@pytest.fixture(scope="module")
def matrix_runs(tiny_quantized, tiny_eval, tmp_path_factory):
    """One fixed-grid sweep per matrix cell, each on a fresh checkpoint."""
    qm_st, _ = tiny_quantized
    x, labels = tiny_eval
    runs = {}
    for workers, size in MATRIX:
        ckpt = tmp_path_factory.mktemp("grid") / "campaign.json"
        engine = CampaignEngine(workers=workers, checkpoint_path=ckpt)
        with pytest.MonkeyPatch.context() as monkeypatch:
            if size is not None:
                force_slices(monkeypatch, size)
            rows = engine.run_sweep(qm_st, x, labels, BERS, config=CONFIG)
        runs[(workers, size)] = (as_dicts(rows), checkpoint_keys(ckpt))
    return runs


class TestFixedGridDeterminism:
    def test_grid_spans_quiet_and_degraded_points(self, matrix_runs):
        rows, _ = matrix_runs[(1, None)]
        assert [row["ber"] for row in rows] == BERS
        quiet, saturated = rows[0], rows[-1]
        assert quiet["mean_accuracy"] > saturated["mean_accuracy"]
        assert all(len(row["per_seed"]) == len(CONFIG.seeds) for row in rows)

    @pytest.mark.parametrize("cell", MATRIX[1:], ids=MATRIX_IDS[1:])
    def test_rows_identical_across_the_matrix(self, matrix_runs, cell):
        assert matrix_runs[cell][0] == matrix_runs[(1, None)][0]

    @pytest.mark.parametrize("cell", MATRIX, ids=MATRIX_IDS)
    def test_checkpoint_keys_identical_across_the_matrix(self, matrix_runs, cell):
        """One key per (point, seed): slices and workers never reach the store."""
        keys = matrix_runs[cell][1]
        assert len(keys) == len(BERS) * len(CONFIG.seeds)
        assert keys == matrix_runs[(1, None)][1]

    @pytest.mark.parametrize("cell", MATRIX, ids=MATRIX_IDS)
    def test_per_seed_accuracies_are_exact_counts(self, matrix_runs, tiny_eval, cell):
        """Pooled slices and whole points both store ``correct / total``."""
        total = len(tiny_eval[1])
        for row in matrix_runs[cell][0]:
            for accuracy in row["per_seed"]:
                correct = exact_correct_count(accuracy, total)
                assert float(correct) / total == accuracy


class TestFixedGridResume:
    def test_resume_recomputes_nothing_and_agrees(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        ckpt = tmp_path / "campaign.json"
        first_engine = CampaignEngine(workers=1, checkpoint_path=ckpt)
        first = first_engine.run_sweep(qm_st, x, labels, BERS, config=CONFIG)
        assert first_engine.last_stats.computed_units == len(BERS) * len(CONFIG.seeds)
        resumed = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        again = resumed.run_sweep(qm_st, x, labels, BERS, config=CONFIG)
        assert resumed.last_stats.computed_units == 0
        assert resumed.last_stats.cached_units == resumed.last_stats.total_units
        assert as_dicts(again) == as_dicts(first)


class TestStoreWithExtraSeeds:
    """Stores holding more seeds per point than the grid asks for."""

    @pytest.fixture()
    def wide_store(self, tiny_quantized, tiny_eval, tmp_path):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        ckpt = tmp_path / "campaign.json"
        wide = CampaignConfig(seeds=(0, 1, 2, 3), batch_size=12)
        CampaignEngine(workers=1, checkpoint_path=ckpt).run_sweep(
            qm_st, x, labels, BERS[:2], config=wide
        )
        return ckpt

    def test_narrower_grid_is_served_from_the_store(
        self, tiny_quantized, tiny_eval, wide_store
    ):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        resumed = CampaignEngine(workers=1, checkpoint_path=wide_store, resume=True)
        rows = resumed.run_sweep(qm_st, x, labels, BERS[:2], config=CONFIG)
        assert resumed.last_stats.computed_units == 0
        fresh = CampaignEngine(workers=1).run_sweep(
            qm_st, x, labels, BERS[:2], config=CONFIG
        )
        assert as_dicts(rows) == as_dicts(fresh)

    def test_extra_seed_rows_survive_a_narrower_run(
        self, tiny_quantized, tiny_eval, wide_store
    ):
        qm_st, _ = tiny_quantized
        x, labels = tiny_eval
        before = checkpoint_keys(wide_store)
        assert len(before) == 2 * 4
        resumed = CampaignEngine(workers=1, checkpoint_path=wide_store, resume=True)
        resumed.run_sweep(qm_st, x, labels, BERS, config=CONFIG)
        after = checkpoint_keys(wide_store)
        assert before < after
        assert len(after) == len(before) + 2 * len(CONFIG.seeds)
