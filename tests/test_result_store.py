"""The checkpoint is the one result store behind the figure curves.

A curve is a pure function of the model's content, the data, the
campaign and the BERs — never of the model's name.  Results are reused
only through the engine's content-keyed checkpoint under ``resume=True``,
which the engine's ``last_stats`` reports.  Also covers the standard /
Winograd curve pair that figs 2/6/7 share, in both of its modes.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    ExperimentProfile,
    PreparedBenchmark,
    accuracy_curve,
    accuracy_curve_pair,
    make_engine,
    quantized_pair,
)
from repro.faultsim import CampaignConfig, run_sweep
from repro.nn import initialize
from repro.quantized import QuantConfig, quantize_model
from repro.stats import KneeConfig, StopRule, adaptive_sweep, knee_search

from tests._helpers import build_tiny_cnn

BERS = [0.0, 1e-5]
CONFIG = CampaignConfig(seeds=(0,), max_samples=24)
PROFILE = ExperimentProfile(
    name="tiny", eval_samples=24, calib_samples=64, seeds=(0,),
    batch_size=24, ber_grid=(1e-6, 1e-3),
)


def as_dicts(rows):
    return [r.to_dict() for r in rows]


@pytest.fixture()
def results(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "results"))
    return tmp_path / "results"


@pytest.fixture(scope="module")
def prep(tiny_trained, tiny_dataset):
    return PreparedBenchmark("tiny", "Tiny", tiny_trained, tiny_dataset)


def _quantized(graph, dataset):
    qm = quantize_model(
        graph, dataset.train_x[:64], QuantConfig(width=16), "standard"
    )
    qm.metadata["benchmark"] = "tiny"
    return qm


class TestCurveFollowsTheModel:
    def test_same_name_different_weights(self, results, prep, tiny_dataset):
        untrained = build_tiny_cnn()
        initialize(untrained, 0)
        qm_untrained = _quantized(untrained, tiny_dataset)
        qm_trained = _quantized(prep.graph, tiny_dataset)
        assert qm_untrained.name == qm_trained.name

        first = accuracy_curve(qm_untrained, prep, BERS, CONFIG)
        second = accuracy_curve(qm_trained, prep, BERS, CONFIG)

        x, y = prep.eval_x, prep.eval_y
        assert as_dicts(first) == as_dicts(run_sweep(qm_untrained, x, y, BERS, CONFIG))
        assert as_dicts(second) == as_dicts(run_sweep(qm_trained, x, y, BERS, CONFIG))
        assert [r.mean_accuracy for r in first] != [r.mean_accuracy for r in second]

    def test_resume_serves_every_unit_from_the_checkpoint(
        self, results, prep, tiny_dataset
    ):
        qm = _quantized(prep.graph, tiny_dataset)
        fresh = make_engine()
        computed = accuracy_curve(qm, prep, BERS, CONFIG, engine=fresh)
        assert fresh.last_stats.computed_units == fresh.last_stats.total_units

        resumed = make_engine(resume=True)
        again = accuracy_curve(qm, prep, BERS, CONFIG, engine=resumed)
        stats = resumed.last_stats
        assert stats.total_units == len(BERS) * len(CONFIG.seeds)
        assert stats.cached_units == stats.total_units
        assert stats.computed_units == 0
        assert as_dicts(again) == as_dicts(computed)

    def test_no_results_written_outside_the_checkpoint(
        self, results, prep, tiny_dataset
    ):
        qm = _quantized(prep.graph, tiny_dataset)
        accuracy_curve(qm, prep, BERS, CONFIG, engine=make_engine())
        written = sorted(p.relative_to(results).as_posix() for p in results.rglob("*"))
        assert written == ["checkpoints", "checkpoints/campaign.json"]


class TestAccuracyCurvePair:
    def test_fixed_grid(self, results, prep):
        qm_st, qm_wg = quantized_pair(prep, 16, PROFILE)
        st, wg, meta = accuracy_curve_pair(prep, qm_st, qm_wg, PROFILE)
        bers = list(PROFILE.ber_grid)
        config = PROFILE.campaign()
        assert meta is None
        assert as_dicts(st) == as_dicts(accuracy_curve(qm_st, prep, bers, config))
        assert as_dicts(wg) == as_dicts(accuracy_curve(qm_wg, prep, bers, config))

    def test_adaptive(self, results, prep):
        qm_st, qm_wg = quantized_pair(prep, 16, PROFILE)
        rule = StopRule(halfwidth=0.15, min_seeds=1, max_seeds=2)
        st, wg, meta = accuracy_curve_pair(
            prep, qm_st, qm_wg, PROFILE, adaptive=rule
        )
        config = PROFILE.campaign()
        found = knee_search(
            qm_st, prep.eval_x, prep.eval_y,
            KneeConfig(lo=min(PROFILE.ber_grid), hi=max(PROFILE.ber_grid)),
            config=config, rule=rule,
        )
        grid = [p.ber for p in found.points]
        sweep = adaptive_sweep(
            qm_wg, prep.eval_x, prep.eval_y, grid, config=config, rule=rule
        )
        assert as_dicts(st) == as_dicts(p.result for p in found.points)
        assert as_dicts(wg) == as_dicts(p.result for p in sweep.points)
        assert grid == sorted(grid) and [r.ber for r in wg] == grid

        assert set(meta) == {"standard", "winograd"}
        knee, flat = meta["standard"], meta["winograd"]
        assert knee["mode"] == "knee" and flat["mode"] == "grid"
        assert knee["rule"] == flat["rule"] == rule.identity()
        assert knee["knee_ber"] == found.knee_ber
        assert flat["grid"] == grid
        for block, run in ((knee, found), (flat, sweep)):
            assert block["total_units"] == run.total_units
            assert len(block["points"]) == len(run.points)
            assert all("result" not in point for point in block["points"])
            assert [p["seeds_used"] for p in block["points"]] == [
                p.seeds_used for p in run.points
            ]
