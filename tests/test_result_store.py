"""The checkpoint is the one result store behind the figure curves.

A curve is a pure function of the model's content, the data, the
campaign and the BERs — never of the model's name.  Results are reused
only through the engine's content-keyed checkpoint under ``resume=True``,
which the engine's ``last_stats`` reports.  Also covers the standard /
Winograd curve pair that figs 2/6/7 share.
"""

from __future__ import annotations

import importlib

import pytest

import repro.stats
from repro.experiments import fig2, fig6, fig7
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
        st, wg = accuracy_curve_pair(prep, qm_st, qm_wg, PROFILE)
        bers = list(PROFILE.ber_grid)
        config = PROFILE.campaign()
        assert as_dicts(st) == as_dicts(accuracy_curve(qm_st, prep, bers, config))
        assert as_dicts(wg) == as_dicts(accuracy_curve(qm_wg, prep, bers, config))

    def test_rows_follow_the_grid(self, results, prep):
        qm_st, qm_wg = quantized_pair(prep, 16, PROFILE)
        st, wg = accuracy_curve_pair(prep, qm_st, qm_wg, PROFILE)
        grid = list(PROFILE.ber_grid)
        assert [r.ber for r in st] == grid
        assert [r.ber for r in wg] == grid

    def test_resume_serves_both_curves(self, results, prep):
        qm_st, qm_wg = quantized_pair(prep, 16, PROFILE)
        first = accuracy_curve_pair(prep, qm_st, qm_wg, PROFILE, engine=make_engine())
        resumed = make_engine(resume=True)
        computed = []

        def run_sweep(*args, **kwargs):
            rows = type(resumed).run_sweep(resumed, *args, **kwargs)
            computed.append(resumed.last_stats.computed_units)
            return rows

        resumed.run_sweep = run_sweep
        again = accuracy_curve_pair(prep, qm_st, qm_wg, PROFILE, engine=resumed)
        assert computed == [0, 0]
        assert [as_dicts(rows) for rows in again] == [as_dicts(rows) for rows in first]

    @pytest.mark.parametrize("figure", [fig2, fig6], ids=["fig2", "fig6"])
    def test_curve_figures_reject_adaptive(self, figure):
        with pytest.raises(TypeError):
            figure.run(adaptive=object())

    @pytest.mark.parametrize("module", ["repro.stats.adaptive", "repro.stats.sequential"])
    def test_retired_stats_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_retired_adaptive_surface(self):
        with pytest.raises(TypeError):
            fig7.run(adaptive=object())
        for name in ("adaptive_sweep", "knee_search", "StopRule"):
            assert not hasattr(repro.stats, name)
