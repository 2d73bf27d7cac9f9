"""Tests for the experiment infrastructure (profiles, caching, reporting)."""

import numpy as np
import pytest

from repro.experiments.common import (
    ExperimentProfile,
    FULL,
    PreparedBenchmark,
    QUICK,
    pick_cliff_ber,
)
from repro.experiments.headline import collect_headlines, format_headlines
from repro.faultsim import CampaignResult
from repro.nn import evaluate_accuracy


def _result(ber, acc):
    return CampaignResult(
        ber=ber, lam=ber * 1e9, mean_accuracy=acc, std_accuracy=0.0,
        per_seed=[acc], events_per_seed=[1],
    )


class TestProfiles:
    def test_quick_smaller_than_full(self):
        assert QUICK.eval_samples < FULL.eval_samples
        assert len(QUICK.ber_grid) < len(FULL.ber_grid)

    def test_campaign_config_reflects_profile(self):
        config = QUICK.campaign()
        assert config.seeds == QUICK.seeds
        assert config.max_samples == QUICK.eval_samples

    def test_neuron_injector_selectable(self):
        assert QUICK.campaign("neuron").injector == "neuron"


class TestPreparedBenchmark:
    def test_float_accuracy_is_computed_on_first_read(
        self, tiny_trained, tiny_dataset, monkeypatch
    ):
        from repro.experiments import common
        from repro.nn import evaluate_accuracy

        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_accuracy(*args)

        monkeypatch.setattr(common, "evaluate_accuracy", counted)
        prep = PreparedBenchmark("tiny", "Tiny", tiny_trained, tiny_dataset)
        assert calls == []
        expected = evaluate_accuracy(
            tiny_trained, tiny_dataset.test_x, tiny_dataset.test_y
        )
        assert prep.float_accuracy == expected
        assert prep.float_accuracy == expected
        assert len(calls) == 1


class TestPrepareBenchmarkEvaluations:
    """A fresh training's last evaluation is the float accuracy; a cached load stays lazy."""

    @pytest.fixture
    def tiny_benchmark(self, tiny_dataset, monkeypatch, tmp_path):
        from types import SimpleNamespace

        from repro.experiments import common
        from tests._helpers import build_tiny_cnn

        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        monkeypatch.setitem(
            common.BENCHMARKS, "tiny", SimpleNamespace(dataset=None, paper_label="Tiny")
        )
        monkeypatch.setitem(
            common._TRAIN_SETTINGS,
            "tiny",
            {"lr": 3e-3, "train_per_class": 40, "test_per_class": 12},
        )
        monkeypatch.setattr(common, "make_dataset", lambda spec, **kw: tiny_dataset)
        monkeypatch.setattr(common, "build_benchmark_model", lambda name: build_tiny_cnn())
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_accuracy(*args)

        monkeypatch.setattr(common, "evaluate_accuracy", counted)
        profile = ExperimentProfile(name="tiny", eval_samples=8, seeds=(0,), train_epochs=2)
        return common, profile, calls

    def test_fresh_training_reuses_its_last_evaluation(self, tiny_benchmark, monkeypatch):
        common, profile, calls = tiny_benchmark
        results = []
        train = common.train

        def recorded(*args, **kwargs):
            results.append(train(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(common, "train", recorded)
        prep = common.prepare_benchmark("tiny", profile)
        assert prep.float_accuracy == results[0].final_eval_accuracy
        assert calls == []
        assert prep.float_accuracy == evaluate_accuracy(prep.graph, prep.eval_x, prep.eval_y)

    def test_cached_weights_evaluate_once_on_first_read(self, tiny_benchmark):
        common, profile, calls = tiny_benchmark
        fresh = common.prepare_benchmark("tiny", profile)
        cached = common.prepare_benchmark("tiny", profile)
        assert calls == []
        assert cached.float_accuracy == fresh.float_accuracy
        assert cached.float_accuracy == fresh.float_accuracy
        assert len(calls) == 1


class TestPickCliffBer:
    def test_picks_closest_to_target(self):
        results = [_result(1e-8, 0.95), _result(1e-7, 0.60), _result(1e-6, 0.10)]
        assert pick_cliff_ber(results, 1.0, target_fraction=0.6) == 1e-7

    def test_flat_curve_falls_back_gracefully(self):
        results = [_result(1e-8, 0.9), _result(1e-7, 0.9)]
        assert pick_cliff_ber(results, 0.9, 0.6) in (1e-8, 1e-7)


class TestHeadlines:
    def test_missing_artifacts_reported(self, tmp_path):
        rows = collect_headlines(tmp_path)
        assert all(row["measured"] is None for row in rows)
        text = format_headlines(rows)
        assert "(run)" in text

    def test_present_artifacts_read(self, tmp_path):
        from repro.utils.serialization import save_json

        save_json(
            tmp_path / "fig5.json",
            {"average_reduction": {"vs ST-Conv": 0.5, "vs WG-Conv-W/O-AFT": 0.2}},
        )
        rows = collect_headlines(tmp_path)
        fig5_row = next(r for r in rows if "TMR" in r["metric"])
        assert fig5_row["measured"]["vs ST-Conv"] == 0.5
        assert "50.00%" in format_headlines(rows)

    def test_paper_references_present(self, tmp_path):
        rows = collect_headlines(tmp_path)
        assert rows[0]["paper"]["vs ST-Conv"] == pytest.approx(0.6121)
        assert rows[1]["paper"]["vs WG-Conv-W/O-AFT"] == pytest.approx(0.0719)
