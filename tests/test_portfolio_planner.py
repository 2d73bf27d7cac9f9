"""Portfolio planner: per-layer scheme selection among {none, ABFT, TMR}.

The journal-extension planner (:func:`repro.tmr.plan_portfolio`) grows a
mixed-scheme plan along the coverage ladder none → ABFT → TMR.  These tests
pin

* convergence and scheme selection on the tiny fixture model,
* the cost model ordering that motivates the portfolio (a layer's checksum
  is orders cheaper than replicating it),
* the single-scheme restrictions (``allowed=``) used for the comparison
  curves,
* engine parity — the planner trajectory is bit-identical for any worker
  count (CI tier-2 re-runs this module with ``REPRO_PARITY_WORKERS=2``),
  and
* the serialization contract: scheme-free (legacy TMR) results keep the
  historical payload, portfolio results add a ``"schemes"`` map.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.faultsim import CampaignConfig, ProtectionPlan, SCHEME_ABFT, SCHEME_TMR
from repro.runtime import CampaignEngine
from repro.tmr import (
    PROTECTION_ABFT,
    PROTECTION_PORTFOLIO,
    PROTECTION_TMR,
    abft_overhead_energy,
    plan_portfolio,
    plan_tmr,
    portfolio_overhead_energy,
    run_protection_portfolio,
    tmr_overhead_energy,
)
from repro.tmr.cost import OpCostModel

#: Worker count for the multi-worker regime (CI tier-2 sets this to 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

HARD_BER = 5e-4
CONFIG = CampaignConfig(seeds=(0, 1), batch_size=24, max_samples=24)


def ranking_for(qm):
    return [(layer.name, 1.0) for layer in qm.injectable_layers()]


def target_for(qm, x, y, fraction=0.9):
    """Accuracy goal relative to the fault-free score (always reachable)."""
    return qm.evaluate(x[:24], y[:24]) * fraction


def plan_summary(result):
    """Everything observable about a planning run, for exact comparison."""
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "achieved_accuracy": result.achieved_accuracy,
        "overhead_energy": result.overhead_energy,
        "history": result.history,
        "fractions": dict(result.plan.fractions),
        "schemes": dict(result.plan.schemes),
    }


class TestPortfolioPlanning:
    def test_converges_and_assigns_schemes(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        result = plan_portfolio(
            qm, x, y, HARD_BER, target_for(qm, x, y), ranking_for(qm),
            config=CONFIG,
        )
        assert result.converged
        assert result.achieved_accuracy >= result.target_accuracy
        assert result.iterations > 1, "regression guard: goal must be non-trivial"
        assert result.plan.schemes, "convergence must require protecting layers"
        assert set(result.plan.schemes.values()) <= {SCHEME_ABFT, SCHEME_TMR}
        assert result.overhead_energy == portfolio_overhead_energy(
            qm, result.plan, OpCostModel(width=qm.config.width)
        )

    def test_allowed_restricts_schemes(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        target = target_for(qm, x, y)
        abft_only = plan_portfolio(
            qm, x, y, HARD_BER, target, ranking_for(qm), config=CONFIG,
            allowed=(SCHEME_ABFT,),
        )
        assert set(abft_only.plan.schemes.values()) == {SCHEME_ABFT}
        tmr_only = plan_portfolio(
            qm, x, y, HARD_BER, target, ranking_for(qm), config=CONFIG,
            allowed=(SCHEME_TMR,),
        )
        assert set(tmr_only.plan.schemes.values()) == {SCHEME_TMR}
        # Whole-layer TMR means every present category fully replicated.
        for (layer, _category), fraction in tmr_only.plan.fractions.items():
            if layer in tmr_only.plan.schemes:
                assert fraction == 1.0

    def test_portfolio_never_costlier_than_tmr_only(
        self, tiny_quantized, tiny_eval
    ):
        """The point of the portfolio: same goal, no more energy."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        target = target_for(qm, x, y)
        mixed = plan_portfolio(
            qm, x, y, HARD_BER, target, ranking_for(qm), config=CONFIG
        )
        tmr_only = plan_portfolio(
            qm, x, y, HARD_BER, target, ranking_for(qm), config=CONFIG,
            allowed=(SCHEME_TMR,),
        )
        assert mixed.converged and tmr_only.converged
        assert mixed.overhead_energy <= tmr_only.overhead_energy

    def test_abft_checksum_cheaper_than_layer_tmr(self, tiny_quantized):
        """Cost-model sanity: per layer, the checksum costs a small fraction
        of full replication (what makes mixed plans win)."""
        qm, _ = tiny_quantized
        cost_model = OpCostModel(width=qm.config.width)
        for layer in qm.injectable_layers():
            abft = abft_overhead_energy(qm, (layer.name,), cost_model)
            tmr_plan = ProtectionPlan()
            for category, n_ops in layer.op_counts.by_category().items():
                if n_ops:
                    tmr_plan.set(layer.name, category, 1.0)
            tmr = tmr_overhead_energy(qm, tmr_plan, cost_model)
            assert 0 < abft < tmr

    def test_validation_errors(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        with pytest.raises(ConfigurationError, match="allowed"):
            plan_portfolio(
                qm, x, y, HARD_BER, 0.85, ranking_for(qm), config=CONFIG,
                allowed=(),
            )
        with pytest.raises(ConfigurationError, match="allowed"):
            plan_portfolio(
                qm, x, y, HARD_BER, 0.85, ranking_for(qm), config=CONFIG,
                allowed=("bogus",),
            )
        with pytest.raises(ConfigurationError, match="abft_coverage"):
            plan_portfolio(
                qm, x, y, HARD_BER, 0.85, ranking_for(qm), config=CONFIG,
                abft_coverage=1.5,
            )


class TestPortfolioParity:
    """Serial == engine pool, full trajectory included."""

    def test_engine_worker_parity(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        target = target_for(qm, x, y)
        serial = plan_portfolio(
            qm, x, y, HARD_BER, target, ranking_for(qm), config=CONFIG
        )
        pooled = plan_portfolio(
            qm, x, y, HARD_BER, target, ranking_for(qm), config=CONFIG,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert plan_summary(pooled) == plan_summary(serial)

    def test_to_dict_schemes_only_on_portfolio_plans(
        self, tiny_quantized, tiny_eval
    ):
        """Legacy plan_tmr payloads are unchanged; portfolio adds schemes."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        target = target_for(qm, x, y, fraction=0.8)
        legacy = plan_tmr(
            qm, x, y, HARD_BER, target, ranking_for(qm), config=CONFIG, step=0.5
        )
        assert "schemes" not in legacy.to_dict()
        portfolio = plan_portfolio(
            qm, x, y, HARD_BER, target_for(qm, x, y), ranking_for(qm),
            config=CONFIG,
        )
        assert portfolio.plan.schemes, "guard: goal must force scheme upgrades"
        payload = portfolio.to_dict()
        assert payload["schemes"] == dict(sorted(portfolio.plan.schemes.items()))


class TestProtectionPortfolioCurves:
    def test_strategy_curves(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        fault_free = qm.evaluate(x[:24], y[:24])
        goals = [fault_free * 0.7, fault_free * 0.9]
        curves = run_protection_portfolio(
            qm, x, y, HARD_BER, goals, config=CONFIG
        )
        assert set(curves) == {
            PROTECTION_TMR, PROTECTION_ABFT, PROTECTION_PORTFOLIO
        }
        for curve in curves.values():
            assert curve.goals == sorted(goals)
            assert len(curve.results) == len(goals)
            assert all(r.converged for r in curve.results)
        assert (
            curves[PROTECTION_PORTFOLIO].overheads[-1]
            <= curves[PROTECTION_TMR].overheads[-1]
        )

    def test_engine_parity(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        goals = [qm.evaluate(x[:24], y[:24]) * 0.9]
        serial = run_protection_portfolio(
            qm, x, y, HARD_BER, goals, config=CONFIG
        )
        pooled = run_protection_portfolio(
            qm, x, y, HARD_BER, goals, config=CONFIG,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert set(pooled) == set(serial)
        for name in serial:
            assert pooled[name].to_dict() == serial[name].to_dict()

    def test_unknown_strategy_rejected(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        with pytest.raises(ConfigurationError, match="strategies"):
            run_protection_portfolio(
                qm, x, y, HARD_BER, [0.8], config=CONFIG, strategies=("bogus",)
            )
        with pytest.raises(ConfigurationError, match="strategies"):
            run_protection_portfolio(
                qm, x, y, HARD_BER, [0.8], config=CONFIG, strategies=()
            )
