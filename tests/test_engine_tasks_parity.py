"""Parity tests: figs 3-5 call paths through the task engine.

Each analysis behind figs 3-5 must produce **bit-identical** results under
three execution regimes:

1. the historical pre-engine serial loop (frozen reference copies below,
   built directly on :func:`repro.faultsim.run_point`),
2. the task engine with ``workers=1`` (the serial in-process path), and
3. the task engine with multiple workers (``REPRO_PARITY_WORKERS``,
   default 4 — CI's tier-2 job re-runs this module with 2).

The TMR planner (:class:`TestFig5Parity`) is additionally pinned on its
edge cases against the frozen serial loop: the ``max_iterations`` cap
(including the trailing unevaluated increment), saturation without
convergence, and a checkpoint resume that serves every unit from cache.

Equality is asserted on full serialized payloads, including derived
artifacts that are sensitive to any reordering: the
``VulnerabilityReport.ranked()`` layer order and the per-iteration
``TmrPlanResult.history`` of the planner.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import layer_vulnerability, operation_type_sensitivity
from repro.analysis.vulnerability import LayerVulnerability, VulnerabilityReport
from repro.analysis.optype import OpTypeSensitivity
from repro.errors import ConfigurationError
from repro.faultsim import CampaignConfig, ProtectionPlan
from repro.faultsim.campaign import run_point
from repro.runtime import CampaignEngine
from repro.tmr import TmrPlanResult, plan_tmr, run_tmr_schemes, tmr_overhead_energy
from repro.tmr.cost import OpCostModel
from repro.tmr.planner import _next_increment

#: Worker count for the multi-worker regime (CI tier-2 sets this to 2).
PARITY_WORKERS = int(os.environ.get("REPRO_PARITY_WORKERS", "4"))

#: Mid-cliff operating point of the tiny fixture model (see
#: tests/test_analysis_tmr.py).
CLIFF_BER = 1e-4

CONFIG = CampaignConfig(seeds=(0, 1), batch_size=24, max_samples=24)


# --- frozen pre-engine serial references ----------------------------------------
def serial_layer_vulnerability(qmodel, x, labels, ber, config):
    """The pre-engine Fig. 3 loop, verbatim: one run_point per plan."""
    layer_names = [layer.name for layer in qmodel.injectable_layers()]
    baseline = run_point(qmodel, x, labels, ber, config=config)
    counts = qmodel.layer_op_counts()
    results = []
    for name in layer_names:
        plan = ProtectionPlan.fault_free_layer(name, layer_names)
        point = run_point(qmodel, x, labels, ber, config=config, protection=plan)
        results.append(
            LayerVulnerability(
                layer=name,
                accuracy_when_fault_free=point.mean_accuracy,
                vulnerability_factor=point.mean_accuracy - baseline.mean_accuracy,
                muls=counts[name].muls,
                adds=counts[name].adds,
            )
        )
    return VulnerabilityReport(
        ber=ber, baseline_accuracy=baseline.mean_accuracy, layers=results
    )


def serial_operation_type_sensitivity(qmodel, x, labels, ber, config):
    """The pre-engine Fig. 4 triple, verbatim."""
    layer_names = [layer.name for layer in qmodel.injectable_layers()]
    baseline = run_point(qmodel, x, labels, ber, config=config)
    muls_free = run_point(
        qmodel, x, labels, ber, config=config,
        protection=ProtectionPlan.fault_free_muls(layer_names),
    )
    adds_free = run_point(
        qmodel, x, labels, ber, config=config,
        protection=ProtectionPlan.fault_free_adds(layer_names),
    )
    return OpTypeSensitivity(
        ber=ber,
        baseline_accuracy=baseline.mean_accuracy,
        accuracy_muls_fault_free=muls_free.mean_accuracy,
        accuracy_adds_fault_free=adds_free.mean_accuracy,
    )


def serial_plan_tmr(
    qmodel, x, labels, ber, target_accuracy, ranking, config, step=0.5,
    max_iterations=400,
):
    """The pre-engine Fig. 5 planner loop, verbatim (run_point inner loop)."""
    cost_model = OpCostModel(width=qmodel.config.width)
    plan = ProtectionPlan()
    history, converged, accuracy, iterations = [], False, 0.0, 0
    for iterations in range(1, max_iterations + 1):
        point = run_point(qmodel, x, labels, ber, config=config, protection=plan)
        accuracy = point.mean_accuracy
        overhead = tmr_overhead_energy(qmodel, plan, cost_model)
        history.append(
            {"iteration": iterations, "accuracy": accuracy, "overhead": overhead}
        )
        if accuracy >= target_accuracy:
            converged = True
            break
        if not _next_increment(qmodel, plan, ranking, step):
            break
    return TmrPlanResult(
        plan=plan,
        achieved_accuracy=accuracy,
        overhead_energy=tmr_overhead_energy(qmodel, plan, cost_model),
        target_accuracy=target_accuracy,
        ber=ber,
        iterations=iterations,
        converged=converged,
        history=history,
    )


def plan_summary(result):
    """Everything observable about a planner run, for exact comparison."""
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "achieved_accuracy": result.achieved_accuracy,
        "overhead_energy": result.overhead_energy,
        "history": result.history,
        "fractions": dict(result.plan.fractions),
    }


# --- Fig. 3: layer-wise vulnerability -------------------------------------------
class TestFig3Parity:
    def test_engine_matches_serial_reference(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        reference = serial_layer_vulnerability(qm, x, y, CLIFF_BER, CONFIG)
        one = layer_vulnerability(
            qm, x, y, CLIFF_BER, config=CONFIG, engine=CampaignEngine(workers=1)
        )
        many = layer_vulnerability(
            qm, x, y, CLIFF_BER, config=CONFIG,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert one.to_dict() == reference.to_dict()
        assert many.to_dict() == reference.to_dict()

    def test_ranked_order_identical(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        reference = serial_layer_vulnerability(qm, x, y, CLIFF_BER, CONFIG)
        many = layer_vulnerability(
            qm, x, y, CLIFF_BER, config=CONFIG,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert [lv.layer for lv in many.ranked()] == [
            lv.layer for lv in reference.ranked()
        ]
        assert [lv.vulnerability_factor for lv in many.ranked()] == [
            lv.vulnerability_factor for lv in reference.ranked()
        ]

    def test_default_engine_is_serial_path(self, tiny_quantized, tiny_eval):
        """Calling without engine= must equal the explicit serial engine."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        bare = layer_vulnerability(qm, x, y, CLIFF_BER, config=CONFIG)
        reference = serial_layer_vulnerability(qm, x, y, CLIFF_BER, CONFIG)
        assert bare.to_dict() == reference.to_dict()

    def test_checkpoint_resume_replays_batch(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        """A resumed engine serves the whole Fig. 3 batch from checkpoint,
        bit-identical."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        first = layer_vulnerability(
            qm, x, y, CLIFF_BER, config=CONFIG,
            engine=CampaignEngine(workers=PARITY_WORKERS, checkpoint_path=ckpt),
        )
        resumed_engine = CampaignEngine(workers=1, checkpoint_path=ckpt, resume=True)
        again = layer_vulnerability(
            qm, x, y, CLIFF_BER, config=CONFIG, engine=resumed_engine
        )
        assert again.to_dict() == first.to_dict()
        assert resumed_engine.last_stats.computed_units == 0
        n_plans = len(qm.injectable_layers()) + 1
        assert resumed_engine.last_stats.cached_units == n_plans * len(CONFIG.seeds)


# --- Fig. 4: operation-type sensitivity -----------------------------------------
class TestFig4Parity:
    def test_engine_matches_serial_reference(self, tiny_quantized, tiny_eval):
        qm, _ = tiny_quantized
        x, y = tiny_eval
        reference = serial_operation_type_sensitivity(qm, x, y, CLIFF_BER, CONFIG)
        one = operation_type_sensitivity(
            qm, x, y, CLIFF_BER, config=CONFIG, engine=CampaignEngine(workers=1)
        )
        many = operation_type_sensitivity(
            qm, x, y, CLIFF_BER, config=CONFIG,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert one.to_dict() == reference.to_dict()
        assert many.to_dict() == reference.to_dict()

    def test_winograd_model_parity(self, tiny_quantized, tiny_eval):
        qm_st, qm_wg = tiny_quantized
        x, y = tiny_eval
        reference = serial_operation_type_sensitivity(qm_wg, x, y, CLIFF_BER, CONFIG)
        many = operation_type_sensitivity(
            qm_wg, x, y, CLIFF_BER, config=CONFIG,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert many.to_dict() == reference.to_dict()


# --- Fig. 5: fine-grained TMR planner -------------------------------------------
class TestFig5Parity:
    TARGET = 0.85
    HARD_BER = 5e-4

    def _ranking(self, qmodel):
        return [(l.name, 1.0) for l in qmodel.injectable_layers()]

    def test_planner_engine_matches_serial_reference(
        self, tiny_quantized, tiny_eval
    ):
        """The acceptance gate: the planner is the paper's heuristic,
        bit-identical to the pre-engine serial loop at any worker count."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ranking = self._ranking(qm)
        reference = serial_plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, CONFIG, step=0.5
        )
        one = plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, config=CONFIG,
            step=0.5, engine=CampaignEngine(workers=1),
        )
        many = plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, config=CONFIG,
            step=0.5, engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert plan_summary(one) == plan_summary(reference)
        assert plan_summary(many) == plan_summary(reference)
        assert reference.iterations > 1, "regression guard: goal must be non-trivial"

    def test_planner_convergence_regression_seed(
        self, tiny_quantized, tiny_eval, tmr_regression_seed
    ):
        """Convergence under the pinned regression seed (see
        tests/_helpers.py TMR_REGRESSION_SEED) is engine-invariant
        (iterations, converged, fractions, full history)."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        config = CampaignConfig(
            seeds=(tmr_regression_seed,), batch_size=24, max_samples=24
        )
        ranking = self._ranking(qm)
        reference = serial_plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, config, step=0.5
        )
        engine_result = plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, config=config,
            step=0.5, engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert plan_summary(engine_result) == plan_summary(reference)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_max_iterations_cap_matches_serial(
        self, tiny_quantized, tiny_eval, cap
    ):
        """The truncated result — including the serial loop's trailing
        unevaluated increment — is identical at every cap."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ranking = self._ranking(qm)
        reference = serial_plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, CONFIG,
            step=0.5, max_iterations=cap,
        )
        capped = plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, config=CONFIG,
            step=0.5, max_iterations=cap,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert plan_summary(capped) == plan_summary(reference)
        assert capped.iterations <= cap

    def test_saturation_without_convergence_matches_serial(
        self, tiny_quantized, tiny_eval
    ):
        """An unreachable goal saturates every fraction; the planner must
        stop at the same iteration count as the serial loop, not converged."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        # Rank (and therefore protect) only the first layer: its categories
        # saturate after a few increments while the rest of the network
        # stays faulty at a far-past-cliff BER, so the goal stays out of
        # reach and both planners must stop on the saturation path.
        ranking = self._ranking(qm)[:1]
        config = CampaignConfig(seeds=(0,), batch_size=24, max_samples=24)
        reference = serial_plan_tmr(
            qm, x, y, 5e-2, 1.0, ranking, config, step=0.5, max_iterations=50
        )
        saturated = plan_tmr(
            qm, x, y, 5e-2, 1.0, ranking, config=config, step=0.5,
            max_iterations=50, engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert plan_summary(saturated) == plan_summary(reference)
        assert not reference.converged, "saturation path must be exercised"
        assert reference.iterations < 50

    def test_checkpoint_resume_serves_every_unit_cached(
        self, tiny_quantized, tiny_eval, tmp_path
    ):
        """A resumed planner run recomputes nothing and stays identical."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        ckpt = tmp_path / "campaign.json"
        ranking = self._ranking(qm)
        first = plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, config=CONFIG,
            step=0.5,
            engine=CampaignEngine(workers=PARITY_WORKERS, checkpoint_path=ckpt),
        )
        events = []
        resumed = plan_tmr(
            qm, x, y, self.HARD_BER, self.TARGET, ranking, config=CONFIG,
            step=0.5,
            engine=CampaignEngine(
                workers=1, checkpoint_path=ckpt, resume=True,
                progress=events.append,
            ),
        )
        assert plan_summary(resumed) == plan_summary(first)
        # Every evaluation, across *all* planner iterations (last_stats
        # only reflects the final evaluate_tasks call), came from the
        # checkpoint.
        assert events and all(event.cached for event in events)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"step": 0.0}, "step"),
            ({"step": -0.25}, "step"),
            ({"step": float("nan")}, "step"),
            ({"max_iterations": 0}, "max_iterations"),
        ],
        ids=["step-zero", "step-negative", "step-nan", "no-iterations"],
    )
    def test_degenerate_config_rejected(
        self, tiny_quantized, tiny_eval, kwargs, match
    ):
        """A step that cannot grow the plan, or a cap that allows no
        evaluation, is a configuration error before any campaign runs."""
        qm, _ = tiny_quantized
        x, y = tiny_eval
        options = {"step": 0.5, "max_iterations": 5, **kwargs}
        events = []
        with pytest.raises(ConfigurationError, match=match):
            plan_tmr(
                qm, x, y, self.HARD_BER, self.TARGET, self._ranking(qm),
                config=CONFIG, engine=CampaignEngine(progress=events.append),
                **options,
            )
        assert events == []

    def test_scheme_curves_engine_parity(self, tiny_quantized, tiny_eval):
        """run_tmr_schemes (the full Fig. 5 pipeline) is engine-invariant,
        including every TmrPlanResult.history."""
        qm_st, qm_wg = tiny_quantized
        x, y = tiny_eval
        fault_free = qm_st.evaluate(x[:24], y[:24])
        goals = [fault_free * 0.8]
        serial_curves = run_tmr_schemes(
            qm_st, qm_wg, x, y, CLIFF_BER, goals, config=CONFIG, step=0.5
        )
        engine_curves = run_tmr_schemes(
            qm_st, qm_wg, x, y, CLIFF_BER, goals, config=CONFIG, step=0.5,
            engine=CampaignEngine(workers=PARITY_WORKERS),
        )
        assert set(engine_curves) == set(serial_curves)
        for name in serial_curves:
            assert engine_curves[name].to_dict() == serial_curves[name].to_dict()
            histories_serial = [r.history for r in serial_curves[name].results]
            histories_engine = [r.history for r in engine_curves[name].results]
            assert histories_engine == histories_serial
