"""The paper's three TMR deployment schemes (§4.1, Fig. 5).

* **ST-Conv** — standard convolution; vulnerability analysis and protection
  both on the direct execution.
* **WG-Conv-W/O-AFT** — Winograd execution, but *unaware* of Winograd's
  fault tolerance: it reuses ST-Conv's vulnerability ranking and protection
  fractions (the paper: "utilizes the same TMR protection option with
  ST-Conv"), merely mapping them onto the Winograd op categories.
* **WG-Conv-W/AFT** — fully aware: vulnerability analysis and iterative
  planning run natively on the Winograd execution.

All three schemes route their protected evaluations (the two vulnerability
analyses and every planner iteration) through the
:class:`~repro.runtime.CampaignEngine` passed as ``engine=``, so Fig. 5
honors ``--workers/--resume/--checkpoint`` end-to-end; results are
bit-identical to serial execution for any worker count.  Passing
``speculative=True`` additionally enables the planner's lookahead mode
(see :mod:`repro.tmr.planner`) for every scheme's planning runs —
result-identical, but keeping the pool busy across planner iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.vulnerability import layer_vulnerability
from repro.errors import ConfigurationError
from repro.faultsim.campaign import CampaignConfig
from repro.faultsim.protection import ProtectionPlan, SCHEME_ABFT, SCHEME_TMR
from repro.quantized.qmodel import QuantizedModel
from repro.runtime.engine import CampaignEngine
from repro.tmr.cost import OpCostModel
from repro.tmr.planner import TmrPlanResult, plan_portfolio, plan_tmr
from repro.winograd.opcount import ADD_CATEGORIES, MUL_CATEGORIES

__all__ = [
    "SCHEME_ST",
    "SCHEME_WG_WO_AFT",
    "SCHEME_WG_W_AFT",
    "PROTECTION_TMR",
    "PROTECTION_ABFT",
    "PROTECTION_PORTFOLIO",
    "SchemeCurve",
    "map_plan_to_winograd",
    "run_tmr_schemes",
    "run_protection_portfolio",
]

SCHEME_ST = "ST-Conv"
SCHEME_WG_WO_AFT = "WG-Conv-W/O-AFT"
SCHEME_WG_W_AFT = "WG-Conv-W/AFT"

#: Portfolio-experiment strategies: which schemes the planner may assign.
PROTECTION_TMR = "tmr"
PROTECTION_ABFT = "abft"
PROTECTION_PORTFOLIO = "portfolio"
_PROTECTION_ALLOWED: dict[str, tuple[str, ...]] = {
    PROTECTION_TMR: (SCHEME_TMR,),
    PROTECTION_ABFT: (SCHEME_ABFT,),
    PROTECTION_PORTFOLIO: (SCHEME_ABFT, SCHEME_TMR),
}


@dataclass
class SchemeCurve:
    """Per-goal TMR results for one scheme."""

    scheme: str
    goals: list[float]
    results: list[TmrPlanResult]

    @property
    def overheads(self) -> list[float]:
        """Raw overhead energies, aligned with ``goals``."""
        return [r.overhead_energy for r in self.results]

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "scheme": self.scheme,
            "goals": self.goals,
            "results": [r.to_dict() for r in self.results],
        }


def map_plan_to_winograd(
    st_plan: ProtectionPlan, qm_winograd: QuantizedModel
) -> ProtectionPlan:
    """Translate an ST-Conv protection plan onto Winograd execution.

    The fault-tolerance-unaware scheme protects the *same fraction* of each
    layer's multiplications/additions that the ST plan chose, applied to
    whatever categories the Winograd execution of that layer actually has.
    """
    wg_plan = ProtectionPlan()
    for layer in qm_winograd.injectable_layers():
        st_mul = st_plan.fraction(layer.name, "st_mul")
        st_add = st_plan.fraction(layer.name, "st_add")
        present = {cat for cat, n in layer.op_counts.by_category().items() if n}
        for category in MUL_CATEGORIES:
            if category in present and st_mul > 0:
                wg_plan.set(layer.name, category, st_mul)
        for category in ADD_CATEGORIES:
            if category in present and st_add > 0:
                wg_plan.set(layer.name, category, st_add)
    return wg_plan


def _ranking(report) -> list[tuple[str, float]]:
    """Planner-shaped (layer, vulnerability) pairs, most vulnerable first."""
    return [(lv.layer, lv.vulnerability_factor) for lv in report.ranked()]


def run_tmr_schemes(
    qm_standard: QuantizedModel,
    qm_winograd: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    goals: list[float],
    config: CampaignConfig | None = None,
    cost_model_st: OpCostModel | None = None,
    cost_model_wg: OpCostModel | None = None,
    step: float = 0.25,
    engine: CampaignEngine | None = None,
    speculative: bool = False,
    adaptive_lookahead: bool = False,
) -> dict[str, SchemeCurve]:
    """Produce Fig. 5's three overhead-vs-accuracy-goal curves.

    Goals are processed in ascending order with warm-started plans
    (protection needed for a goal is a superset of that for a lower goal).
    ``engine`` is threaded into both vulnerability analyses and every
    :func:`plan_tmr` call (default: serial in-process engine);
    ``speculative`` enables the planner's result-identical lookahead mode
    for all three schemes, and ``adaptive_lookahead`` its gap-scaled
    round depth (fewer discarded overshoot evaluations near convergence).
    """
    config = config or CampaignConfig()
    goals = sorted(goals)

    vuln_st = layer_vulnerability(
        qm_standard, x, labels, ber, config=config, engine=engine
    )
    vuln_wg = layer_vulnerability(
        qm_winograd, x, labels, ber, config=config, engine=engine
    )
    ranking_st = _ranking(vuln_st)
    ranking_wg = _ranking(vuln_wg)

    curves: dict[str, SchemeCurve] = {
        name: SchemeCurve(name, [], [])
        for name in (SCHEME_ST, SCHEME_WG_WO_AFT, SCHEME_WG_W_AFT)
    }

    st_plan: ProtectionPlan | None = None
    aware_plan: ProtectionPlan | None = None
    for goal in goals:
        st_result = plan_tmr(
            qm_standard, x, labels, ber, goal, ranking_st,
            config=config, cost_model=cost_model_st, step=step,
            initial_plan=st_plan, engine=engine, speculative=speculative,
            adaptive_lookahead=adaptive_lookahead,
        )
        st_plan = st_result.plan
        curves[SCHEME_ST].goals.append(goal)
        curves[SCHEME_ST].results.append(st_result)

        # Unaware: ST's plan mapped onto Winograd execution; grow with the
        # ST ranking only if the mapped plan misses the goal.
        mapped = map_plan_to_winograd(st_plan, qm_winograd)
        unaware = plan_tmr(
            qm_winograd, x, labels, ber, goal, ranking_st,
            config=config, cost_model=cost_model_wg, step=step,
            initial_plan=mapped, engine=engine, speculative=speculative,
            adaptive_lookahead=adaptive_lookahead,
        )
        curves[SCHEME_WG_WO_AFT].goals.append(goal)
        curves[SCHEME_WG_WO_AFT].results.append(unaware)

        aware = plan_tmr(
            qm_winograd, x, labels, ber, goal, ranking_wg,
            config=config, cost_model=cost_model_wg, step=step,
            initial_plan=aware_plan, engine=engine, speculative=speculative,
            adaptive_lookahead=adaptive_lookahead,
        )
        aware_plan = aware.plan
        curves[SCHEME_WG_W_AFT].goals.append(goal)
        curves[SCHEME_WG_W_AFT].results.append(aware)

    return curves


def run_protection_portfolio(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    goals: list[float],
    config: CampaignConfig | None = None,
    cost_model: OpCostModel | None = None,
    strategies: tuple[str, ...] = (
        PROTECTION_TMR, PROTECTION_ABFT, PROTECTION_PORTFOLIO,
    ),
    abft_coverage: float = 0.99,
    engine: CampaignEngine | None = None,
    speculative: bool = False,
    adaptive_lookahead: bool = False,
) -> dict[str, SchemeCurve]:
    """Overhead-vs-goal curves for whole-layer TMR, ABFT and the mix.

    The journal-extension comparison: one vulnerability analysis of
    ``qmodel``, then per strategy one :func:`plan_portfolio` ladder over
    the ascending ``goals`` with warm-started plans — ``"tmr"`` may only
    assign whole-layer TMR, ``"abft"`` only the checksum scheme, and
    ``"portfolio"`` chooses per layer.  All evaluations route through
    ``engine`` (worker pools, checkpointing and sample sharding
    included) and are bit-identical for any worker count.  Returns one
    :class:`SchemeCurve` per strategy, keyed by strategy name.
    """
    unknown = set(strategies) - set(_PROTECTION_ALLOWED)
    if not strategies or unknown:
        raise ConfigurationError(
            f"strategies must be a non-empty subset of "
            f"{tuple(_PROTECTION_ALLOWED)}, got {strategies!r}"
        )
    config = config or CampaignConfig()
    goals = sorted(goals)
    vuln = layer_vulnerability(qmodel, x, labels, ber, config=config, engine=engine)
    ranking = _ranking(vuln)

    curves: dict[str, SchemeCurve] = {}
    for strategy in strategies:
        curve = SchemeCurve(strategy, [], [])
        plan: ProtectionPlan | None = None
        for goal in goals:
            result = plan_portfolio(
                qmodel, x, labels, ber, goal, ranking,
                config=config, cost_model=cost_model,
                allowed=_PROTECTION_ALLOWED[strategy],
                abft_coverage=abft_coverage, initial_plan=plan,
                engine=engine, speculative=speculative,
                adaptive_lookahead=adaptive_lookahead,
            )
            plan = result.plan
            curve.goals.append(goal)
            curve.results.append(result)
        curves[strategy] = curve
    return curves


def normalized_overheads(curves: dict[str, SchemeCurve]) -> dict[str, list[float]]:
    """Normalize every curve by ST-Conv's overhead at the highest goal."""
    anchor = curves[SCHEME_ST].overheads[-1]
    if anchor <= 0:
        anchor = max(
            max(curve.overheads, default=0.0) for curve in curves.values()
        ) or 1.0
    return {name: [o / anchor for o in curve.overheads] for name, curve in curves.items()}


def average_reduction(curves: dict[str, SchemeCurve]) -> dict[str, float]:
    """Headline numbers: mean overhead reduction of the aware scheme.

    Returns the average relative reduction of WG-Conv-W/AFT overhead versus
    ST-Conv and versus WG-Conv-W/O-AFT across all goals (the paper reports
    61.21 % and 27.49 %).  Goals where the reference scheme needed zero
    overhead are skipped (no meaningful ratio).
    """
    aware = curves[SCHEME_WG_W_AFT].overheads
    out: dict[str, float] = {}
    for reference in (SCHEME_ST, SCHEME_WG_WO_AFT):
        ref = curves[reference].overheads
        ratios = [
            1.0 - a / r for a, r in zip(aware, ref) if r > 0
        ]
        out[f"vs {reference}"] = float(np.mean(ratios)) if ratios else 0.0
    return out
