"""Fine-grained TMR: cost model, iterative planner, deployment schemes.

:func:`plan_tmr` and :func:`run_tmr_schemes` accept an ``engine=``
argument (:class:`repro.runtime.CampaignEngine`): every candidate-plan
evaluation is one seed-batch task through
:meth:`~repro.runtime.CampaignEngine.evaluate_tasks` (sharded per-seed
across the pool), giving Fig. 5 ``--workers/--resume/--checkpoint``
support with convergence bit-identical to the serial path.  Omitting
``engine`` falls back to a serial in-process engine.  The planner is the
paper's serial loop — evaluate one candidate, stop at the goal, else grow
the plan — documented in :mod:`repro.tmr.planner`.
"""

from repro.tmr.cost import (
    OpCostModel,
    abft_overhead_energy,
    full_protection_energy,
    portfolio_overhead_energy,
    tmr_overhead_energy,
)
from repro.tmr.planner import TmrPlanResult, plan_portfolio, plan_tmr
from repro.tmr.schemes import (
    PROTECTION_ABFT,
    PROTECTION_PORTFOLIO,
    PROTECTION_TMR,
    SCHEME_ST,
    SCHEME_WG_W_AFT,
    SCHEME_WG_WO_AFT,
    SchemeCurve,
    average_reduction,
    map_plan_to_winograd,
    normalized_overheads,
    run_protection_portfolio,
    run_tmr_schemes,
)

__all__ = [
    "OpCostModel",
    "tmr_overhead_energy",
    "abft_overhead_energy",
    "portfolio_overhead_energy",
    "full_protection_energy",
    "TmrPlanResult",
    "plan_tmr",
    "plan_portfolio",
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
    "normalized_overheads",
    "average_reduction",
]
