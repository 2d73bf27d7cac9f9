"""Fine-grained TMR planner (paper §4.1).

The paper's heuristic, verbatim: select the most vulnerable layer by its
layer-wise vulnerability factor, protect a randomly chosen *fraction* of
that layer's operations (multiplications first, since §3.2.4 shows they are
far more vulnerable), and iterate until the accuracy goal is met.

Random fractional protection is realized as Poisson thinning of the fault
rate (see :mod:`repro.faultsim.protection`), so the planner works directly
with the Monte-Carlo campaign machinery.

Execution model
---------------
Each iteration evaluates the candidate plan through
:meth:`repro.runtime.CampaignEngine.evaluate_tasks` (one seed-batch task
per candidate, sharded per-seed across the pool).  Pass ``engine=`` to
shard those per-iteration evaluations across workers and checkpoint/resume
them (the experiments CLI's ``--workers/--resume/--checkpoint`` reach here
through Fig. 5); without an engine a serial in-process engine is used.
Convergence — ``iterations``, ``converged`` and the chosen fractions — is
bit-identical for any worker count because every subtask owns its RNG
seed.

Portfolio planning
------------------
The journal extension (arXiv 2308.08230) widens the choice from "how much
TMR" to "which scheme per layer": :func:`plan_portfolio` grows a plan by
whole-layer scheme upgrades along the ladder none → ABFT → TMR, picking at
each step the most *cost-efficient* upgrade (vulnerability × coverage gain
per unit overhead energy).  The increment rule is, like
:func:`_next_increment`, independent of measured accuracy — the candidate
chain is predetermined from the vulnerability ranking and the cost model
alone — and its candidates run through the same serial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.faultsim.campaign import CampaignConfig
from repro.faultsim.protection import (
    ProtectionPlan,
    SCHEME_ABFT,
    SCHEME_NONE,
    SCHEME_TMR,
)
from repro.quantized.qmodel import QuantizedModel
from repro.runtime.engine import CampaignEngine
from repro.runtime.tasks import TaskSpec
from repro.tmr.cost import (
    OpCostModel,
    abft_overhead_energy,
    portfolio_overhead_energy,
    tmr_overhead_energy,
)
from repro.winograd.opcount import ADD_CATEGORIES, MUL_CATEGORIES

__all__ = ["TmrPlanResult", "plan_tmr", "plan_portfolio"]


@dataclass
class TmrPlanResult:
    """Outcome of one TMR planning run.

    Attributes
    ----------
    plan:
        The grown :class:`ProtectionPlan`: the last evaluated candidate,
        or one increment past it when ``max_iterations`` ran out.
    achieved_accuracy:
        Mean accuracy of ``plan`` at ``ber`` (the last history entry).
    overhead_energy:
        Energy overhead of ``plan`` under the run's cost model — TMR
        fractions plus, for portfolio plans, the ABFT checksum cost.
    target_accuracy:
        The accuracy goal the planner grew towards.
    ber:
        Operating bit error rate of the planning campaign.
    iterations:
        Number of candidate plans evaluated.
    converged:
        True when ``achieved_accuracy >= target_accuracy``.
    history:
        One ``{"iteration", "accuracy", "overhead"}`` dict per iteration.
    """

    plan: ProtectionPlan
    achieved_accuracy: float
    overhead_energy: float
    target_accuracy: float
    ber: float
    iterations: int
    converged: bool
    history: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable form.

        Scheme-free (legacy TMR) plans emit exactly the historical
        payload; plans carrying per-layer schemes add a ``"schemes"``
        map.
        """
        payload = {
            "target_accuracy": self.target_accuracy,
            "achieved_accuracy": self.achieved_accuracy,
            "overhead_energy": self.overhead_energy,
            "ber": self.ber,
            "iterations": self.iterations,
            "converged": self.converged,
            "fractions": {
                f"{layer}/{cat}": frac
                for (layer, cat), frac in sorted(self.plan.fractions.items())
                if frac > 0
            },
        }
        if self.plan.schemes:
            payload["schemes"] = dict(sorted(self.plan.schemes.items()))
        return payload


def _layer_categories(layer, mul_first: bool) -> list[str]:
    """Categories of a layer in protection-priority order."""
    present = {cat for cat, n in layer.op_counts.by_category().items() if n}
    muls = [c for c in MUL_CATEGORIES if c in present]
    adds = [c for c in ADD_CATEGORIES if c in present]
    return muls + adds if mul_first else adds + muls


def _next_increment(
    qmodel: QuantizedModel,
    plan: ProtectionPlan,
    ranking: list[tuple[str, float]],
    step: float,
) -> bool:
    """Raise protection of the most vulnerable not-yet-saturated layer.

    Multiplication categories are filled before addition categories within
    each layer.  Returns False when every (layer, category) is saturated.
    Deliberately independent of any measured accuracy: the sequence of
    candidates depends only on the ranking and ``step``.
    """
    by_name = {layer.name: layer for layer in qmodel.injectable_layers()}
    for layer_name, _vf in ranking:
        layer = by_name[layer_name]
        for category in _layer_categories(layer, mul_first=True):
            current = plan.fraction(layer_name, category)
            if current < 1.0 - 1e-9:
                plan.set(layer_name, category, min(1.0, current + step))
                return True
    return False


def plan_tmr(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    target_accuracy: float,
    vulnerability_ranking: list[tuple[str, float]],
    config: CampaignConfig | None = None,
    cost_model: OpCostModel | None = None,
    step: float = 0.25,
    initial_plan: ProtectionPlan | None = None,
    max_iterations: int = 400,
    engine: CampaignEngine | None = None,
) -> TmrPlanResult:
    """Grow a protection plan until ``target_accuracy`` is reached at ``ber``.

    Parameters
    ----------
    qmodel:
        Quantized model whose execution mode the plan protects.
    x, labels:
        Evaluation batch the planning campaign scores accuracy on.
    ber:
        Operating bit error rate for every candidate evaluation.
    target_accuracy:
        Accuracy goal in ``(0, 1]``; planning stops at the first candidate
        meeting it.
    vulnerability_ranking:
        ``(layer, vulnerability_factor)`` pairs, most vulnerable first.
        Passing a ranking measured on a *different* execution mode is how
        the fault-tolerance-unaware scheme (WG-Conv-W/O-AFT) is realized.
    config:
        Campaign configuration (seeds, budget); default
        :class:`CampaignConfig`.
    cost_model:
        :class:`OpCostModel` for overhead accounting; defaults to the
        model's width.
    step:
        Protection-fraction increment per iteration; finite and > 0.
    initial_plan:
        Starting plan (copied); used to warm-start scheme comparisons.
    max_iterations:
        Upper bound on candidate evaluations; at least 1.  When it runs
        out, the returned plan is one (unevaluated) increment past the
        last measured candidate, as in the serial heuristic.
    engine:
        Optional :class:`~repro.runtime.CampaignEngine`.  Each candidate
        evaluation is one seed-batch task through
        :meth:`~repro.runtime.CampaignEngine.evaluate_tasks` (sharded
        per-seed, checkpointed); the default is a serial in-process
        engine.  Convergence is bit-identical either way.
    Returns
    -------
    TmrPlanResult
        The grown plan with its convergence record; identical for any
        worker count.

    Raises
    ------
    ConfigurationError
        For a ``step`` that is not finite or not positive, or for
        ``max_iterations < 1``.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ConfigurationError(f"step must be finite and > 0, got {step}")
    cost_model = cost_model or OpCostModel(width=qmodel.config.width)
    return _grow_plan(
        qmodel,
        x,
        labels,
        ber=ber,
        target_accuracy=target_accuracy,
        config=config,
        engine=engine,
        initial_plan=initial_plan,
        increment=lambda plan: _next_increment(
            qmodel, plan, vulnerability_ranking, step
        ),
        overhead=lambda plan: tmr_overhead_energy(qmodel, plan, cost_model),
        max_iterations=max_iterations,
        tag="tmr-iter",
    )


def _grow_plan(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    target_accuracy: float,
    config: CampaignConfig | None,
    engine: CampaignEngine | None,
    initial_plan: ProtectionPlan | None,
    increment,
    overhead,
    max_iterations: int,
    tag: str,
) -> TmrPlanResult:
    """Shared grow-until-goal loop behind :func:`plan_tmr` and
    :func:`plan_portfolio`: evaluate, stop at the goal, else increment.

    ``increment`` is the heuristic's deterministic step (mutates a plan in
    place, returns False at saturation) and ``overhead`` the matching cost
    accounting.  Each iteration is one seed-batch task through
    :meth:`~repro.runtime.CampaignEngine.evaluate_tasks`, tagged
    ``{tag}{n}``.  The increment is applied even when ``max_iterations``
    was just exhausted, so the returned plan is then one (unevaluated)
    increment past the last measured candidate, exactly as the paper's
    serial heuristic leaves it.
    """
    if not 0.0 < target_accuracy <= 1.0:
        raise ConfigurationError(f"bad target accuracy {target_accuracy}")
    if max_iterations < 1:
        raise ConfigurationError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )
    config = config or CampaignConfig()
    engine = engine if engine is not None else CampaignEngine(workers=1)
    plan = initial_plan.copy() if initial_plan is not None else ProtectionPlan()

    history: list[dict] = []
    converged = False
    for iterations in range(1, max_iterations + 1):
        task = TaskSpec(
            ber=ber,
            seeds=tuple(config.seeds),
            protection=plan.copy(),  # the plan keeps growing in place
            tag=f"{tag}{iterations}",
        )
        (point,) = engine.evaluate_tasks(qmodel, x, labels, [task], config=config)
        accuracy = point.mean_accuracy
        history.append(
            {
                "iteration": iterations,
                "accuracy": accuracy,
                "overhead": overhead(plan),
            }
        )
        if accuracy >= target_accuracy:
            converged = True
            break
        if not increment(plan):
            break  # everything protected; cannot do better

    return TmrPlanResult(
        plan=plan,
        achieved_accuracy=accuracy,
        overhead_energy=overhead(plan),
        target_accuracy=target_accuracy,
        ber=ber,
        iterations=iterations,
        converged=converged,
        history=history,
    )


def _portfolio_increment(
    plan: ProtectionPlan,
    ranking: list[tuple[str, float]],
    layers_by_name: dict,
    layer_costs: dict[str, dict[str, float]],
    coverage: dict[str, float],
    ladder: tuple[str, ...],
) -> bool:
    """Apply the single most cost-efficient whole-layer scheme upgrade.

    Every ranked layer's candidate move is the next rung of the scheme
    ladder above its current scheme; the move's score is
    ``vulnerability_factor * coverage_gain / overhead_delta``.  The
    highest score wins, ties resolving to the most vulnerable layer
    (ranking order).  Upgrading to TMR sets every present category's
    fraction to 1.0 (whole-layer replication); upgrading to ABFT zeroes
    them (faults are injected in full and corrected at the accumulator).
    Deliberately independent of any measured accuracy.  Returns False
    when every layer sits on the ladder's top reachable rung.
    """
    best = None  # (score, layer, scheme)
    for layer_name, vulnerability in ranking:
        current = plan.scheme(layer_name)
        current_cov = coverage.get(current, 0.0)
        upgrade = next((s for s in ladder if coverage[s] > current_cov), None)
        if upgrade is None:
            continue
        gain = coverage[upgrade] - current_cov
        delta = max(
            layer_costs[layer_name][upgrade]
            - layer_costs[layer_name].get(current, 0.0),
            1e-12,
        )
        score = vulnerability * gain / delta
        if best is None or score > best[0]:
            best = (score, layer_name, upgrade)
    if best is None:
        return False
    _, layer_name, scheme = best
    plan.set_scheme(layer_name, scheme)
    fraction = 1.0 if scheme == SCHEME_TMR else 0.0
    for category in _layer_categories(layers_by_name[layer_name], mul_first=True):
        plan.set(layer_name, category, fraction)
    return True


def plan_portfolio(
    qmodel: QuantizedModel,
    x: np.ndarray,
    labels: np.ndarray,
    ber: float,
    target_accuracy: float,
    vulnerability_ranking: list[tuple[str, float]],
    config: CampaignConfig | None = None,
    cost_model: OpCostModel | None = None,
    allowed: tuple[str, ...] = (SCHEME_ABFT, SCHEME_TMR),
    abft_coverage: float = 0.99,
    initial_plan: ProtectionPlan | None = None,
    max_iterations: int = 400,
    engine: CampaignEngine | None = None,
) -> TmrPlanResult:
    """Grow a mixed-scheme protection plan until ``target_accuracy`` holds.

    Per-layer the planner chooses among {none, ABFT, TMR} (restricted by
    ``allowed`` — pass ``("tmr",)`` / ``("abft",)`` for the single-scheme
    comparison curves), upgrading one whole layer per iteration along the
    coverage ladder by greatest ``vulnerability × coverage gain / energy``
    (see :func:`_portfolio_increment`).  Candidate plans are evaluated
    exactly like :func:`plan_tmr` candidates — one seed-batch task per
    candidate through the engine, so worker pools, sample sharding and
    checkpointing all apply; results are bit-identical for any worker
    count.

    Parameters mirror :func:`plan_tmr` except:

    allowed:
        Schemes the planner may assign, a non-empty subset of
        ``("abft", "tmr")``.
    abft_coverage:
        Assumed fault coverage of the ABFT scheme in ``(0, 1)``, used
        only to *score* upgrades (TMR scores coverage 1.0); the measured
        accuracy always comes from the campaign, where correction
        coverage is whatever the checksum actually achieves.

    Returns a :class:`TmrPlanResult`; ``plan.schemes`` carries the chosen
    per-layer schemes and ``overhead_energy`` accounts both the TMR
    replication and the ABFT checksum cost
    (:func:`~repro.tmr.cost.portfolio_overhead_energy`).
    """
    if not allowed or not set(allowed) <= {SCHEME_ABFT, SCHEME_TMR}:
        raise ConfigurationError(
            f"allowed schemes must be a non-empty subset of "
            f"('{SCHEME_ABFT}', '{SCHEME_TMR}'), got {allowed!r}"
        )
    if not 0.0 < abft_coverage < 1.0:
        raise ConfigurationError(
            f"abft_coverage must be in (0, 1), got {abft_coverage}"
        )
    cost_model = cost_model or OpCostModel(width=qmodel.config.width)
    coverage = {
        SCHEME_NONE: 0.0,
        SCHEME_ABFT: abft_coverage,
        SCHEME_TMR: 1.0,
    }
    ladder = tuple(sorted(set(allowed), key=coverage.__getitem__))
    layers_by_name = {layer.name: layer for layer in qmodel.injectable_layers()}
    extra = cost_model.tmr_factor - 1.0
    layer_costs: dict[str, dict[str, float]] = {}
    for name, layer in layers_by_name.items():
        tmr_cost = sum(
            n_ops * cost_model.category_energy(category) * extra
            for category, n_ops in layer.op_counts.by_category().items()
            if n_ops
        )
        layer_costs[name] = {
            SCHEME_NONE: 0.0,
            SCHEME_ABFT: abft_overhead_energy(qmodel, (name,), cost_model),
            SCHEME_TMR: tmr_cost,
        }
    return _grow_plan(
        qmodel,
        x,
        labels,
        ber=ber,
        target_accuracy=target_accuracy,
        config=config,
        engine=engine,
        initial_plan=initial_plan,
        increment=lambda plan: _portfolio_increment(
            plan, vulnerability_ranking, layers_by_name, layer_costs,
            coverage, ladder,
        ),
        overhead=lambda plan: portfolio_overhead_energy(qmodel, plan, cost_model),
        max_iterations=max_iterations,
        tag="portfolio-iter",
    )
