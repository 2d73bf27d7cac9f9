"""Portfolio experiment — per-layer protection-scheme tradeoff (journal ext.).

The journal extension of the paper (arXiv 2308.08230) widens Fig. 5's
question from "how much TMR" to "which scheme per layer": for a ladder of
accuracy goals it compares whole-layer TMR, output-channel checksum ABFT
and the mixed per-layer portfolio chosen by
:func:`repro.tmr.plan_portfolio`, all on the Winograd execution at the
mid-cliff BER.  Overheads are normalized to the whole-layer TMR strategy's
cost at the highest goal, so the table reads as "fraction of the TMR bill
each strategy pays".

Every vulnerability analysis and planner iteration routes through the
campaign engine, so this experiment honors the CLI's
``--workers/--resume/--checkpoint`` flags;
``--protection`` restricts which strategies run.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentProfile,
    QUICK,
    accuracy_curve,
    pick_cliff_ber,
    prepare_benchmark,
    quantized_pair,
    results_dir,
)
from repro.tmr import (
    PROTECTION_ABFT,
    PROTECTION_PORTFOLIO,
    PROTECTION_TMR,
    run_protection_portfolio,
)
from repro.utils.serialization import save_json

__all__ = ["run", "format_report"]

#: Accuracy goals as fractions of the fault-free accuracy (Fig. 5 ladder).
GOAL_FRACTIONS = (0.62, 0.69, 0.76, 0.83, 0.90, 0.96)

_ALL_STRATEGIES = (PROTECTION_TMR, PROTECTION_ABFT, PROTECTION_PORTFOLIO)


def run(
    profile: ExperimentProfile = QUICK,
    benchmark: str = "vgg19",
    width: int = 16,
    ber: float | None = None,
    goal_fractions: tuple[float, ...] = GOAL_FRACTIONS,
    engine=None,
    protection: str = "all",
) -> dict:
    """Execute the protection-portfolio experiment.

    ``protection`` selects the strategies: ``"tmr"``, ``"abft"``,
    ``"portfolio"`` or ``"all"`` (the default three-way comparison).
    """
    if protection == "all":
        strategies = _ALL_STRATEGIES
    elif protection in _ALL_STRATEGIES:
        strategies = (protection,)
    else:
        raise ConfigurationError(
            f"protection must be one of {_ALL_STRATEGIES + ('all',)}, "
            f"got {protection!r}"
        )

    prep = prepare_benchmark(benchmark, profile)
    _qm_st, qm_wg = quantized_pair(prep, width, profile)
    config = profile.campaign()

    if ber is None:
        wg_curve = accuracy_curve(
            qm_wg, prep, list(profile.ber_grid), config, engine=engine
        )
        ber = pick_cliff_ber(
            wg_curve, qm_wg.metadata["fault_free_accuracy"], target_fraction=0.6
        )

    fault_free = qm_wg.metadata["fault_free_accuracy"]
    goals = [fault_free * f for f in goal_fractions]

    x = prep.eval_x[: profile.eval_samples]
    y = prep.eval_y[: profile.eval_samples]
    curves = run_protection_portfolio(
        qm_wg, x, y, ber, goals, config=config, strategies=strategies,
        engine=engine,
    )

    # Normalize to the whole-layer TMR bill at the highest goal when that
    # curve ran; otherwise to the largest overhead measured.
    anchor = 0.0
    if PROTECTION_TMR in curves:
        anchor = curves[PROTECTION_TMR].overheads[-1]
    if anchor <= 0:
        anchor = max(
            max(curve.overheads, default=0.0) for curve in curves.values()
        ) or 1.0
    normalized = {
        name: [o / anchor for o in curve.overheads]
        for name, curve in curves.items()
    }

    payload = {
        "figure": "portfolio",
        "benchmark": prep.paper_label,
        "width": width,
        "ber": ber,
        "fault_free_accuracy": fault_free,
        "goals": goals,
        "strategies": list(strategies),
        "curves": {name: curve.to_dict() for name, curve in curves.items()},
        "normalized_overheads": normalized,
    }
    save_json(results_dir() / "fig_portfolio.json", payload)
    return payload


def format_report(payload: dict) -> str:
    """Normalized-overhead table per strategy plus chosen schemes."""
    lines = [
        f"Portfolio — normalized protection overhead, {payload['benchmark']} "
        f"int{payload['width']} @ BER {payload['ber']:.1e}",
    ]
    strategies = payload["strategies"]
    header = f"{'accuracy goal':>14}" + "".join(
        f" {name:>10}" for name in strategies
    )
    lines.append(header)
    norm = payload["normalized_overheads"]
    for i, goal in enumerate(payload["goals"]):
        row = f"{goal:>14.3f}" + "".join(
            f" {norm[name][i]:>10.3f}" for name in strategies
        )
        lines.append(row)
    if PROTECTION_PORTFOLIO in payload["curves"]:
        top = payload["curves"][PROTECTION_PORTFOLIO]["results"][-1]
        schemes = top.get("schemes", {})
        chosen = ", ".join(f"{layer}:{s}" for layer, s in schemes.items()) or "none"
        lines.append(f"portfolio schemes at top goal: {chosen}")
    return "\n".join(lines)
