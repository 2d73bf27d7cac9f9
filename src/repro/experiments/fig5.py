"""Figure 5 — normalized fine-grained TMR overhead vs accuracy goal.

Runs the three schemes (ST-Conv, WG-Conv-W/O-AFT, WG-Conv-W/AFT) on VGG19
int16 at the mid-cliff BER across a ladder of accuracy goals, normalizing
every overhead to ST-Conv's at the highest goal.  The headline numbers the
paper reports — 61.21 % average overhead reduction vs ST-Conv and 27.49 %
vs the fault-tolerance-unaware Winograd scheme — are computed the same way
from our curves.

The vulnerability analyses and every planner iteration route through the
campaign engine, so this figure honors the CLI's
``--workers/--resume/--checkpoint`` flags (see
:mod:`repro.tmr.planner`).
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentProfile,
    QUICK,
    accuracy_curve,
    pick_cliff_ber,
    prepare_benchmark,
    quantized_pair,
    results_dir,
)
from repro.tmr import average_reduction, normalized_overheads, run_tmr_schemes
from repro.utils.serialization import save_json

__all__ = ["run", "format_report"]

#: Accuracy goals as fractions of the fault-free accuracy; matches the
#: paper's 45-70 % ladder on a 72.6 %-accurate model.
GOAL_FRACTIONS = (0.62, 0.69, 0.76, 0.83, 0.90, 0.96)


def run(
    profile: ExperimentProfile = QUICK,
    benchmark: str = "vgg19",
    width: int = 16,
    ber: float | None = None,
    goal_fractions: tuple[float, ...] = GOAL_FRACTIONS,
    step: float = 0.5,
    engine=None,
) -> dict:
    """Execute the Fig. 5 experiment."""
    prep = prepare_benchmark(benchmark, profile)
    qm_st, qm_wg = quantized_pair(prep, width, profile)
    config = profile.campaign()

    if ber is None:
        st_curve = accuracy_curve(
            qm_st, prep, list(profile.ber_grid), config, engine=engine
        )
        ber = pick_cliff_ber(
            st_curve, qm_st.metadata["fault_free_accuracy"], target_fraction=0.6
        )

    fault_free = qm_st.metadata["fault_free_accuracy"]
    goals = [fault_free * f for f in goal_fractions]

    x = prep.eval_x[: profile.eval_samples]
    y = prep.eval_y[: profile.eval_samples]
    curves = run_tmr_schemes(
        qm_st, qm_wg, x, y, ber, goals, config=config, step=step, engine=engine,
    )
    normalized = normalized_overheads(curves)
    reductions = average_reduction(curves)

    payload = {
        "figure": "fig5",
        "benchmark": prep.paper_label,
        "width": width,
        "ber": ber,
        "fault_free_accuracy": fault_free,
        "goals": goals,
        "curves": {name: curve.to_dict() for name, curve in curves.items()},
        "normalized_overheads": normalized,
        "average_reduction": reductions,
        "paper_reference": {"vs ST-Conv": 0.6121, "vs WG-Conv-W/O-AFT": 0.2749},
    }
    save_json(results_dir() / "fig5.json", payload)
    return payload


def format_report(payload: dict) -> str:
    """Normalized-overhead table plus headline reductions."""
    lines = [
        f"Figure 5 — normalized TMR overhead, {payload['benchmark']} "
        f"int{payload['width']} @ BER {payload['ber']:.1e}",
        f"{'accuracy goal':>14} {'ST-Conv':>9} {'WG-W/O-AFT':>11} {'WG-W/AFT':>9}",
    ]
    norm = payload["normalized_overheads"]
    for i, goal in enumerate(payload["goals"]):
        lines.append(
            f"{goal:>14.3f} {norm['ST-Conv'][i]:>9.3f} "
            f"{norm['WG-Conv-W/O-AFT'][i]:>11.3f} {norm['WG-Conv-W/AFT'][i]:>9.3f}"
        )
    red = payload["average_reduction"]
    lines.append(
        f"average overhead reduction of WG-Conv-W/AFT: "
        f"{red['vs ST-Conv']:.2%} vs ST-Conv (paper 61.21%), "
        f"{red['vs WG-Conv-W/O-AFT']:.2%} vs WG-Conv-W/O-AFT (paper 27.49%)"
    )
    return "\n".join(lines)
