"""Figure 7 — voltage-scaling-assisted energy under accuracy-loss constraints.

For accuracy-loss budgets of 1/3/5/10 %, each scheme scales the supply
voltage as deep as its accuracy curve allows; inference energy combines the
Scale-Sim-style runtime of its execution mode with the DNN-Engine power
model, normalized to standard convolution at nominal voltage (Base).

Headline numbers (paper): WG-Conv-W/AFT saves 42.89 % energy vs voltage-
scaled ST-Conv and 7.19 % vs the fault-tolerance-unaware Winograd scheme.
"""

from __future__ import annotations

import numpy as np

from repro.accel import DNN_ENGINE, scheme_energies, simulate_network
from repro.experiments.common import (
    ExperimentProfile,
    QUICK,
    accuracy_curve_pair,
    prepare_benchmark,
    quantized_pair,
    results_dir,
)
from repro.experiments.fig6 import as_accuracy_curve, calibrated_vber
from repro.utils.serialization import save_json

__all__ = ["run", "format_report"]

ACCURACY_LOSSES = (0.01, 0.03, 0.05, 0.10)


def run(
    profile: ExperimentProfile = QUICK,
    benchmark: str = "vgg19",
    width: int = 16,
    accuracy_losses: tuple[float, ...] = ACCURACY_LOSSES,
    engine=None,
) -> dict:
    """Execute the Fig. 7 experiment."""
    prep = prepare_benchmark(benchmark, profile)
    qm_st, qm_wg = quantized_pair(prep, width, profile)
    vber = calibrated_vber(qm_st)
    st, wg = accuracy_curve_pair(prep, qm_st, qm_wg, profile, engine=engine)
    curve_st, curve_wg = as_accuracy_curve(st, qm_st), as_accuracy_curve(wg, qm_wg)

    timing_st = simulate_network(qm_st, DNN_ENGINE)
    timing_wg = simulate_network(qm_wg, DNN_ENGINE)

    columns = []
    for loss in accuracy_losses:
        points = scheme_energies(
            curve_st,
            curve_wg,
            timing_st.total_cycles,
            timing_wg.total_cycles,
            accuracy_loss=loss,
            vber=vber,
        )
        base_energy = points["Base"].energy_joules
        columns.append(
            {
                "accuracy_loss": loss,
                "points": {name: p.to_dict() for name, p in points.items()},
                "normalized": {
                    name: p.energy_joules / base_energy for name, p in points.items()
                },
            }
        )

    # Headline averages across the loss ladder.
    aware = [c["normalized"]["WG-Conv-W/AFT"] for c in columns]
    st = [c["normalized"]["ST-Conv"] for c in columns]
    unaware = [c["normalized"]["WG-Conv-W/O-AFT"] for c in columns]
    reductions = {
        "vs ST-Conv": float(np.mean([1 - a / s for a, s in zip(aware, st)])),
        "vs WG-Conv-W/O-AFT": float(
            np.mean([1 - a / u for a, u in zip(aware, unaware)])
        ),
    }

    payload = {
        "figure": "fig7",
        "benchmark": prep.paper_label,
        "width": width,
        "cycles": {
            "standard": timing_st.total_cycles,
            "winograd": timing_wg.total_cycles,
        },
        "columns": columns,
        "average_reduction": reductions,
        "paper_reference": {"vs ST-Conv": 0.4289, "vs WG-Conv-W/O-AFT": 0.0719},
    }
    save_json(results_dir() / "fig7.json", payload)
    return payload


def format_report(payload: dict) -> str:
    """Normalized-energy table plus headline reductions."""
    lines = [
        f"Figure 7 — voltage-scaling energy, {payload['benchmark']} "
        f"int{payload['width']} "
        f"(cycles: ST {payload['cycles']['standard']:,} / "
        f"WG {payload['cycles']['winograd']:,})",
        f"{'loss':>6} {'Base':>6} {'ST-Conv':>8} {'WG-W/O-AFT':>11} {'WG-W/AFT':>9} "
        f"{'V(ST)':>6} {'V(WG)':>6}",
    ]
    for col in payload["columns"]:
        n = col["normalized"]
        p = col["points"]
        lines.append(
            f"{col['accuracy_loss']:>6.0%} {n['Base']:>6.2f} {n['ST-Conv']:>8.3f} "
            f"{n['WG-Conv-W/O-AFT']:>11.3f} {n['WG-Conv-W/AFT']:>9.3f} "
            f"{p['ST-Conv']['voltage']:>6.3f} {p['WG-Conv-W/AFT']['voltage']:>6.3f}"
        )
    red = payload["average_reduction"]
    lines.append(
        f"average energy reduction of WG-Conv-W/AFT: "
        f"{red['vs ST-Conv']:.2%} vs ST-Conv (paper 42.89%), "
        f"{red['vs WG-Conv-W/O-AFT']:.2%} vs WG-Conv-W/O-AFT (paper 7.19%)"
    )
    return "\n".join(lines)
