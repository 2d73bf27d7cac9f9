"""Figure 2 — network-wise fault tolerance of standard vs Winograd DNNs.

Accuracy under operation-level injection across the BER sweep for all four
benchmark networks, each at int8 and int16, executed with standard and
Winograd convolution; plus the Winograd accuracy-improvement series (the
dotted curves of the paper's figure).
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentProfile,
    QUICK,
    accuracy_curve_pair,
    prepare_benchmark,
    quantized_pair,
    results_dir,
)
from repro.utils.serialization import save_json

__all__ = ["run", "format_report", "DEFAULT_BENCHMARKS"]

DEFAULT_BENCHMARKS = ("densenet169", "resnet50", "vgg19", "googlenet")


def run(
    profile: ExperimentProfile = QUICK,
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    widths: tuple[int, ...] = (8, 16),
    engine=None,
) -> dict:
    """Execute the Fig. 2 experiment for the selected benchmarks/widths.

    Every panel sweeps the profile's fixed BER grid (the top-level
    ``bers``).
    """
    panels = {}
    for name in benchmarks:
        prep = prepare_benchmark(name, profile)
        panel: dict = {"paper_label": prep.paper_label, "widths": {}}
        for width in widths:
            qm_st, qm_wg = quantized_pair(prep, width, profile)
            st, wg = accuracy_curve_pair(prep, qm_st, qm_wg, profile, engine=engine)
            improvement = [
                w.mean_accuracy - s.mean_accuracy for s, w in zip(st, wg)
            ]
            data = {
                "fault_free": qm_st.metadata["fault_free_accuracy"],
                "standard": [r.to_dict() for r in st],
                "winograd": [r.to_dict() for r in wg],
                "improvement": improvement,
            }
            panel["widths"][str(width)] = data
        panels[name] = panel

    payload = {
        "figure": "fig2",
        "bers": list(profile.ber_grid),
        "panels": panels,
    }
    save_json(results_dir() / "fig2.json", payload)
    return payload


def format_report(payload: dict) -> str:
    """Text rendering of every panel (one block per network/width)."""
    lines = ["Figure 2 — accuracy vs BER, standard vs Winograd convolution"]
    for name, panel in payload["panels"].items():
        for width, data in panel["widths"].items():
            lines.append(
                f"\n{panel['paper_label']} @int{width} "
                f"(fault-free {data['fault_free']:.3f})"
            )
            lines.append(
                f"{'BER':>10} {'lambda':>10} {'ST':>7} {'WG':>7} {'WG-ST':>7}"
            )
            for st, wg, diff in zip(
                data["standard"], data["winograd"], data["improvement"]
            ):
                lines.append(
                    f"{st['ber']:>10.1e} {st['lambda']:>10.0f} "
                    f"{st['mean_accuracy']:>7.3f} {wg['mean_accuracy']:>7.3f} "
                    f"{diff:>+7.3f}"
                )
            peak = max(data["improvement"])
            lines.append(f"peak Winograd improvement: {peak:+.3f} (paper: up to +0.35)")
    return "\n".join(lines)
