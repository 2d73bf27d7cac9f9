"""Figure 6 — voltage vs BER and model accuracy under voltage scaling.

Reproduces the paper's overlay: the accelerator's exponential voltage-BER
characteristic and the accuracy of VGG19 (standard and Winograd execution)
at each voltage's induced BER.

Axis calibration (DESIGN.md §2): the DNN-Engine curve is calibrated in
*expected-faults-per-inference* space.  The paper's 0.77 V -> 1e-8 BER on a
~1e10-operation network yields the same fault count per inference as a
proportionally higher BER on our width-scaled models, so the model's
``ber_ref`` is set to the BER at which our standard-conv exposure matches
that reference fault count.
"""

from __future__ import annotations

import numpy as np

from repro.accel import AccuracyCurve, VoltageBerModel
from repro.experiments.common import (
    ExperimentProfile,
    QUICK,
    accuracy_curve_pair,
    prepare_benchmark,
    quantized_pair,
    results_dir,
)
from repro.faultsim import expected_faults_per_image
from repro.utils.serialization import save_json

__all__ = ["run", "format_report", "calibrated_vber", "as_accuracy_curve"]

#: Expected faults/inference at the paper's 0.77 V reference point
#: (1e-8 BER x ~1e10 ops x 16 bits, rounded to one significant figure).
REFERENCE_LAMBDA = 1600.0


def calibrated_vber(qm_standard) -> VoltageBerModel:
    """Voltage-BER model with ``ber_ref`` matched to our model's exposure."""
    exposure_per_ber = expected_faults_per_image(qm_standard, 1.0)
    ber_ref = REFERENCE_LAMBDA / exposure_per_ber
    return VoltageBerModel(ber_ref=ber_ref)


def as_accuracy_curve(rows, qmodel) -> AccuracyCurve:
    """Interpolating accuracy-vs-BER curve over a sweep's result rows."""
    return AccuracyCurve(
        [r.ber for r in rows],
        [r.mean_accuracy for r in rows],
        qmodel.metadata["fault_free_accuracy"],
    )


def run(
    profile: ExperimentProfile = QUICK,
    benchmark: str = "vgg19",
    width: int = 16,
    voltage_points: int = 21,
    engine=None,
) -> dict:
    """Execute the Fig. 6 experiment."""
    prep = prepare_benchmark(benchmark, profile)
    qm_st, qm_wg = quantized_pair(prep, width, profile)
    vber = calibrated_vber(qm_st)
    st, wg = accuracy_curve_pair(prep, qm_st, qm_wg, profile, engine=engine)
    curve_st, curve_wg = as_accuracy_curve(st, qm_st), as_accuracy_curve(wg, qm_wg)

    # The paper plots 0.77-0.82 V; sample that window within our range.
    voltages = np.linspace(0.77, 0.82, voltage_points)
    rows = []
    for v in voltages:
        ber = vber.ber(float(v))
        rows.append(
            {
                "voltage": float(v),
                "ber": ber,
                "accuracy_standard": curve_st.accuracy_at(ber),
                "accuracy_winograd": curve_wg.accuracy_at(ber),
            }
        )

    payload = {
        "figure": "fig6",
        "benchmark": prep.paper_label,
        "width": width,
        "ber_ref": vber.ber_ref,
        "reference_lambda": REFERENCE_LAMBDA,
        "rows": rows,
    }
    save_json(results_dir() / "fig6.json", payload)
    return payload


def format_report(payload: dict) -> str:
    """Voltage / BER / accuracy table."""
    lines = [
        f"Figure 6 — voltage scaling: BER and {payload['benchmark']} "
        f"int{payload['width']} accuracy",
        f"(voltage-BER curve calibrated so 0.77 V gives "
        f"lambda={payload['reference_lambda']:.0f} faults/inference; "
        f"ber_ref={payload['ber_ref']:.2e})",
        f"{'V':>6} {'BER':>10} {'ST acc':>7} {'WG acc':>7}",
    ]
    for row in payload["rows"]:
        lines.append(
            f"{row['voltage']:>6.3f} {row['ber']:>10.2e} "
            f"{row['accuracy_standard']:>7.3f} {row['accuracy_winograd']:>7.3f}"
        )
    return "\n".join(lines)
