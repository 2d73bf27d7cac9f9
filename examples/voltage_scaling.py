"""Voltage scaling for energy efficiency (Figs. 6-7 style).

Combines the fault-injection accuracy curves with the accelerator models:
the DNN-Engine-calibrated voltage-BER characteristic, Scale-Sim-style
runtime, and the V^2 power law.  Each scheme scales its supply voltage as
deep as its accuracy budget allows; awareness of Winograd's fault tolerance
unlocks the deepest scaling.

Run:  python examples/voltage_scaling.py
"""

from repro.accel import DNN_ENGINE, scheme_energies, simulate_network
from repro.experiments import QUICK, accuracy_curve_pair, prepare_benchmark, quantized_pair
from repro.experiments.fig6 import as_accuracy_curve, calibrated_vber


def main() -> None:
    profile = QUICK
    prep = prepare_benchmark("vgg19", profile)
    qm_st, qm_wg = quantized_pair(prep, width=16, profile=profile)

    # Accuracy-vs-BER curves for both execution modes.
    st, wg = accuracy_curve_pair(prep, qm_st, qm_wg, profile)
    curve_st, curve_wg = as_accuracy_curve(st, qm_st), as_accuracy_curve(wg, qm_wg)
    # Voltage-BER model calibrated in expected-faults-per-inference space.
    vber = calibrated_vber(qm_st)

    timing_st = simulate_network(qm_st, DNN_ENGINE, batch=16)
    timing_wg = simulate_network(qm_wg, DNN_ENGINE, batch=16)
    print(
        f"{prep.paper_label} int16 on the DNN-Engine-like accelerator:\n"
        f"  standard conv: {timing_st.total_cycles:,} cycles/batch\n"
        f"  winograd conv: {timing_wg.total_cycles:,} cycles/batch "
        f"({timing_st.total_cycles / timing_wg.total_cycles:.2f}x faster)"
    )

    print(f"\n{'loss':>6} {'Base':>6} {'ST-Conv':>8} {'WG-W/O-AFT':>11} {'WG-W/AFT':>9}")
    for loss in (0.01, 0.03, 0.05, 0.10):
        points = scheme_energies(
            curve_st,
            curve_wg,
            timing_st.total_cycles,
            timing_wg.total_cycles,
            accuracy_loss=loss,
            vber=vber,
        )
        base = points["Base"].energy_joules
        print(
            f"{loss:>6.0%} {1.0:>6.2f} "
            f"{points['ST-Conv'].energy_joules / base:>8.3f} "
            f"{points['WG-Conv-W/O-AFT'].energy_joules / base:>11.3f} "
            f"{points['WG-Conv-W/AFT'].energy_joules / base:>9.3f}"
        )
    print("\nlower is better; the paper reports WG-Conv-W/AFT at -42.89% vs")
    print("voltage-scaled ST-Conv and -7.19% vs unaware Winograd on average.")


if __name__ == "__main__":
    main()
