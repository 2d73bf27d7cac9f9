"""Experiment drivers: one module per paper figure, plus shared plumbing."""

from repro.experiments.common import (
    FULL,
    QUICK,
    ExperimentProfile,
    PreparedBenchmark,
    accuracy_curve,
    accuracy_curve_pair,
    make_engine,
    pick_cliff_ber,
    prepare_benchmark,
    quantized_pair,
    results_dir,
)

__all__ = [
    "ExperimentProfile",
    "QUICK",
    "FULL",
    "PreparedBenchmark",
    "make_engine",
    "prepare_benchmark",
    "quantized_pair",
    "accuracy_curve",
    "accuracy_curve_pair",
    "pick_cliff_ber",
    "results_dir",
]
