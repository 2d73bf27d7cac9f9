"""Micro-benchmarks of the computational kernels (throughput tracking).

Two entry points share this file:

* **pytest-benchmark tests** (below) run at real benchmark cadence
  (multiple rounds) since each call is milliseconds: Winograd vs direct
  convolution kernels, the integer quantized paths, and one
  fault-injected forward pass.
* **standalone backend comparison** (``python benchmarks/bench_kernels.py
  --json out.json``) times the channel-reduce-dominated integer Winograd
  workload and the direct-conv ``im2col_gemm`` on two VGG19 layer shapes
  once per registered kernel backend (:mod:`repro.backends`), emits a
  machine-readable report, and *gates* the ``optimized`` backend at a
  minimum speedup over ``reference`` on the Winograd workload and on the
  two GEMM layers together (exit status 1 on failure).
  CI uploads the JSON as an artifact.
"""

import argparse
import json
import sys
import time

import numpy as np

try:
    import pytest
except ImportError:  # pragma: no cover - standalone CLI use without pytest
    pytest = None

from repro.utils.im2col import im2col
from repro.winograd import (
    filter_stage_layout,
    get_transform,
    transform_filter_int,
    winograd_conv2d_float,
    winograd_conv2d_int,
)

N, C, K, H = 4, 32, 32, 32

# Standalone comparison workload: deeper channels so the channel-reduce
# GEMM dominates (the stage the optimized backend targets hardest).
BENCH_N, BENCH_C, BENCH_K, BENCH_H = 4, 64, 64, 32

#: Direct-conv im2col GEMM workloads, VGG19 layer shapes ``(N, C=K, H)``:
#: a 32x32 layer at fig1's batch and a 2x2 layer at fig5's.
GEMM_SHAPES = {"k16-32x32-n30": (30, 16, 32), "k128-2x2-n12": (12, 128, 2)}


# --- pytest-benchmark suite --------------------------------------------------
if pytest is not None:

    @pytest.fixture(scope="module")
    def float_inputs():
        rng = np.random.default_rng(0)
        return (
            rng.standard_normal((N, C, H, H)).astype(np.float32),
            rng.standard_normal((K, C, 3, 3)).astype(np.float32),
        )

    @pytest.fixture(scope="module")
    def int_inputs():
        rng = np.random.default_rng(0)
        x = rng.integers(-(2**12), 2**12, size=(N, C, H, H)).astype(np.int64)
        w = rng.integers(-(2**12), 2**12, size=(K, C, 3, 3)).astype(np.int64)
        return x, w

    def test_direct_conv_float(benchmark, float_inputs):
        x, w = float_inputs

        def run():
            cols = im2col(x, (3, 3), 1, 1)
            return np.einsum("kr,nrp->nkp", w.reshape(K, -1), cols)

        benchmark(run)

    @pytest.mark.parametrize("m", [2, 4])
    def test_winograd_conv_float(benchmark, float_inputs, m):
        x, w = float_inputs
        benchmark(lambda: winograd_conv2d_float(x, w, padding=1, m=m))

    def test_winograd_conv_int(benchmark, int_inputs):
        x, w = int_inputs
        v = transform_filter_int(w, get_transform(2, 3))
        benchmark(
            lambda: winograd_conv2d_int(x, v, padding=1, m=2, keep_intermediates=False)
        )

    def test_filter_transform_int(benchmark, int_inputs):
        _, w = int_inputs
        tf = get_transform(2, 3)
        benchmark(lambda: transform_filter_int(w, tf))

    def test_injected_forward(benchmark, int_inputs):
        """One Winograd conv with operation-level faults at a cliff-scale BER."""
        x, w = int_inputs
        tf = get_transform(2, 3)
        v = transform_filter_int(w, tf)

        def run():
            return winograd_conv2d_int(x, v, padding=1, m=2, keep_intermediates=True)

        benchmark(run)


# --- standalone per-backend comparison ---------------------------------------
def _bench_inputs(x_bound: int, w_bound: int):
    """Deterministic integer workload for the backend comparison."""
    rng = np.random.default_rng(0)
    x = rng.integers(
        -x_bound, x_bound, size=(BENCH_N, BENCH_C, BENCH_H, BENCH_H)
    ).astype(np.int64)
    w = rng.integers(-w_bound, w_bound, size=(BENCH_K, BENCH_C, 3, 3)).astype(np.int64)
    return x, w


def _best_and_mean(run, repeats: int) -> dict:
    """Best/mean wall-clock of ``run()`` after one warm-up call."""
    run()  # warm transform/scratch caches so steady-state cost is measured
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return {"best_s": min(times), "mean_s": sum(times) / len(times)}


def _time_gemm(backend, shape, repeats: int) -> dict:
    """Best/mean wall-clock of one int16 direct-conv ``im2col_gemm`` call."""
    from repro.utils.im2col import im2col_patches

    n, c, h = shape
    bound = 1 << 15
    rng = np.random.default_rng(0)
    x = rng.integers(-bound, bound, size=(n, c, h, h)).astype(np.int64)
    w = rng.integers(-bound, bound, size=(c, c * 9)).astype(np.int64)
    cols = im2col_patches(x, (3, 3), 1, 1)
    return _best_and_mean(
        lambda: backend.im2col_gemm(w, cols, w_bound=bound, x_bound=bound), repeats
    )


def _time_backend(backend, x, w, x_bound, repeats: int, keep: bool) -> dict:
    """Best/mean wall-clock of the full int Winograd conv on one backend."""
    tf = get_transform(2, 3)
    v = filter_stage_layout(backend.filter_transform(tf, w))
    v_bound = int(np.abs(v).max(initial=0))

    def run():
        return winograd_conv2d_int(
            x,
            v,
            padding=1,
            m=2,
            keep_intermediates=keep,
            backend=backend,
            x_bound=x_bound,
            v_bound=v_bound,
        )

    return _best_and_mean(run, repeats)


def run_backend_comparison(
    repeats: int = 7,
    min_speedup: float = 1.5,
    keep_intermediates: bool = False,
    backends: list[str] | None = None,
) -> dict:
    """Time the kernel backends on the comparison workload.

    Returns a JSON-serializable report with per-backend timings, the
    speedup of each backend over ``reference``, the same for
    ``im2col_gemm`` per :data:`GEMM_SHAPES` entry and over their summed
    times, and a ``gate_passed`` flag: ``optimized`` must be at least
    ``min_speedup`` faster than ``reference`` on the Winograd workload and
    on the summed GEMM times.
    """
    from repro.backends import get_backend

    names = list(backends) if backends is not None else ["reference", "optimized"]
    if "reference" not in names:
        names.insert(0, "reference")

    x_bound = 1 << 15
    x, w = _bench_inputs(x_bound, 1 << 7)
    report = {
        "workload": {
            "n": BENCH_N,
            "c": BENCH_C,
            "k": BENCH_K,
            "h": BENCH_H,
            "m": 2,
            "r": 3,
            "padding": 1,
            "keep_intermediates": keep_intermediates,
        },
        "repeats": repeats,
        "backends": {},
        "speedup_vs_reference": {},
        "im2col_gemm": {},
        "im2col_gemm_speedup_vs_reference": {},
        "min_speedup": min_speedup,
        "gate_passed": None,
    }
    for name in names:
        backend = get_backend(name)
        report["backends"][name] = _time_backend(
            backend, x, w, x_bound, repeats, keep_intermediates
        )
    ref_best = report["backends"]["reference"]["best_s"]
    for name, timing in report["backends"].items():
        if name != "reference":
            report["speedup_vs_reference"][name] = ref_best / timing["best_s"]
    totals = dict.fromkeys(names, 0.0)
    for label, shape in GEMM_SHAPES.items():
        timings = {name: _time_gemm(get_backend(name), shape, repeats) for name in names}
        report["im2col_gemm"][label] = {
            "n_c_h": list(shape),
            "backends": timings,
            "speedup_vs_reference": {
                name: timings["reference"]["best_s"] / timing["best_s"]
                for name, timing in timings.items() if name != "reference"
            },
        }
        for name, timing in timings.items():
            totals[name] += timing["best_s"]
    # The GEMM gate is on the two layers together: the sub-millisecond 2x2
    # layer alone measured 1.2-1.9x from run to run on a shared 2-core
    # host, too noisy to gate by itself.
    report["im2col_gemm_speedup_vs_reference"] = {
        name: totals["reference"] / total
        for name, total in totals.items() if name != "reference"
    }
    if "optimized" in names:
        report["gate_passed"] = all(
            speedups["optimized"] >= min_speedup
            for speedups in (
                report["speedup_vs_reference"],
                report["im2col_gemm_speedup_vs_reference"],
            )
        )
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI: per-backend kernel comparison with a JSON report and speed gate."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", help="write the report here")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="required optimized-vs-reference speedup (default 1.5)",
    )
    parser.add_argument(
        "--keep-intermediates",
        action="store_true",
        help="also materialize u/m tiles (the fault-injection configuration)",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        help="backend names to time (default: reference and optimized)",
    )
    args = parser.parse_args(argv)

    report = run_backend_comparison(
        repeats=args.repeats,
        min_speedup=args.min_speedup,
        keep_intermediates=args.keep_intermediates,
        backends=args.backends,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)

    sections = [("winograd", report["backends"], report["speedup_vs_reference"])]
    sections += [
        (f"gemm {label}", entry["backends"], entry["speedup_vs_reference"])
        for label, entry in report["im2col_gemm"].items()
    ]
    for section, timings, speedups in sections:
        for name, timing in timings.items():
            speed = speedups.get(name)
            extra = f"  ({speed:.2f}x vs reference)" if speed is not None else ""
            print(f"{section:>20} {name:>10}: best {timing['best_s'] * 1e3:8.2f} ms{extra}")
    for name, speed in report["im2col_gemm_speedup_vs_reference"].items():
        print(f"{'gemm (both layers)':>20} {name:>10}: {speed:.2f}x vs reference")
    if report["gate_passed"] is False:
        print(
            f"FAIL: an optimized speedup is below the required "
            f"{report['min_speedup']:.2f}x",
            file=sys.stderr,
        )
        return 1
    print("gate: PASS" if report["gate_passed"] else "gate: skipped (no optimized)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
