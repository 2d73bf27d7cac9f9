"""Benchmarks the parallel campaign engine against serial execution.

Acceptance targets on a >= 4-core machine with 4 workers (each assertion
is skipped on machines without enough cores, where forked workers just
time-slice one CPU; bit-identity is asserted unconditionally):

* a >= 8-unit sweep through :class:`repro.runtime.CampaignEngine`
  completes at least 2x faster than the serial path;
* the TMR planner's task-batch workload (candidate evaluations
  seed-sharded across the pool, and sliced along the sample axis when
  there are fewer seeds than workers) iterates at least 1.5x faster
  than the serial planner, with identical planning results;
* the single-point workload — one (BER, seed) point, which the engine
  splits into sample slices by itself — completes at least 1.5x faster
  with 4 workers than the serial run, bit-identically.

Run standalone for a timing report::

    PYTHONPATH=src python benchmarks/bench_campaign_engine.py [workers]

Pass ``--json PATH`` to also write the stats as a JSON document (CI
uploads this as a build artifact)::

    PYTHONPATH=src python benchmarks/bench_campaign_engine.py 2 --json bench.json
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.datasets import DatasetSpec, make_dataset
from repro.faultsim import CampaignConfig, run_point, run_sweep
from repro.nn import GraphBuilder, initialize
from repro.quantized import QuantConfig, quantize_model
from repro.runtime import CampaignEngine, resolve_workers

#: 4 BERs x 2 seeds = 8 independent (BER, seed) units.
BERS = (1e-6, 3e-6, 1e-5, 3e-5)
SEEDS = (0, 1)


def build_workload():
    """A mid-sized quantized CNN + data sized so one unit takes ~0.5 s."""
    b = GraphBuilder("benchcnn", input_shape=(3, 16, 16))
    x = b.conv2d(b.input_node, 16, kernel=3, padding=1, name="c1")
    x = b.relu(x, name="r1")
    x = b.conv2d(x, 24, kernel=3, padding=1, name="c2")
    x = b.relu(x, name="r2")
    x = b.maxpool2d(x, kernel=2, stride=2, name="p1")
    x = b.conv2d(x, 32, kernel=3, padding=1, name="c3")
    x = b.relu(x, name="r3")
    x = b.globalavgpool(x, name="gap")
    x = b.flatten(x, name="fl")
    graph = b.output(b.linear(x, 8, name="fc"))
    initialize(graph, 0)

    spec = DatasetSpec(name="bench", classes=8, image_size=16, noise=0.3, seed=3)
    dataset = make_dataset(spec, train_per_class=16, test_per_class=24)
    qmodel = quantize_model(
        graph, dataset.train_x[:96], QuantConfig(width=16), "winograd"
    )
    config = CampaignConfig(seeds=SEEDS, batch_size=64, max_samples=192)
    return qmodel, dataset.test_x, dataset.test_y, config


def run_comparison(workers: int = 4) -> dict:
    """Time serial vs engine execution of the same sweep; verify identity."""
    qmodel, x, y, config = build_workload()
    bers = list(BERS)

    start = time.perf_counter()
    serial = run_sweep(qmodel, x, y, bers, config=config)
    serial_seconds = time.perf_counter() - start

    engine = CampaignEngine(workers=workers)
    start = time.perf_counter()
    parallel = engine.run_sweep(qmodel, x, y, bers, config=config)
    engine_seconds = time.perf_counter() - start

    identical = [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
    return {
        "units": len(bers) * len(config.seeds),
        "workers": engine.workers,
        "available_cores": resolve_workers(0),
        "serial_seconds": serial_seconds,
        "engine_seconds": engine_seconds,
        "speedup": serial_seconds / engine_seconds if engine_seconds else float("inf"),
        "bit_identical": identical,
    }


def run_task_batch_comparison(workers: int = 4) -> dict:
    """Time the Fig. 3-style protected-task batch: serial engine vs workers.

    Exercises :meth:`CampaignEngine.evaluate_tasks` with a distinct
    protection plan per task group (the layer-vulnerability workload),
    which the sweep benchmark above cannot reach.
    """
    from repro.analysis import layer_vulnerability

    qmodel, x, y, config = build_workload()
    ber = BERS[2]

    start = time.perf_counter()
    serial = layer_vulnerability(qmodel, x, y, ber, config=config)
    serial_seconds = time.perf_counter() - start

    engine = CampaignEngine(workers=workers)
    start = time.perf_counter()
    parallel = layer_vulnerability(qmodel, x, y, ber, config=config, engine=engine)
    engine_seconds = time.perf_counter() - start

    return {
        "units": engine.last_stats.total_units,
        "workers": engine.workers,
        "serial_seconds": serial_seconds,
        "engine_seconds": engine_seconds,
        "speedup": serial_seconds / engine_seconds if engine_seconds else float("inf"),
        "bit_identical": parallel.to_dict() == serial.to_dict(),
    }


def run_planner_comparison(workers: int = 4) -> dict:
    """Time the Fig. 5 planner workload: serial vs a worker pool.

    Both sides run the paper's heuristic, one candidate per iteration.
    The serial side evaluates seeds sequentially on a workers=1 engine;
    the pooled engine spreads every candidate's seeds over its workers,
    slicing them along the sample axis when there are fewer seeds than
    workers, so each iteration keeps the pool filled.  Planning results
    must be identical; on a pool that can actually run ``workers``
    processes the per-iteration wall-clock should drop >= 1.5x.

    The benchmark model is untrained (timing is what matters), so the
    accuracy goal is pinned unreachable and the run length fixed by
    ``max_iterations`` — both planners then evaluate exactly the same
    ``ITERATIONS`` candidates, making the timing comparison exact.
    """
    from repro.tmr import plan_tmr

    ITERATIONS = 6
    qmodel, x, y, config = build_workload()
    ber = BERS[3]
    # Rank layers in model order; the exact ranking is irrelevant to the
    # timing comparison as long as both sides share it.
    ranking = [(layer.name, 1.0) for layer in qmodel.injectable_layers()]

    start = time.perf_counter()
    serial = plan_tmr(
        qmodel, x, y, ber, 1.0, ranking, config=config, step=0.25,
        max_iterations=ITERATIONS, engine=CampaignEngine(workers=1),
    )
    serial_seconds = time.perf_counter() - start

    engine = CampaignEngine(workers=workers)
    start = time.perf_counter()
    pooled = plan_tmr(
        qmodel, x, y, ber, 1.0, ranking, config=config, step=0.25,
        max_iterations=ITERATIONS, engine=engine,
    )
    engine_seconds = time.perf_counter() - start

    identical = (
        serial.to_dict() == pooled.to_dict() and serial.history == pooled.history
    )
    iterations = max(1, serial.iterations)
    return {
        "iterations": serial.iterations,
        "converged": serial.converged,
        "workers": engine.workers,
        "available_cores": resolve_workers(0),
        "serial_seconds": serial_seconds,
        "engine_seconds": engine_seconds,
        "serial_seconds_per_iteration": serial_seconds / iterations,
        "engine_seconds_per_iteration": engine_seconds / iterations,
        "speedup": serial_seconds / engine_seconds if engine_seconds else float("inf"),
        "identical_results": identical,
    }


def run_single_point_comparison(workers: int = 4) -> dict:
    """Time one (BER, seed) point: serial vs a sliced worker pool.

    The single-point case is where seed sharding cannot help (one seed =
    one point) and the dominant wall-clock case for ``plan_tmr`` on big
    models.  The engine splits the point's evaluation batch into sample
    slices by itself, and must stay bit-identical to the serial run while
    filling the pool.  ``units`` counts the dispatched slices.
    """
    qmodel, x, y, base = build_workload()
    config = CampaignConfig(
        seeds=(0,),
        batch_size=base.batch_size,
        max_samples=base.max_samples,
    )
    ber = BERS[2]

    start = time.perf_counter()
    serial = run_point(qmodel, x, y, ber, config=config)
    serial_seconds = time.perf_counter() - start

    events = []
    engine = CampaignEngine(workers=workers, progress=events.append)
    start = time.perf_counter()
    sliced = engine.run_point(qmodel, x, y, ber, config=config)
    engine_seconds = time.perf_counter() - start

    return {
        "units": len(events),
        "workers": engine.workers,
        "available_cores": resolve_workers(0),
        "serial_seconds": serial_seconds,
        "engine_seconds": engine_seconds,
        "speedup": serial_seconds / engine_seconds if engine_seconds else float("inf"),
        "bit_identical": sliced.to_dict() == serial.to_dict(),
    }


def run_adaptive_comparison(workers: int = 4) -> dict:
    """Count (seed x point) units: fixed grid at full budget vs early stop.

    The adaptive engine's claim is a *sample-count* saving, not a raw
    speedup: on a low-BER grid, points whose confidence interval settles
    inside the target half-width stop adding seeds, while the fixed grid
    spends ``max_seeds`` everywhere.  Both sides run the same engine and
    worker count; ``saved_ratio`` is the fraction of the fixed grid's
    (seed x point) units the adaptive run never evaluated.
    """
    import dataclasses

    from repro.stats import StopRule, adaptive_sweep, extended_seeds

    qmodel, x, y, base = build_workload()
    config = CampaignConfig(
        seeds=SEEDS,
        batch_size=base.batch_size,
        max_samples=base.max_samples,
    )
    # Low-BER-heavy grid: the regime where points settle early.
    bers = (1e-8, 1e-7) + BERS
    rule = StopRule(halfwidth=0.04, min_seeds=len(SEEDS), max_seeds=6)

    full = dataclasses.replace(
        config, seeds=extended_seeds(SEEDS, rule.max_seeds)
    )
    engine = CampaignEngine(workers=workers)
    start = time.perf_counter()
    engine.run_sweep(qmodel, x, y, list(bers), config=full)
    fixed_seconds = time.perf_counter() - start
    fixed_units = len(bers) * rule.max_seeds

    start = time.perf_counter()
    sweep = adaptive_sweep(
        qmodel, x, y, list(bers), config=config, rule=rule, engine=engine
    )
    adaptive_seconds = time.perf_counter() - start

    return {
        "bers": len(bers),
        "workers": engine.workers,
        "available_cores": resolve_workers(0),
        "halfwidth": rule.halfwidth,
        "max_seeds": rule.max_seeds,
        "fixed_units": fixed_units,
        "adaptive_units": sweep.total_units,
        "stopped_early": sum(1 for p in sweep.points if p.stopped_early),
        "rounds": sweep.rounds,
        "saved_ratio": 1.0 - sweep.total_units / fixed_units,
        "fixed_seconds": fixed_seconds,
        "adaptive_seconds": adaptive_seconds,
        "speedup": fixed_seconds / adaptive_seconds
        if adaptive_seconds
        else float("inf"),
    }


def format_report(stats: dict) -> str:
    return (
        f"campaign engine benchmark — {stats['units']} (BER, seed) units\n"
        f"  available cores : {stats['available_cores']}\n"
        f"  workers         : {stats['workers']}\n"
        f"  serial          : {stats['serial_seconds']:.2f} s\n"
        f"  engine          : {stats['engine_seconds']:.2f} s\n"
        f"  speedup         : {stats['speedup']:.2f}x\n"
        f"  bit-identical   : {stats['bit_identical']}"
    )


def format_single_point_report(stats: dict) -> str:
    return (
        f"single-point benchmark — 1 (BER, seed) point, "
        f"{stats['units']} slice(s)\n"
        f"  available cores : {stats['available_cores']}\n"
        f"  workers         : {stats['workers']}\n"
        f"  serial          : {stats['serial_seconds']:.2f} s\n"
        f"  sliced pool     : {stats['engine_seconds']:.2f} s\n"
        f"  speedup         : {stats['speedup']:.2f}x\n"
        f"  bit-identical   : {stats['bit_identical']}"
    )


def format_adaptive_report(stats: dict) -> str:
    return (
        f"adaptive benchmark — {stats['bers']} BER points, "
        f"halfwidth {stats['halfwidth']}, budget {stats['max_seeds']} seeds\n"
        f"  workers         : {stats['workers']}\n"
        f"  fixed grid      : {stats['fixed_units']} units, "
        f"{stats['fixed_seconds']:.2f} s\n"
        f"  adaptive        : {stats['adaptive_units']} units, "
        f"{stats['adaptive_seconds']:.2f} s "
        f"({stats['stopped_early']} points stopped early, "
        f"{stats['rounds']} rounds)\n"
        f"  saved units     : {stats['saved_ratio']:.1%}\n"
        f"  speedup         : {stats['speedup']:.2f}x"
    )


def format_planner_report(stats: dict) -> str:
    return (
        f"planner benchmark — {stats['iterations']} iterations "
        f"(converged: {stats['converged']})\n"
        f"  workers           : {stats['workers']}\n"
        f"  serial            : {stats['serial_seconds']:.2f} s "
        f"({stats['serial_seconds_per_iteration']:.2f} s/iter)\n"
        f"  pool              : {stats['engine_seconds']:.2f} s "
        f"({stats['engine_seconds_per_iteration']:.2f} s/iter)\n"
        f"  speedup           : {stats['speedup']:.2f}x\n"
        f"  identical results : {stats['identical_results']}"
    )


def test_campaign_engine_speedup():
    """>= 2x on 4 workers with >= 4 cores; always bit-identical."""
    import pytest

    stats = run_comparison(workers=4)
    print()
    print(format_report(stats))
    assert stats["bit_identical"], "engine results diverged from serial"
    if stats["available_cores"] < 4:
        pytest.skip(
            f"speedup needs >= 4 cores, machine has {stats['available_cores']}"
        )
    assert stats["speedup"] >= 2.0, (
        f"expected >= 2x speedup with 4 workers, got {stats['speedup']:.2f}x"
    )


def test_planner_pool_speedup():
    """>= 1.5x planner iterations on 4 workers with >= 4 cores; results
    always identical to the serial heuristic."""
    import pytest

    stats = run_planner_comparison(workers=4)
    print()
    print(format_planner_report(stats))
    assert stats["identical_results"], "pooled planning diverged from serial"
    assert stats["iterations"] > 1, "workload converged trivially; tune the target"
    if stats["available_cores"] < 4:
        pytest.skip(
            f"speedup needs >= 4 cores, machine has {stats['available_cores']}"
        )
    assert stats["speedup"] >= 1.5, (
        f"expected >= 1.5x planner speedup with 4 workers, "
        f"got {stats['speedup']:.2f}x"
    )


def test_single_point_speedup():
    """>= 1.5x on a single (BER, seed) point with 4 workers and >= 4
    cores; always bit-identical to the serial run."""
    import pytest

    stats = run_single_point_comparison(workers=4)
    print()
    print(format_single_point_report(stats))
    assert stats["bit_identical"], "sliced results diverged from serial"
    assert stats["units"] > 1, "the engine did not slice the lone point"
    if stats["available_cores"] < 4:
        pytest.skip(
            f"speedup needs >= 4 cores, machine has {stats['available_cores']}"
        )
    assert stats["speedup"] >= 1.5, (
        f"expected >= 1.5x single-point speedup with 4 workers, "
        f"got {stats['speedup']:.2f}x"
    )


def test_adaptive_saves_units():
    """Early stopping must evaluate measurably fewer (seed x point) units
    than the fixed grid on the low-BER workload — on any machine (the
    unit counts are deterministic, no core-count skip)."""
    stats = run_adaptive_comparison(workers=2)
    print()
    print(format_adaptive_report(stats))
    assert stats["stopped_early"] > 0, "no point settled; tune the workload"
    assert stats["adaptive_units"] < stats["fixed_units"], (
        f"adaptive evaluated {stats['adaptive_units']} units, fixed grid "
        f"{stats['fixed_units']} — no saving"
    )
    assert stats["saved_ratio"] >= 0.2, (
        f"expected >= 20% saved units on the low-BER grid, "
        f"got {stats['saved_ratio']:.1%}"
    )


if __name__ == "__main__":
    np.random.seed(0)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workers", type=int, nargs="?", default=4)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the benchmark stats to PATH as JSON",
    )
    args = parser.parse_args()

    sweep = run_comparison(workers=args.workers)
    tasks = run_task_batch_comparison(workers=args.workers)
    planner = run_planner_comparison(workers=args.workers)
    single_point = run_single_point_comparison(workers=args.workers)
    adaptive = run_adaptive_comparison(workers=args.workers)
    print(format_report(sweep))
    print(
        f"task-batch benchmark — {tasks['units']} protected tasks "
        f"(layer vulnerability)\n"
        f"  serial          : {tasks['serial_seconds']:.2f} s\n"
        f"  engine          : {tasks['engine_seconds']:.2f} s\n"
        f"  speedup         : {tasks['speedup']:.2f}x\n"
        f"  bit-identical   : {tasks['bit_identical']}"
    )
    print(format_planner_report(planner))
    print(format_single_point_report(single_point))
    print(format_adaptive_report(adaptive))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "sweep": sweep,
                    "task_batch": tasks,
                    "planner": planner,
                    "single_point": single_point,
                    "adaptive": adaptive,
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"wrote {args.json}")
