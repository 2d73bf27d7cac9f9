"""Parallel TMR planning end-to-end (Fig. 5 machinery).

The planner is the paper's serial loop: evaluate one candidate plan, stop
at the accuracy goal, else protect a bit more of the most vulnerable
layer.  Each candidate evaluation is one seed-batch task, and the
campaign engine spreads it across the worker pool on a small CNN:

1. **Seed sharding** — the batch's per-seed subtasks run on separate
   workers.
2. **Sample slicing** — when there are fewer seeds than workers, the
   engine slices each seed into sample windows sized to fill the pool.

Both are result-identical to the serial heuristic — this script runs the
planner both ways and verifies it.

Run:  PYTHONPATH=src python examples/plan_tmr_parallel.py [workers]
"""

import sys

from repro.analysis import layer_vulnerability
from repro.datasets import DatasetSpec, make_dataset
from repro.faultsim import CampaignConfig
from repro.nn import Adam, GraphBuilder, TrainConfig, initialize, train
from repro.quantized import QuantConfig, quantize_model
from repro.runtime import CampaignEngine, resolve_workers
from repro.tmr import plan_tmr

BER = 5e-4
TARGET_FRACTION = 0.85


def build_model_and_data():
    """A small trained Winograd-mode quantized CNN plus an eval split."""
    b = GraphBuilder("speccnn", input_shape=(3, 16, 16))
    x = b.conv2d(b.input_node, 12, kernel=3, padding=1, name="c1")
    x = b.relu(x, name="r1")
    x = b.maxpool2d(x, kernel=2, stride=2, name="p1")
    x = b.conv2d(x, 16, kernel=3, padding=1, name="c2")
    x = b.relu(x, name="r2")
    x = b.globalavgpool(x, name="gap")
    x = b.flatten(x, name="fl")
    graph = b.output(b.linear(x, 4, name="fc"))
    initialize(graph, 0)

    spec = DatasetSpec(name="spec", classes=4, image_size=16, noise=0.25, seed=11)
    dataset = make_dataset(spec, train_per_class=32, test_per_class=12)
    train(
        graph,
        Adam(graph, 3e-3),
        dataset.train_x,
        dataset.train_y,
        dataset.test_x,
        dataset.test_y,
        TrainConfig(epochs=6, batch_size=32, target_accuracy=0.95),
    )
    qmodel = quantize_model(
        graph, dataset.train_x[:64], QuantConfig(width=16), "winograd"
    )
    return qmodel, dataset.test_x, dataset.test_y


def main(workers: int | None = None) -> None:
    """Plan TMR serially and on a worker pool; verify identical results."""
    workers = resolve_workers(workers)
    qmodel, x, y = build_model_and_data()
    config = CampaignConfig(seeds=(0, 1), batch_size=24, max_samples=48)

    fault_free = qmodel.evaluate(x[:48], y[:48])
    target = fault_free * TARGET_FRACTION
    print(f"model fault-free accuracy : {fault_free:.3f}")
    print(f"accuracy goal             : {target:.3f} @ BER {BER:.1e}")

    engine = CampaignEngine(workers=workers)
    report = layer_vulnerability(qmodel, x, y, BER, config=config, engine=engine)
    ranking = [(lv.layer, lv.vulnerability_factor) for lv in report.ranked()]
    print(f"vulnerability ranking     : {[name for name, _ in ranking]}")

    serial = plan_tmr(
        qmodel, x, y, BER, target, ranking, config=config, step=0.5,
        engine=CampaignEngine(workers=1),
    )
    pooled = plan_tmr(
        qmodel, x, y, BER, target, ranking, config=config, step=0.5,
        engine=engine,
    )

    identical = (
        serial.to_dict() == pooled.to_dict() and serial.history == pooled.history
    )
    print(f"planner iterations        : {pooled.iterations} "
          f"(converged: {pooled.converged})")
    print(f"achieved accuracy         : {pooled.achieved_accuracy:.3f}")
    print(f"protected fractions       : {pooled.to_dict()['fractions']}")
    print(f"pool == serial heuristic : {identical}")
    if not identical:
        raise SystemExit("pooled planning diverged from the serial heuristic")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else None)
