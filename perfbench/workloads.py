"""The benchmark's three workloads, their inputs and their output checks.

Every workload runs in-process through the public experiment API on one
worker, with the counter RNG scheme (while the profile still offers a
scheme choice) and otherwise default settings, so that a changed default
shows up in the figures.

* ``fig1_warm`` — Fig. 1: VGG19 int16, five BERs, operation- and
  neuron-level injection on the standard (ST) and Winograd (WG) models,
  two fault seeds.  Trained weights are pinned; curve cache and
  checkpoint start fresh.
* ``fig5_plan`` — Fig. 5: the three TMR schemes at the mid-cliff BER the
  figure picks itself, two accuracy goals, two fault seeds.
* ``train_cold`` — ``prepare_benchmark(force_retrain=True)`` followed by
  ``quantized_pair`` into an empty results directory.

The workload seed picks the fault seeds: even seeds the default pair,
odd seeds the held-out pair.  Both pairs have frozen output digests in
``references.json``; ``train_cold`` trains from the repository's fixed
dataset and initialization seed, so its inputs do not depend on the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import common, fig1, fig5
from repro.quantized.qmodel import QuantizedModel
from repro.runtime import engine as engine_module
from repro.runtime.engine import CampaignEngine
from repro.utils.serialization import save_json

from tracer import Patcher

HERE = Path(__file__).resolve().parent
WEIGHTS = HERE / "data" / "vgg19-seed0.npz"
REFERENCES = HERE / "references.json"

WORKLOADS = ("fig1_warm", "fig5_plan", "train_cold")
#: Fault-seed pairs: index = workload seed parity (default, held-out).
FAULT_SEEDS = ((0, 1), (10, 11))
BENCHMARK = "vgg19"
WIDTH = 16
FIG1_SAMPLES = 30
FIG5_SAMPLES = 12
FIG5_GOALS = (0.76, 0.90)
#: Absolute tolerance on the train_cold accuracies: optimized training
#: may legitimately change weight bits, so the check is not bit-exact.
TRAIN_TOLERANCE = 0.05
#: Setups per warm run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Execution strategies that must leave every digest unchanged.
STRATEGIES = {
    "default": {},
    "optimized": {"kernel_backend": "optimized"},
    "replay": {"replay": True},
}


class CheckFailed(Exception):
    """A workload's outputs differ from the frozen reference."""


@dataclass
class Probe:
    """Run-level counts gathered by a few always-on wrappers.

    One wrapper per engine batch, per unit attempt and per training
    call: negligible next to the work they observe, and present in the
    untraced and the traced run alike.
    """

    first_submit: float | None = None
    units: int = 0
    computed: int = 0
    cached: int = 0
    retried: int = 0
    inferences: int = 0
    train_calls: int = 0
    eval_s: float = 0.0
    eval_inferences: int = 0
    _patcher: Patcher = field(default_factory=Patcher)

    def install(self, time_evaluate: bool) -> None:
        """Wrap the observed entry points (``evaluate`` for train_cold)."""
        probe = self

        def batch(fn):
            def evaluate_tasks(engine, qmodel, x, labels, tasks, config=None, **kw):
                if probe.first_submit is None:
                    probe.first_submit = time.perf_counter()
                results = fn(engine, qmodel, x, labels, tasks, config=config, **kw)
                stats = engine.last_stats
                limit = None if config is None else config.max_samples
                samples = len(x) if limit is None else min(len(x), limit)
                probe.units += stats.total_units
                probe.computed += stats.computed_units
                probe.cached += stats.cached_units
                probe.inferences += stats.computed_units * samples
                return results

            return evaluate_tasks

        def attempt(fn):
            def attempt_unit(payload, index, attempt_no):
                if attempt_no == 2:
                    probe.retried += 1
                return fn(payload, index, attempt_no)

            return attempt_unit

        def train(fn):
            def counted(*args, **kwargs):
                probe.train_calls += 1
                return fn(*args, **kwargs)

            return counted

        def evaluate(fn):
            def timed(qmodel, x, *args, **kwargs):
                start = time.perf_counter()
                accuracy = fn(qmodel, x, *args, **kwargs)
                probe.eval_s += time.perf_counter() - start
                probe.eval_inferences += len(x)
                return accuracy

            return timed

        self._patcher.wrap(CampaignEngine, "evaluate_tasks", batch, "evaluate_tasks")
        self._patcher.wrap(engine_module, "_attempt_unit", attempt, "_attempt_unit")
        self._patcher.wrap(common, "train", train, "train")
        if time_evaluate:
            self._patcher.wrap(QuantizedModel, "evaluate", evaluate, "evaluate")
        if self._patcher.missing:
            raise RuntimeError(f"entry points not found: {self._patcher.missing}")

    def remove(self) -> None:
        """Restore the wrapped entry points."""
        self._patcher.restore()


@dataclass
class PassResult:
    """Timings and outputs of one pass of a workload."""

    setup_s: float
    wall_s: float
    inferences: int
    inference_s: float
    outputs: dict

    @property
    def inferences_per_s(self) -> float:
        return self.inferences / self.inference_s


def digest(outputs: dict) -> str:
    """Short SHA-256 of the canonical JSON form of integer-exact outputs."""
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _profile(**overrides):
    """The quick profile with overrides, on the counter scheme if offered."""
    names = {f.name for f in dataclasses.fields(common.QUICK)}
    if "rng_scheme" in names:
        overrides["rng_scheme"] = "counter"
    return dataclasses.replace(common.QUICK, **overrides)


def _engine(strategy: str) -> CampaignEngine:
    """A one-worker engine; strategy options the API no longer takes are dropped."""
    accepted = inspect.signature(common.make_engine).parameters
    options = {k: v for k, v in STRATEGIES[strategy].items() if k in accepted}
    return common.make_engine(workers=1, **options)


def _fresh_results(work: Path, pinned: bool) -> Path:
    """Empty results directory (optionally holding the pinned weights)."""
    results = work / "results"
    shutil.rmtree(results, ignore_errors=True)
    if pinned:
        models = results / "models"
        models.mkdir(parents=True)
        shutil.copyfile(WEIGHTS, models / f"{BENCHMARK}-seed0.npz")
    else:
        results.mkdir(parents=True)
    os.environ["REPRO_RESULTS"] = str(results)
    return results


def fig1_outputs(payload: dict) -> dict:
    """Per-seed accuracies, event counts and lambda of every series point."""
    return {
        "fault_free_accuracy": payload["fault_free_accuracy"],
        "series": {
            name: [
                [row["ber"], row["lambda"], row["per_seed"], row["events_per_seed"]]
                for row in rows
            ]
            for name, rows in payload["series"].items()
        },
    }


def fig5_outputs(payload: dict) -> dict:
    """Cliff BER, goals, and every plan's overhead, iterations and fractions."""
    return {
        key: payload[key]
        for key in ("ber", "fault_free_accuracy", "goals", "curves",
                    "average_reduction")
    }


class Workload:
    """One workload: its inputs (from the seed) and how to run a pass."""

    def __init__(self, name: str, seed: int, strategy: str, work: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed_class = seed % len(FAULT_SEEDS)
        self.fault_seeds = FAULT_SEEDS[self.seed_class]
        self.strategy = strategy
        self.work = work
        self.probe = Probe()
        self.warm = name != "train_cold"
        if name == "fig1_warm":
            self.profile = _profile(eval_samples=FIG1_SAMPLES, seeds=self.fault_seeds)
        elif name == "fig5_plan":
            self.profile = _profile(eval_samples=FIG5_SAMPLES, seeds=self.fault_seeds)
        else:
            self.profile = common.QUICK

    def run_pass(self) -> PassResult:
        """One full pass: fresh results directory, setup, campaign, payload."""
        probe = self.probe
        probe.first_submit = None
        inferences = probe.inferences
        eval_s, eval_n = probe.eval_s, probe.eval_inferences
        _fresh_results(self.work, pinned=self.warm)
        start = time.perf_counter()
        if self.name == "fig1_warm":
            payload = fig1.run(self.profile, BENCHMARK, WIDTH, engine=_engine(self.strategy))
            outputs = fig1_outputs(payload)
        elif self.name == "fig5_plan":
            payload = fig5.run(
                self.profile, BENCHMARK, WIDTH, goal_fractions=FIG5_GOALS,
                engine=_engine(self.strategy),
            )
            outputs = fig5_outputs(payload)
        else:
            prep = common.prepare_benchmark(BENCHMARK, self.profile, force_retrain=True)
            qm_st, qm_wg = common.quantized_pair(prep, WIDTH, self.profile)
            probe.first_submit = time.perf_counter()  # no campaign follows
            outputs = {
                "float_accuracy": prep.float_accuracy,
                "fault_free_accuracy": {
                    qm.conv_mode: qm.metadata["fault_free_accuracy"]
                    for qm in (qm_st, qm_wg)
                },
            }
            save_json(common.results_dir() / "train_cold.json", outputs)
        end = time.perf_counter()
        if probe.first_submit is None:
            raise CheckFailed(f"{self.name}: no campaign batch was submitted")
        setup = probe.first_submit - start
        if self.warm:
            count = probe.inferences - inferences
            seconds = end - probe.first_submit
        else:
            count = probe.eval_inferences - eval_n
            seconds = probe.eval_s - eval_s
        return PassResult(setup, end - start, count, seconds, outputs)

    def setup_only(self) -> float:
        """Seconds for one more warm setup: data, model, weights, quantization."""
        start = time.perf_counter()
        prep = common.prepare_benchmark(BENCHMARK, self.profile)
        common.quantized_pair(prep, WIDTH, self.profile)
        return time.perf_counter() - start

    def check(self, result: PassResult, references: dict) -> str:
        """Compare a pass's outputs with the frozen reference; returns a summary."""
        if self.warm:
            if self.probe.train_calls:
                raise CheckFailed(
                    f"{self.name}: trained {self.probe.train_calls} time(s); "
                    "the pinned weights were not used"
                )
            found = digest(result.outputs)
            expected = references[self.name].get(str(self.seed_class))
            if found != expected:
                raise CheckFailed(
                    f"{self.name} seed class {self.seed_class}: digest {found} "
                    f"!= frozen {expected}"
                )
            return f"digest {found}"
        got = result.outputs
        want = references[self.name]
        pairs = [(got["float_accuracy"], want["float_accuracy"])] + [
            (got["fault_free_accuracy"].get(mode, -1.0), accuracy)
            for mode, accuracy in want["fault_free_accuracy"].items()
        ]
        if any(abs(g - w) > TRAIN_TOLERANCE for g, w in pairs):
            raise CheckFailed(
                f"train_cold accuracies {got} differ from {want} by more than "
                f"{TRAIN_TOLERANCE}"
            )
        return f"accuracies {got}"


def load_references() -> dict:
    """The frozen digests and accuracies."""
    return json.loads(REFERENCES.read_text())
