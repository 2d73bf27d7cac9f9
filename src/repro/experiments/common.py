"""Shared experiment infrastructure: model zoo, caching, profiles.

Experiment drivers share four services:

* :func:`prepare_benchmark` — build, train (once, cached to
  ``results/models``) and package a benchmark network with its dataset;
* :func:`quantized_pair` — int8/int16 standard + Winograd quantizations;
* :func:`accuracy_curve` — cached accuracy-vs-BER sweeps;
* :class:`ExperimentProfile` — quick/full evaluation budgets.

BER axis note (DESIGN.md §2): our width-scaled models execute fewer ops per
inference than the paper's full-size networks, so the same expected fault
count per inference (lambda) occurs at a proportionally higher BER.  Every
cached curve stores both axes; voltage experiments calibrate the
voltage-BER model in lambda space.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import SyntheticDataset, make_dataset
from repro.errors import ConfigurationError
from repro.faultsim import CampaignConfig, CampaignResult, run_sweep
from repro.runtime import CampaignEngine, adaptive_fingerprint
from repro.stats import KneeConfig, StopRule, adaptive_sweep, knee_search
from repro.models import BENCHMARKS, build_benchmark_model
from repro.nn import Adam, TrainConfig, evaluate_accuracy, initialize, train
from repro.quantized import QuantConfig, QuantizedModel, quantize_model
from repro.utils.serialization import load_json, load_npz_state, save_json, save_npz_state

__all__ = [
    "ExperimentProfile",
    "QUICK",
    "FULL",
    "PreparedBenchmark",
    "results_dir",
    "make_engine",
    "prepare_benchmark",
    "quantized_pair",
    "accuracy_curve",
    "adaptive_accuracy_curve",
    "pick_cliff_ber",
]


def results_dir() -> Path:
    """Root directory for cached artifacts (override with ``REPRO_RESULTS``)."""
    return Path(os.environ.get("REPRO_RESULTS", "results"))


def make_engine(
    workers: int | None = 1,
    resume: bool = False,
    checkpoint: str | Path | None = None,
    progress=None,
    sample_shard: int | str | None = None,
    retry=None,
) -> CampaignEngine:
    """Campaign engine with the default checkpoint under ``results_dir()``.

    The shared checkpoint file is safe across figures and models: points
    are keyed by a content hash of (model, campaign, BER, seed[, sample
    slice]).  ``sample_shard`` splits every (BER, seed) subtask into
    sample slices (CLI ``--shard-samples``), which changes wall-clock
    only, never results.  ``retry`` (a :class:`repro.runtime.RetryPolicy`;
    CLI ``--max-attempts`` / ``--unit-deadline``) sets the shared
    retry/backoff/deadline policy, which never changes completed results
    either.
    """
    path = Path(checkpoint) if checkpoint else results_dir() / "checkpoints" / "campaign.json"
    return CampaignEngine(
        workers=workers,
        checkpoint_path=path,
        resume=resume,
        progress=progress,
        sample_shard=sample_shard,
        retry=retry,
    )


@dataclass(frozen=True)
class ExperimentProfile:
    """Evaluation budget for an experiment run."""

    name: str
    eval_samples: int = 120
    calib_samples: int = 128
    seeds: tuple[int, ...] = (0, 1)
    batch_size: int = 60
    #: BER sweep for Fig. 2-style curves (0 is always prepended).
    ber_grid: tuple[float, ...] = (1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5)
    train_epochs: int = 8

    def campaign(self, injector: str = "operation") -> CampaignConfig:
        """Campaign configuration matching this profile."""
        return CampaignConfig(
            seeds=self.seeds,
            batch_size=self.batch_size,
            injector=injector,
            max_samples=self.eval_samples,
        )


QUICK = ExperimentProfile(
    name="quick",
    eval_samples=80,
    seeds=(0, 1),
    ber_grid=(3e-7, 1e-6, 3e-6, 1e-5, 3e-5),
)

FULL = ExperimentProfile(
    name="full",
    eval_samples=240,
    seeds=(0, 1, 2),
    ber_grid=(1e-8, 1e-7, 3e-7, 1e-6, 2e-6, 4e-6, 1e-5, 2e-5, 4e-5, 1e-4),
    train_epochs=10,
)


@dataclass
class PreparedBenchmark:
    """A trained benchmark network packaged with its data."""

    name: str
    paper_label: str
    graph: object
    dataset: SyntheticDataset

    @functools.cached_property
    def float_accuracy(self) -> float:
        """Fault-free float accuracy on the test split, computed on first read."""
        return evaluate_accuracy(self.graph, self.dataset.test_x, self.dataset.test_y)

    @property
    def eval_x(self) -> np.ndarray:
        return self.dataset.test_x

    @property
    def eval_y(self) -> np.ndarray:
        return self.dataset.test_y

    @property
    def calib_x(self) -> np.ndarray:
        return self.dataset.train_x


#: Width scalings per benchmark (keep the NumPy substrate tractable).
_TRAIN_SETTINGS: dict[str, dict] = {
    "vgg19": {"lr": 2e-3, "train_per_class": 48, "test_per_class": 14},
    "resnet50": {"lr": 2e-3, "train_per_class": 60, "test_per_class": 16},
    "googlenet": {"lr": 2e-3, "train_per_class": 56, "test_per_class": 26},
    "densenet169": {"lr": 2e-3, "train_per_class": 40, "test_per_class": 16},
}


def prepare_benchmark(
    name: str,
    profile: ExperimentProfile = QUICK,
    seed: int = 0,
    force_retrain: bool = False,
) -> PreparedBenchmark:
    """Build and train a benchmark model, caching weights on disk."""
    bench = BENCHMARKS[name]
    settings = _TRAIN_SETTINGS[name]
    dataset = make_dataset(
        bench.dataset,
        train_per_class=settings["train_per_class"],
        test_per_class=settings["test_per_class"],
    )
    graph = build_benchmark_model(name)
    initialize(graph, seed)

    cache = results_dir() / "models" / f"{name}-seed{seed}.npz"
    if cache.exists() and not force_retrain:
        graph.load_state_dict(load_npz_state(cache))
    else:
        optimizer = Adam(graph, settings["lr"])
        train(
            graph,
            optimizer,
            dataset.train_x,
            dataset.train_y,
            dataset.test_x,
            dataset.test_y,
            TrainConfig(
                epochs=profile.train_epochs,
                batch_size=64,
                target_accuracy=0.985,
            ),
        )
        save_npz_state(cache, graph.state_dict())

    return PreparedBenchmark(
        name=name,
        paper_label=bench.paper_label,
        graph=graph,
        dataset=dataset,
    )


def quantized_pair(
    prep: PreparedBenchmark,
    width: int,
    profile: ExperimentProfile = QUICK,
    wg_tile: int = 2,
) -> tuple[QuantizedModel, QuantizedModel]:
    """Standard and Winograd quantizations of a prepared benchmark."""
    config = QuantConfig(width=width, wg_tile=wg_tile)
    calib = prep.calib_x[: profile.calib_samples]
    qm_st = quantize_model(prep.graph, calib, config, "standard")
    qm_wg = quantize_model(prep.graph, calib, config, "winograd")
    for qm in (qm_st, qm_wg):
        qm.metadata["benchmark"] = prep.name
        qm.metadata["fault_free_accuracy"] = qm.evaluate(
            prep.eval_x[: profile.eval_samples], prep.eval_y[: profile.eval_samples]
        )
    return qm_st, qm_wg


def _curve_cache_key(qmodel: QuantizedModel, bers, config: CampaignConfig) -> str:
    payload = json.dumps(
        {
            "benchmark": qmodel.metadata.get("benchmark", qmodel.name),
            "mode": qmodel.conv_mode,
            "width": qmodel.config.width,
            "guard": qmodel.config.acc_guard,
            "tile": qmodel.config.wg_tile,
            "bers": list(map(float, bers)),
            "seeds": list(config.seeds),
            "samples": config.max_samples,
            "injector": config.injector,
            "semantics": config.fault_config.semantics.value,
            "convention": config.fault_config.convention.value,
            "amplify": config.fault_config.amplify_input_transform_adds,
            # Sampling protocol + chunking (see FaultModelConfig.rng_identity).
            **config.fault_config.rng_identity(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def accuracy_curve(
    qmodel: QuantizedModel,
    prep: PreparedBenchmark,
    bers: list[float],
    config: CampaignConfig,
    use_cache: bool = True,
    engine: CampaignEngine | None = None,
) -> list[CampaignResult]:
    """Accuracy-vs-BER sweep with JSON result caching.

    When ``engine`` is provided the sweep's (BER, seed) units are executed
    through the :class:`~repro.runtime.CampaignEngine` (sharded workers,
    point-level checkpoint/resume); results are bit-identical to the serial
    path, so the curve cache is shared between both.
    """
    key = _curve_cache_key(qmodel, bers, config)
    cache = results_dir() / "curves" / f"{key}.json"
    if use_cache and cache.exists():
        rows = load_json(cache)
        return [
            CampaignResult(
                ber=row["ber"],
                lam=row["lambda"],
                mean_accuracy=row["mean_accuracy"],
                std_accuracy=row["std_accuracy"],
                per_seed=row["per_seed"],
                events_per_seed=row["events_per_seed"],
            )
            for row in rows
        ]
    if engine is not None:
        results = engine.run_sweep(
            qmodel, prep.eval_x, prep.eval_y, bers, config=config
        )
    else:
        results = run_sweep(
            qmodel,
            prep.eval_x,
            prep.eval_y,
            bers,
            config=config,
        )
    save_json(cache, [r.to_dict() for r in results])
    return results


def _adaptive_point_meta(point) -> dict:
    """Per-point metadata row (the result rows carry the accuracies)."""
    row = point.to_dict()
    row.pop("result")
    return row


def adaptive_accuracy_curve(
    qmodel: QuantizedModel,
    prep: PreparedBenchmark,
    config: CampaignConfig,
    rule: StopRule,
    knee: KneeConfig | None = None,
    grid: list[float] | None = None,
    use_cache: bool = True,
    engine: CampaignEngine | None = None,
) -> tuple[list[CampaignResult], dict]:
    """Adaptive accuracy-vs-BER curve with JSON result caching.

    Exactly one of ``knee`` (BER-knee bisection chooses the points,
    :func:`repro.stats.knee_search`) and ``grid`` (explicit BER points,
    each early-stopped, :func:`repro.stats.adaptive_sweep`) must be
    given.  Returns ``(rows, meta)``: ``rows`` are ordinary
    :class:`CampaignResult` entries (BER-ascending in knee mode, grid
    order otherwise) and ``meta`` records the per-point seed usage, stop
    decisions, intervals, the knee bracket and the unit totals.

    The cache key is the fixed-grid curve key suffixed with
    :func:`repro.runtime.adaptive_fingerprint` over the stop rule and
    the knee window / grid — legacy fixed-grid cache files are never
    touched, and two adaptive runs differing only in ``round_seeds``
    (scheduling, not decisions) share one entry.  Unit-level checkpoint
    entries are shared with fixed-grid runs regardless.
    """
    if (knee is None) == (grid is None):
        raise ConfigurationError(
            "adaptive_accuracy_curve requires exactly one of knee= or grid="
        )
    base = _curve_cache_key(qmodel, [], config)
    suffix = adaptive_fingerprint(
        rule.identity(),
        knee.identity() if knee is not None else None,
        grid,
    )
    cache = results_dir() / "curves" / f"{base}-a{suffix}.json"
    if use_cache and cache.exists():
        doc = load_json(cache)
        rows = [
            CampaignResult(
                ber=row["ber"],
                lam=row["lambda"],
                mean_accuracy=row["mean_accuracy"],
                std_accuracy=row["std_accuracy"],
                per_seed=row["per_seed"],
                events_per_seed=row["events_per_seed"],
            )
            for row in doc["rows"]
        ]
        return rows, doc["meta"]
    if knee is not None:
        found = knee_search(
            qmodel, prep.eval_x, prep.eval_y, knee,
            config=config, rule=rule, engine=engine,
        )
        points = found.points
        meta = {
            "mode": "knee",
            "rule": rule.identity(),
            "knee": knee.identity(),
            "knee_ber": found.knee_ber,
            "bracket": list(found.bracket) if found.bracket else None,
            "target_accuracy": found.target_accuracy,
            "rounds": found.rounds,
            "total_units": found.total_units,
            "computed_units": found.computed_units,
            "cached_units": found.cached_units,
            "points": [_adaptive_point_meta(p) for p in points],
        }
    else:
        sweep = adaptive_sweep(
            qmodel, prep.eval_x, prep.eval_y, list(grid),
            config=config, rule=rule, engine=engine,
        )
        points = sweep.points
        meta = {
            "mode": "grid",
            "rule": rule.identity(),
            "grid": [float(b) for b in grid],
            "rounds": sweep.rounds,
            "total_units": sweep.total_units,
            "computed_units": sweep.computed_units,
            "cached_units": sweep.cached_units,
            "points": [_adaptive_point_meta(p) for p in points],
        }
    rows = [p.result for p in points]
    save_json(cache, {"rows": [r.to_dict() for r in rows], "meta": meta})
    return rows, meta


def pick_cliff_ber(
    results: list[CampaignResult],
    fault_free_accuracy: float,
    target_fraction: float = 0.6,
) -> float:
    """BER whose accuracy is closest to ``target_fraction`` of fault-free.

    Fig. 3/4/5 operate "mid-cliff" (the paper's 3e-10 puts VGG19 at roughly
    55 % of its original accuracy); this selects the equivalent operating
    point on our scaled BER axis.
    """
    target = fault_free_accuracy * target_fraction
    best = min(results, key=lambda r: abs(r.mean_accuracy - target))
    return best.ber
