"""Shared experiment infrastructure: model zoo, profiles, BER sweeps.

Experiment drivers share five services:

* :func:`prepare_benchmark` — build, train (once, cached to
  ``results/models``) and package a benchmark network with its dataset;
* :func:`quantized_pair` — int8/int16 standard + Winograd quantizations;
* :func:`accuracy_curve` — accuracy-vs-BER sweeps on the campaign engine;
* :func:`accuracy_curve_pair` — the standard/Winograd curve pair of
  figs 2/6/7, on the fixed grid or adaptive;
* :class:`ExperimentProfile` — quick/full evaluation budgets.

Results are stored only in the engine's content-keyed checkpoint
(``results/checkpoints/campaign.json``); a figure reuses an earlier
sweep by resuming from it (CLI ``--resume``).

BER axis note (DESIGN.md §2): our width-scaled models execute fewer ops per
inference than the paper's full-size networks, so the same expected fault
count per inference (lambda) occurs at a proportionally higher BER.  Every
curve row carries both axes; voltage experiments calibrate the
voltage-BER model in lambda space.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import SyntheticDataset, make_dataset
from repro.faultsim import CampaignConfig, CampaignResult
from repro.runtime import CampaignEngine
from repro.stats import KneeConfig, StopRule, adaptive_sweep, knee_search
from repro.models import BENCHMARKS, build_benchmark_model
from repro.nn import Adam, TrainConfig, evaluate_accuracy, initialize, train
from repro.quantized import QuantConfig, QuantizedModel, quantize_model
from repro.utils.serialization import load_npz_state, save_npz_state

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
    "accuracy_curve_pair",
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
    retry=None,
) -> CampaignEngine:
    """Campaign engine with the default checkpoint under ``results_dir()``.

    The shared checkpoint file is safe across figures and models: points
    are keyed by a content hash of (model, campaign, BER, seed), for any
    worker count.  ``retry`` (a :class:`repro.runtime.RetryPolicy`; CLI
    ``--max-attempts`` / ``--unit-deadline``) sets the shared
    retry/backoff/deadline policy, which never changes completed results.
    """
    path = Path(checkpoint) if checkpoint else results_dir() / "checkpoints" / "campaign.json"
    return CampaignEngine(
        workers=workers,
        checkpoint_path=path,
        resume=resume,
        progress=progress,
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
        """Fault-free float accuracy on the test split.

        A fresh training sets it from its last evaluation; otherwise it is
        computed on first read.
        """
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

    prep = PreparedBenchmark(
        name=name,
        paper_label=bench.paper_label,
        graph=graph,
        dataset=dataset,
    )
    cache = results_dir() / "models" / f"{name}-seed{seed}.npz"
    if cache.exists() and not force_retrain:
        graph.load_state_dict(load_npz_state(cache))
    else:
        optimizer = Adam(graph, settings["lr"])
        trained = train(
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
        # train() evaluated this graph on this test split after its last
        # epoch; the cached-weights path keeps the property lazy.
        prep.float_accuracy = trained.final_eval_accuracy
    return prep


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


def accuracy_curve(
    qmodel: QuantizedModel,
    prep: PreparedBenchmark,
    bers: list[float],
    config: CampaignConfig,
    engine: CampaignEngine | None = None,
) -> list[CampaignResult]:
    """Accuracy-vs-BER sweep, one :class:`CampaignResult` per BER.

    Runs on ``engine`` (default: a serial engine without a checkpoint).
    Sweeps are reused across figures and runs only through the engine's
    content-keyed checkpoint, i.e. under ``resume=True`` (CLI
    ``--resume``).
    """
    return (engine or CampaignEngine(workers=1)).run_sweep(
        qmodel, prep.eval_x, prep.eval_y, bers, config
    )


def _adaptive_meta(mode: str, rule: StopRule, found, **window) -> dict:
    """One adaptive curve's metadata row (the result rows carry the accuracies)."""
    meta = {"mode": mode, "rule": rule.identity(), **window, **found.to_dict()}
    for point in meta["points"]:
        point.pop("result")
    return meta


def accuracy_curve_pair(
    prep: PreparedBenchmark,
    qm_st: QuantizedModel,
    qm_wg: QuantizedModel,
    profile: ExperimentProfile,
    engine: CampaignEngine | None = None,
    adaptive: StopRule | None = None,
) -> tuple[list[CampaignResult], list[CampaignResult], dict | None]:
    """Standard and Winograd accuracy-vs-BER curves on one BER axis.

    Returns ``(st_rows, wg_rows, meta)``.  Without ``adaptive`` both
    curves sweep the profile's fixed grid and ``meta`` is ``None``.
    With ``adaptive`` (CLI ``--adaptive-ber``) the standard curve's BERs
    come from a knee bisection over the grid's extremes
    (:func:`repro.stats.knee_search`, rows BER-ascending) and the
    Winograd curve is evaluated at those same BERs, each point
    early-stopped (:func:`repro.stats.adaptive_sweep`); ``meta`` is
    ``{"standard": ..., "winograd": ...}`` with each curve's per-point
    seed usage, stop decisions, intervals, the knee bracket and the unit
    totals.
    """
    config = profile.campaign()
    bers = list(profile.ber_grid)
    if adaptive is None:
        st = accuracy_curve(qm_st, prep, bers, config, engine=engine)
        wg = accuracy_curve(qm_wg, prep, bers, config, engine=engine)
        return st, wg, None
    knee = KneeConfig(lo=min(bers), hi=max(bers))
    found = knee_search(
        qm_st, prep.eval_x, prep.eval_y, knee,
        config=config, rule=adaptive, engine=engine,
    )
    grid = [p.ber for p in found.points]
    sweep = adaptive_sweep(
        qm_wg, prep.eval_x, prep.eval_y, grid,
        config=config, rule=adaptive, engine=engine,
    )
    meta = {
        "standard": _adaptive_meta("knee", adaptive, found, knee=knee.identity()),
        "winograd": _adaptive_meta("grid", adaptive, sweep, grid=grid),
    }
    return [p.result for p in found.points], [p.result for p in sweep.points], meta


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
