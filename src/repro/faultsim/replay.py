"""Golden-run activation cache + dirty-sample replay executor.

Every campaign subtask reruns the *entire* clean integer forward — tile
transforms, the channel-reduction GEMM, requantization — for every
(BER, seed, plan) point, even though the paper's fault model injects rare
Poisson events as additive accumulator deltas: at the operating points of
figs 2–7 most samples in most layers are bit-identical to the fault-free
pass.  This module exploits that sparsity:

1. :func:`build_golden_run` executes the fault-free forward **once** per
   (model, evaluation window) and caches, per node, the clean output —
   plus a *site census* (one :class:`SiteSpec` per injection site,
   recorded by a no-op injector riding the same pass) that tells the
   replay executor how many operations each site exposes per sample.
2. :func:`replay_forward` re-evaluates the model under a live injector by
   recomputing, per layer, only the **dirty set**: samples whose input
   already differs from the clean pass, plus samples the layer's own
   fault draws strike.  Which samples are struck is a pure function of
   (campaign seed, layer, site, sample chunk) —
   :meth:`CounterSampler.struck_samples` replays only the count
   and offset draws, no operand values needed — so the executor knows the
   recompute set *before* computing anything.  The dirty subset is
   gathered, pushed through the existing kernels with the existing
   injector (pinned to the subset's global rows), and scattered into a
   copy of the cached clean output.

Bit-identity with the full forward follows from two properties the
fault sampler guarantees: draws are keyed by *what* is sampled
(never by batch shape), and register widths are sized per sample.  The
only value-dependent choices left — the float64-vs-int64 fast paths of
the exact GEMMs — are exact on both branches.  The parity suite
(``tests/test_replay_parity.py``) pins accuracy, total events and
per-category event counts against the non-replay path.  BER = 0
evaluations need no forward at all: they are pure lookups of the cached
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.faultsim.model import BerConvention, FaultModelConfig
from repro.faultsim.neuron_level import NeuronLevelInjector
from repro.faultsim.operation_level import OperationLevelInjector
from repro.quantized.qmodel import QuantizedModel

__all__ = [
    "SiteSpec",
    "GoldenRun",
    "ReplayStats",
    "build_golden_run",
    "replay_forward",
]

_EMPTY_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class SiteSpec:
    """Census entry for one injection site of one layer.

    ``category`` is the protection/diagnostics bucket, ``site`` the unique
    draw-stream name within the layer, ``ops_per_sample`` the site's
    per-sample operation count and ``exposure`` the already-resolved
    bits-per-op factor.  Everything the struck-sample probe needs; nothing
    value-dependent.
    """

    category: str
    site: str
    ops_per_sample: int
    exposure: int


@dataclass
class GoldenRun:
    """Cached fault-free forward of one model over one evaluation set.

    Attributes
    ----------
    outputs:
        Per-node clean activations over the full evaluation window, in
        topological order — the scatter targets of the replay executor.
    preds:
        Clean argmax predictions (BER = 0 evaluations are lookups here).
    census:
        Per-layer tuple of :class:`SiteSpec` for every injection site the
        configured injector kind visits.
    injector:
        Campaign injector kind the census was recorded for
        (``"operation"`` or ``"neuron"``).
    fault_config:
        Fault model the census was recorded under (its semantics /
        convention / ablation flags shape the census; RNG fields do not).
    n_samples:
        Evaluation-window length (post ``max_samples`` trim).
    key:
        Optional content key (:func:`repro.runtime.hashing.golden_key`)
        binding model + data + census identity; the engine uses it to
        share one golden run across protection plans and analyses.
    """

    outputs: dict[str, np.ndarray]
    preds: np.ndarray
    census: dict[str, tuple[SiteSpec, ...]]
    injector: str
    fault_config: FaultModelConfig
    n_samples: int
    key: str | None = None

    def check(self, injector_kind: str, fault_config: FaultModelConfig, n: int) -> None:
        """Validate that this cache matches an evaluation's identity.

        Model/data identity is the caller's contract (the engine binds it
        through :func:`~repro.runtime.hashing.golden_key`); this guards
        the structural parts a direct caller could plausibly get wrong.
        """
        if n != self.n_samples:
            raise ConfigurationError(
                f"golden run caches {self.n_samples} samples, evaluation "
                f"carries {n}"
            )
        if injector_kind != self.injector:
            raise ConfigurationError(
                f"golden run census was recorded for the '{self.injector}' "
                f"injector, evaluation uses '{injector_kind}'"
            )
        fc = self.fault_config
        same_census = (
            fault_config.semantics is fc.semantics
            and fault_config.convention is fc.convention
            and fault_config.amplify_input_transform_adds
            == fc.amplify_input_transform_adds
        )
        if not same_census:
            raise ConfigurationError(
                "golden run census was recorded under a different fault "
                "model (semantics/convention/ablation flags differ)"
            )


@dataclass
class ReplayStats:
    """Optional per-layer replay diagnostics (tests and benchmarks).

    ``recomputed[name]`` counts the samples gathered for a node's forward
    and ``dirty[name]`` the subset whose recomputed output actually
    differs from the clean cache (faults can vanish in requantization).
    """

    recomputed: dict[str, int] = field(default_factory=dict)
    dirty: dict[str, int] = field(default_factory=dict)

    def record(self, name: str, recomputed: int, dirty: int) -> None:
        """Log one node's replay footprint."""
        self.recomputed[name] = recomputed
        self.dirty[name] = dirty

    @property
    def total_recomputed(self) -> int:
        """Sample-forwards actually executed across all nodes."""
        return sum(self.recomputed.values())


class _OperationCensusRecorder(OperationLevelInjector):
    """No-op operation-level injector that records the site census.

    Rides the golden forward: every ``_site_events`` call is intercepted
    before any randomness or operand value is touched, its static
    parameters recorded, and ``None`` returned — so the pass stays
    fault-free and near zero-cost while visiting exactly the sites a real
    injection would visit (including ablation-dependent site layouts).
    """

    #: The census needs no Winograd intermediates (see ``qops``).
    needs_intermediates = False

    def __init__(self, config: FaultModelConfig):
        super().__init__(0.0, seed=0, config=config)
        self.census: dict[str, dict[str, SiteSpec]] = {}

    def _site_events(
        self, layer_name, category, site, n_batch, ops_per_sample,
        exposure_bits, highs, with_signs=False,
    ):
        self.census.setdefault(layer_name, {})[site] = SiteSpec(
            category=category,
            site=site,
            ops_per_sample=int(ops_per_sample),
            exposure=int(exposure_bits),
        )
        return None


class _NeuronCensusRecorder(NeuronLevelInjector):
    """No-op neuron-level injector that records the (single-site) census."""

    needs_intermediates = False

    def __init__(self, config: FaultModelConfig):
        super().__init__(0.0, seed=0, config=config)
        self.census: dict[str, dict[str, SiteSpec]] = {}

    def visit_output(self, layer, y_int):
        width = layer.out_fmt.width
        exposure = 1 if self.config.convention is BerConvention.PER_OP else width
        n = y_int.shape[0]
        self.census.setdefault(layer.name, {})["neuron"] = SiteSpec(
            category="neuron",
            site="neuron",
            ops_per_sample=int(y_int.size // n) if n else 0,
            exposure=int(exposure),
        )
        return y_int


def build_golden_run(
    qmodel: QuantizedModel,
    x: np.ndarray,
    injector_kind: str = "operation",
    fault_config: FaultModelConfig | None = None,
    batch_size: int = 128,
    key: str | None = None,
) -> GoldenRun:
    """Run the fault-free forward once and cache everything replay needs.

    One batched pass produces both artifacts: the per-node clean
    activations (concatenated over batches — clean outputs are
    batch-invariant) and the injection-site census, recorded by a no-op
    injector attached to the same pass.  ``x`` must already be trimmed to
    the evaluation window (the engine passes the post-``max_samples``
    view); ``fault_config`` shapes the census (ablation flags change the
    site layout) but no randomness is consumed.
    """
    fault_config = fault_config or FaultModelConfig()
    if injector_kind == "neuron":
        recorder = _NeuronCensusRecorder(fault_config)
    elif injector_kind == "operation":
        recorder = _OperationCensusRecorder(fault_config)
    else:
        raise ConfigurationError(f"unknown injector kind '{injector_kind}'")

    chunks: dict[str, list[np.ndarray]] = {node.name: [] for node in qmodel.nodes}
    for start in range(0, len(x), batch_size):
        values = qmodel.forward_trace(x[start : start + batch_size], recorder)
        for name, value in values.items():
            chunks[name].append(value)
    outputs = {name: np.concatenate(parts) for name, parts in chunks.items()}
    census = {
        name: tuple(sites.values()) for name, sites in recorder.census.items()
    }
    return GoldenRun(
        outputs=outputs,
        preds=np.argmax(outputs[qmodel.output_name], axis=1),
        census=census,
        injector=injector_kind,
        fault_config=fault_config,
        n_samples=len(x),
        key=key,
    )


def replay_forward(
    qmodel: QuantizedModel,
    golden: GoldenRun,
    injector,
    window: tuple[int, int],
    stats: ReplayStats | None = None,
) -> np.ndarray:
    """Faulty predictions for one sample window via dirty-set replay.

    Walks the graph in topological order maintaining, per node, the set
    of *dirty* global sample rows (rows whose value differs from the
    golden run) and their values.  At each layer carrying injection
    sites, the probe (:meth:`~OperationLevelInjector.replay_struck`)
    extends the recompute set with this layer's event-struck samples;
    the subset is gathered (cache values for clean rows, dirty values
    otherwise), pushed through the node's ordinary ``forward`` with the
    injector pinned to the subset's global rows, and diffed against the
    cache — rows whose output survives unchanged (faults can die in
    requantization or ReLU) drop back out of the dirty set.  Returns the
    window's predictions; the injector's ``event_counts`` accumulate
    exactly the events a full forward over the window would count.
    """
    start, stop = int(window[0]), int(window[1])
    if not 0 <= start < stop <= golden.n_samples:
        raise ConfigurationError(
            f"replay window [{start}, {stop}) out of range for "
            f"{golden.n_samples} cached samples"
        )

    dirty_rows: dict[str, np.ndarray] = {}
    dirty_vals: dict[str, np.ndarray] = {}

    def gather(name: str, rows: np.ndarray) -> np.ndarray:
        """Node values at ``rows``: cache, overlaid with dirty values."""
        base = golden.outputs[name][rows]
        src = dirty_rows[name]
        if src.size:
            base[np.searchsorted(rows, src)] = dirty_vals[name]
        return base

    for node in qmodel.nodes:
        name = node.name
        if node.op == "QInput":
            # Network input is never perturbed: always clean.
            dirty_rows[name] = _EMPTY_ROWS
            continue
        rows = _EMPTY_ROWS
        for src in node.inputs:
            upstream = dirty_rows[src]
            rows = upstream if rows.size == 0 else np.union1d(rows, upstream)
        sites = golden.census.get(name) if injector is not None else None
        if sites:
            struck = injector.replay_struck(name, sites, start, stop)
            if struck.size:
                rows = np.union1d(rows, struck)
        if rows.size == 0:
            dirty_rows[name] = _EMPTY_ROWS
            if stats is not None:
                stats.record(name, 0, 0)
            continue
        xs = [gather(src, rows) for src in node.inputs]
        if sites:
            injector.set_replay_rows(rows)
            out = node.forward(xs, injector)
        else:
            out = node.forward(xs)
        clean = golden.outputs[name][rows]
        changed = np.any(
            (out != clean).reshape(len(rows), -1), axis=1
        )
        dirty_rows[name] = rows[changed]
        dirty_vals[name] = out[changed]
        if stats is not None:
            stats.record(name, int(len(rows)), int(changed.sum()))

    preds = golden.preds[start:stop].copy()
    out_rows = dirty_rows[qmodel.output_name]
    if out_rows.size:
        preds[out_rows - start] = np.argmax(dirty_vals[qmodel.output_name], axis=1)
    return preds
