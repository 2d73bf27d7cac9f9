"""In-memory span recorder and the wrappers that trace each layer.

The program itself carries no tracing.  :func:`instrument` wraps the
public entry points of each layer (module functions, class methods and
the kernel-backend singletons) from the outside, records one span per
call — name, start, end, parent — in memory, and restores every
original on exit.  Counts that only the arguments or results reveal
(computed kernel work, fault events, planner iterations, training
epochs) are accumulated by the same wrappers.

A span's self time is its duration minus the time its direct children
cover; summed over all spans, self times never exceed the root span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Kernel-backend protocol methods, one traced stage each.
BACKEND_STAGES = (
    "filter_transform",
    "input_transform",
    "output_transform",
    "channel_reduce",
    "im2col_gemm",
    "linear_gemm",
    "requantize",
)
#: GEMM stages -> (argument index, axis) of the contraction length.
GEMM_CONTRACTION = {
    "channel_reduce": (0, 1),  # u (N, C, T, t, t): C
    "im2col_gemm": (0, 1),  # weight2d (K, C*R*S): C*R*S
    "linear_gemm": (1, 1),  # weight (K, F): F
}
#: Backends whose singletons are wrapped: every bit-identical backend
#: that can be selected without optional dependencies.
TRACED_BACKENDS = ("reference", "optimized")


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        """Open a span as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, ``index``."""
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``.

        ``busy_s`` sums the durations of spans with no ancestor of the
        same name, so a call nested in a same-named call is not counted
        twice.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = rows[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["busy_s"] += end - start
        return rows


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object, bool]] = []
        #: Entry points the program does not have (their metrics read 0).
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, make_wrapper, label: str) -> None:
        """Set ``owner.attr = make_wrapper(owner.attr)``, noting absent ones."""
        if not hasattr(owner, attr):
            self.missing.append(label)
            return
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def spanning(tracer: Tracer, name: str, after=None):
    """Wrapper factory: one span per call, then ``after(args, kwargs, result)``."""

    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    return make


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _backend_work(counters, stage: str):
    """Computed kernel work of one backend stage, from shapes alone.

    ``mb_computed`` is the size of every array argument plus the result;
    ``gmac`` is the result size times the contraction length.  Both are
    derived from shapes and dtypes, not measured memory traffic.
    """
    contraction = GEMM_CONTRACTION.get(stage)

    def after(args, kwargs, result):
        counters[f"backends.{stage}.mb_computed"] += (
            _nbytes(args) + _nbytes(kwargs.values()) + result.nbytes
        ) / 1e6
        if contraction is not None:
            arg, axis = contraction
            counters[f"backends.{stage}.gmac"] += (
                result.size * args[arg].shape[axis] / 1e9
            )

    return after


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


@contextmanager
def instrument(tracer: Tracer):
    """Trace every layer entry point for the duration of the block."""
    from repro.backends import get_backend

    patcher = Patcher()
    counters = tracer.counters

    def site(module: str, attr: str, name: str, after=None, owner: str = ""):
        label = ".".join(filter(None, (module, owner, attr)))
        try:
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
        except (ImportError, AttributeError):
            patcher.missing.append(label)
            return
        patcher.wrap(target, attr, spanning(tracer, name, after), label)

    def count(key: str, field: str):
        def after(args, kwargs, result):
            counters[key] += getattr(result, field)

        return after

    for backend_name in TRACED_BACKENDS:
        backend = get_backend(backend_name)
        for stage in BACKEND_STAGES:
            patcher.wrap(
                backend,
                stage,
                spanning(tracer, f"backends.{stage}", _backend_work(counters, stage)),
                f"{backend_name}.{stage}",
            )

    site("repro.quantized.qops", "winograd_conv2d_int", "winograd.conv2d_int")
    site("repro.quantized.qmodel", "forward_trace", "quantized.forward",
         owner="QuantizedModel")

    site("repro.faultsim.sampling", "site_events", "faultsim.site_events",
         owner="CounterSampler")
    for attr in ("visit_direct", "visit_linear", "visit_winograd"):
        site("repro.faultsim.operation_level", attr, "faultsim.inject.operation",
             owner="OperationLevelInjector")
    site("repro.faultsim.neuron_level", "visit_output", "faultsim.inject.neuron",
         owner="NeuronLevelInjector")
    site("repro.runtime.engine", "_evaluate_unit", "faultsim.unit",
         count("faultsim.events", "events"))
    site("repro.runtime.engine", "build_golden_run", "faultsim.golden_build")
    site("repro.faultsim.campaign", "replay_forward", "faultsim.replay_forward")

    site("repro.runtime.engine", "evaluate_tasks", "runtime.evaluate_tasks",
         owner="CampaignEngine")
    site("repro.runtime.checkpoint", "put", "runtime.checkpoint.put",
         owner="CampaignCheckpoint")
    store = importlib.import_module("repro.runtime.checkpoint").CampaignCheckpoint

    def flush_with_size(fn):
        traced = spanning(tracer, "runtime.checkpoint.flush")(fn)

        @functools.wraps(fn)
        def flush(self, *args, **kwargs):
            before = _file_size(self.path)
            try:
                return traced(self, *args, **kwargs)
            finally:
                counters["runtime.checkpoint.mb_written"] += (
                    _file_size(self.path) - before
                ) / 1e6

        return flush

    patcher.wrap(store, "flush", flush_with_size, "CampaignCheckpoint.flush")

    site("repro.tmr.schemes", "layer_vulnerability", "analysis.layer_vulnerability")
    site("repro.tmr.schemes", "plan_tmr", "tmr.plan_tmr",
         count("tmr.plan_tmr.iterations", "iterations"))

    common = "repro.experiments.common"
    site(common, "train", "nn.train", count("nn.train.epochs", "epochs_run"))
    site("repro.nn.trainer", "forward_backward", "nn.forward_backward")
    site(common, "quantize_model", "quantized.quantize_model")
    for module in (common, "repro.experiments.fig1", "repro.experiments.fig5"):
        site(module, "prepare_benchmark", "experiments.prepare_benchmark")
        site(module, "quantized_pair", "experiments.quantized_pair")
    try:
        yield patcher
    finally:
        patcher.restore()
