"""Algorithm-based fault tolerance (ABFT): checksum detection + correction.

The paper positions Winograd's inherent tolerance against conventional
protection schemes; its related work covers checksum-based ABFT for
convolutions (Kosaian & Rashmi, 2021) and Sanity-Check's spatial checksums
(Ozen & Orailoglu, 2019), and the journal extension (arXiv 2308.08230)
makes ABFT a full competitor in the protection-cost tradeoff.  This module
implements the classic output-channel checksum for the quantized
GEMM/convolution layers:

For a convolution ``y[k] = sum_{c,r,s} w[k,c,r,s] * x[c,r,s] + b[k]`` the
channel-summed filter ``w_sum = sum_k w[k]`` satisfies, for every output
position, ``sum_k y[k] = conv(x, w_sum) + sum_k b[k]`` *exactly* in integer
arithmetic.  Any operation-level fault that perturbs one output's
accumulator breaks the identity at that position, so comparing the two
sides detects (and spatially locates) faults with one extra output
channel's worth of compute.  Both sides are computed with pure int64
contractions (:func:`repro.backends.cached_einsum` and the reference
backend's ``channel_reduce``) — a float64 path would silently round past
2^53 and flag *clean* positions, breaking the exactness contract in
precisely the int64-accumulator regime the campaign operates in.

:class:`AbftChecker` plays two roles:

* **coverage baseline** — ``AbftChecker(inner)`` checks every layer,
  detection-only, and :func:`detection_coverage` summarizes the report;
* **engine-grade protection** — ``AbftChecker(inner, layers=..,
  correct=True)`` checks only the plan's ABFT layers and *repairs* flagged
  accumulator positions from a pre-injection snapshot (detect ⇒ recompute).
  It exposes merged ``event_counts``, so ABFT-protected campaign points
  run through the pool and sample sharding unchanged.

Limitations mirror real ABFT: faults that cancel within a checksum group
escape detection, post-requantization neuron flips are outside the
accumulator checksum's protection domain, and the checksum computation
itself is assumed protected (it would otherwise need its own redundancy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FaultModelError
from repro.quantized.interface import Injector
from repro.quantized.qmodel import QuantizedModel
from repro.backends import cached_einsum
from repro.backends.reference import channel_reduce
from repro.quantized.qops import QConvDirect
from repro.winograd.tiling import assemble_tiles

__all__ = ["AbftReport", "AbftChecker"]


@dataclass
class AbftReport:
    """Detection outcome for one checked inference batch."""

    #: Per-layer count of output positions whose checksum mismatched.
    detections: dict[str, int]
    #: Per-layer count of checked output positions.
    checked: dict[str, int]

    @property
    def total_detections(self) -> int:
        """Output positions flagged across all layers."""
        return sum(self.detections.values())

    @property
    def any_fault_detected(self) -> bool:
        """True when at least one checksum mismatched."""
        return self.total_detections > 0

    def detection_rate(self, layer: str) -> float:
        """Fraction of a layer's checked positions that flagged."""
        checked = self.checked.get(layer, 0)
        return self.detections.get(layer, 0) / checked if checked else 0.0


class AbftChecker(Injector):
    """Checksum-verifying (and optionally correcting) injector wrapper.

    Wraps an inner injector (or none, for false-positive testing): after the
    inner injector perturbs a layer's accumulator, the checker recomputes
    the channel checksum from the (uncorrupted) inputs and compares.  Usage::

        checker = AbftChecker(OperationLevelInjector(ber, seed=0))
        qmodel.forward(x, injector=checker)
        report = checker.report()

    Parameters
    ----------
    inner:
        Injector whose faults are being checked; ``None`` runs the checker
        against a clean forward (false-positive measurement).
    layers:
        Names of the layers to check.  ``None`` (the default) checks every
        injectable layer — the coverage-baseline mode.  A campaign plan's
        :attr:`~repro.faultsim.protection.ProtectionPlan.abft_layers`
        restricts checking (and correction cost) to the protected subset;
        unchecked layers pass straight through to ``inner``.
    correct:
        When True, every output position whose checksum mismatches has
        *all* of its output channels restored from a pre-injection
        snapshot of the accumulator — the standard ABFT detect-⇒-recompute
        response.  Faults that cancel within a checksum group still
        escape.

    The checker is engine-compatible: :attr:`event_counts` merges the
    inner injector's per-category counts with ``abft_detected`` /
    ``abft_corrected``.
    """

    def __init__(
        self,
        inner: Injector | None = None,
        layers: frozenset[str] | None = None,
        correct: bool = False,
    ):
        self.inner = inner
        self.layers = frozenset(layers) if layers is not None else None
        self.correct = bool(correct)
        self._detections: dict[str, int] = {}
        self._checked: dict[str, int] = {}
        self._events: dict[str, int] = {}

    # --- bookkeeping -----------------------------------------------------------
    def report(self) -> AbftReport:
        """Detection summary accumulated since construction."""
        return AbftReport(dict(self._detections), dict(self._checked))

    @property
    def event_counts(self) -> dict[str, int]:
        """Inner injector's fault events merged with ABFT outcome events.

        ``abft_detected`` counts flagged output positions and
        ``abft_corrected`` the subset restored from the clean snapshot;
        the category names never collide with the injectors' site
        categories, so ``sum(event_counts.values())`` still includes every
        injected fault.
        """
        merged: dict[str, int] = {}
        if self.inner is not None and hasattr(self.inner, "event_counts"):
            merged.update(self.inner.event_counts)
        for category, count in self._events.items():
            merged[category] = merged.get(category, 0) + count
        return merged

    def _record(self, layer_name: str, mismatches: int, checked: int) -> None:
        """Accumulate per-layer detection/checked counters."""
        self._detections[layer_name] = self._detections.get(layer_name, 0) + mismatches
        self._checked[layer_name] = self._checked.get(layer_name, 0) + checked

    def _active(self, layer) -> bool:
        """Whether this layer is in the checked set."""
        return self.layers is None or layer.name in self.layers

    # --- injector protocol ------------------------------------------------------
    def begin_inference(self, batch_size: int) -> None:
        """Forward the batch boundary to the inner injector."""
        if self.inner is not None:
            self.inner.begin_inference(batch_size)

    def visit_direct(self, layer, x_int, cols, acc):
        """Check (and optionally repair) a direct convolution accumulator."""
        if not self._active(layer):
            if self.inner is not None:
                self.inner.visit_direct(layer, x_int, cols, acc)
            return
        expected = self._conv_checksum(layer, cols, acc.shape)
        snapshot = acc.copy() if self.correct else None
        if self.inner is not None:
            self.inner.visit_direct(layer, x_int, cols, acc)
        self._check(layer, acc, acc.sum(axis=1), expected, snapshot)

    def visit_linear(self, layer, x_int, acc):
        """Check (and optionally repair) a linear layer accumulator."""
        if not self._active(layer):
            if self.inner is not None:
                self.inner.visit_linear(layer, x_int, acc)
            return
        # Pure int64 contraction: the float64 path this replaces rounded
        # past 2^53 and false-detected on clean accumulators.
        w_sum = layer.weight_int.sum(axis=0, dtype=np.int64)
        x64 = np.ascontiguousarray(x_int, dtype=np.int64)
        expected = cached_einsum(
            "nr,r->n", x64, w_sum, key=(x64.shape[1:], w_sum.shape)
        )
        expected = expected + int(layer.bias_acc.sum())
        snapshot = acc.copy() if self.correct else None
        if self.inner is not None:
            self.inner.visit_linear(layer, x_int, acc)
        self._check(layer, acc, acc.sum(axis=1), expected, snapshot)

    def visit_winograd(self, layer, sub_contexts, y_scaled):
        """Check (and optionally repair) a Winograd scaled-output tensor.

        The checksum lives in the scaled output domain: sum the transformed
        filters over output channels and rerun the (cheap) single-channel
        pipeline per sub-convolution.
        """
        if not self._active(layer):
            if self.inner is not None:
                self.inner.visit_winograd(layer, sub_contexts, y_scaled)
            return
        if not sub_contexts:
            raise FaultModelError(
                f"ABFT checksum for '{layer.name}' needs at least one "
                "Winograd sub-convolution context; got none"
            )
        checksum = None
        for spec, ctx in sub_contexts:
            if ctx.u_int is None:
                raise FaultModelError(
                    f"ABFT checksum for '{layer.name}' needs the transformed "
                    "input (u_int=None): run the forward with "
                    "keep_intermediates=True"
                )
            # (t*t, 1, C); exact-integer filters of either dtype, summed in int64.
            v_sum = ctx.v_int.sum(axis=1, keepdims=True, dtype=np.int64)
            part = self._winograd_checksum(ctx, v_sum)
            checksum = part if checksum is None else checksum + part
        h, w = y_scaled.shape[2], y_scaled.shape[3]
        checksum = checksum[:, 0, :h, :w]
        checksum = checksum + int(layer.bias_acc.sum()) * layer.transform.output_scale_2d
        snapshot = y_scaled.copy() if self.correct else None
        if self.inner is not None:
            self.inner.visit_winograd(layer, sub_contexts, y_scaled)
        self._check(layer, y_scaled, y_scaled.sum(axis=1), checksum, snapshot)

    def visit_output(self, layer, y_int):
        """Pass the requantized output through the inner injector.

        Post-requantization neuron flips happen *after* the accumulator
        checksum, so they are outside ABFT's protection domain — the
        checker deliberately does not re-verify here.
        """
        if self.inner is not None:
            return self.inner.visit_output(layer, y_int)
        return y_int

    # --- checksum kernels --------------------------------------------------------
    @staticmethod
    def _conv_checksum(layer: QConvDirect, cols: np.ndarray, acc_shape) -> np.ndarray:
        """Exact int64 channel checksum of a direct convolution batch.

        ``cols`` is the strided ``(N, C, R, S, P, Q)`` patches view.
        """
        w_sum = layer.weight_int.sum(axis=0, dtype=np.int64)  # (C, R, S)
        n = acc_shape[0]
        cols64 = np.ascontiguousarray(cols, dtype=np.int64).reshape(
            n, w_sum.size, -1
        )
        checksum = cached_einsum(
            "r,nrp->np", w_sum.reshape(-1), cols64,
            key=(w_sum.size, cols64.shape[1:]),
        )
        checksum = checksum + int(layer.bias_acc.sum())
        return checksum.reshape(n, acc_shape[2], acc_shape[3])

    @staticmethod
    def _winograd_checksum(ctx, v_sum: np.ndarray) -> np.ndarray:
        """Single-channel Winograd pipeline on the channel-summed filters.

        ``ctx.u_int`` holds exact integers, int64 or float64; the
        reference ``channel_reduce`` casts it to int64 on entry.
        """
        tf = ctx.transform
        m_arr = channel_reduce(ctx.u_int, v_sum)  # (t*t, 1, N*T) int64
        at = tf.at_int
        t = tf.t
        y_tiles = np.einsum("ui,vj,ijx->uvx", at, at, m_arr.reshape(t, t, -1))
        return assemble_tiles(y_tiles.reshape(tf.m * tf.m, 1, -1), ctx.grid)

    def _check(self, layer, acc, actual, expected, snapshot) -> None:
        """Compare channel sums against the checksum; repair on mismatch.

        ``actual`` is the post-injection channel sum (output-channel axis
        already reduced), ``expected`` the clean-side checksum.  With a
        ``snapshot`` (correction mode), every flagged position has all of
        its output channels restored from the pre-injection accumulator.
        """
        if actual.shape != expected.shape:
            raise FaultModelError(
                f"ABFT shape mismatch on '{layer.name}': "
                f"{actual.shape} vs {expected.shape}"
            )
        mismatch = actual != expected
        mismatches = int(np.count_nonzero(mismatch))
        self._record(layer.name, mismatches, actual.size)
        if not mismatches:
            return
        self._events["abft_detected"] = (
            self._events.get("abft_detected", 0) + mismatches
        )
        if snapshot is None:
            return
        if acc.ndim == 2:  # linear: (N, F), mismatch over (N,)
            rows = np.nonzero(mismatch)[0]
            acc[rows] = snapshot[rows]
        else:  # conv: (N, K, H, W), mismatch over (N, H, W)
            n_idx, h_idx, w_idx = np.nonzero(mismatch)
            acc[n_idx, :, h_idx, w_idx] = snapshot[n_idx, :, h_idx, w_idx]
        self._events["abft_corrected"] = (
            self._events.get("abft_corrected", 0) + mismatches
        )


def detection_coverage(
    qmodel: QuantizedModel,
    x: np.ndarray,
    inner_injector: Injector,
) -> AbftReport:
    """Run one checked inference and return the detection report.

    Note: Winograd layers must retain intermediates (they do whenever an
    injector is attached), so coverage measurement has the same memory
    profile as fault injection itself.
    """
    checker = AbftChecker(inner_injector)
    qmodel.forward(x, injector=checker)
    return checker.report()
