"""Frozen digests of injected layer outputs on synthetic integer layers.

The differential suite compares the ``optimized`` backend against the
``reference`` oracle, but both sides share one fault injector, so an
event that lands on the wrong (image, channel, tile, element) passes it.
These pins close that gap: every layer is built from integer draws only
(no training, no float weights), every fault event is a keyed draw, and
the backends are bit-exact, so the injected accumulators and outputs
are portable literals.  They were recorded before the Winograd stages
moved to the position-major layout and must hold after any change to
where the kernels keep their intermediates.

Three layers cover the injector's three paths:

* ``wg`` — a 3x3 Winograd conv, ``F(2, 3)``, on a 7x9 input, so the tile
  grid has partial tiles on both axes;
* ``dwm`` — a 5x5 stride-2 Winograd conv, ``F(4, 3)``, which the DWM
  splits into four sub-convolutions;
* ``direct`` — a 3x3 stride-2 im2col conv.

Each runs under three injectors: the operation-level injector with the
paper's semantics, the same with ``amplify_input_transform_adds``, and
an ``AbftChecker(correct=True)`` wrapping the first.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.faultsim import AbftChecker, FaultModelConfig, OperationLevelInjector
from repro.fixedpoint import QFormat
from repro.quantized.interface import Injector
from repro.quantized.qops import QConvDirect, QConvWinograd, conv_op_counts
from repro.utils.im2col import conv_output_size

BER = 1e-3
SEED = 3
BATCH = 3
IN_FMT = QFormat(16, 8)
W_FMT = QFormat(16, 12)
OUT_FMT = QFormat(16, 8)

#: name -> (mode, in_h, in_w, kernel, stride, padding, m)
LAYERS = {
    "wg": ("winograd", 7, 9, 3, 1, 1, 2),
    "dwm": ("winograd", 9, 11, 5, 2, 2, 4),
    "direct": ("standard", 7, 9, 3, 2, 1, 2),
}

#: (layer, injector) -> (SHA-256 of the injected accumulator and the
#: requantized output, the injector's event counts).
PINS = {
    ("direct", "paper"): (
        "ccd20a08dd7464cd185dc9de3f00d3f9f08a7f5c4c633f958c92312634dcf3d6",
        {"st_add": 211, "st_mul": 188},
    ),
    ("direct", "amplify"): (
        "ccd20a08dd7464cd185dc9de3f00d3f9f08a7f5c4c633f958c92312634dcf3d6",
        {"st_add": 211, "st_mul": 188},
    ),
    ("direct", "abft"): (
        "3ef1f1f917b878848190099d6741d271afaef0a1e42366aa2dd561ce9cef161e",
        {"abft_corrected": 60, "abft_detected": 60, "st_add": 211, "st_mul": 188},
    ),
    ("dwm", "paper"): (
        "b3a931e44f1ad6dbe35aeb3b309f870ef3019effc86cf4ebf42146f1fb8cea5e",
        {"wg_acc_add": 454, "wg_input_add": 917, "wg_mul": 651, "wg_output_add": 913},
    ),
    ("dwm", "amplify"): (
        "927c65ad5c66233ff02e76cb84541b02d0cd3beafeee7acdc8d9fe4ff5a38b0c",
        {"wg_acc_add": 454, "wg_input_add": 872, "wg_mul": 651, "wg_output_add": 913},
    ),
    ("dwm", "abft"): (
        "1fd2407611ee06e2aab101ffd116b56ae94e8bdc6bbc5121520d48dcf15274e3",
        {"abft_corrected": 90, "abft_detected": 90, "wg_acc_add": 454,
         "wg_input_add": 917, "wg_mul": 651, "wg_output_add": 913},
    ),
    ("wg", "paper"): (
        "f4ba2deb35f960757a8149bec0470a94cd2dcdb5911c3902765488157ba740a6",
        {"wg_acc_add": 268, "wg_input_add": 176, "wg_mul": 400, "wg_output_add": 195},
    ),
    ("wg", "amplify"): (
        "1f7128b5846955dd4d87544583b407bd12802125e542446c4e8f30e4cb3afa8c",
        {"wg_acc_add": 268, "wg_input_add": 198, "wg_mul": 400, "wg_output_add": 195},
    ),
    ("wg", "abft"): (
        "99a05079a20cf5fe720fa5f9a7111c10f2de83ce07b95b4fdf252edcc597443c",
        {"abft_corrected": 189, "abft_detected": 189, "wg_acc_add": 268,
         "wg_input_add": 176, "wg_mul": 400, "wg_output_add": 195},
    ),
}


class _Recorder(Injector):
    """Pass-through injector that keeps the post-injection accumulator."""

    def __init__(self, inner: Injector):
        self.inner = inner
        self.acc = None

    def begin_inference(self, batch_size):
        self.inner.begin_inference(batch_size)

    def visit_direct(self, layer, x_int, cols, acc):
        self.inner.visit_direct(layer, x_int, cols, acc)
        self.acc = acc.copy()

    def visit_winograd(self, layer, sub_contexts, y_scaled):
        self.inner.visit_winograd(layer, sub_contexts, y_scaled)
        self.acc = y_scaled.copy()

    def visit_output(self, layer, y_int):
        return self.inner.visit_output(layer, y_int)


def _layer(name: str):
    """A synthetic integer conv layer and its input batch."""
    mode, in_h, in_w, kernel, stride, padding, m = LAYERS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    c_in, k_out = 3, 4
    out_h = conv_output_size(in_h, kernel, stride, padding)
    out_w = conv_output_size(in_w, kernel, stride, padding)
    common = dict(
        name=name,
        inputs=("x",),
        out_fmt=OUT_FMT,
        weight_int=rng.integers(-(1 << 9), 1 << 9, size=(k_out, c_in, kernel, kernel)),
        bias_acc=rng.integers(-(1 << 16), 1 << 16, size=k_out),
        in_fmt=IN_FMT,
        w_fmt=W_FMT,
        kernel=kernel,
        stride=stride,
        padding=padding,
        in_shape=(c_in, in_h, in_w),
        op_counts=conv_op_counts(
            mode, c_in, k_out, kernel, stride, (out_h, out_w), m=m
        ),
    )
    if mode == "winograd":
        layer = QConvWinograd(m=m, **common)
        layer.prepare()
    else:
        layer = QConvDirect(**common)
    x = rng.integers(-(1 << 12), 1 << 12, size=(BATCH, c_in, in_h, in_w))
    return layer, x


def _injector(kind: str) -> Injector:
    if kind == "paper":
        return OperationLevelInjector(BER, seed=SEED)
    if kind == "amplify":
        config = FaultModelConfig(amplify_input_transform_adds=True)
        return OperationLevelInjector(BER, seed=SEED, config=config)
    return AbftChecker(OperationLevelInjector(BER, seed=SEED), correct=True)


@pytest.mark.parametrize("kind", ["paper", "amplify", "abft"])
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_injected_outputs_are_pinned(name, kind):
    layer, x = _layer(name)
    injector = _injector(kind)
    recorder = _Recorder(injector)
    recorder.begin_inference(BATCH)
    y = layer.forward([x], injector=recorder)
    digest = hashlib.sha256(
        np.ascontiguousarray(recorder.acc, dtype=np.int64).tobytes()
        + np.ascontiguousarray(y, dtype=np.int64).tobytes()
    ).hexdigest()
    counts = dict(sorted(injector.event_counts.items()))
    assert (digest, counts) == PINS[(name, kind)]
