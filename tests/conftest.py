"""Shared fixtures: a tiny trained network and its quantized variants.

Fixture-only by design — importable helpers (the model builder, pinned
regression constants) live in :mod:`tests._helpers`, because a bare
``from conftest import ...`` is ambiguous in this repo
(``benchmarks/conftest.py`` shadows this file depending on collection
order).

The model fixtures are session-scoped because training even a tiny NumPy
network takes a few seconds; every consumer treats them as read-only.
``runtime_faults`` injects deterministic faults into the campaign
runtime itself (not into the network) for the resilience tests, and
``force_slices`` overrides the engine's sample-slicing decision.
"""

from __future__ import annotations

import errno
import os
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.datasets import DatasetSpec, make_dataset
from repro.errors import TransientError
from repro.nn import Adam, TrainConfig, initialize, train
from repro.quantized import QuantConfig, quantize_model
from repro.runtime import checkpoint as checkpoint_module
from repro.runtime import engine as engine_module
from repro.utils.rng import site_rng

from tests._helpers import TMR_REGRESSION_SEED, build_tiny_cnn
from tests._helpers import force_slices as slice_points


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small, easy synthetic dataset (4 classes, 16x16)."""
    spec = DatasetSpec(name="tiny", classes=4, image_size=16, noise=0.3, seed=7)
    return make_dataset(spec, train_per_class=40, test_per_class=12)


@pytest.fixture(scope="session")
def tiny_trained(tiny_dataset):
    """A trained tiny CNN (accuracy > 0.9 on its test split)."""
    graph = build_tiny_cnn()
    initialize(graph, 0)
    result = train(
        graph,
        Adam(graph, 3e-3),
        tiny_dataset.train_x,
        tiny_dataset.train_y,
        tiny_dataset.test_x,
        tiny_dataset.test_y,
        TrainConfig(epochs=8, batch_size=32, target_accuracy=0.95),
    )
    assert result.final_eval_accuracy > 0.8, "fixture model failed to train"
    return graph


@pytest.fixture(scope="session")
def tiny_quantized(tiny_trained, tiny_dataset):
    """(standard, winograd) int16 quantizations of the tiny CNN."""
    calib = tiny_dataset.train_x[:64]
    qm_st = quantize_model(tiny_trained, calib, QuantConfig(width=16), "standard")
    qm_wg = quantize_model(tiny_trained, calib, QuantConfig(width=16), "winograd")
    return qm_st, qm_wg


@pytest.fixture(scope="session")
def tiny_eval(tiny_dataset):
    """Evaluation split of the tiny dataset."""
    return tiny_dataset.test_x, tiny_dataset.test_y


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tmr_regression_seed():
    """The pinned campaign seed for TMR planner regression tests."""
    return TMR_REGRESSION_SEED


class InjectedFault(TransientError):
    """A unit fault injected by ``runtime_faults`` (transient: retry re-runs it)."""


class _RuntimeFaults:
    """Deterministic runtime faults, applied by monkeypatching.

    Every decision is :meth:`fires` — a keyed-Philox draw that is a pure
    function of (seed, fault kind, identity, attempt) — so any process
    reaches the same verdict and a retried attempt draws afresh: bounded
    retry drains the faults, and a disturbed run must equal the
    undisturbed one bit for bit.  Patches are applied before the engine
    forks its pool (it forks a fresh one per wave), so workers inherit
    them.
    """

    def __init__(self, monkeypatch):
        self._patch = monkeypatch

    @staticmethod
    def fires(seed: int, kind: str, identity: str, attempt: int, rate: float) -> bool:
        """Does fault ``kind`` fire at ``(identity, attempt)``?"""
        return bool(site_rng(seed, kind, identity, attempt).random() < rate)

    def units(self, seed=0, slow_unit=0.0, slow_seconds=0.02, transient=0.0, poison=()):
        """Slow units, poison tags and transient unit errors.

        A unit's identity is ``repr`` of the engine's unit (its point's
        :class:`TaskSpec` and its sample window).  Faults are raised
        inside ``_attempt_unit``'s ``try``, so the engine classifies them
        exactly like real errors.  A unit whose point carries a ``poison``
        tag fails every attempt and ends up quarantined.
        """
        attempt_unit = engine_module._attempt_unit
        evaluate_unit = engine_module._evaluate_unit
        current = {"attempt": 1}

        def attempt_with_faults(payload, index, attempt):
            current["attempt"] = attempt
            return attempt_unit(payload, index, attempt)

        def evaluate_with_faults(qmodel, x, labels, config, unit):
            where = (repr(unit), current["attempt"])
            tag = unit.point.tag
            if self.fires(seed, "slow_unit", *where, slow_unit):
                time.sleep(slow_seconds)
            if tag in poison:
                raise InjectedFault(f"poison tag {tag!r} fails every attempt")
            if self.fires(seed, "transient", *where, transient):
                raise InjectedFault(f"injected transient unit error at {where}")
            return evaluate_unit(qmodel, x, labels, config, unit)

        self._patch.setattr(engine_module, "_attempt_unit", attempt_with_faults)
        self._patch.setattr(engine_module, "_evaluate_unit", evaluate_with_faults)

    def writes(self, seed=0, torn_write=0.0, enospc=0.0):
        """Torn appends and ENOSPC, seen only by the checkpoint store.

        A write's identity is the text it appends; its attempt counts how
        often that text has been written.  A torn write persists half the
        bytes, which the store must roll back.
        """
        tries = Counter()

        def write(fd, data):
            tries[data] += 1
            where = (data.decode("utf-8"), tries[data])
            if self.fires(seed, "enospc", *where, enospc):
                raise OSError(errno.ENOSPC, "No space left on device (injected ENOSPC)")
            if self.fires(seed, "torn_write", *where, torn_write):
                return os.write(fd, data[: max(1, len(data) // 2)])
            return os.write(fd, data)

        view = SimpleNamespace(**{**vars(os), "write": write})
        self._patch.setattr(checkpoint_module, "os", view)


@pytest.fixture()
def runtime_faults(monkeypatch):
    """Arm deterministic runtime faults for one test (see :class:`_RuntimeFaults`)."""
    return _RuntimeFaults(monkeypatch)


@pytest.fixture()
def force_slices(monkeypatch):
    """Force the engine's slicing decision: ``force_slices(size)``.

    Every batch then splits each pending point into ``size``-sample
    slices at any worker count (``None`` forces no slicing); see
    :func:`tests._helpers.force_slices`.
    """
    return lambda size: slice_points(monkeypatch, size)
