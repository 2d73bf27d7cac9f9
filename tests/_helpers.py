"""Importable test helpers (shared model builders and pinned constants).

Kept separate from ``conftest.py`` on purpose: both ``tests/`` and
``benchmarks/`` carry a ``conftest.py``, so ``from conftest import ...``
is ambiguous — it resolves to whichever directory pytest put on
``sys.path`` first (``benchmarks/conftest.py`` shadows this package's in
a full-repo run).  Helpers live here and are imported unambiguously as
``from tests._helpers import ...``; the conftests define fixtures only.
"""

from __future__ import annotations

from repro.nn import GraphBuilder
from repro.runtime import engine as engine_module

#: Campaign seed pinned for the TMR-planner engine-parity regression test
#: (tests/test_engine_tasks_parity.py).  Chosen once and frozen: the test
#: asserts that plan_tmr's convergence trajectory (iterations, converged,
#: history, fractions) under this seed is identical whether the
#: per-iteration evaluations run serially or through the campaign engine.
TMR_REGRESSION_SEED = 22020867


def build_tiny_cnn(classes: int = 4) -> "Graph":
    """A small conv net exercising conv/bn/relu/pool/linear paths."""
    b = GraphBuilder("tinycnn", input_shape=(3, 16, 16))
    x = b.conv2d(b.input_node, 8, kernel=3, padding=1, name="c1")
    x = b.batchnorm2d(x, name="b1")
    x = b.relu(x, name="r1")
    x = b.maxpool2d(x, kernel=2, stride=2, name="p1")
    x = b.conv2d(x, 16, kernel=3, padding=1, name="c2")
    x = b.batchnorm2d(x, name="b2")
    x = b.relu(x, name="r2")
    x = b.globalavgpool(x, name="gap")
    x = b.flatten(x, name="fl")
    return b.output(b.linear(x, classes, name="fc"))


def force_slices(monkeypatch, size: int | None) -> None:
    """Make every engine batch slice each pending point into ``size`` samples.

    Replaces the engine's slicing decision
    (:func:`repro.runtime.engine.auto_sample_shard`) at any worker count;
    ``None`` forces no slicing.  The decision is taken in the parent
    before the pool forks.  Tests use it through the ``force_slices``
    fixture; module-scoped fixtures pass a ``MonkeyPatch.context()``.
    """
    monkeypatch.setattr(engine_module, "auto_sample_shard", lambda *_: size)
