"""The ``runtime_faults`` fixture itself: keyed, deterministic, contained.

The resilience tests claim "a disturbed run equals the undisturbed run",
which is only as strong as the faults behind it.  These tests pin what
the fixture promises: every decision is a pure function of (seed, kind,
identity, attempt); a retried attempt draws afresh; a poison tag fails
every attempt; injected unit errors are transient; torn writes and
ENOSPC reach the checkpoint store's view of ``os.write`` and nothing
else.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.errors import TransientError
from repro.runtime import RetryPolicy, TaskSpec
from repro.runtime import checkpoint as checkpoint_module
from repro.runtime import engine as engine_module

KINDS = ["slow_unit", "transient", "torn_write", "enospc"]


class TestDecisions:
    def test_fires_is_deterministic_and_keyed(self, runtime_faults):
        draws = [
            runtime_faults.fires(3, "transient", f"unit-{i}", 1, 0.5)
            for i in range(64)
        ]
        assert draws == [
            runtime_faults.fires(3, "transient", f"unit-{i}", 1, 0.5)
            for i in range(64)
        ]
        # Both verdicts occur, and another seed or kind reorders them.
        assert 0 < sum(draws) < len(draws)
        assert draws != [
            runtime_faults.fires(4, "transient", f"unit-{i}", 1, 0.5)
            for i in range(64)
        ]
        assert draws != [
            runtime_faults.fires(3, "torn_write", f"unit-{i}", 1, 0.5)
            for i in range(64)
        ]

    def test_retried_attempt_draws_independently(self, runtime_faults):
        first = [runtime_faults.fires(0, "transient", "unit", n, 0.5) for n in range(1, 65)]
        assert 0 < sum(first) < len(first)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rate_zero_never_fires_and_rate_one_always_fires(
        self, runtime_faults, kind
    ):
        for attempt in (1, 2, 3):
            assert not runtime_faults.fires(0, kind, "unit", attempt, 0.0)
            assert runtime_faults.fires(0, kind, "unit", attempt, 1.0)


class TestUnitFaults:
    def test_unarmed_fixture_patches_nothing(self, runtime_faults):
        attempt_unit = engine_module._attempt_unit
        evaluate_unit = engine_module._evaluate_unit
        write = checkpoint_module.os.write
        assert runtime_faults is not None
        assert engine_module._attempt_unit is attempt_unit
        assert engine_module._evaluate_unit is evaluate_unit
        assert checkpoint_module.os.write is write is os.write

    def test_poison_tag_fails_every_attempt(self, runtime_faults):
        runtime_faults.units(poison=("doomed",))
        unit = engine_module._Unit(TaskSpec(ber=1e-5, seed=0, tag="doomed"), (0, 1))
        for _ in range(3):
            with pytest.raises(TransientError, match="poison"):
                engine_module._evaluate_unit(None, None, None, None, unit)

    def test_injected_unit_error_is_transient(self, runtime_faults):
        runtime_faults.units(transient=1.0)
        with pytest.raises(TransientError) as info:
            engine_module._evaluate_unit(
                None, None, None, None,
                engine_module._Unit(TaskSpec(ber=1e-5, seed=0), (0, 1)),
            )
        assert RetryPolicy.is_transient(info.value)


class TestWriteFaults:
    def test_torn_write_persists_a_prefix(self, runtime_faults, tmp_path):
        runtime_faults.writes(torn_write=1.0)
        path = tmp_path / "torn.bin"
        data = b'{"key": "k-0"}\n'
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            written = checkpoint_module.os.write(fd, data)
        finally:
            os.close(fd)
        assert 0 < written < len(data)
        assert path.read_bytes() == data[:written]

    def test_enospc_raises_a_full_disk_oserror(self, runtime_faults, tmp_path):
        runtime_faults.writes(enospc=1.0)
        path = tmp_path / "full.bin"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            with pytest.raises(OSError) as info:
                checkpoint_module.os.write(fd, b"line\n")
        finally:
            os.close(fd)
        assert info.value.errno == errno.ENOSPC
        assert path.read_bytes() == b""

    def test_only_the_checkpoint_store_sees_write_faults(
        self, runtime_faults, tmp_path
    ):
        write = os.write
        runtime_faults.writes(enospc=1.0)
        assert os.write is write
        assert checkpoint_module.os.write is not write
        # The rest of the checkpoint module's os view is the real module's.
        assert checkpoint_module.os.open is os.open
        assert checkpoint_module.os.fsync is os.fsync
