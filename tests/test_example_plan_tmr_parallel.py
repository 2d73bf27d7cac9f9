"""Smoke test: examples/plan_tmr_parallel.py runs end-to-end.

The example is the user-facing demonstration of parallel planning, so it
is executed for real (tiny model, a few seconds) and its printed output —
including its own serial-vs-pool identity verification — is checked.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "plan_tmr_parallel.py"


def _load_example():
    spec = importlib.util.spec_from_file_location("plan_tmr_parallel", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_example_runs_and_verifies_identity(capsys):
    example = _load_example()
    example.main(workers=2)  # exercises the pool path when fork exists
    out = capsys.readouterr().out
    # The example verifies pool == serial itself and raises SystemExit
    # on divergence; assert on the printed verdict too.
    assert "pool == serial heuristic : True" in out
    assert "converged: True" in out
    assert "protected fractions" in out
    # The demo is only meaningful if planning is non-trivial.
    iterations = int(out.split("planner iterations        : ")[1].split()[0])
    assert iterations > 1
