"""Docstring-coverage gate for the public runtime, TMR and faultsim APIs.

``docs/RUNTIME.md`` documents the execution runtime; this gate keeps the
in-code reference complete: every public module, class, function and
method in :mod:`repro.runtime`, :mod:`repro.tmr`, :mod:`repro.faultsim`,
:mod:`repro.stats` and :mod:`repro.backends` must carry a docstring.  The check is AST-based
(the same contract an ``interrogate`` run with ``--ignore-private``
enforces) so it needs no third-party dependency and runs in tier-1 CI on
every push.

Definition of *public* used here:

* modules: every ``.py`` file in the gated packages (including
  ``__init__.py`` and private-named modules — they document subsystems);
* classes / functions: top-level ``def``/``class`` whose name has no
  leading underscore — plus private helpers' signatures are deliberately
  exempt, *except* that we still require docstrings on private top-level
  functions (they are this project's convention, see
  ``repro.tmr.planner._next_increment``);
* methods: ``def`` directly inside a public class, except dunders —
  including ``__init__``/``__post_init__``, because this codebase follows
  the numpydoc convention of documenting constructor parameters in the
  *class* docstring (which is gated).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.backends
import repro.faultsim
import repro.runtime
import repro.stats
import repro.tmr

#: Packages whose public APIs docs/RUNTIME.md promises are documented.
GATED_PACKAGES = (
    repro.runtime,
    repro.tmr,
    repro.faultsim,
    repro.stats,
    repro.backends,
)



def _package_modules():
    for package in GATED_PACKAGES:
        root = Path(package.__file__).parent
        for path in sorted(root.rglob("*.py")):
            yield package.__name__, path


def _missing_docstrings(path: Path) -> list[str]:
    """Names in ``path`` (module-relative) lacking a docstring."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node) is None:
                missing.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if ast.get_docstring(node) is None:
                missing.append(node.name)
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("_"):
                    # Private helpers and dunders (constructor parameters
                    # live in the class docstring, numpydoc-style).
                    continue
                if ast.get_docstring(member) is None:
                    missing.append(f"{node.name}.{name}")
    return missing


@pytest.mark.parametrize(
    "package_name,path",
    list(_package_modules()),
    ids=lambda value: str(value).split("/src/")[-1] if "/" in str(value) else value,
)
def test_public_api_fully_documented(package_name, path):
    missing = _missing_docstrings(path)
    assert not missing, (
        f"{path} is missing docstrings for: {', '.join(missing)} "
        "(docs/RUNTIME.md promises a fully documented runtime/tmr API)"
    )


def test_gate_actually_covers_both_packages():
    """Regression guard: the parametrization must see every module of
    the gated packages (an import/layout change silently shrinking the
    gate would otherwise go unnoticed)."""
    modules = list(_package_modules())
    runtime = [p for name, p in modules if name == "repro.runtime"]
    tmr = [p for name, p in modules if name == "repro.tmr"]
    faultsim = [p for name, p in modules if name == "repro.faultsim"]
    stats = [p for name, p in modules if name == "repro.stats"]
    backends = [p for name, p in modules if name == "repro.backends"]
    assert {p.name for p in runtime} == {
        "__init__.py", "checkpoint.py", "engine.py",
        "hashing.py", "progress.py", "retry.py", "tasks.py",
    }
    assert {p.name for p in tmr} == {
        "__init__.py", "cost.py", "planner.py", "schemes.py",
    }
    assert {p.name for p in faultsim} == {
        "__init__.py", "abft.py", "campaign.py", "model.py",
        "neuron_level.py", "operation_level.py", "protection.py",
        "sampling.py", "sites.py",
    }
    assert {p.name for p in stats} == {"__init__.py", "intervals.py"}
    assert {p.name for p in backends} == {
        "__init__.py", "base.py", "optimized.py", "reference.py",
    }
