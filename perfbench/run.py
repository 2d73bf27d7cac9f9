"""End-to-end campaign benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig1_warm --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
(``end_to_end``): workload passes repeat while another one still fits in
``--seconds`` (at least one), warm workloads then set up again until
three setups were timed, and medians are reported.  ``--trace 1`` runs
one untraced pass and one traced pass and reports the per-layer table
(``per_layer``); its spans are written to
``.perfbench_work/trace-<workload>-seed<seed>.jsonl``.

Every pass checks its outputs against ``references.json``.
``--strategy optimized|replay`` runs the same workload under another
execution strategy; the digests must not change (the strategy-invariance
self-test).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--strategy", default="default",
                        choices=("default", "optimized", "replay"))
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_lines(root: Path) -> int:
    """Lines in every ``*.py`` file under ``root``."""
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted(root.rglob("*.py"))
    )


def measure(workload, references, seconds: float, notes: list) -> tuple[dict, int, int]:
    """Untraced run: end-to-end metrics plus (attempted, failed) units."""
    from workloads import SETUP_REPEATS

    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        started = time.perf_counter()
        result = workload.run_pass()
        notes.append(workload.check(result, references))
        passes.append(result)
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    setups = [p.setup_s for p in passes]
    while workload.warm and len(setups) < SETUP_REPEATS:
        setups.append(workload.setup_only())
    attempted = workload.probe.units if workload.warm else len(passes)
    failed = workload.probe.retried
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "inferences_per_s": statistics.median(p.inferences_per_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "completed_fraction": 1.0 - failed / attempted,
    }
    notes.append(f"passes {len(passes)}, setups {[round(s, 3) for s in setups]}")
    return values, attempted, failed


def trace(workload, references, names, trace_path: Path, notes: list):
    """Untraced pass, then a traced pass: per-layer metrics by name."""
    from tracer import Tracer, instrument

    probe = workload.probe
    baseline = workload.run_pass()
    notes.append(workload.check(baseline, references))
    before = dict(vars(probe))
    tracer = Tracer()
    with instrument(tracer) as patcher:
        root = tracer.begin("workload")
        result = workload.run_pass()
        tracer.end(root)
    notes.append(workload.check(result, references))
    if patcher.missing:
        notes.append(f"entry points not found (metrics read 0): {patcher.missing}")

    table = tracer.table()
    wall = tracer.spans[root][2] - tracer.spans[root][1]
    self_total = sum(row["self_s"] for name, row in table.items() if name != "workload")
    if self_total > wall:
        raise RuntimeError(f"per-layer self times {self_total} exceed wall_s {wall}")
    counters = tracer.counters
    delta = {k: getattr(probe, k) - before[k] for k in ("computed", "cached", "retried")}
    attempted = probe.units if workload.warm else 2
    failed = probe.retried
    extra = {
        "faultsim.events_per_inference": (
            counters["faultsim.events"] / result.inferences
            if workload.warm and result.inferences else 0.0
        ),
        "runtime.units.computed": delta["computed"],
        "runtime.units.cached": delta["cached"],
        "runtime.units.retried": delta["retried"],
        "trace.spans": len(tracer.spans),
        "trace.wall_s": wall,
        "trace.overhead_s": result.wall_s - baseline.wall_s,
        "loc.src": count_lines(SRC),
        "loc.tests": count_lines(ROOT / "tests"),
        "failed_fraction": failed / attempted,
    }
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
        elif name in counters:
            values[name] = counters[name]
        else:
            base, _, field = name.rpartition(".")
            row = table.get(base)
            if field == "gmac_per_s":
                busy = row["busy_s"] if row else 0.0
                values[name] = counters[f"{base}.gmac"] / busy if busy else 0.0
            elif field in ("calls", "count", "busy_s", "self_s"):
                values[name] = row["calls" if field == "count" else field] if row else 0
            else:
                values[name] = 0  # a count the pass never incremented

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with trace_path.open("w") as out:
        for name, start, end, parent in tracer.spans:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "parent": parent}) + "\n")
    print(f"{'span':<34} {'calls':>8} {'busy_s':>9} {'self_s':>9}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<34} {row['calls']:>8} {row['busy_s']:>9.3f} {row['self_s']:>9.3f}")
    return values, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One worker, one BLAS thread: on a 2-core host a second OpenBLAS
    # thread doubles CPU use without shortening the campaign, and its
    # spin-waits make times depend on whatever else runs there.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    from workloads import Workload, load_references

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    notes: list[str] = []
    workload = Workload(args.workload, args.seed, args.strategy, work)
    try:
        references = load_references()
        workload.probe.install(time_evaluate=not workload.warm)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values, attempted, failed = trace(
                workload, references, list(units), trace_path, notes
            )
        else:
            values, attempted, failed = measure(
                workload, references, args.seconds, notes
            )
        correct = True
    except Exception:
        traceback.print_exc()
        correct, values = False, {}
        attempted = max(workload.probe.units, 1)
        failed = attempted
    finally:
        workload.probe.remove()
        shutil.rmtree(work, ignore_errors=True)
    for note in notes:
        print(f"{args.workload}: {note}", file=sys.stderr)
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in units if name in values
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
