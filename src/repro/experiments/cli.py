"""Command-line entry point: ``python -m repro.experiments.cli <figure>``.

Examples
--------
Run a single figure with the quick profile::

    python -m repro.experiments.cli fig2

Run everything at full fidelity on all cores, resuming any interrupted
campaign from its checkpoint::

    python -m repro.experiments.cli all --profile full --workers 0 --resume

``--workers/--resume/--checkpoint`` apply to every figure: the accuracy
sweeps of figs 1–2/6–7 and the protected-evaluation batches behind figs
3–5 (layer vulnerability, operation-type sensitivity, TMR planning) all
execute through the same :class:`repro.runtime.CampaignEngine`.  The
TMR planner (fig5 and portfolio) is the paper's serial loop; each
iteration's seeds fan out across the pool, and ``--shard-samples auto``
slices them to fill it.
``--protection {tmr,abft,portfolio,all}`` selects which strategies the
``portfolio`` figure compares.

``--shard-samples N`` additionally splits every (BER, seed) evaluation
into N-sample slices, filling the pool even when a figure evaluates a
single point at a time (``--shard-samples auto`` picks the slice size
per batch).  Fault draws are keyed by (seed, layer, site, sample
chunk), so results are bit-identical for any slice size.

``--adaptive-ber`` switches figs 2/6/7 from their fixed BER grids to the
adaptive engine (:mod:`repro.stats`): the BER points are chosen by knee
bisection over the grid's extremes, and every point stops adding seeds
once its confidence interval is inside ``--ci-halfwidth`` (seed budget
``--max-seeds``).  Stopping decisions depend only on canonically ordered
per-seed results, so adaptive runs stay bit-reproducible and resumable
for any ``--workers``/``--shard-samples`` combination.

``--chaos SPEC`` arms the deterministic chaos framework
(:mod:`repro.runtime.chaos`) for resilience drills: ``SPEC`` is either a
JSON object or compact ``key=value`` pairs (``seed=7,worker_crash=0.2,
torn_write=0.1,slow_unit=0.05``), and every injection decision is a
pure function of (chaos seed, task key, attempt) — reruns reproduce the
same faults, and a chaos run that completes is bit-identical to an
undisturbed one.
``--max-attempts`` / ``--unit-deadline`` configure the unified retry
policy (:class:`repro.runtime.RetryPolicy`).

``python -m repro.experiments.cli checkpoint fsck PATH [--repair]
[--json]`` verifies a checkpoint store or a directory of stores offline
(per-record CRCs, record shape, duplicates) and with ``--repair``
compacts it to a clean version-3 store, quarantining damaged raw lines
into ``*.quarantined`` sidecars.

Exit codes follow the :mod:`repro.errors` taxonomy so scripts can branch
on the status alone: 0 success, 2 usage errors (argparse), 3 invalid
configuration, 4 task execution failure, 5 tasks quarantined after
retry exhaustion, 6 checkpoint corruption, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import (
    EXIT_CHECKPOINT,
    EXIT_OK,
    ReproError,
    exit_code_for,
)
from repro.experiments import fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig_portfolio
from repro.experiments.common import FULL, QUICK, make_engine
from repro.runtime import ChaosSpec, RetryPolicy, fsck, stream_reporter
from repro.stats import StopRule

_FIGURES = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "portfolio": fig_portfolio,
}


def _shard_samples(value: str):
    """Parse ``--shard-samples``: a positive int or the string 'auto'."""
    if value == "auto":
        return value
    try:
        shard = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if shard < 1:
        raise argparse.ArgumentTypeError("--shard-samples must be >= 1")
    return shard


def _format_fsck_report(report) -> str:
    """Human-readable fsck summary naming every dropped key."""
    lines = [
        f"checkpoint fsck: {len(report.files)} file(s), "
        f"{report.intact_records} intact record(s), "
        f"{report.damaged_lines} damaged line(s)"
    ]
    for entry in report.files:
        version = (
            f"v{entry.version}" if entry.version is not None else "not a checkpoint"
        )
        flags = []
        if entry.duplicates:
            flags.append(f"{entry.duplicates} duplicate(s)")
        if entry.repaired:
            flags.append("repaired")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"  {entry.path}: {version}, {entry.records} record(s), "
            f"{len(entry.damaged)} damaged{suffix}"
        )
    if report.dropped_keys:
        lines.append("dropped keys (no intact copy anywhere in the set):")
        lines.extend(f"  {key}" for key in report.dropped_keys)
    keyless = report.unrecoverable - len(report.dropped_keys)
    if keyless:
        lines.append(f"damaged line(s) without an extractable key: {keyless}")
    if report.clean:
        lines.append("store is clean")
    elif report.repaired:
        lines.append(
            "store repaired; damaged lines quarantined to *.quarantined "
            "(resume recomputes any dropped keys)"
        )
    else:
        lines.append("store is DAMAGED; rerun with --repair to compact")
    return "\n".join(lines)


def _checkpoint_main(argv: list[str]) -> int:
    """Entry point of ``cli checkpoint``: offline store maintenance.

    ``fsck PATH`` verifies a checkpoint store (or a directory of shards
    and stores) line by line — version-3 CRCs, record shape, duplicates
    — and with ``--repair`` compacts every damaged or legacy file to a
    clean version-3 store, quarantining damaged raw lines aside.  Exits
    0 when the store is (or was repaired to) clean, 6 when damage
    remains.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments checkpoint",
        description="Verify and repair campaign checkpoint stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fsck_parser = sub.add_parser(
        "fsck",
        help="verify per-record CRCs; --repair compacts to a clean store",
    )
    fsck_parser.add_argument(
        "path",
        metavar="PATH",
        help="checkpoint file, or directory of shards/stores to walk",
    )
    fsck_parser.add_argument(
        "--repair",
        action="store_true",
        help="rewrite damaged/legacy files as clean v3 stores "
        "(damaged raw lines are kept in *.quarantined sidecars)",
    )
    fsck_parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the full report as JSON (for CI artifacts)",
    )
    args = parser.parse_args(argv)
    report = fsck(args.path, repair=args.repair)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(_format_fsck_report(report))
    if report.clean:
        return EXIT_OK
    if args.repair and fsck(args.path).clean:
        return EXIT_OK
    return EXIT_CHECKPOINT


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested experiments, print reports.

    Dispatches the ``checkpoint`` subcommand, then the figure interface.
    :class:`~repro.errors.ReproError` failures exit with the taxonomy's
    code (see the module docstring) instead of a traceback.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "checkpoint":
            return _checkpoint_main(argv[1:])
        return _figures_main(argv)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def _figures_main(argv: list[str]) -> int:
    """The figure interface: parse flags, run figures, print reports."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures as text reports + JSON.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        choices=sorted(_FIGURES) + ["all", "headline"],
        help="figure id(s) to regenerate, or 'headline' for the summary",
    )
    parser.add_argument(
        "--profile",
        choices=("quick", "full"),
        default="quick",
        help="evaluation budget (default: quick)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="campaign worker processes for all figures, including the "
        "figs 3-5 analysis batches; 0 = all visible cores, negative "
        "counts are rejected (default: 1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume completed evaluation tasks from the campaign checkpoint",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="campaign checkpoint file (default: <results>/checkpoints/campaign.json)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream per-point campaign progress to stderr",
    )
    parser.add_argument(
        "--protection",
        choices=("tmr", "abft", "portfolio", "all"),
        default="all",
        help="portfolio figure only: which protection strategies to "
        "compare — whole-layer TMR, checksum ABFT, the mixed per-layer "
        "portfolio, or all three (default: all)",
    )
    parser.add_argument(
        "--shard-samples",
        type=_shard_samples,
        default=None,
        metavar="N",
        help="split every (BER, seed) evaluation into N-sample slices so "
        "a single point fills the worker pool ('auto' picks the slice "
        "size per batch; pairs with --workers)",
    )
    parser.add_argument(
        "--adaptive-ber",
        action="store_true",
        help="figs 2/6/7: replace the fixed BER grid with adaptive "
        "knee-bisection sampling and per-point early stopping "
        "(deterministic for any --workers/--shard-samples)",
    )
    parser.add_argument(
        "--ci-halfwidth",
        type=float,
        default=None,
        metavar="W",
        help="adaptive mode: stop adding seeds at a BER point once its "
        "Wilson confidence interval's half-width is <= W (default: 0.02)",
    )
    parser.add_argument(
        "--max-seeds",
        type=int,
        default=None,
        metavar="N",
        help="adaptive mode: seed budget per BER point (default: 8)",
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="deterministic chaos injection for resilience drills: a JSON "
        "object or pairs like 'seed=7,worker_crash=0.2,torn_write=0.1,"
        "slow_unit=0.05' (rates: unit_error, slow_unit, worker_crash, "
        "torn_write, enospc; plus seed, "
        "slow_unit_seconds, fail_tags=a|b).  Decisions are pure "
        "functions of (seed, task key, attempt); a completing chaos run "
        "is bit-identical to an undisturbed one",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="retry budget per campaign unit before it is quarantined "
        "(default: 3)",
    )
    parser.add_argument(
        "--unit-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit deadline watchdog: a unit running longer is "
        "aborted and retried under the same budget (default: none)",
    )
    args = parser.parse_args(argv)

    rule = None
    if args.adaptive_ber:
        rule_kwargs = {}
        if args.ci_halfwidth is not None:
            rule_kwargs["halfwidth"] = args.ci_halfwidth
        if args.max_seeds is not None:
            rule_kwargs["max_seeds"] = args.max_seeds
        rule = rule_kwargs  # completed below once the profile is known
    elif args.ci_halfwidth is not None or args.max_seeds is not None:
        parser.error("--ci-halfwidth/--max-seeds require --adaptive-ber")

    # Parsed here (not in argparse) so a malformed spec exits with the
    # configuration code (3), not argparse's usage code (2).
    chaos = ChaosSpec.parse(args.chaos) if args.chaos else None
    retry = None
    if args.max_attempts is not None or args.unit_deadline is not None:
        retry_kwargs = {}
        if args.max_attempts is not None:
            retry_kwargs["max_attempts"] = args.max_attempts
        if args.unit_deadline is not None:
            retry_kwargs["deadline"] = args.unit_deadline
        retry = RetryPolicy(**retry_kwargs)

    profile = FULL if args.profile == "full" else QUICK
    if rule is not None:
        # min_seeds anchors at the profile's configured seed count, so a
        # settled point's estimate matches the fixed-grid estimate (and
        # shares its checkpoint entries) exactly.
        rule = StopRule(min_seeds=len(profile.seeds), **rule)
    engine = make_engine(
        workers=args.workers,
        resume=args.resume,
        checkpoint=args.checkpoint,
        progress=stream_reporter() if args.progress else None,
        sample_shard=args.shard_samples,
        chaos=chaos,
        retry=retry,
    )
    targets = sorted(_FIGURES) if "all" in args.figures else args.figures
    for name in targets:
        if name == "headline":
            from repro.experiments.headline import collect_headlines, format_headlines

            print(format_headlines(collect_headlines()))
            print()
            continue
        module = _FIGURES[name]
        extra = {}
        if name == "portfolio":
            extra = {"protection": args.protection}
        elif name in ("fig2", "fig6", "fig7") and rule is not None:
            extra = {"adaptive": rule}
        payload = module.run(profile=profile, engine=engine, **extra)
        print(module.format_report(payload))
        print()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
