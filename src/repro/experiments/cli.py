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
iteration's seeds fan out across the pool, and the engine slices them
along the sample axis when there are fewer seeds than workers.  Fault
draws are keyed by (seed, layer, site, sample chunk), so results are
bit-identical for any slicing.
``--protection {tmr,abft,portfolio,all}`` selects which strategies the
``portfolio`` figure compares.  Figs 2/6/7 sweep the profile's fixed
BER grid.

``--max-attempts`` / ``--unit-deadline`` configure the unified retry
policy (:class:`repro.runtime.RetryPolicy`); a deadline that is not a
finite, armable number of seconds exits 3 before any figure starts.

``python -m repro.experiments.cli checkpoint fsck PATH [--repair]
[--json]`` verifies one checkpoint store offline (per-record CRCs,
record shape, duplicates) and with ``--repair`` rewrites it clean, one
row per key, quarantining damaged raw lines into a ``*.quarantined``
sidecar.

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
from repro.runtime import RetryPolicy, fsck, stream_reporter

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


def _format_fsck_report(report) -> str:
    """Human-readable fsck summary naming every dropped key."""
    version = (
        f"v{report.version}" if report.version is not None else "not a checkpoint"
    )
    flags = []
    if report.duplicates:
        flags.append(f"{report.duplicates} duplicate(s)")
    if report.repaired:
        flags.append("repaired")
    suffix = f" [{', '.join(flags)}]" if flags else ""
    lines = [
        f"checkpoint fsck: {report.path}: {version}, {report.records} "
        f"intact record(s), {len(report.damaged)} damaged line(s){suffix}"
    ]
    if report.dropped_keys:
        lines.append("dropped keys (no intact copy in the store):")
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

    ``fsck PATH`` verifies one checkpoint store line by line — CRCs,
    record shape, duplicates — and with ``--repair`` rewrites a damaged
    or duplicate-carrying store clean, quarantining damaged raw lines
    aside.  Exits 0 when the store is (or was repaired to) clean, 6 when
    damage remains, the path is not a store file, or the repair's
    write fails.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments checkpoint",
        description="Verify and repair a campaign checkpoint store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fsck_parser = sub.add_parser(
        "fsck",
        help="verify one store's per-record CRCs; --repair rewrites it clean",
    )
    fsck_parser.add_argument(
        "path",
        metavar="PATH",
        help="checkpoint store file",
    )
    fsck_parser.add_argument(
        "--repair",
        action="store_true",
        help="rewrite a damaged store clean, one row per key "
        "(damaged raw lines are kept in a *.quarantined sidecar)",
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

    # Validated here (not in argparse) so a bad setting exits with the
    # configuration code (3), not argparse's usage code (2).
    retry = None
    if args.max_attempts is not None or args.unit_deadline is not None:
        retry_kwargs = {}
        if args.max_attempts is not None:
            retry_kwargs["max_attempts"] = args.max_attempts
        if args.unit_deadline is not None:
            retry_kwargs["deadline"] = args.unit_deadline
        retry = RetryPolicy(**retry_kwargs)

    profile = FULL if args.profile == "full" else QUICK
    engine = make_engine(
        workers=args.workers,
        resume=args.resume,
        checkpoint=args.checkpoint,
        progress=stream_reporter() if args.progress else None,
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
        payload = module.run(profile=profile, engine=engine, **extra)
        print(module.format_report(payload))
        print()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
