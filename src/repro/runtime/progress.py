"""Streaming progress reporting for campaign sweeps.

The engine emits one event per completed unit; the reporter turns them
into human-readable lines on an arbitrary sink (stderr by default when
enabled, silent otherwise).  Kept deliberately free of terminal-control
sequences so output composes with logs and CI transcripts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, TextIO

__all__ = [
    "ProgressEvent",
    "ProgressReporter",
    "stream_reporter",
    "null_reporter",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed evaluation task within a batch.

    ``tag`` carries the task's label (e.g. ``"fault-free:c2"`` for a
    Fig. 3 layer task); sweep units leave it empty.
    """

    done: int
    total: int
    ber: float
    seed: int
    accuracy: float
    cached: bool
    elapsed: float
    tag: str = ""


#: A reporter is any callable consuming ProgressEvents.
ProgressReporter = Callable[[ProgressEvent], None]


def null_reporter(event: ProgressEvent) -> None:
    """Discard progress events (the default)."""


def stream_reporter(stream: TextIO | None = None) -> ProgressReporter:
    """Reporter writing one line per completed unit to ``stream``."""
    out = stream or sys.stderr

    def report(event: ProgressEvent) -> None:
        source = "cache" if event.cached else f"{event.elapsed:5.1f}s"
        label = f" [{event.tag}]" if event.tag else ""
        out.write(
            f"[campaign {event.done:>3}/{event.total}] "
            f"ber={event.ber:.2e} seed={event.seed} "
            f"acc={event.accuracy:.4f} ({source}){label}\n"
        )
        out.flush()

    return report
