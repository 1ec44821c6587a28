"""Live sweep progress: ``repro runs watch <run-id>``.

Tails a run's ``telemetry.jsonl`` (events flush as they happen, so the
file is always current) and renders an in-place progress panel:

* cells done / running / failed against the plan, with pass counts;
* cache hit rates so far (graphs / oracles / decompositions), the same
  hit-share rule as the report's efficacy view;
* the slowest completed cells so far -- the cell about to dominate the
  sweep shows up while the sweep is still running.

The snapshot/render split keeps everything testable without a terminal:
:func:`watch_snapshot` folds an event list into a plain dict,
:func:`render_watch` turns one dict into text, and :func:`watch_run`
is the only piece that sleeps, re-reads, and rewrites the screen
(in-place via ANSI cursor-up when the stream is a TTY, append-only
otherwise).  ``once=True`` renders a single snapshot and returns --
what the CI smoke job calls.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional, Sequence, TextIO

from repro.telemetry.events import (
    ERRORED,
    FINISHED,
    RETRIED,
    SCHEDULED,
    STARTED,
    SWEEP_END,
    TIMED_OUT,
    load_events,
    telemetry_path,
)
from repro.telemetry.report import _hit_share, chain_fields

_COMPLETIONS = (FINISHED, TIMED_OUT, ERRORED)


def watch_snapshot(events: Sequence[Dict[str, Any]],
                   planned: int) -> Dict[str, Any]:
    """Fold one timeline into the current progress state."""
    completions: List[Dict[str, Any]] = []
    done_keys = set()
    inflight: Dict[str, Dict[str, Any]] = {}
    scheduled = set()
    ended = False
    for event in events:
        kind = event.get("event")
        key = event.get("key")
        if kind == SCHEDULED:
            scheduled.add(key)
            ended = False
        elif kind in (STARTED, RETRIED):
            inflight[key] = event
            ended = False
        elif kind in _COMPLETIONS:
            completions.append(event)
            done_keys.add(key)
            inflight.pop(key, None)
        elif kind == SWEEP_END:
            ended = True
    failed = sum(1 for e in completions
                 if e.get("event") != FINISHED or not e.get("passed"))
    slowest = sorted(completions,
                     key=lambda e: e.get("wall_time") or 0.0,
                     reverse=True)[:3]
    return {
        "planned": planned,
        "scheduled": len(scheduled),
        "done": len(done_keys),
        "running": sorted(inflight),
        "failed": failed,
        "passed": sum(1 for e in completions if e.get("passed")),
        "wall_time": sum(e.get("wall_time") or 0.0 for e in completions),
        "hit_shares": {family: _hit_share(completions, field)
                       for field, family in chain_fields()},
        "slowest": [
            {"scenario": e.get("scenario"), "algorithm": e.get("algorithm"),
             "size": e.get("size"), "seed": e.get("seed"),
             "status": e.get("status", "done"),
             "wall_time": e.get("wall_time") or 0.0}
            for e in slowest],
        "ended": ended,
    }


def render_watch(snapshot: Dict[str, Any], *, run_id: str = "") -> str:
    """One progress panel as plain text (no cursor control)."""
    planned = snapshot["planned"]
    done = snapshot["done"]
    width = 30
    filled = int(width * done / planned) if planned else width
    bar = "#" * filled + "-" * (width - filled)
    lines = [
        f"run {run_id}: [{bar}] {done}/{planned} cells "
        f"({snapshot['passed']} passed, {snapshot['failed']} failed, "
        f"{len(snapshot['running'])} running)"
        + ("  [ended]" if snapshot["ended"] else ""),
        "cache hits: " + "  ".join(
            f"{family} {'-' if share is None else format(share, '.0%')}"
            for family, share in snapshot["hit_shares"].items())
        + f"   cell wall time {snapshot['wall_time']:.2f}s",
    ]
    if snapshot["slowest"]:
        rows = ", ".join(
            f"{s['scenario']} x {s['algorithm']} "
            f"(size={s['size']}, seed={s['seed']}) {s['wall_time']:.2f}s"
            for s in snapshot["slowest"])
        lines.append(f"slowest so far: {rows}")
    if snapshot["running"]:
        keys = ", ".join(key[:10] for key in snapshot["running"][:6])
        more = len(snapshot["running"]) - 6
        lines.append("running cells: " + keys
                     + (f" (+{more} more)" if more > 0 else ""))
    return "\n".join(lines)


def watch_run(run, *, interval: float = 1.0, once: bool = False,
              stream: Optional[TextIO] = None,
              max_seconds: Optional[float] = None) -> Dict[str, Any]:
    """Tail one run's timeline until it completes; return the last state.

    In-place refresh (ANSI cursor-up) when ``stream`` is a TTY,
    append-one-panel-per-tick otherwise.  The loop exits when the run
    is complete and its last invocation ended, when the timeline shows
    an interrupted end with no new events, or after ``max_seconds``.
    """
    stream = sys.stdout if stream is None else stream
    path = telemetry_path(run.path)
    planned = len(run.planned_keys)
    tty = bool(getattr(stream, "isatty", lambda: False)())
    previous_lines = 0
    started = time.monotonic()
    last: Dict[str, Any] = {}
    while True:
        snapshot = watch_snapshot(load_events(path), planned)
        last = snapshot
        text = render_watch(snapshot, run_id=run.run_id)
        if tty and previous_lines:
            stream.write(f"\x1b[{previous_lines}F\x1b[J")
        stream.write(text + "\n")
        stream.flush()
        previous_lines = text.count("\n") + 1
        finished = snapshot["ended"] and snapshot["done"] >= planned
        timed_out = (max_seconds is not None
                     and time.monotonic() - started >= max_seconds)
        if once or finished or timed_out:
            return last
        time.sleep(interval)
