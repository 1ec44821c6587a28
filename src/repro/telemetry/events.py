"""The telemetry event vocabulary, writer, and loader.

``telemetry.jsonl`` layout: one JSON object per line, each carrying

* ``seq`` -- a per-file monotone counter (resuming a run continues
  where the file left off, so the whole timeline stays ordered even
  across invocations);
* ``ts`` -- the wall-clock epoch timestamp of the event;
* ``event`` -- one of the kinds below;
* event-specific fields (cell key and coordinates, wall time, attempt
  number, provenance, metered summary...).

Event kinds::

    sweep_begin   one per engine invocation: run id, revision, plan size
    scheduled     one per to-do cell, in canonical plan order
    started       attempt 1 of a cell was dispatched
    retried       a later attempt was dispatched (attempt >= 2)
    finished      the cell completed with a record (passed either way)
    timed_out     the cell exceeded its per-cell wall-time budget
    errored       the cell raised (or its worker died)
    pool_crashed  a worker death broke the pool; it was rebuilt
    sweep_end     one per invocation: executed count + interrupted flag

Writes are append + flush per event.  Telemetry is advisory -- the
loader (:func:`load_events`) skips torn or undecodable lines the same
way the run store's record loader does, so a crash mid-write costs one
line, never the timeline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional

from repro.runner.jobs import DONE, TIMEOUT, CellResult, JobSpec

TELEMETRY_NAME = "telemetry.jsonl"

SWEEP_BEGIN = "sweep_begin"
SCHEDULED = "scheduled"
STARTED = "started"
RETRIED = "retried"
FINISHED = "finished"
TIMED_OUT = "timed_out"
ERRORED = "errored"
POOL_CRASHED = "pool_crashed"
SWEEP_END = "sweep_end"

# CellResult.status -> completion event kind.
_COMPLETION_EVENTS = {DONE: FINISHED, TIMEOUT: TIMED_OUT}

# The metered summary lifted from a completed cell's record into its
# completion event (the record keeps the full metrics dict).  The fault
# counters appear in metrics -- and hence here -- only when events were
# actually injected, so clean timelines are unchanged.
_METER_FIELDS = ("rounds", "messages", "max_edge_congestion",
                 "faults_dropped", "faults_duplicated", "nodes_crashed")


def telemetry_path(run_path: "str | Path") -> Path:
    """Where a run directory keeps its timeline."""
    return Path(run_path) / TELEMETRY_NAME


class RunTelemetry:
    """Appends lifecycle events to one run's ``telemetry.jsonl``.

    The writer keeps the file handle open for the life of the sweep and
    flushes every event on write; ``close()`` (or use as a context
    manager) releases the handle.  Constructing the writer on an
    existing file *continues* it: the event ``seq`` picks up after the
    last recorded line, which is how resumed runs extend their
    timeline instead of restarting it.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = self._count_lines(self.path)
        self._fh: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")

    @staticmethod
    def _count_lines(path: Path) -> int:
        try:
            with open(path, "rb") as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields: Any) -> None:
        """Append one event (no-op after close)."""
        if self._fh is None:
            return
        self._seq += 1
        payload = {"seq": self._seq, "ts": time.time(), "event": event}
        payload.update(fields)
        self._fh.write(json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunTelemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Event builders (what the engine/executor call)
    # ------------------------------------------------------------------
    def sweep_begin(self, *, run_id: str, revision: str, resumed: bool,
                    planned: int, restored: int, todo: int,
                    workers: int, timeout: Optional[float],
                    retries: int, faults: Optional[List[str]] = None,
                    fault_seed: Optional[int] = None) -> None:
        fields: Dict[str, Any] = dict(
            run_id=run_id, revision=revision, resumed=resumed,
            planned=planned, restored=restored, todo=todo,
            workers=workers, timeout=timeout, retries=retries)
        if faults:
            fields["faults"] = list(faults)
            fields["fault_seed"] = fault_seed
        self.emit(SWEEP_BEGIN, **fields)

    def cell_scheduled(self, spec: JobSpec) -> None:
        self.emit(SCHEDULED, key=spec.key, **spec.as_dict())

    def cell_started(self, spec: JobSpec, attempt: int) -> None:
        """The executor's ``on_start`` hook: attempt dispatch events."""
        self.emit(STARTED if attempt <= 1 else RETRIED,
                  key=spec.key, attempt=attempt, **spec.as_dict())

    def cell_completed(self, result: CellResult) -> None:
        """The persist-path hook: one completion event per cell."""
        fields: Dict[str, Any] = dict(result.spec.as_dict())
        fields.update(key=result.key, status=result.status,
                      wall_time=result.wall_time, attempts=result.attempts,
                      passed=result.passed)
        if result.poisoned:
            fields["poisoned"] = True
        record = result.record
        if record is not None:
            for name in ("graph_source", "oracle_source",
                         "decomposition_source"):
                fields[name] = record.get(name)
            # Additive: absent for cells run under the reference engine
            # (their records omit the field entirely).
            if record.get("engine_source") not in (None, "none"):
                fields["engine_source"] = record["engine_source"]
            if record.get("fault_profile"):
                fields["fault_profile"] = record["fault_profile"]
                fields["fault_verdict"] = record.get("fault_verdict")
            metrics = record.get("metrics") or {}
            for name in _METER_FIELDS:
                if name in metrics:
                    fields[name] = metrics[name]
        self.emit(_COMPLETION_EVENTS.get(result.status, ERRORED), **fields)

    def pool_crashed(self, in_flight: List[JobSpec],
                     rebuilds: int) -> None:
        """The executor's ``on_pool_crash`` hook: a worker death broke
        the pool; the listed cells were in flight and will re-run solo
        (or be poisoned)."""
        self.emit(POOL_CRASHED, rebuilds=rebuilds,
                  cells=[spec.key for spec in in_flight])

    def sweep_end(self, *, executed: int, restored: int,
                  interrupted: bool) -> None:
        self.emit(SWEEP_END, executed=executed, restored=restored,
                  interrupted=interrupted)


def load_events(path: "str | Path") -> List[Dict[str, Any]]:
    """Every decodable event of one timeline, in file (= seq) order.

    Missing file -> empty list; torn/undecodable lines are skipped
    (telemetry is advisory and must never poison reporting).
    """
    path = Path(path)
    events: List[Dict[str, Any]] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError:
        return events
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict) and "event" in event:
                events.append(event)
    return events
