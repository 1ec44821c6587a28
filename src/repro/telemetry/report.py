"""Render a run's telemetry timeline for ``repro runs report``.

Three views over one run, all built from the persisted record set plus
the ``telemetry.jsonl`` timeline (when present):

* **slowest cells** -- the wall-time top of the record set, with
  status and attempt counts, so the cell dominating a slow sweep is
  one command away;
* **retry / timeout clusters** -- per-scenario counts of cells that
  needed retries, timed out, or errored: a cluster on one scenario is
  a workload problem, spread across all of them is an environment
  problem;
* **cache efficacy over time** -- completion events bucketed into
  timeline segments, per artifact family: the hit share should climb
  toward 1.0 as a sweep warms its stores, and a flat-low family says
  its store is disconnected or its keys are churning.

Tables render through :func:`repro.analysis.reporting.format_table`,
like every other CLI surface.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.runner.jobs import CellResult, error_headline
from repro.telemetry.events import (
    ERRORED,
    FINISHED,
    SWEEP_BEGIN,
    TIMED_OUT,
    load_events,
    telemetry_path,
)

_COMPLETION_KINDS = (FINISHED, TIMED_OUT, ERRORED)

_HIT_SOURCES = ("lru", "store")


def chain_fields() -> List[Tuple[str, str]]:
    """(event field, family) for every artifact-chain family, in chain
    order: the cache-efficacy columns.  The "none" provenance (cells
    without a baseline / decomposition input) does not count toward a
    family's total, mirroring the sweep summary."""
    from repro.runner.chain import all_chains
    from repro.testing.differential import PROVENANCE_FIELDS

    chains = all_chains()
    return [(field, family) for field, family in PROVENANCE_FIELDS.items()
            if family in chains]


def _hit_share(events: Sequence[Dict[str, Any]],
               field: str) -> Optional[float]:
    counted = [e.get(field) for e in events
               if e.get(field) not in (None, "none")]
    if not counted:
        return None
    return sum(1 for source in counted if source in _HIT_SOURCES) \
        / len(counted)


def _cache_efficacy_rows(completions: Sequence[Dict[str, Any]],
                         buckets: int = 5) -> List[tuple]:
    """Hit shares per timeline segment: the warm-up curve of a run."""
    rows: List[tuple] = []
    total = len(completions)
    if total == 0:
        return rows
    buckets = min(buckets, total)
    base, remainder = divmod(total, buckets)
    fields = [field for field, _family in chain_fields()]
    start = 0
    for index in range(buckets):
        size = base + (1 if index < remainder else 0)
        chunk = completions[start:start + size]
        start += size
        shares = [_hit_share(chunk, field) for field in fields]
        rows.append((f"{index + 1}/{buckets}", len(chunk),
                     *("-" if share is None else f"{share:.0%}"
                       for share in shares)))
    return rows


def _cluster_rows(results: Sequence[CellResult]) -> List[tuple]:
    """Per-scenario retry/timeout/error counts (only troubled rows)."""
    clusters: Dict[str, Dict[str, int]] = {}
    for result in results:
        bucket = clusters.setdefault(
            result.spec.scenario,
            {"cells": 0, "retried": 0, "timeouts": 0, "errors": 0})
        bucket["cells"] += 1
        if result.attempts > 1:
            bucket["retried"] += 1
        if result.status == "timeout":
            bucket["timeouts"] += 1
        elif result.status == "error":
            bucket["errors"] += 1
    return [(scenario, b["cells"], b["retried"], b["timeouts"], b["errors"])
            for scenario, b in sorted(clusters.items())
            if b["retried"] or b["timeouts"] or b["errors"]]


def _slowest_rows(results: Sequence[CellResult], top: int) -> List[tuple]:
    ranked = sorted(results, key=lambda r: r.wall_time, reverse=True)[:top]
    return [(r.spec.scenario, r.spec.algorithm, r.spec.size, r.spec.seed,
             r.status, r.attempts, r.wall_time,
             "pass" if r.passed else
             (error_headline(r.error)[:40] or "FAIL"))
            for r in ranked]


def _hot_function_rows(results: Sequence[CellResult],
                       top: int) -> List[tuple]:
    """Top hot functions aggregated across all cells' cProfile rows.

    Each cell run under ``sweep --cprofile`` carries its own top-N
    ``[label, calls, cumulative_seconds]`` rows; summing per label
    across cells ranks the functions that dominate the *sweep*, not
    any single cell.  Empty when no cell was cProfiled.
    """
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    cells: Dict[str, int] = {}
    for result in results:
        for label, count, cumulative in result.hot or ():
            seconds[label] = seconds.get(label, 0.0) + float(cumulative)
            calls[label] = calls.get(label, 0) + int(count)
            cells[label] = cells.get(label, 0) + 1
    ranked = sorted(seconds, key=lambda label: (-seconds[label], label))
    return [(label, cells[label], calls[label], round(seconds[label], 4))
            for label in ranked[:top]]


def _fault_summary(results: Sequence[CellResult]) -> Dict[str, Any]:
    """Fault-injection totals over a run's record set (empty if clean)."""
    from repro.runner.engine import fault_counts

    out = fault_counts(results)
    poisoned = sum(1 for r in results if r.poisoned)
    if poisoned:
        out["poisoned"] = poisoned
    return out


def run_report_payload(run, *, top: int = 10) -> Dict[str, Any]:
    """The ``repro runs report --json`` payload for one stored run."""
    results = run.load_results()
    events = load_events(telemetry_path(run.path))
    completions = [e for e in events if e.get("event") in _COMPLETION_KINDS]
    efficacy_columns = ("segment", "cells",
                        *(family for _field, family in chain_fields()))
    payload = {
        "run_id": run.run_id,
        "revision": run.revision,
        "state": "complete" if run.is_complete() else "incomplete",
        "recorded": len(results),
        "planned": len(run.planned_keys),
        "passed": sum(1 for r in results if r.passed),
        "invocations": sum(1 for e in events
                           if e.get("event") == SWEEP_BEGIN),
        "telemetry_events": len(events),
        "wall_time_total": sum(r.wall_time for r in results),
        "slowest": [
            {"scenario": row[0], "algorithm": row[1], "size": row[2],
             "seed": row[3], "status": row[4], "attempts": row[5],
             "wall_time": row[6], "verdict": row[7]}
            for row in _slowest_rows(results, top)],
        "clusters": [
            {"scenario": row[0], "cells": row[1], "retried": row[2],
             "timeouts": row[3], "errors": row[4]}
            for row in _cluster_rows(results)],
        "cache_efficacy": [dict(zip(efficacy_columns, row))
                           for row in _cache_efficacy_rows(completions)],
    }
    # Fault-injection rollup, additive: absent for clean runs so their
    # report payloads keep the pre-fault-plane key set.
    faults = _fault_summary(results)
    if faults:
        payload["faults"] = faults
    # Engine-source rollup, additive: absent when every cell ran under
    # the reference engine.  Counted through the shared
    # provenance helper so the "none"-row rule matches the sweep
    # summary (the PR 6 drift lesson).
    from repro.runner.engine import provenance_counts

    engines = provenance_counts(results)["engines"]
    if engines:
        payload["engine_sources"] = engines
    # Hot-function rollup, additive the same way: present only when at
    # least one cell ran under sweep --cprofile.
    hot = _hot_function_rows(results, top)
    if hot:
        payload["hot_functions"] = [
            {"function": row[0], "cells": row[1], "calls": row[2],
             "seconds": row[3]} for row in hot]
    return payload


def run_report(run, *, top: int = 10) -> str:
    """Human-readable telemetry report for one stored run."""
    payload = run_report_payload(run, top=top)
    lines: List[str] = []
    lines.append(
        f"run {payload['run_id']} @ {payload['revision']} "
        f"({payload['state']}): {payload['passed']}/{payload['recorded']} "
        f"recorded cells passed, {payload['planned']} planned, "
        f"{payload['wall_time_total']:.2f}s total cell wall time")
    if payload["telemetry_events"]:
        lines.append(f"telemetry: {payload['telemetry_events']} events "
                     f"over {payload['invocations']} invocation(s)")
    else:
        lines.append("telemetry: no telemetry.jsonl recorded for this run "
                     "(the sweep predates it, or the file was removed)")
    faults = payload.get("faults")
    if faults:
        verdicts = faults.get("verdicts") or {}
        meters = faults.get("meters") or {}
        parts = [f"{verdicts[v]} {v}" for v in sorted(verdicts)]
        if meters:
            parts.append(", ".join(f"{meters[m]} {m.replace('_', ' ')}"
                                   for m in sorted(meters)))
        if faults.get("poisoned"):
            parts.append(f"{faults['poisoned']} poisoned cell(s)")
        lines.append("fault injection: " + "; ".join(parts))
    engines = payload.get("engine_sources")
    if engines:
        lines.append("engine sources: " + ", ".join(
            f"{engines[source]} {source}" for source in sorted(engines)))

    if payload["slowest"]:
        lines.append("")
        lines.append(format_table(
            ["scenario", "algorithm", "size", "seed", "status",
             "attempts", "wall-time", "verdict"],
            [(c["scenario"], c["algorithm"], c["size"], c["seed"],
              c["status"], c["attempts"], c["wall_time"], c["verdict"])
             for c in payload["slowest"]],
            title=f"slowest cells (top {len(payload['slowest'])}):"))

    lines.append("")
    if payload["clusters"]:
        lines.append(format_table(
            ["scenario", "cells", "retried", "timeouts", "errors"],
            [(c["scenario"], c["cells"], c["retried"], c["timeouts"],
              c["errors"]) for c in payload["clusters"]],
            title="retry/timeout clusters:"))
    else:
        lines.append("retry/timeout clusters: none "
                     "(every cell completed first try)")

    if payload["cache_efficacy"]:
        lines.append("")
        lines.append(format_table(
            list(payload["cache_efficacy"][0]),
            [tuple(c.values()) for c in payload["cache_efficacy"]],
            title="cache efficacy over the timeline (hit share per "
                  "completion segment):"))

    hot = payload.get("hot_functions")
    if hot:
        lines.append("")
        lines.append(format_table(
            ["function", "cells", "calls", "cum-seconds"],
            [(h["function"], h["cells"], h["calls"], h["seconds"])
             for h in hot],
            title=f"hot functions across cProfiled cells "
                  f"(top {len(hot)} by cumulative time):"))
    return "\n".join(lines)
