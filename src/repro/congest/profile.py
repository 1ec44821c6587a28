"""Round-resolved execution profiling: per-round metric time series.

The paper's claims are *per-round* statements -- round complexity
(§1.1.1), broadcast complexity (§1.1.2), and the congestion + dilation
framework with the congestion-smoothing lemma (§1.4.1, Lemma 3.8) --
but :class:`~repro.congest.metrics.Metrics` only accumulates execution
totals.  A :class:`RoundProfiler` attached to a
:class:`~repro.congest.network.Network` records what each executed
round *added*: messages, words, broadcasts, the congestion landed this
round (max + quantiles over the per-edge deltas), how many nodes acted
/ had halted / had crashed, and the fault events injected -- one row
per round, compacted into numpy column arrays by :meth:`RoundProfiler.
profile`.

Attachment shares the fault plan's ambient holder: open a
:func:`~repro.congest.cell.cell_context` with ``profiler=`` and every
Network constructed inside the block records into it, one **segment**
per execution -- so a driver that composes several machine collections
(APSP's BFS phases, the staged pipeline) yields one multi-segment
timeline with per-segment totals taken from the real :class:`Metrics`
deltas.  ``run_differential(..., profiler=)`` opens that context around
the binding's execution only: the graph, oracle and decomposition
resolves stay out of the timeline, so it does not depend on cache
state.  Drivers can additionally call :func:`mark_phase` to drop named
markers into the timeline (a no-op outside a profiled context).

Profiling is strictly opt-in: when no profiler is installed the
network's round loop performs a single ``is not None`` check per round
and nothing else.  When one *is* installed, each recorded round
snapshots the metrics (O(edges touched)) -- the honest price of a
per-round series.

The sum of a segment's per-round deltas equals the execution's final
``Metrics`` exactly, on both the scalar and the vectorized delivery
path -- pinned by the property tests in ``tests/test_profile.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.congest.cell import current_cell
from repro.congest.metrics import Metrics

# The per-round columns, in canonical order.  Integer columns except
# the congestion quantiles (linear-interpolated, hence float).
INT_COLUMNS = ("round", "segment", "messages", "words", "broadcasts",
               "congestion_max", "active", "halted", "crashed",
               "faults_dropped", "faults_duplicated", "nodes_crashed")
QUANTILES = (0.5, 0.9, 0.99)
FLOAT_COLUMNS = tuple(f"congestion_p{int(q * 100)}" for q in QUANTILES)
COLUMNS = INT_COLUMNS + FLOAT_COLUMNS

# The additive columns: summing one over a segment's rows reproduces
# the matching field of the execution's final Metrics exactly.
ADDITIVE_COLUMNS = ("messages", "words", "broadcasts", "faults_dropped",
                    "faults_duplicated", "nodes_crashed")


@dataclass
class RoundProfile:
    """A compacted per-round timeline: column arrays + phase markers.

    ``columns`` maps every name in :data:`COLUMNS` to one array, all of
    equal length (one entry per recorded round -- rounds the idle
    fast-forward skipped have no row, which is why the ``round`` column
    is explicit).  ``segments`` carries one dict per execution run
    under the profiler: ``label``, ``start_row``, ``rows``, and
    ``totals`` (the execution's real ``Metrics`` delta, via
    ``as_dict()`` plus ``max_message_words``).  ``phases`` is the list
    of ``(row_index, name)`` markers declared via :func:`mark_phase`
    (the marker names the rows from ``row_index`` up to the next
    marker or segment end).
    """

    columns: Dict[str, np.ndarray]
    phases: List[Tuple[int, str]] = field(default_factory=list)
    segments: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def rounds_executed(self) -> int:
        return int(len(self.columns["round"]))

    def totals(self) -> Dict[str, int]:
        """Sums of the additive columns over the whole timeline."""
        return {name: int(self.columns[name].sum())
                for name in ADDITIVE_COLUMNS}

    def peak_congestion(self) -> Tuple[int, int]:
        """``(round, per-round congestion max)`` of the hottest round."""
        cong = self.columns["congestion_max"]
        if len(cong) == 0:
            return (0, 0)
        index = int(cong.argmax())
        return (int(self.columns["round"][index]), int(cong[index]))

    def phase_of_row(self, row: int) -> str:
        """The innermost phase marker covering ``row`` ('' if none)."""
        name = ""
        for start, marker in self.phases:
            if start > row:
                break
            name = marker
        return name


class RoundProfiler:
    """Collects per-round metric deltas; compact with :meth:`profile`.

    One profiler can span several executions (segments); reuse across
    sweep cells is not intended -- capture one profiler per cell.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple] = []
        self._quantile_rows: List[Tuple[float, ...]] = []
        self._phases: List[Tuple[int, str]] = []
        self._segments: List[Dict[str, Any]] = []
        self._prev: Optional[Metrics] = None
        self._segment_start: Optional[Metrics] = None

    # ------------------------------------------------------------------
    # Hooks called by Network.run (guarded by `profiler is not None`).
    # ------------------------------------------------------------------
    def begin_execution(self, metrics: Metrics) -> None:
        """A new Network execution starts recording under this profiler."""
        self.close_open_segment()
        snapshot = metrics.snapshot()
        self._prev = snapshot
        self._segment_start = snapshot
        self._segments.append({
            "label": f"exec-{len(self._segments)}",
            "start_row": len(self._rows),
            "rows": 0,
            "totals": None,
        })

    def record_round(self, rnd: int, metrics: Metrics, *,
                     acted: int, halted: int, crashed: int) -> None:
        """Record what this round added on top of the previous snapshot.

        A row is appended when any node acted or any meter moved (fault
        crashes can land in rounds where every recipient has halted);
        all-quiet rounds leave no row, so segment sums stay exact
        without storing zeros.
        """
        prev = self._prev
        messages = metrics.messages - prev.messages
        words = metrics.words - prev.words
        broadcasts = metrics.broadcasts - prev.broadcasts
        dropped = metrics.faults_dropped - prev.faults_dropped
        duplicated = metrics.faults_duplicated - prev.faults_duplicated
        crashes = metrics.nodes_crashed - prev.nodes_crashed
        if not (acted or messages or dropped or duplicated or crashes):
            return
        congestion = metrics.edge_congestion - prev.edge_congestion
        if congestion:
            loads = np.fromiter(congestion.values(), dtype=np.int64,
                                count=len(congestion))
            congestion_max = int(loads.max())
            quantiles = tuple(float(q) for q in
                              np.quantile(loads, QUANTILES))
        else:
            congestion_max = 0
            quantiles = (0.0,) * len(QUANTILES)
        segment = self._segments[-1] if self._segments else None
        self._rows.append((
            rnd, len(self._segments) - 1 if segment else 0,
            messages, words, broadcasts, congestion_max,
            acted, halted, crashed, dropped, duplicated, crashes))
        self._quantile_rows.append(quantiles)
        if segment is not None:
            segment["rows"] += 1
        self._prev = metrics.snapshot()

    def end_execution(self, metrics: Metrics) -> None:
        """Close the open segment; totals are the real Metrics delta."""
        if not self._segments or self._segment_start is None:
            return
        delta = metrics.delta_since(self._segment_start)
        totals = delta.as_dict()
        totals["max_message_words"] = delta.max_message_words
        self._segments[-1]["totals"] = totals
        self._segment_start = None

    def close_open_segment(self) -> None:
        """Close a segment an aborted execution left open.

        Normal executions close via :meth:`end_execution` with the live
        metrics; one that raised out of ``Network.run`` (a model
        violation, or a fault livelock graded ``diverged``) never
        reaches it.  The last per-round snapshot is a full ``Metrics``
        copy, so the segment's totals are still the exact delta up to
        the last recorded round (``rounds`` stays 0 -- the aborted
        execution never committed a round count).
        """
        if not self._segments or self._segment_start is None:
            return
        if self._segments[-1]["totals"] is None and self._prev is not None:
            self.end_execution(self._prev)
        self._segment_start = None

    # ------------------------------------------------------------------
    def mark_phase(self, name: str) -> None:
        """Drop a named marker at the current timeline position."""
        self._phases.append((len(self._rows), str(name)))

    def profile(self) -> RoundProfile:
        """Compact everything recorded so far into column arrays."""
        self.close_open_segment()
        count = len(self._rows)
        columns: Dict[str, np.ndarray] = {}
        for index, name in enumerate(INT_COLUMNS):
            columns[name] = np.fromiter(
                (row[index] for row in self._rows), dtype=np.int64,
                count=count)
        for index, name in enumerate(FLOAT_COLUMNS):
            columns[name] = np.fromiter(
                (row[index] for row in self._quantile_rows),
                dtype=np.float64, count=count)
        segments = [dict(segment) for segment in self._segments]
        return RoundProfile(columns=columns, phases=list(self._phases),
                            segments=segments)


def mark_phase(name: str) -> None:
    """Declare a named phase boundary on the cell's profiler (no-op
    outside a profiled cell context -- drivers call this unconditionally)."""
    profiler = current_cell().profiler
    if profiler is not None:
        profiler.mark_phase(name)
