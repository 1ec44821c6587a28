"""A collection's result as arrays, and the whole-execution replay plan.

:class:`CollectionResult` alone writes and reads the machines' ``{v: {j:
(dist, parent)}}`` outputs; sizes, distance matrix and parent map come
from its arrays, so a kernel-served APSP cell builds no output dict.

A kernel resolves the entire BCONGEST execution -- the broadcast table
(who broadcasts in each phase, and how many words), the collection's
result and the executed-phase count -- and
:func:`repro.core.bcongest_sim.simulate_bcongest` replays it: the same
transport packets (paths, declared sizes, order) are metered by
:func:`~repro.primitives.transport.route_phases`, which reproduces one
:func:`~repro.primitives.transport.route_packets` call per phase, so
the resulting :class:`~repro.congest.metrics.Metrics` are byte-identical
to stepping the machines, while the per-node/per-round Python dispatch
of the machine loop and the per-phase transport loop disappear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional

import numpy as np

INF = float("inf")


@dataclass(frozen=True)
class CollectionResult:
    """Row ``i`` of each (k, n) array is source ``sources[i]`` (ascending);
    a ``reached`` entry with ``parent`` -1 is the source's own ``(0,
    None)``.  ``dist`` (0 where unreached) is a kernel's int64 or float64,
    or the machines' values as reported (an object array)."""

    sources: np.ndarray
    dist: np.ndarray
    parent: np.ndarray
    reached: np.ndarray

    @classmethod
    def from_outputs(cls, outputs: Dict[int, Any]) -> "CollectionResult":
        """The record of machines' ``{v: {j: (dist, parent)}}`` outputs
        (``None`` where a node reports nothing)."""
        n = len(outputs)
        entries = [(j, v, d, -1 if p is None else p)
                   for v, out in outputs.items()
                   for j, (d, p) in (out or {}).items()]
        sources = sorted({entry[0] for entry in entries})
        row = {j: i for i, j in enumerate(sources)}
        flat = [row[j] * n + v for j, v, _d, _p in entries]
        dist = np.zeros((len(sources), n), dtype=object)
        parent = np.full(dist.shape, -1, dtype=np.int64)
        reached = np.zeros(dist.shape, dtype=bool)
        dist.reshape(-1)[flat] = [entry[2] for entry in entries]
        parent.reshape(-1)[flat] = [entry[3] for entry in entries]
        reached.reshape(-1)[flat] = True
        return cls(np.array(sources, dtype=np.int64), dist, parent, reached)

    @cached_property
    def outputs(self) -> Dict[int, Dict[int, Any]]:
        """``{v: {j: (dist, parent)}}`` as the machines report at halt,
        each node's entries in ascending source order."""
        outputs = {v: {} for v in range(self.dist.shape[1])}
        for j, drow, prow, rrow in zip(self.sources.tolist(),
                                       self.dist.tolist(),
                                       self.parent.tolist(), self.reached):
            for v in np.flatnonzero(rrow).tolist():
                p = prow[v]
                outputs[v][j] = (0, None) if p < 0 else (drow[v], p)
        return outputs

    def output_words(self) -> List[int]:
        """Per node, :func:`repro.core.bcongest_sim.output_words` of its
        output: 3 words an entry, the source's own ``None`` free."""
        own = self.reached & (self.parent < 0)
        return (3 * self.reached.sum(axis=0) - own.sum(axis=0)).tolist()

    def distance_matrix(self, *, symmetric: bool) -> List[List[float]]:
        """The n x n matrix: ``dist[j][v]`` (and ``dist[v][j]`` when
        ``symmetric``) is the least distance reported, every unreported
        pair ``inf``, and the diagonal an int 0 unless a node reports
        less for itself (a negative cycle)."""
        n = self.dist.shape[1]
        matrix = np.full((n, n), INF, dtype=object)
        matrix[self.sources] = np.where(self.reached,
                                        self.dist.astype(object), INF)
        if symmetric:
            matrix = np.where(matrix.T < matrix, matrix.T, matrix)
        i = np.arange(n)
        matrix[i, i] = np.where(matrix[i, i] < 0, matrix[i, i], 0)
        return matrix.tolist()

    def parents(self) -> Dict[int, Dict[int, Optional[int]]]:
        """``{v: {j: parent}}`` over the sources that reached each node,
        ``None`` at the source itself."""
        parent = self.parent.T.astype(object)
        parent[self.parent.T < 0] = None
        return {v: dict(zip(self.sources[r].tolist(), parent[v][r].tolist()))
                for v, r in enumerate(self.reached.T)}


@dataclass(frozen=True)
class BcongestPlan:
    """A fully-resolved BCONGEST execution.

    phase, node, words:
        The broadcast table, three equal-length int64 arrays with one
        entry per broadcast, sorted by (phase, node): the broadcaster
        and the ``payload_words`` size of the payload the machine would
        have broadcast, which the kernel counts from the table's shape
        (so the oversize check and the transport packets' declared
        sizes reproduce exactly).
    result:
        The collection's :class:`CollectionResult`.
    executed_phases:
        The phase counter value the machine loop would end on.
    """

    phase: np.ndarray
    node: np.ndarray
    words: np.ndarray
    result: CollectionResult
    executed_phases: int
