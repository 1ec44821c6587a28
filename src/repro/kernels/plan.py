"""The whole-execution replay plan consumed by the Theorem 2.1 driver.

A kernel resolves the entire BCONGEST execution -- the broadcast table
(who broadcasts in each phase, and how many words), the final per-node
outputs with their sizes, and the executed-phase count -- and
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
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np


def collection_outputs(sources: Sequence[int], dist: np.ndarray,
                       parent: np.ndarray, reached: np.ndarray,
                       ) -> Tuple[Dict[int, Dict[int, Any]], List[int]]:
    """``({v: {j: (dist, parent)}}, output_words)`` of a collection.

    ``dist``, ``parent`` and ``reached`` are (k, n) arrays, row ``i``
    for source ``sources[i]`` (ascending), so each node's entries are
    keyed in ascending source order, exactly as the machines report.
    A reached entry whose parent is < 0 is the source's own ``(0,
    None)``; every other value is the Python int or float ``tolist``
    gives, so an integer-valued collection passes an int64 ``dist``.
    The sizes follow :func:`repro.core.bcongest_sim.output_words`: 3
    words an entry, ``None`` free.
    """
    outputs: Dict[int, Dict[int, Any]] = {v: {} for v in range(dist.shape[1])}
    for j, drow, prow, rrow in zip(sources, dist.tolist(), parent.tolist(),
                                   reached):
        for v in np.flatnonzero(rrow).tolist():
            p = prow[v]
            outputs[v][j] = (0, None) if p < 0 else (drow[v], p)
    words = 3 * reached.sum(axis=0) - (reached & (parent < 0)).sum(axis=0)
    return outputs, words.tolist()


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
    outputs:
        ``{node: output}`` as the machines would report at halt.
    output_words:
        Per node (indexed by id), ``output_words`` of its output, which
        the kernel counts from the arrays it built the outputs from
        (:func:`collection_outputs`).
    executed_phases:
        The phase counter value the machine loop would end on.
    """

    phase: np.ndarray
    node: np.ndarray
    words: np.ndarray
    outputs: Dict[int, Any]
    output_words: List[int]
    executed_phases: int
