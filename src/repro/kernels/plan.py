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
from typing import Any, Dict, List

import numpy as np


def collection_output_words(entries: np.ndarray,
                            parentless: np.ndarray) -> List[int]:
    """Per node, the ``output_words`` of a ``{source: (dist, parent)}``
    output, from the node's entry count and its count of ``None``
    parents: 3 words an entry, ``None`` free.  This is the kernels' one
    copy of :func:`repro.core.bcongest_sim.output_words`' rule for that
    shape."""
    return (3 * entries - parentless).tolist()


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
        (:func:`collection_output_words`).
    executed_phases:
        The phase counter value the machine loop would end on.
    """

    phase: np.ndarray
    node: np.ndarray
    words: np.ndarray
    outputs: Dict[int, Any]
    output_words: List[int]
    executed_phases: int
