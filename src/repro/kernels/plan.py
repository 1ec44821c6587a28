"""The whole-execution replay plan consumed by the Theorem 2.1 driver.

A kernel resolves the entire BCONGEST execution -- the broadcast
schedule (who broadcasts in each phase, and how many words), the final
per-node outputs with their sizes, and the executed-phase count -- and
:func:`repro.core.bcongest_sim.simulate_bcongest` replays it: the same
per-phase transport packets (paths, declared sizes, order) are metered
by :func:`~repro.primitives.transport.route_phases`, which reproduces
one :func:`~repro.primitives.transport.route_packets` call per phase, so
the resulting :class:`~repro.congest.metrics.Metrics` are byte-identical
to stepping the machines, while the per-node/per-round Python dispatch
of the machine loop and the per-phase transport loop disappear.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

import numpy as np

# (phase, [(node, words), ...]): one phase of the broadcast schedule.
Phase = Tuple[int, List[Tuple[int, int]]]


def collection_output_words(entries: np.ndarray,
                            parentless: np.ndarray) -> List[int]:
    """Per node, the ``output_words`` of a ``{source: (dist, parent)}``
    output, from the node's entry count and its count of ``None``
    parents: 3 words an entry, ``None`` free.  This is the kernels' one
    copy of :func:`repro.core.bcongest_sim.output_words`' rule for that
    shape."""
    return (3 * entries - parentless).tolist()


class BcongestPlan:
    """A fully-resolved BCONGEST execution, streamed one phase at a time.

    phase_broadcasts:
        The broadcast schedule, an iterator of ``(phase, [(node, words),
        ...])`` -- phases ascending, broadcasters ascending within a
        phase, and ``words`` the ``payload_words`` size of the payload
        the machine would have broadcast, which the kernel counts from
        the schedule's shape (so the oversize check and the transport
        packets' declared sizes reproduce exactly).  The kernel computes
        each phase when it is asked for, so a plan never holds more than
        one phase of the schedule.
    outputs:
        ``{node: output}`` as the machines would report at halt.
    output_words:
        Per node (indexed by id), ``output_words`` of its output, which
        the kernel counts from the arrays it built the outputs from
        (:func:`collection_output_words`).
    executed_phases:
        The phase counter value the machine loop would end on.

    ``phases`` yields every phase and then returns ``(outputs,
    output_words, executed_phases)``; the attributes are None until then.
    """

    def __init__(self, phases: Generator[
            Phase, None, Tuple[Dict[int, Any], List[int], int]]):
        self.outputs: Optional[Dict[int, Any]] = None
        self.output_words: Optional[List[int]] = None
        self.executed_phases: Optional[int] = None
        self.phase_broadcasts: Iterator[Phase] = self._drain(phases)

    def _drain(self, phases) -> Iterator[Phase]:
        (self.outputs, self.output_words,
         self.executed_phases) = yield from phases
