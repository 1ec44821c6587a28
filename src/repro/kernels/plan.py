"""The whole-execution replay plan consumed by the Theorem 2.1 driver.

A kernel resolves the entire BCONGEST execution -- every phase's
broadcasters with their literal payloads, the final per-node outputs,
and the executed-phase count -- and :func:`repro.core.bcongest_sim.
simulate_bcongest` replays it: the identical per-phase transport packets
are routed through the identical metered primitives, so the resulting
:class:`~repro.congest.metrics.Metrics` are byte-identical to stepping
the machines, while the per-node/per-round Python dispatch of the
machine loop disappears.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

Phase = Tuple[int, List[Tuple[int, Any, int]]]


class BcongestPlan:
    """A fully-resolved BCONGEST execution, streamed one phase at a time.

    phase_payloads:
        An iterator of ``(phase, [(node, payload, words), ...])`` --
        phases ascending, broadcasters ascending within a phase,
        payloads the literal objects the machines would have returned,
        and ``words`` their ``payload_words`` size, which the kernel
        knows from the shape it built (so the oversize check and the
        transport packets' declared sizes reproduce exactly without
        re-sizing).  The kernel computes each phase when it is asked
        for, so a plan never holds more than one phase's payloads.
    outputs:
        ``{node: output}`` as the machines would report at halt.
    executed_phases:
        The phase counter value the machine loop would end on.

    ``phases`` yields every phase and then returns ``(outputs,
    executed_phases)``; both attributes are None until then.
    """

    def __init__(self,
                 phases: Generator[Phase, None, Tuple[Dict[int, Any], int]]):
        self.outputs: Optional[Dict[int, Any]] = None
        self.executed_phases: Optional[int] = None
        self.phase_payloads: Iterator[Phase] = self._drain(phases)

    def _drain(self, phases) -> Iterator[Phase]:
        self.outputs, self.executed_phases = yield from phases
