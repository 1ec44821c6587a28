"""A literal realization of Theorem 1.3: concurrent execution of many
machine collections under shared edge capacity.

Ghaffari's scheduler [17] runs ell independent algorithms together so
that the composition completes in Õ(congestion + dilation) rounds.  Two
ingredients make that work: random start delays (spreading each edge's
load over time) and *pacing* -- an algorithm's round r + 1 starts only
once all of its round-r messages have been delivered, so each component
algorithm still experiences a perfectly synchronous execution and
computes exactly what it would alone.

This module implements both literally.  Per network round, every edge
direction transmits at most one queued message (FIFO; ties between
algorithms resolved by their delay order, which is how the random
delays manifest).  A component advances its own round only when its
previous round's messages have all been delivered AND its start delay
has passed.  Outputs are therefore byte-identical to isolated runs,
while rounds and per-edge congestion are genuinely shared -- the
quantity Theorem 1.3 bounds, measured rather than estimated.

The engine deliberately trades wall-clock efficiency for fidelity: it
is used by tests and benchmark E4b to validate the
Õ(congestion + dilation) claim on real concurrent executions, and it
is the literal counterpart of the formula-based accounting that
:mod:`repro.core.bfs_collections` applies to the batched Lemma 3.23
pipeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.congest.errors import AlgorithmError
from repro.congest.machine import MachineFactory, MachineSet
from repro.congest.metrics import Metrics
from repro.graphs.graph import Graph

# Livelock guard on the shared wall clock.
_MAX_ROUNDS = 2_000_000


@dataclass
class ComposedExecution:
    """Result of one concurrent composition."""

    outputs: List[Dict[int, Any]]       # per component, per node
    metrics: Metrics                    # shared network costs
    component_rounds: List[int]         # internal rounds per component
    completion_round: int               # shared wall-clock rounds
    congestion: int                     # max shared per-edge load
    dilation: int                       # max isolated component rounds
    delays: List[int] = field(default_factory=list)


class _Component:
    """One algorithm's machines plus its pacing state."""

    def __init__(self, index: int, graph: Graph, factory: MachineFactory,
                 *, seed: int, delay: int):
        self.index = index
        self.delay = delay
        self.machines = MachineSet(graph, factory, seed=seed)
        self.round = 0
        self.in_flight = 0
        self.next_inboxes: Dict[int, List[Tuple[int, Any]]] = {}
        self.done = False

    def ready_to_step(self, wall_round: int) -> bool:
        if self.done or wall_round < self.delay:
            return False
        return self.in_flight == 0

    def step(self) -> List[Tuple[int, int, Any]]:
        """Advance one internal round; return (src, dst, payload) sends.

        Idle internal rounds still take a wall round each; the component
        is done once no machine would act again."""
        if self.machines.next_round(self.round, self.next_inboxes) is None:
            self.done = True
            return []
        self.round += 1
        inboxes, self.next_inboxes = self.next_inboxes, {}
        sends = [(v, u, payload) for v, payload
                 in self.machines.step(self.round, inboxes).items()
                 for u in self.machines.graph.neighbors(v)]
        self.in_flight = len(sends)
        return sends

    def deliver(self, src: int, dst: int, payload: Any) -> None:
        self.next_inboxes.setdefault(dst, []).append((src, payload))
        self.in_flight -= 1


def compose_machines(graph: Graph, factories: List[MachineFactory], *,
                     seed: int = 0) -> ComposedExecution:
    """Run all factories concurrently under shared CONGEST capacity.

    Each component's machines see a perfectly synchronous execution (the
    pacing barrier), so outputs equal isolated runs; the shared rounds
    and congestion realize Theorem 1.3's composition.  Component j
    starts after the shared random delay
    :func:`~repro.congest.scheduler.random_delays` draws for it.
    """
    ell = len(factories)
    if ell == 0:
        raise ValueError("need at least one component")
    from repro.congest.scheduler import random_delays
    delays = list(random_delays(range(ell), "compose", seed).values())

    components = [
        _Component(idx, graph, factory, seed=seed, delay=delays[idx])
        for idx, factory in enumerate(factories)]

    # Per directed edge: FIFO of (component, src, dst, payload).
    queues: Dict[Tuple[int, int], deque] = {}
    metrics = Metrics()
    wall = 0
    last_activity = 0
    while True:
        wall += 1
        if wall > _MAX_ROUNDS:
            raise AlgorithmError("composition exceeded max_rounds")
        # Step every component whose previous round has fully landed.
        for comp in components:
            if comp.ready_to_step(wall):
                for src, dst, payload in comp.step():
                    queues.setdefault((src, dst), deque()).append(
                        (comp.index, src, dst, payload))
        # Transmit one message per directed edge.
        busy = False
        for key in sorted(queues):
            queue = queues[key]
            if not queue:
                continue
            busy = True
            comp_idx, src, dst, payload = queue.popleft()
            metrics.record_send(src, dst, 1)
            components[comp_idx].deliver(src, dst, payload)
        if busy:
            last_activity = wall
        if all(c.done for c in components) and not any(queues.values()):
            break
        if not busy and all(not c.ready_to_step(wall) or c.done
                            for c in components):
            # Only start delays remain: fast-forward.
            pending = [c.delay for c in components
                       if not c.done and c.delay > wall]
            if pending:
                wall = min(pending) - 1
            elif all(c.done for c in components):
                break

    outputs = [comp.machines.outputs() for comp in components]
    congestion = metrics.max_edge_congestion
    dilation = max(c.round for c in components)
    metrics.rounds = last_activity
    return ComposedExecution(
        outputs=outputs, metrics=metrics,
        component_rounds=[c.round for c in components],
        completion_round=last_activity,
        congestion=congestion, dilation=dilation, delays=delays)
