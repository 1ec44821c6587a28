"""Luby's maximal independent set as a BCONGEST machine.

Cited in the paper (§1) as a canonical broadcast-based algorithm whose
broadcast complexity (O(n log n) w.h.p. -- each node broadcasts O(1)
times per phase and survives O(log n) phases) is far below its message
complexity (Theta(m log n)).  Used here as a second, structurally
different workload for the Theorem 2.1 simulation (benchmark E11) and
for the simulation-equivalence tests.

Each phase takes three rounds: (1) every live node broadcasts a random
priority; (2) local minima join the MIS and broadcast "in"; (3) their
neighbors broadcast "out" and die.  Priorities are drawn from the
node's private PRNG stream, so direct and simulated executions make
identical choices.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.congest.machine import Machine
from repro.congest.network import Inbox, NodeInfo


class LubyMISMachine(Machine):
    """One node's view of Luby's algorithm.  Output: True iff in the MIS."""

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        self.live_neighbors = set(info.neighbors)
        self.priority: Optional[Tuple[float, int]] = None
        self.nbr_priorities = {}

    def on_round(self, rnd: int, inbox: Inbox):
        if self.halted:
            return None
        stage = (rnd - 1) % 3
        if stage == 0:
            # "out" announcements from the previous phase arrive now.
            for src, msg in inbox:
                if msg[0] == "out":
                    self.live_neighbors.discard(src)
            if not self.live_neighbors:
                # Every competitor is gone: join by default.
                self.set_output(True)
                self.halted = True
                return None
            self.nbr_priorities = {}
            self.priority = (self.rng.random(), self.info.id)
            return ("prio", self.priority[0])
        if stage == 1:
            for src, msg in inbox:
                if msg[0] == "prio" and src in self.live_neighbors:
                    self.nbr_priorities[src] = (msg[1], src)
            assert self.priority is not None
            if all(self.priority < p for p in self.nbr_priorities.values()):
                self.set_output(True)
                self.halted = True
                return ("in",)
            return None
        # stage == 2: a joining neighbor eliminates this node.
        joined = any(msg[0] == "in" and src in self.live_neighbors
                     for src, msg in inbox)
        if joined:
            self.set_output(False)
            self.halted = True
            return ("out",)
        return None
