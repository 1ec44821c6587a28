"""Distributed Bellman-Ford machines (BCONGEST) for weighted shortest paths.

These machines are the weighted-APSP workload plugged into the Theorem
2.1 simulation to realize Theorem 1.1.  They stand in for the
Bernstein-Nanongkai round-optimal algorithm, which the simulation only
consumes as "some BCONGEST algorithm computing weighted APSP".

Semantics: distance estimates flood the network; a node broadcasts
(source, new-estimate) whenever an estimate improves.  On a graph with n
nodes and no negative cycles, estimates converge after at most n-1
synchronous rounds per source (plus the start delay), because after k
rounds every shortest path using at most k edges has been relaxed.
Negative and asymmetric (directed) weights are supported: the estimate a
node adopts from neighbor u uses the *directed* weight w(u -> self), and
message direction is what defines the path direction, so each node ends
up with d(source -> self) for every source.

Like the BFS collection, the multi-source machine is aggregation-based:
the aggregate keeps, per source, the minimal (distance, origin) record --
an idempotent min per Definition 3.1.  Also like it, the collection is
its shared delay map ``{source: start_round}``, and
:func:`message_budget` is the one word budget its drivers run it under
(the Theorem 3.10 star simulation gives its aggregate packets twice
that; see :func:`repro.core.weighted_apsp.weighted_apsp_tradeoff`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.congest.machine import Machine
from repro.congest.network import Inbox, NodeInfo

BFPayload = Dict[int, Tuple[float, int]]


def message_budget(n: int) -> int:
    """Words per broadcast of a :class:`BellmanFordCollectionMachine` on
    n nodes: the O(log² n) payload the random delays keep each
    broadcast within w.h.p. (each broadcast carries the sources
    improved in one round)."""
    return max(24, 6 * int(math.log2(max(n, 2))) ** 2)


class BellmanFordCollectionMachine(Machine):
    """Multi-source distributed Bellman-Ford with random start delays.

    delays:
        ``{source: start_round}``, shared random delays spreading the
        sources out so that per-round payloads stay O(log n) words; its
        keys are the sources, each source id being its node's id.

    The machine halts ``n`` rounds after the last start (Bellman-Ford's
    n-1 plus slack), giving the simulation a concrete T_A, as the paper
    assumes ("known upper bound on the runtime").

    Output: ``{source: (distance, parent)}``.
    """

    def __init__(self, info: NodeInfo, delays: Dict[int, int]):
        super().__init__(info)
        self.delays = delays
        self.deadline = (max(delays.values()) if delays else 1) + info.n
        self.dist: Dict[int, float] = {}
        self.parent: Dict[int, Optional[int]] = {}
        self.own = [info.id] if info.id in delays else []
        self.started: set = set()
        self.set_output({})

    def wake_round(self, rnd: int) -> Optional[int]:
        starts = [self.delays[j] for j in self.own if j not in self.started]
        pending = min(starts) if starts else None
        if not self.halted:
            # Must observe the deadline to halt even if idle.
            return pending if pending is not None else self.deadline
        return pending

    @staticmethod
    def aggregate(messages: List[Tuple[int, BFPayload]],
                  ) -> List[Tuple[int, BFPayload]]:
        """Idempotent per-source min (Definition 3.1).

        Unlike BFS, Bellman-Ford distances arriving at a node depend on
        the incoming edge weight, so aggregation happens on the
        *announced* (distance-at-origin, origin) records and the receiver
        applies its own incident weights.  Keeping the minimal record per
        source per distinct origin would be exact; keeping the minimal
        record per source is correct here because the receiver re-relaxes
        through the recorded origin only if that origin is its neighbor.
        To stay exact for all topologies we keep the best record *per
        (source, origin)* pair, which is still O(log n) entries w.h.p.
        """
        best: Dict[Tuple[int, int], Tuple[float, int]] = {}
        for _src, payload in messages:
            for source, record in payload.items():
                key = (source, record[1])
                if key not in best or record < best[key]:
                    best[key] = record
        out: List[Tuple[int, BFPayload]] = []
        merged: Dict[int, Dict[int, Tuple[float, int]]] = {}
        for (source, origin), record in best.items():
            merged.setdefault(origin, {})[source] = record
        for origin, payload in sorted(merged.items()):
            out.append((origin, payload))
        return out

    def on_round(self, rnd: int, inbox: Inbox) -> Optional[BFPayload]:
        if self.halted:
            return None
        updates: BFPayload = {}
        for j in self.own:
            if j not in self.started and self.delays[j] <= rnd:
                self.started.add(j)
                if j not in self.dist or self.dist[j] > 0:
                    self.dist[j] = 0
                    self.parent[j] = None
                    updates[j] = (0, self.info.id)
        improved: Dict[int, Tuple[float, int]] = {}
        for _env_src, payload in inbox:
            for source, (d_at_origin, origin) in payload.items():
                if origin not in self.info.neighbors:
                    continue
                candidate = d_at_origin + self._weight_from(origin)
                current = self.dist.get(source)
                if current is None or candidate < current:
                    record = (candidate, origin)
                    if source not in improved or record < improved[source]:
                        improved[source] = record
        for source, (candidate, origin) in improved.items():
            current = self.dist.get(source)
            if current is None or candidate < current:
                self.dist[source] = candidate
                self.parent[source] = origin
                updates[source] = (candidate, self.info.id)
        self.set_output({j: (self.dist[j], self.parent.get(j))
                         for j in self.dist})
        if rnd >= self.deadline:
            self.halted = True
        return updates or None

    def _weight_from(self, origin: int) -> float:
        """Weight of the directed edge origin -> self."""
        if self.info.weights is None:
            return 1
        return self.info.weight_from(origin)
